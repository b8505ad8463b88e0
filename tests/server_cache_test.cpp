#include "src/content/server_cache.h"

#include <algorithm>
#include <cstdint>
#include <list>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace cvr::content {
namespace {

/// Naive reference LRU (the pre-optimization std::list + map pairing);
/// the differential test below pins the cell-block cache to it.
class ReferenceLru {
 public:
  explicit ReferenceLru(ServerCacheConfig config) : config_(config) {}

  void advance(const GridCell& center) {
    const std::int32_t r = config_.window_radius_cells;
    for (std::int32_t dx = -r; dx <= r; ++dx) {
      for (std::int32_t dy = -r; dy <= r; ++dy) {
        const GridCell cell{center.gx + dx, center.gy + dy};
        for (int tile = 0; tile < kTilesPerFrame; ++tile) {
          for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
            touch_or_insert(pack_video_id({cell, tile, q}));
          }
        }
      }
    }
  }

  bool lookup(VideoId id) {
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return true;
    }
    ++misses_;
    touch_or_insert(id);
    return false;
  }

  bool contains(VideoId id) const { return map_.count(id) != 0; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  void touch_or_insert(VideoId id) {
    auto it = map_.find(id);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(id);
    map_[id] = lru_.begin();
    if (map_.size() > config_.capacity_tiles) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  ServerCacheConfig config_;
  std::list<VideoId> lru_;
  std::unordered_map<VideoId, std::list<VideoId>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Random walks + random lookups, comparing hits/misses/size and the
/// full per-id hit/miss sequence against the reference after every
/// operation. Small capacities force heavy eviction churn, including
/// capacities below one cell block.
void run_differential(std::size_t capacity, std::int32_t radius,
                      std::uint64_t seed, int ops) {
  ServerCacheConfig config;
  config.capacity_tiles = capacity;
  config.window_radius_cells = radius;
  ServerTileCache cache(config);
  ReferenceLru reference(config);
  cvr::Rng rng(seed);
  GridCell center{100, 100};
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.4) {
      center.gx += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      center.gy += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      cache.advance(center);
      reference.advance(center);
    } else {
      // Lookups around (and sometimes far from) the window: hits,
      // misses, and miss-then-insert transitions.
      const GridCell cell{
          center.gx + static_cast<std::int32_t>(rng.uniform_int(-6, 6)),
          center.gy + static_cast<std::int32_t>(rng.uniform_int(-6, 6))};
      const int tile = static_cast<int>(rng.uniform_int(0, kTilesPerFrame - 1));
      const QualityLevel q =
          static_cast<QualityLevel>(rng.uniform_int(1, kNumQualityLevels));
      const VideoId id = pack_video_id({cell, tile, q});
      ASSERT_EQ(cache.lookup(id), reference.lookup(id))
          << "op " << op << " id " << id;
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.hits(), reference.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  }
}

TEST(ServerTileCache, MatchesReferenceLruUnderChurn) {
  run_differential(/*capacity=*/500, /*radius=*/2, /*seed=*/1, /*ops=*/400);
  run_differential(/*capacity=*/2000, /*radius=*/3, /*seed=*/2, /*ops=*/300);
}

TEST(ServerTileCache, MatchesReferenceLruAtTinyCapacity) {
  // Below one cell block (4 tiles x 6 levels = 24 ids) eviction lands
  // inside the cell being advanced: the range stamp it just pushed is
  // itself partly consumed.
  run_differential(/*capacity=*/7, /*radius=*/1, /*seed=*/3, /*ops=*/300);
  run_differential(/*capacity=*/24, /*radius=*/0, /*seed=*/4, /*ops=*/300);
  run_differential(/*capacity=*/25, /*radius=*/1, /*seed=*/5, /*ops=*/300);
}

/// Compares residency of every id in the cells within `reach` of
/// `center` (contains() touches neither structure's recency).
void expect_same_residency(const ServerTileCache& cache,
                           const ReferenceLru& reference, GridCell center,
                           std::int32_t reach, int op) {
  for (std::int32_t dx = -reach; dx <= reach; ++dx) {
    for (std::int32_t dy = -reach; dy <= reach; ++dy) {
      const GridCell cell{center.gx + dx, center.gy + dy};
      for (int tile = 0; tile < kTilesPerFrame; ++tile) {
        for (QualityLevel q = 1; q <= kNumQualityLevels; ++q) {
          const VideoId id = pack_video_id({cell, tile, q});
          ASSERT_EQ(cache.contains(id), reference.contains(id))
              << "op " << op << " id " << id;
        }
      }
    }
  }
}

/// Long differential run: a directional walk (a heading kept for many
/// steps, so the window keeps entering fresh cells and leaving old ones
/// behind: whole-block eviction, ring compaction and table tombstones
/// all recur) mixed with lookups. Most lookups re-touch single ids
/// inside the window's range-stamped blocks, leaving those stamps
/// partly stale; the rest miss outside it and insert single ids, so
/// the live count is rarely a multiple of a block and eviction often
/// stops in the middle of a range. After every advance the residency
/// of the window +-(r+2) must equal the reference's.
void run_long_differential(std::size_t capacity, std::uint64_t seed,
                           int ops) {
  ServerCacheConfig config;
  config.capacity_tiles = capacity;
  const std::int32_t r = config.window_radius_cells;
  ServerTileCache cache(config);
  ReferenceLru reference(config);
  cvr::Rng rng(seed);
  GridCell center{0, 0};
  std::int32_t hx = 1;
  std::int32_t hy = 0;
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.25) {
      if (rng.uniform() < 0.05) {
        hx = static_cast<std::int32_t>(rng.uniform_int(-1, 1));
        hy = static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      }
      center.gx += hx;
      center.gy += hy;
      cache.advance(center);
      reference.advance(center);
      expect_same_residency(cache, reference, center, r + 2, op);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      const std::int32_t reach = roll < 0.85 ? r : r + 6;
      const GridCell cell{
          center.gx + static_cast<std::int32_t>(rng.uniform_int(-reach, reach)),
          center.gy + static_cast<std::int32_t>(rng.uniform_int(-reach, reach))};
      const int tile = static_cast<int>(rng.uniform_int(0, kTilesPerFrame - 1));
      const QualityLevel q =
          static_cast<QualityLevel>(rng.uniform_int(1, kNumQualityLevels));
      const VideoId id = pack_video_id({cell, tile, q});
      ASSERT_EQ(cache.lookup(id), reference.lookup(id))
          << "op " << op << " id " << id;
    }
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.hits(), reference.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  }
}

TEST(ServerTileCache, LongWalkMatchesReferenceAtDefaultCapacity) {
  run_long_differential(ServerCacheConfig{}.capacity_tiles, /*seed=*/11,
                        /*ops=*/20000);
}

TEST(ServerTileCache, LongWalkMatchesReferenceAtMidCapacity) {
  run_long_differential(/*capacity=*/3000, /*seed=*/12, /*ops=*/20000);
}

TEST(ServerTileCache, LongWalkMatchesReferenceBelowOneWindow) {
  // One id short of a full window: every advance evicts ids of cells it
  // touched earlier in the same pass.
  const std::int32_t side = 2 * ServerCacheConfig{}.window_radius_cells + 1;
  run_long_differential(
      static_cast<std::size_t>(kTilesPerFrame * kNumQualityLevels * side *
                               side) -
          1,
      /*seed=*/13, /*ops=*/20000);
}

/// Differential run over advance shapes the walks above never produce:
/// jumps of 2..2r+1 cells (the windows overlap in part), teleports (no
/// overlap), a second advance at the same centre, and floods of
/// misses between advances. With a capacity a few ids above one window
/// a flood evicts in-window ids, which a later advance refills.
/// Hit/miss/size are compared after every operation and residency over
/// the window +-(r+2) after every advance.
void run_shape_differential(std::size_t capacity, std::int32_t radius,
                            std::uint64_t seed, int ops) {
  ServerCacheConfig config;
  config.capacity_tiles = capacity;
  config.window_radius_cells = radius;
  ServerTileCache cache(config);
  ReferenceLru reference(config);
  cvr::Rng rng(seed);
  GridCell center{0, 0};
  std::int32_t flood_cell = 0;
  const auto check_counters = [&](int op) {
    ASSERT_EQ(cache.size(), reference.size()) << "op " << op;
    ASSERT_EQ(cache.hits(), reference.hits()) << "op " << op;
    ASSERT_EQ(cache.misses(), reference.misses()) << "op " << op;
  };
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      const double shape = rng.uniform();
      if (shape < 0.35) {
        // Jump: the larger axis moves 2..2r+1 cells (1 at radius 0).
        const auto far = static_cast<std::int32_t>(
            rng.uniform_int(std::min(2, 2 * radius + 1), 2 * radius + 1));
        const auto near = static_cast<std::int32_t>(rng.uniform_int(0, far));
        const std::int32_t sx = rng.uniform() < 0.5 ? -1 : 1;
        const std::int32_t sy = rng.uniform() < 0.5 ? -1 : 1;
        if (rng.uniform() < 0.5) {
          center.gx += sx * far;
          center.gy += sy * near;
        } else {
          center.gx += sx * near;
          center.gy += sy * far;
        }
      } else if (shape < 0.55) {
        // Teleport: no window cell survives.
        center.gx += static_cast<std::int32_t>(
            rng.uniform_int(2 * radius + 2, 4000));
        center.gy -= static_cast<std::int32_t>(rng.uniform_int(-4000, 4000));
      } else if (shape < 0.7) {
        // Same centre again: every window id is re-touched in scan order.
      } else {
        center.gx += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
        center.gy += static_cast<std::int32_t>(rng.uniform_int(-1, 1));
      }
      cache.advance(center);
      reference.advance(center);
      expect_same_residency(cache, reference, center, radius + 2, op);
      if (::testing::Test::HasFatalFailure()) return;
    } else if (roll < 0.55) {
      // Flood: distinct misses far outside any window.
      const int count = static_cast<int>(rng.uniform_int(1, 80));
      for (int i = 0; i < count; ++i, ++flood_cell) {
        const VideoId id = pack_video_id(
            {{1000000 + flood_cell / 3, -1000000}, flood_cell % 3, 1 + i % 6});
        ASSERT_EQ(cache.lookup(id), reference.lookup(id))
            << "op " << op << " id " << id;
      }
    } else {
      const std::int32_t reach = radius + 2;
      const GridCell cell{
          center.gx + static_cast<std::int32_t>(rng.uniform_int(-reach, reach)),
          center.gy + static_cast<std::int32_t>(rng.uniform_int(-reach, reach))};
      const int tile = static_cast<int>(rng.uniform_int(0, kTilesPerFrame - 1));
      const QualityLevel q =
          static_cast<QualityLevel>(rng.uniform_int(1, kNumQualityLevels));
      const VideoId id = pack_video_id({cell, tile, q});
      ASSERT_EQ(cache.lookup(id), reference.lookup(id))
          << "op " << op << " id " << id;
    }
    check_counters(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::size_t window_ids(std::int32_t radius) {
  const auto side = static_cast<std::size_t>(2 * radius + 1);
  return side * side * static_cast<std::size_t>(kTilesPerFrame) *
         static_cast<std::size_t>(kNumQualityLevels);
}

TEST(ServerTileCache, JumpsAndTeleportsMatchReferenceAtLargeCapacity) {
  // Nothing in the window is ever evicted: leaving blocks write their
  // ticks out, entering ones are probed, staying ones are untouched.
  run_shape_differential(/*capacity=*/20000, /*radius=*/4, /*seed=*/21,
                         /*ops=*/2000);
  run_shape_differential(/*capacity=*/5000, /*radius=*/3, /*seed=*/22,
                         /*ops=*/2000);
}

TEST(ServerTileCache, JumpsAndTeleportsMatchReferenceAtRadiusZeroAndOne) {
  for (const std::size_t capacity : {1u, 5u, 24u, 30u, 100u, 1000u}) {
    run_shape_differential(capacity, /*radius=*/0, /*seed=*/23 + capacity,
                           /*ops=*/1500);
    if (::testing::Test::HasFatalFailure()) return;
    run_shape_differential(capacity, /*radius=*/1, /*seed=*/29 + capacity,
                           /*ops=*/1500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ServerTileCache, FloodsEvictAndAdvancesRefillWindowIds) {
  // A few ids above one window: every flood runs through the ids
  // outside the window into the window itself (the eviction cursor),
  // and the next advance re-inserts the evicted ids of cells it keeps.
  for (const std::int32_t radius : {0, 1, 2, 4}) {
    for (const std::size_t extra : {0u, 3u, 17u}) {
      run_shape_differential(window_ids(radius) + extra, radius,
                             /*seed=*/40 + 7 * radius + extra, /*ops=*/1200);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ServerTileCache, FloodsBelowOneWindowMatchReference) {
  run_shape_differential(window_ids(2) - 30, /*radius=*/2, /*seed=*/61,
                         /*ops=*/2000);
  run_shape_differential(window_ids(4) / 2, /*radius=*/4, /*seed=*/62,
                         /*ops=*/1500);
}

TEST(ServerTileCache, ContainsDoesNotTouchRecencyOrCounters) {
  ServerCacheConfig config;
  config.capacity_tiles = 48;  // two cells
  config.window_radius_cells = 0;
  ServerTileCache cache(config);
  cache.advance({0, 0});
  cache.advance({1, 0});
  const VideoId oldest = pack_video_id({{0, 0}, 0, 1});
  EXPECT_TRUE(cache.contains(oldest));
  EXPECT_FALSE(cache.contains(pack_video_id({{5, 5}, 0, 1})));
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  // Had contains() refreshed `oldest`, cell (1,0)'s first id would be
  // the victim instead.
  cache.advance({2, 0});
  EXPECT_FALSE(cache.contains(oldest));
  EXPECT_TRUE(cache.contains(pack_video_id({{1, 0}, 0, 1})));
}

TEST(ServerTileCache, AdvancePrefetchesWindow) {
  ServerCacheConfig config;
  config.window_radius_cells = 1;
  config.capacity_tiles = 100000;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  // 3x3 cells x 4 tiles x 6 levels = 216 entries.
  EXPECT_EQ(cache.size(), 9u * 4u * 6u);
  // Everything inside the window is a hit.
  EXPECT_TRUE(cache.lookup(pack_video_id({{9, 9}, 0, 1})));
  EXPECT_TRUE(cache.lookup(pack_video_id({{11, 11}, 3, 6})));
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(ServerTileCache, MissOutsideWindowThenCached) {
  ServerCacheConfig config;
  config.window_radius_cells = 1;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  const VideoId far = pack_video_id({{50, 50}, 0, 1});
  EXPECT_FALSE(cache.lookup(far));  // miss: simulated swap-in
  EXPECT_TRUE(cache.lookup(far));   // now resident
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ServerTileCache, LruEvictionAtCapacity) {
  ServerCacheConfig config;
  config.capacity_tiles = 24;  // exactly one cell's tiles (4 x 6)
  config.window_radius_cells = 0;
  ServerTileCache cache(config);
  cache.advance({0, 0});
  EXPECT_EQ(cache.size(), 24u);
  cache.advance({100, 100});  // displaces the first cell entirely
  EXPECT_EQ(cache.size(), 24u);
  EXPECT_FALSE(cache.lookup(pack_video_id({{0, 0}, 0, 1})));
}

TEST(ServerTileCache, MovementKeepsOverlapResident) {
  ServerCacheConfig config;
  config.window_radius_cells = 2;
  config.capacity_tiles = 1000;
  ServerTileCache cache(config);
  cache.advance({10, 10});
  cache.advance({11, 10});  // one cell step: overlap stays hot
  EXPECT_TRUE(cache.lookup(pack_video_id({{11, 11}, 0, 3})));
  EXPECT_TRUE(cache.lookup(pack_video_id({{9, 10}, 0, 3})));
}

TEST(ServerTileCache, HitRateZeroWhenNoLookups) {
  ServerTileCache cache;
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.0);
}

TEST(ServerTileCache, RejectsZeroCapacity) {
  ServerCacheConfig bad;
  bad.capacity_tiles = 0;
  EXPECT_THROW(ServerTileCache{bad}, std::invalid_argument);
}

TEST(ServerTileCache, RejectsNegativeWindowRadius) {
  // A negative radius would prefetch nothing while callers treat the
  // window as primed, turning every later lookup into a silent miss.
  ServerCacheConfig bad;
  bad.window_radius_cells = -1;
  try {
    ServerTileCache cache(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "ServerCacheConfig.window_radius_cells"),
              std::string::npos)
        << e.what();
  }
  ServerCacheConfig zero;
  zero.window_radius_cells = 0;
  EXPECT_NO_THROW(ServerTileCache{zero});
}

TEST(ServerTileCache, RejectsWindowRadiusAboveCap) {
  // The window keeps (2r+1)^2 block indices, and cell arithmetic around
  // the centre must stay far from int32 overflow.
  ServerCacheConfig at_cap;
  at_cap.window_radius_cells = ServerTileCache::kMaxWindowRadiusCells;
  EXPECT_NO_THROW(ServerTileCache{at_cap});
  ServerCacheConfig bad;
  bad.window_radius_cells = ServerTileCache::kMaxWindowRadiusCells + 1;
  try {
    ServerTileCache cache(bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ServerCacheConfig.window_radius_cells"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(bad.window_radius_cells)),
              std::string::npos)
        << what;
  }
  ServerCacheConfig huge;
  huge.window_radius_cells = 2000000000;
  EXPECT_THROW(ServerTileCache{huge}, std::invalid_argument);
}

}  // namespace
}  // namespace cvr::content
