#include "src/content/server_cache.h"

#include <bit>
#include <stdexcept>
#include <string>

namespace cvr::content {

namespace {

/// Fibonacci hashing over the packed cell key; `size` is a power of two.
inline std::size_t slot_index(std::uint64_t key, std::size_t size) {
  return static_cast<std::size_t>(
      (key * 0x9E3779B97F4A7C15ull) >>
      (64 - std::countr_zero(static_cast<std::uint64_t>(size))));
}

constexpr std::size_t kMinTableSlots = 64;
constexpr std::uint32_t kStateEmpty = 0;
constexpr std::uint32_t kStateTombstone = 1;
constexpr std::uint32_t kStateLive = 2;

}  // namespace

ServerTileCache::ServerTileCache(ServerCacheConfig config) : config_(config) {
  if (config_.capacity_tiles == 0) {
    throw std::invalid_argument("ServerTileCache: zero capacity");
  }
  if (config_.window_radius_cells < 0) {
    throw std::invalid_argument(
        "ServerTileCache: ServerCacheConfig.window_radius_cells must be "
        ">= 0, got " +
        std::to_string(config_.window_radius_cells));
  }
  table_.assign(kMinTableSlots, TableEntry{});
}

std::uint64_t ServerTileCache::block_key(const GridCell& cell) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cell.gx))
          << 32) |
         static_cast<std::uint32_t>(cell.gy);
}

void ServerTileCache::advance(const GridCell& center) {
  const std::int32_t r = config_.window_radius_cells;
  for (std::int32_t dx = -r; dx <= r; ++dx) {
    for (std::int32_t dy = -r; dy <= r; ++dy) {
      touch_block(find_or_create_block(
          block_key({center.gx + dx, center.gy + dy})));
    }
  }
}

bool ServerTileCache::lookup(VideoId id) {
  const TileKey tk = unpack_video_id(id);
  const int off = tk.tile_index * kNumQualityLevels + (tk.level - 1);
  const std::uint64_t key = block_key(tk.cell);
  std::uint32_t bidx = find_block(key);
  const bool hit = bidx != kNoBlock && blocks_[bidx].ticks[off] != 0;
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
    if (bidx == kNoBlock) bidx = find_or_create_block(key);
  }
  touch_one(bidx, off);
  return hit;
}

bool ServerTileCache::contains(VideoId id) const {
  const TileKey tk = unpack_video_id(id);
  const int off = tk.tile_index * kNumQualityLevels + (tk.level - 1);
  const std::uint32_t bidx = find_block(block_key(tk.cell));
  return bidx != kNoBlock && blocks_[bidx].ticks[off] != 0;
}

double ServerTileCache::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

std::uint32_t ServerTileCache::find_block(std::uint64_t key) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = slot_index(key, table_.size());; i = (i + 1) & mask) {
    const TableEntry& e = table_[i];
    if (e.state == kStateEmpty) return kNoBlock;
    if (e.state == kStateLive && e.key == key) return e.block;
  }
}

std::uint32_t ServerTileCache::find_or_create_block(std::uint64_t key) {
  const std::size_t mask = table_.size() - 1;
  const std::size_t npos = table_.size();
  std::size_t insert_at = npos;
  std::size_t i = slot_index(key, table_.size());
  for (;; i = (i + 1) & mask) {
    TableEntry& e = table_[i];
    if (e.state == kStateEmpty) break;
    if (e.state == kStateTombstone) {
      if (insert_at == npos) insert_at = i;
      continue;
    }
    if (e.key == key) return e.block;
  }
  std::uint32_t bidx;
  if (!free_blocks_.empty()) {
    bidx = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    bidx = static_cast<std::uint32_t>(blocks_.size());
    blocks_.emplace_back();
  }
  blocks_[bidx].key = key;  // ticks already zero (fresh or free_block'd)
  if (insert_at != npos) {
    --tombstones_;
  } else {
    insert_at = i;
  }
  table_[insert_at] = {key, bidx, kStateLive};
  ++live_blocks_;
  // Keep the probe load factor (live + tombstones) at or under 1/2.
  if ((live_blocks_ + tombstones_) * 2 >= table_.size()) {
    std::size_t target = kMinTableSlots;
    while (target < 4 * live_blocks_) target <<= 1;
    rehash_table(target);
  }
  return bidx;
}

void ServerTileCache::touch_one(std::uint32_t block, int offset) {
  Block& b = blocks_[block];
  const std::uint32_t bit = 1u << offset;
  b.ticks[offset] = next_tick_;
  ring_.push_back({next_tick_++, block, static_cast<std::uint8_t>(offset),
                   static_cast<std::uint8_t>(offset + 1)});
  if ((b.mask & bit) == 0) {
    b.mask |= bit;
    ++live_;
    evict_to_capacity();
  }
  maybe_compact_ring();
}

void ServerTileCache::touch_block(std::uint32_t block) {
  Block& b = blocks_[block];
  const std::uint64_t base = next_tick_;
  for (int off = 0; off < kIdsPerBlock; ++off) {
    b.ticks[off] = base + static_cast<std::uint64_t>(off);
  }
  next_tick_ += kIdsPerBlock;
  live_ += static_cast<std::size_t>(kIdsPerBlock - std::popcount(b.mask));
  b.mask = kFullMask;
  ring_.push_back({base, block, 0, static_cast<std::uint8_t>(kIdsPerBlock)});
  evict_to_capacity();
  maybe_compact_ring();
}

void ServerTileCache::evict_to_capacity() {
  // Ticks only grow, so the ring is sorted: the first stamped offset
  // whose tick is unchanged is the least-recently-touched live id.
  // Every live id has a current stamp, so the ring never runs dry
  // while size() > capacity.
  while (live_ > config_.capacity_tiles) {
    Stamp& st = ring_[ring_head_];
    Block& b = blocks_[st.block];
    std::uint64_t tick = st.tick;
    std::uint8_t off = st.begin;
    while (off < st.end && live_ > config_.capacity_tiles) {
      if (b.ticks[off] == tick) {
        b.ticks[off] = 0;
        b.mask &= ~(1u << off);
        --live_;
      }
      ++off;
      ++tick;
    }
    st.begin = off;
    st.tick = tick;
    if (off >= st.end) ++ring_head_;
    // The id that empties a block ends its stamp (a later offset of the
    // stamp still holds its tick or was re-touched, so it is live), and
    // every older stamp of the block is consumed: once freed, no stamp
    // from the ring's head on reaches the block again.
    if (b.mask == 0) free_block(st.block);
  }
}

void ServerTileCache::free_block(std::uint32_t block) {
  const std::uint64_t key = blocks_[block].key;
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = slot_index(key, table_.size());; i = (i + 1) & mask) {
    TableEntry& e = table_[i];
    if (e.state == kStateLive && e.key == key) {
      e.state = kStateTombstone;
      break;
    }
  }
  --live_blocks_;
  ++tombstones_;
  free_blocks_.push_back(block);
}

void ServerTileCache::maybe_compact_ring() {
  // The whole vector counts, consumed prefix included. After a pass the
  // ring holds ring_floor_ stamps; the next pass comes at least
  // ring_floor_ + 1024 pushes later and scans at most 2 * ring_floor_ +
  // 1024 stamps, so compaction amortizes to O(1) per push and the ring
  // stays within about twice its live stamps.
  if (ring_.size() > 2 * ring_floor_ + 1024) compact_ring();
}

void ServerTileCache::compact_ring() {
  std::size_t out = 0;
  for (std::size_t i = ring_head_; i < ring_.size(); ++i) {
    const Stamp& st = ring_[i];
    const Block& b = blocks_[st.block];
    bool alive = false;
    std::uint64_t tick = st.tick;
    for (std::uint8_t off = st.begin; off < st.end; ++off, ++tick) {
      if (b.ticks[off] == tick) {
        alive = true;
        break;
      }
    }
    if (alive) ring_[out++] = st;
  }
  ring_.resize(out);
  ring_head_ = 0;
  ring_floor_ = out;
}

void ServerTileCache::rehash_table(std::size_t new_size) {
  spare_.assign(new_size, TableEntry{});
  const std::size_t mask = new_size - 1;
  for (const TableEntry& e : table_) {
    if (e.state != kStateLive) continue;
    std::size_t i = slot_index(e.key, new_size);
    while (spare_[i].state != kStateEmpty) i = (i + 1) & mask;
    spare_[i] = e;
  }
  table_.swap(spare_);
  tombstones_ = 0;
}

}  // namespace cvr::content
