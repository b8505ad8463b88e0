#include "src/content/server_cache.h"

#include <algorithm>
#include <bit>
#include <cstddef>
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
  if (config_.window_radius_cells < 0 ||
      config_.window_radius_cells > kMaxWindowRadiusCells) {
    throw std::invalid_argument(
        "ServerTileCache: ServerCacheConfig.window_radius_cells must be in "
        "[0, " +
        std::to_string(kMaxWindowRadiusCells) + "], got " +
        std::to_string(config_.window_radius_cells));
  }
  table_.assign(kMinTableSlots, TableEntry{});
  const auto side =
      static_cast<std::size_t>(2 * config_.window_radius_cells + 1);
  window_.assign(side * side, kNoBlock);
  next_window_.assign(side * side, kNoBlock);
}

std::uint64_t ServerTileCache::block_key(std::uint32_t gx, std::uint32_t gy) {
  return (static_cast<std::uint64_t>(gx) << 32) | gy;
}

bool ServerTileCache::in_window(const Block& b) const {
  // Cell offsets from the window's low corner, modulo 2^32: in range
  // exactly when the cell is one of the (2r+1)^2 window cells.
  const auto r = static_cast<std::uint32_t>(config_.window_radius_cells);
  const std::uint32_t ox =
      static_cast<std::uint32_t>(b.key >> 32) -
      static_cast<std::uint32_t>(window_center_.gx) + r;
  const std::uint32_t oy = static_cast<std::uint32_t>(b.key) -
                           static_cast<std::uint32_t>(window_center_.gy) + r;
  return has_window_ && ox <= 2 * r && oy <= 2 * r;
}

void ServerTileCache::advance(const GridCell& center) {
  const auto r = static_cast<std::uint32_t>(config_.window_radius_cells);
  const std::uint32_t side = 2 * r + 1;
  const auto cx = static_cast<std::uint32_t>(center.gx);
  const auto cy = static_cast<std::uint32_t>(center.gy);
  std::fill(next_window_.begin(), next_window_.end(), kNoBlock);

  // Staying blocks move to their new scan position; leaving blocks get
  // their implicit ticks written out and stage their stamps at the end
  // of the ring.
  const std::size_t staged_from = ring_.size();
  if (has_window_) {
    // Old scan offsets plus (sx, sy) are the new ones, modulo 2^32.
    const std::uint32_t sx =
        static_cast<std::uint32_t>(window_center_.gx) - cx;
    const std::uint32_t sy =
        static_cast<std::uint32_t>(window_center_.gy) - cy;
    std::size_t pos = 0;
    for (std::uint32_t dx = 0; dx < side; ++dx) {
      for (std::uint32_t dy = 0; dy < side; ++dy, ++pos) {
        const std::uint32_t block = window_[pos];
        const std::uint32_t nx = sx + dx;
        const std::uint32_t ny = sy + dy;
        if (nx < side && ny < side) {
          next_window_[nx * side + ny] = block;
          // Only blocks the window eviction cursor reached lost ids.
          if (pos * kIdsPerBlock < window_cursor_) fill_block(block);
        } else {
          leave_window(block, pos);
        }
      }
    }
  }
  // The leaving ticks lie between the stamps that predate the previous
  // advance and the lookups since: rotate them in at the split. (Once
  // eviction has passed the split, every implicit window id is evicted
  // and nothing was staged.)
  std::rotate(ring_.begin() + static_cast<std::ptrdiff_t>(ring_split_),
              ring_.begin() + static_cast<std::ptrdiff_t>(staged_from),
              ring_.end());

  // Entering blocks.
  std::size_t pos = 0;
  for (std::uint32_t dx = 0; dx < side; ++dx) {
    for (std::uint32_t dy = 0; dy < side; ++dy, ++pos) {
      if (next_window_[pos] != kNoBlock) continue;
      const std::uint32_t block =
          find_or_create_block(block_key(cx - r + dx, cy - r + dy));
      next_window_[pos] = block;
      fill_block(block);
    }
  }

  window_.swap(next_window_);
  window_center_ = center;
  has_window_ = true;
  window_base_ = next_tick_;
  next_tick_ += static_cast<std::uint64_t>(window_.size()) * kIdsPerBlock;
  window_cursor_ = 0;
  ring_split_ = ring_.size();
  evict_to_capacity();
  maybe_compact_ring();
}

void ServerTileCache::fill_block(std::uint32_t block) {
  Block& b = blocks_[block];
  live_ += static_cast<std::size_t>(kIdsPerBlock - std::popcount(b.mask));
  b.mask = kFullMask;
}

void ServerTileCache::leave_window(std::uint32_t block, std::size_t pos) {
  Block& b = blocks_[block];
  const std::uint64_t first_tick =
      window_base_ + static_cast<std::uint64_t>(pos) * kIdsPerBlock;
  int begin = kIdsPerBlock;
  int end = 0;
  for (int off = 0; off < kIdsPerBlock; ++off) {
    if ((b.mask >> off & 1u) != 0 && b.ticks[off] < window_base_) {
      b.ticks[off] = first_tick + static_cast<std::uint64_t>(off);
      begin = std::min(begin, off);
      end = off + 1;
    }
  }
  if (begin < end) {
    ring_.push_back({first_tick + static_cast<std::uint64_t>(begin), block,
                     static_cast<std::uint8_t>(begin),
                     static_cast<std::uint8_t>(end)});
  } else if (b.mask == 0) {
    free_block(block);
  }
}

bool ServerTileCache::lookup(VideoId id) {
  const TileKey tk = unpack_video_id(id);
  const int off = tk.tile_index * kNumQualityLevels + (tk.level - 1);
  const std::uint64_t key = block_key(static_cast<std::uint32_t>(tk.cell.gx),
                                      static_cast<std::uint32_t>(tk.cell.gy));
  std::uint32_t bidx = find_block(key);
  const bool hit =
      bidx != kNoBlock && (blocks_[bidx].mask >> off & 1u) != 0;
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
  const std::uint32_t bidx =
      find_block(block_key(static_cast<std::uint32_t>(tk.cell.gx),
                           static_cast<std::uint32_t>(tk.cell.gy)));
  return bidx != kNoBlock && (blocks_[bidx].mask >> off & 1u) != 0;
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
  blocks_[bidx].key = key;  // mask already zero (fresh or free_block'd)
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

void ServerTileCache::evict_to_capacity() {
  // Ticks only grow, so each of the three ranges is sorted: the first
  // live id of the earliest non-exhausted range is the least recently
  // touched. Every live id outside the window has a current stamp and
  // every in-window id not looked up since the advance lies past the
  // window cursor, so neither runs dry while size() > capacity.
  const std::size_t window_ids = window_.size() * kIdsPerBlock;
  while (live_ > config_.capacity_tiles) {
    if (ring_head_ >= ring_split_ && has_window_ &&
        window_cursor_ < window_ids) {
      Block& b = blocks_[window_[window_cursor_ / kIdsPerBlock]];
      int off = static_cast<int>(window_cursor_ % kIdsPerBlock);
      for (; off < kIdsPerBlock && live_ > config_.capacity_tiles;
           ++off, ++window_cursor_) {
        const std::uint32_t bit = 1u << off;
        if ((b.mask & bit) != 0 && b.ticks[off] < window_base_) {
          b.mask &= ~bit;
          --live_;
        }
      }
      continue;
    }
    Stamp& st = ring_[ring_head_];
    Block& b = blocks_[st.block];
    const bool block_in_window = in_window(b);
    if (ring_head_ < ring_split_ && block_in_window) {
      ++ring_head_;  // the advance re-touched every id of the block
      continue;
    }
    std::uint64_t tick = st.tick;
    std::uint8_t off = st.begin;
    while (off < st.end && live_ > config_.capacity_tiles) {
      const std::uint32_t bit = 1u << off;
      if ((b.mask & bit) != 0 && b.ticks[off] == tick) {
        b.mask &= ~bit;
        --live_;
      }
      ++off;
      ++tick;
    }
    st.begin = off;
    st.tick = tick;
    if (off >= st.end) ++ring_head_;
    // Out of the window, the id that empties a block ends its stamp (a
    // later offset of the stamp still holds its tick or was re-touched,
    // so it is resident), and every older stamp of the block is
    // consumed: once freed, no stamp from the ring's head on reaches
    // the block again. In-window blocks stay allocated: the window holds
    // their indices.
    if (b.mask == 0 && !block_in_window) free_block(st.block);
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
  std::size_t kept_before_split = 0;
  for (std::size_t i = ring_head_; i < ring_.size(); ++i) {
    const Stamp& st = ring_[i];
    const Block& b = blocks_[st.block];
    bool alive = false;
    if (i >= ring_split_ || !in_window(b)) {
      std::uint64_t tick = st.tick;
      for (std::uint8_t off = st.begin; off < st.end; ++off, ++tick) {
        if ((b.mask >> off & 1u) != 0 && b.ticks[off] == tick) {
          alive = true;
          break;
        }
      }
    }
    if (!alive) continue;
    ring_[out++] = st;
    if (i < ring_split_) ++kept_before_split;
  }
  ring_.resize(out);
  ring_head_ = 0;
  ring_split_ = kept_before_split;
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
