// Server-side tile cache.
//
// Section V: "the server will hold a buffer in the memory during the
// runtime to cache some of the tiles ... the server only needs to cache
// the tiles within a range of the user's current position and dynamically
// adjust the cached content corresponding to the user's movement."
//
// We model it as an LRU cache of video IDs with a position-window
// prefetch: advance(user position) pulls every tile within the window
// into the cache so subsequent lookups are hits; anything the window has
// left behind ages out by LRU.
//
// Representation (docs/performance.md). The cache is keyed by CELL: one
// open-addressing probe finds a cell block holding the recency ticks of
// all kTilesPerFrame x kNumQualityLevels tile ids contiguously plus a
// resident bit mask (the mask alone decides residency). The policy is
// the exact per-id LRU: every tile touch gets a unique tick, the
// eviction victim is always the live id with the smallest tick, and
// hits/misses/size/victims after every operation equal those of a naive
// per-id implementation (the tests pin this against one).
//
// Implicit in-window recency. An advance touches the W = (2r+1)^2 window
// cells in scan order (dx outer, dy inner) and reserves W * 24 ticks
// from `base`: id `off` of the cell at scan position `pos` gets tick
// base + 24 * pos + off, exactly as the per-cell touch loop numbered
// them. Those ticks are never written. The cache keeps the window's
// centre, `base` and its block indices in scan order; an in-window id
// whose stored tick is below `base` (not looked up since the advance)
// has the implicit tick, and one at or above `base` was looked up and
// carries its own. A one-cell move therefore works on the window's
// edge only:
//
//   * entering cells are probed or created and their masks filled;
//   * staying cells are left alone, except that a block which lost ids
//     to eviction since the last advance gets its mask refilled (the
//     advance re-inserts those ids);
//   * a leaving cell's implicit ticks are written out from the previous
//     base and position (a looked-up id keeps its own tick) under one
//     range stamp; a leaving block with no resident id is freed.
//
// Recency outside the window is a FIFO ring of stamps, each naming a
// block, an offset range and the consecutive ticks that range held when
// pushed; a stamp offset whose id is no longer resident or whose tick
// has changed since is stale. Ticks only grow, so stamps pushed by
// lookups keep the ring tick-sorted. A leaving stamp's ticks lie in the
// previous window's range: above every stamp pushed before the previous
// advance and below every lookup since, so it is rotated in between
// (`ring_split_` marks that boundary) and the ring stays sorted. After
// the advance the split moves to the ring's end.
//
// Eviction walks the three tick ranges in order: ring stamps older than
// `base` (those of in-window blocks are stale, as the advance re-touched
// the block), then the in-window ids in scan order (a cursor; skipping
// evicted and looked-up ids), then stamps pushed since the advance. In-
// window blocks are never freed, so the window's block indices stay
// valid; an evicted in-window id is re-inserted by a lookup (an explicit
// tick) or by the next advance that keeps its cell (the refill above).
//
// One eviction pass per advance equals the naive schedule's per-id
// evictions because an LRU cache in which every access inserts always
// holds the min(capacity, distinct ids) most recently accessed ids: the
// state depends on the access order, never on when evictions run. A
// naive-schedule victim inside the window that the same advance touches
// later is re-inserted by it; the removal and re-insertion cancel, and
// the remaining victims are the oldest live ids in tick order, which
// the merged walk above evicts in ascending tick order.
//
// The ring is compacted (stale stamps dropped, consumed prefix
// reclaimed) when the whole vector exceeds twice the span the previous
// compaction left plus a constant: each pass is paid for by as many
// pushes, and the ring stays a small multiple of its live stamps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/content/tile.h"

namespace cvr::content {

struct ServerCacheConfig {
  std::size_t capacity_tiles = 20000;
  /// +-20 cm around the user at the default 4. At most
  /// ServerTileCache::kMaxWindowRadiusCells.
  std::int32_t window_radius_cells = 4;
};

class ServerTileCache {
 public:
  /// Largest accepted window_radius_cells. The window keeps two arrays
  /// of (2r+1)^2 block indices (about 1 MiB each at the cap), and cell
  /// offsets from the centre stay far from int32 overflow.
  static constexpr std::int32_t kMaxWindowRadiusCells = 256;

  explicit ServerTileCache(ServerCacheConfig config = {});

  const ServerCacheConfig& config() const { return config_; }

  /// Prefetches all tiles (all indices, all levels) of the
  /// (2r+1) x (2r+1) cells around `center`, r = window_radius_cells.
  /// The window is not clipped to the scene grid: cells past its edges
  /// are cached like any other key (their tiles are simply never
  /// requested), so they occupy capacity and age out by LRU.
  void advance(const GridCell& center);

  /// Looks a tile up; a hit refreshes recency. A miss simulates the disk
  /// swap the paper avoids (counted, then inserted).
  bool lookup(VideoId id);

  /// True if `id` is resident. Unlike lookup(), touches neither recency
  /// nor the hit/miss counters.
  bool contains(VideoId id) const;

  std::size_t size() const { return live_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  double hit_rate() const;

 private:
  /// Tile ids per cell block: every (tile index, level) combination.
  static constexpr int kIdsPerBlock = kTilesPerFrame * kNumQualityLevels;
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
  static constexpr std::uint32_t kFullMask = (1u << kIdsPerBlock) - 1;

  /// All of one cell's tile ticks, contiguous. Bit `off` of `mask` is
  /// set exactly when id `off` is resident; ticks[off] is meaningful
  /// only then (and, in the window, only when >= window_base_).
  struct Block {
    std::uint64_t key = 0;    ///< Packed cell, for table maintenance.
    std::uint32_t mask = 0;   ///< Resident ids in this block.
    std::uint64_t ticks[kIdsPerBlock] = {};
  };

  /// Open-addressing table entry mapping a packed cell to its block.
  struct TableEntry {
    std::uint64_t key = 0;
    std::uint32_t block = 0;
    std::uint32_t state = 0;  ///< 0 empty, 1 tombstone, 2 live.
  };

  /// One recency stamp: blocks_[block].ticks[begin..end) held the
  /// consecutive ticks tick, tick+1, ... when pushed. Offsets that are
  /// no longer resident or whose tick has changed since are stale;
  /// `begin`/`tick` advance as eviction consumes the range.
  struct Stamp {
    std::uint64_t tick = 0;
    std::uint32_t block = 0;
    std::uint8_t begin = 0;
    std::uint8_t end = 0;
  };

  static std::uint64_t block_key(std::uint32_t gx, std::uint32_t gy);

  std::uint32_t find_block(std::uint64_t key) const;
  std::uint32_t find_or_create_block(std::uint64_t key);
  /// True if the block's cell lies in the current window.
  bool in_window(const Block& b) const;
  /// Makes every id of the block resident (an advance touched it).
  void fill_block(std::uint32_t block);
  /// Writes out the implicit ticks of a block leaving the window from
  /// scan position `pos` and stages its range stamp at the ring's end;
  /// frees the block when no id of it is resident.
  void leave_window(std::uint32_t block, std::size_t pos);
  /// Touches one id (offset within its block): re-stamp, and on a newly
  /// resident id insert plus capacity eviction.
  void touch_one(std::uint32_t block, int offset);
  /// Evicts live ids in ascending tick order (the merged walk described
  /// above) until size() <= capacity, leaving each cursor right after
  /// the last victim. Frees emptied blocks outside the window.
  void evict_to_capacity();
  /// Returns an emptied block to the free list and tombstones its table
  /// entry. Its mask is zero, so outstanding stamps are stale.
  void free_block(std::uint32_t block);
  /// Drops fully stale stamps and the consumed prefix in place (the
  /// ring stays tick-sorted) and records the span left in ring_floor_.
  void compact_ring();
  void maybe_compact_ring();
  /// Re-places all live table entries into `new_size` slots (power of
  /// two), clearing tombstones. Builds into the kept spare buffer, so a
  /// tombstone purge at unchanged size allocates nothing. Stamps hold
  /// block indices, not table slots, so the ring is unaffected.
  void rehash_table(std::size_t new_size);

  ServerCacheConfig config_;
  std::vector<TableEntry> table_;  // power-of-two open addressing
  std::vector<TableEntry> spare_;  // previous table buffer, reused
  std::vector<Block> blocks_;      // block pool; indices are stable
  std::vector<std::uint32_t> free_blocks_;
  std::vector<Stamp> ring_;        // FIFO of stamps, tick-ascending
  std::size_t ring_head_ = 0;
  std::size_t ring_floor_ = 0;     // ring span after the last compaction
  std::size_t ring_split_ = 0;     // ring_[< split] predate the advance
  std::vector<std::uint32_t> window_;       // blocks in scan order
  std::vector<std::uint32_t> next_window_;  // advance()'s spare buffer
  GridCell window_center_{};
  bool has_window_ = false;
  std::uint64_t window_base_ = 0;  // tick of the window's first id
  std::size_t window_cursor_ = 0;  // 24 * pos + off eviction has passed
  std::size_t live_ = 0;           // resident tile ids
  std::size_t live_blocks_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t next_tick_ = 1;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cvr::content
