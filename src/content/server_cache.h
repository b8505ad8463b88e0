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
// Representation (docs/performance.md): advance() touches every tile of
// every cell in the window — thousands of LRU updates per cell change —
// so a per-id structure (std::list + std::unordered_map, or any flat
// hash keyed by tile id) pays one random cache-line access per tile and
// dominated the fleet's content_fetch phase. The cache is instead keyed
// by CELL: one open-addressing probe finds a cell block holding the
// monotonically increasing touch ticks of all kTilesPerFrame x
// kNumQualityLevels tile ids contiguously plus a resident bit mask.
// Recency is tracked by a FIFO ring of stamps; ticks only grow, so the
// ring is sorted by construction and eviction pops stamps from the
// front, skipping stale ones (id re-touched or evicted since). The
// policy is the exact per-id LRU: every tile touch gets a unique tick,
// the eviction victim is always the live id with the smallest tick, and
// hits/misses/size/victims after every operation equal those of a naive
// per-id implementation (the tests pin this against one).
//
// Whole-cell touch: O(1) stamps and one eviction pass per cell. A
// cell touch writes ticks base..base+23, counts the newly resident ids
// as 24 - popcount(mask), pushes ONE range stamp and then evicts down to
// capacity once. The naive schedule instead touches the 24 ids one by
// one and evicts after each newly resident id. Both end in the same
// state because an LRU cache in which every access inserts always holds
// the min(capacity, distinct ids) most recently accessed ids: the state
// depends on the access order, never on when evictions run. Concretely,
// let S be the live ids before the touch and k = max(0, |S| + n -
// capacity), n the block's ids not in S. A naive-schedule victim inside
// the block (not yet touched) is re-inserted when the loop reaches it;
// its removal and re-insertion cancel. Its other victims lie outside
// the block, each the oldest live id at the time: the k oldest ids of S
// outside the block, or all of them plus the block's first ids when the
// capacity is below one block. The batched pass evicts exactly those,
// in ascending tick order. Stale stamps of in-block ids are skipped by
// both schedules, so eviction stops at the same ring cursor.
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
  std::int32_t window_radius_cells = 4;  ///< +-20 cm around the user.
};

class ServerTileCache {
 public:
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

  /// All of one cell's tile ticks, contiguous. tick 0 = id not resident;
  /// bit `off` of `mask` is set exactly when ticks[off] != 0.
  struct Block {
    std::uint64_t ticks[kIdsPerBlock] = {};
    std::uint64_t key = 0;    ///< Packed cell, for table maintenance.
    std::uint32_t mask = 0;   ///< Resident ids in this block.
  };

  /// Open-addressing table entry mapping a packed cell to its block.
  struct TableEntry {
    std::uint64_t key = 0;
    std::uint32_t block = 0;
    std::uint32_t state = 0;  ///< 0 empty, 1 tombstone, 2 live.
  };

  /// One recency stamp: blocks_[block].ticks[begin..end) held the
  /// consecutive ticks tick, tick+1, ... when pushed. Offsets whose
  /// tick has changed since (re-touch or eviction) are stale and
  /// skipped; `begin`/`tick` advance as eviction consumes the range.
  struct Stamp {
    std::uint64_t tick = 0;
    std::uint32_t block = 0;
    std::uint8_t begin = 0;
    std::uint8_t end = 0;
  };

  static std::uint64_t block_key(const GridCell& cell);

  std::uint32_t find_block(std::uint64_t key) const;
  std::uint32_t find_or_create_block(std::uint64_t key);
  /// Touches one id (offset within its block): re-stamp, and on a newly
  /// resident id insert plus capacity eviction.
  void touch_one(std::uint32_t block, int offset);
  /// Touches all ids of a block under one range stamp, then evicts down
  /// to capacity once (exact, see above).
  void touch_block(std::uint32_t block);
  /// Evicts live ids in ascending tick order (front of the ring,
  /// skipping stale stamps) until size() <= capacity, leaving the
  /// cursor right after the last victim. Frees emptied blocks.
  void evict_to_capacity();
  /// Returns an emptied block to the free list and tombstones its table
  /// entry. Its ticks are already zero, so outstanding stamps are stale.
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
  std::size_t live_ = 0;           // resident tile ids
  std::size_t live_blocks_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t next_tick_ = 1;    // 0 marks "not resident"
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cvr::content
