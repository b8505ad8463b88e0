// Memory bound and zero-allocation contract of the server tile cache.
//
// The counting allocator below replaces the global operator new/delete
// for THIS binary only (as in slot_arena_test.cpp). It counts every
// heap allocation and records the largest single request, so a test can
// bound the cache's biggest buffer (its recency ring grows with the
// stamps it keeps) and assert that a warmed-up cache allocates nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/content/server_cache.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};

void* counted_malloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
  return std::malloc(size ? size : 1);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cvr::content {
namespace {

/// A user walking a staircase (40 cells east, 40 north, repeat) that
/// never revisits a cell: every step brings fresh cells into the window
/// and ages old blocks out, so eviction, block reuse, table tombstones
/// and ring compaction all keep running. Each step advances, then looks
/// up a few ids inside the window (hits that re-stamp single ids) and
/// one far outside it (a miss that inserts into a new block).
class StaircaseWalk {
 public:
  explicit StaircaseWalk(ServerTileCache& cache) : cache_(cache) {}

  void step() {
    if ((steps_ / 40) % 2 == 0) {
      ++center_.gx;
    } else {
      ++center_.gy;
    }
    ++steps_;
    cache_.advance(center_);
    for (int i = 0; i < 4; ++i) {
      const GridCell cell{center_.gx - 2 + i, center_.gy + 1};
      cache_.lookup(pack_video_id({cell, i, 1 + i}));
    }
    cache_.lookup(pack_video_id({{center_.gx + 50, center_.gy - 50}, 2, 3}));
  }

 private:
  ServerTileCache& cache_;
  GridCell center_{0, 0};
  long steps_ = 0;
};

TEST(ServerTileCacheMemory, LargestAllocationBoundedOverLongWalk) {
  ServerTileCache cache;  // default config: 20000 tiles, radius 4
  StaircaseWalk walk(cache);
  g_largest.store(0);
  for (int i = 0; i < 5000; ++i) walk.step();
  // About a thousand stamps are live at a time; a ring that kept its
  // consumed prefix grew to megabytes over the same walk.
  EXPECT_LE(g_largest.load(), 256u * 1024u);
  EXPECT_EQ(cache.size(), cache.config().capacity_tiles);
}

TEST(ServerTileCacheMemory, WarmCacheAdvanceAndLookupAllocateNothing) {
  ServerTileCache cache;
  StaircaseWalk walk(cache);
  for (int i = 0; i < 5000; ++i) walk.step();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) walk.step();
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

}  // namespace
}  // namespace cvr::content
