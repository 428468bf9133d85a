// View-pool tests: the internal allocator's kViews tag, which every reducer
// view is created in and destroyed through (core/reducer.hpp) — size
// classes, reuse, cross-thread free, oversized fallthrough, and typed
// create/destroy.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "mem/internal_alloc.hpp"

namespace {

using cilkm::mem::AllocTag;
using cilkm::mem::InternalAlloc;

void* allocate(std::size_t bytes) {
  return InternalAlloc::instance().allocate(bytes, AllocTag::kViews);
}
void deallocate(void* p, std::size_t bytes) {
  InternalAlloc::instance().deallocate(p, bytes, AllocTag::kViews);
}

TEST(ViewPool, SizeClassMapping) {
  EXPECT_EQ(InternalAlloc::size_class(1), 0);
  EXPECT_EQ(InternalAlloc::size_class(16), 0);
  EXPECT_EQ(InternalAlloc::size_class(17), 1);
  EXPECT_EQ(InternalAlloc::size_class(32), 1);
  EXPECT_EQ(InternalAlloc::size_class(256), 4);
  EXPECT_EQ(InternalAlloc::size_class(257), 5);
  EXPECT_EQ(InternalAlloc::size_class(4096), 8);
  EXPECT_EQ(InternalAlloc::size_class(4097), -1);  // falls through to new/delete
}

TEST(ViewPool, AllocationsAreUsableAndDistinct) {
  std::set<void*> seen;
  std::vector<void*> ptrs;
  for (int i = 0; i < 500; ++i) {
    void* p = allocate(48);
    EXPECT_TRUE(seen.insert(p).second);
    std::memset(p, 0xab, 48);
    ptrs.push_back(p);
  }
  for (void* p : ptrs) deallocate(p, 48);
}

TEST(ViewPool, FreedSlotsAreReused) {
  // Free a batch, allocate again: the chunk count must not grow — every
  // new allocation is served from recycled slots (local cache or global
  // shard after rebalancing).
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(allocate(24));
  for (void* p : ptrs) deallocate(p, 24);
  const std::size_t chunks_before = InternalAlloc::instance().chunks_allocated();
  std::vector<void*> round2;
  for (int i = 0; i < 100; ++i) round2.push_back(allocate(24));
  EXPECT_EQ(InternalAlloc::instance().chunks_allocated(), chunks_before);
  for (void* p : round2) deallocate(p, 24);
}

TEST(ViewPool, OversizedAllocationsFallThrough) {
  void* p = allocate(8192);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 8192);
  deallocate(p, 8192);
}

TEST(ViewPool, CreateDestroyRunConstructors) {
  struct Probe {
    static int& live() {
      static int count = 0;
      return count;
    }
    int payload;
    explicit Probe(int v) : payload(v) { ++live(); }
    ~Probe() { --live(); }
  };
  Probe* p = InternalAlloc::instance().create<Probe>(AllocTag::kViews, 42);
  EXPECT_EQ(p->payload, 42);
  EXPECT_EQ(Probe::live(), 1);
  InternalAlloc::instance().destroy(AllocTag::kViews, p);
  EXPECT_EQ(Probe::live(), 0);
}

TEST(ViewPool, CrossThreadFreeIsSafe) {
  // Views are routinely allocated on one worker and freed on another (the
  // hypermerge destroys the right view wherever the join happens).
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) ptrs.push_back(allocate(64));
  std::thread other([&] {
    for (void* p : ptrs) deallocate(p, 64);
  });
  other.join();
  // Allocate again on this thread; must not crash or duplicate.
  std::set<void*> seen;
  std::vector<void*> round2;
  for (int i = 0; i < 200; ++i) {
    void* p = allocate(64);
    EXPECT_TRUE(seen.insert(p).second);
    round2.push_back(p);
  }
  for (void* p : round2) deallocate(p, 64);
}

TEST(ViewPool, ConcurrentAllocFreeStress) {
  constexpr int kThreads = 4, kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<void*> held;
      for (int i = 0; i < kIters; ++i) {
        held.push_back(allocate(16));
        std::memset(held.back(), 0x5a, 16);
        if (held.size() > 32) {
          deallocate(held.front(), 16);
          held.erase(held.begin());
        }
      }
      for (void* p : held) deallocate(p, 16);
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace
