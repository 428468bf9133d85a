// The tagged internal allocator (src/mem/): size-class round-trips, per-tag
// accounting, magazine refill/flush batching against the global pool,
// cross-worker frees, the teardown leak check, the consumers rewired through
// it (JoinFrame, HyperMap tables, fiber headers), the StackPool's high-water
// trim — and a DPRNG-driven property test that random view merge/collapse
// orders keep the allocator's books balanced under both view-store policies.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "hypermap/hypermap.hpp"
#include "mem/internal_alloc.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/frame.hpp"
#include "runtime/stack_pool.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {

using cilkm::mem::AllocTag;
using cilkm::mem::InternalAlloc;

// ---------------------------------------------------------------------------
// Size classes
// ---------------------------------------------------------------------------

TEST(InternalAlloc, SizeClassBoundaries) {
  EXPECT_EQ(InternalAlloc::size_class(1), 0);
  EXPECT_EQ(InternalAlloc::size_class(16), 0);
  EXPECT_EQ(InternalAlloc::size_class(17), 1);
  EXPECT_EQ(InternalAlloc::size_class(256), 4);
  EXPECT_EQ(InternalAlloc::size_class(257), 5);
  EXPECT_EQ(InternalAlloc::size_class(4096), 8);
  EXPECT_EQ(InternalAlloc::size_class(4097), -1);  // operator-new fall-through
}

TEST(InternalAlloc, EveryClassRoundTrips) {
  InternalAlloc alloc;  // standalone: magazine-less, shard-direct
  for (const std::size_t size : InternalAlloc::kClassSizes) {
    std::set<void*> seen;
    std::vector<void*> ptrs;
    for (int i = 0; i < 50; ++i) {
      void* p = alloc.allocate(size, AllocTag::kGeneral);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(seen.insert(p).second) << "duplicate block, class " << size;
      std::memset(p, 0xab, size);
      ptrs.push_back(p);
    }
    for (void* p : ptrs) alloc.deallocate(p, size, AllocTag::kGeneral);
  }
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Tag accounting
// ---------------------------------------------------------------------------

TEST(InternalAlloc, TagAccountingTracksLiveAndPeak) {
  InternalAlloc alloc;
  std::vector<void*> ptrs;
  for (int i = 0; i < 10; ++i) {
    ptrs.push_back(alloc.allocate(48, AllocTag::kViews));
  }
  auto stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 10u);
  EXPECT_EQ(stats.live_bytes, 10u * 64);  // 48 rounds up to the 64 B class
  EXPECT_EQ(stats.allocs, 10u);
  // Other tags untouched.
  EXPECT_EQ(alloc.tag_stats(AllocTag::kFrames).live_blocks, 0u);

  for (void* p : ptrs) alloc.deallocate(p, 48, AllocTag::kViews);
  stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_EQ(stats.live_bytes, 0u);
  // Peaks persist after the frees.
  EXPECT_EQ(stats.peak_blocks, 10u);
  EXPECT_EQ(stats.peak_bytes, 10u * 64);
}

TEST(InternalAlloc, OversizeFallThroughStaysTagCounted) {
  InternalAlloc alloc;
  void* p = alloc.allocate(8192, AllocTag::kGeneral);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 8192);
  auto stats = alloc.tag_stats(AllocTag::kGeneral);
  EXPECT_EQ(stats.live_blocks, 1u);
  EXPECT_EQ(stats.live_bytes, 8192u);  // exact, not class-rounded
  alloc.deallocate(p, 8192, AllocTag::kGeneral);
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Magazine refill / flush batching
// ---------------------------------------------------------------------------

TEST(InternalAlloc, RefillMovesBatchesAndFlushReturnsThem) {
  InternalAlloc alloc;
  const int cls = InternalAlloc::size_class(64);

  // Magazine A's first allocation finds the shard empty and carves a whole
  // chunk into the magazine; flushing returns every block to the shard.
  InternalAlloc::Magazine a;
  void* p = alloc.allocate(64, AllocTag::kViews, &a);
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).refills, 1u);
  alloc.deallocate(p, 64, AllocTag::kViews, &a);
  alloc.flush(a);
  const std::size_t shard_after_flush =
      alloc.shard_cached(AllocTag::kViews, cls);
  EXPECT_EQ(shard_after_flush, InternalAlloc::kChunkBytes / 64);
  EXPECT_GE(alloc.tag_stats(AllocTag::kViews).flushes, 1u);

  // Magazine B refills from the now-populated shard in kBatch units.
  InternalAlloc::Magazine b;
  void* q = alloc.allocate(64, AllocTag::kViews, &b);
  EXPECT_EQ(alloc.shard_cached(AllocTag::kViews, cls),
            shard_after_flush - InternalAlloc::kBatch);
  alloc.deallocate(q, 64, AllocTag::kViews, &b);
  alloc.flush(b);
  EXPECT_TRUE(alloc.leak_report().clean);
}

TEST(InternalAlloc, HighWaterDrainBoundsMagazineGrowth) {
  InternalAlloc alloc;
  const int cls = InternalAlloc::size_class(128);

  // Fill one magazine well past the high-water mark by freeing blocks that
  // were allocated magazine-less (straight from the shard): the surplus
  // must drain back to the shard rather than accumulate without bound.
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < 3 * InternalAlloc::kHighWater; ++i) {
    ptrs.push_back(alloc.allocate(128, AllocTag::kGeneral, nullptr));
  }
  InternalAlloc::Magazine mag;
  const std::size_t shard_before = alloc.shard_cached(AllocTag::kGeneral, cls);
  for (void* p : ptrs) alloc.deallocate(p, 128, AllocTag::kGeneral, &mag);
  EXPECT_GT(alloc.shard_cached(AllocTag::kGeneral, cls), shard_before);
  EXPECT_GT(alloc.tag_stats(AllocTag::kGeneral).flushes, 0u);
  alloc.flush(mag);
  EXPECT_TRUE(alloc.leak_report().clean);
}

// ---------------------------------------------------------------------------
// Cross-worker frees
// ---------------------------------------------------------------------------

TEST(InternalAlloc, CrossMagazineFreeKeepsBooksBalanced) {
  // Views are routinely allocated on one worker and freed on another (the
  // hypermerge destroys the right-hand view wherever the join lands).
  InternalAlloc alloc;
  InternalAlloc::Magazine worker_a, worker_b;
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) {
    ptrs.push_back(alloc.allocate(32, AllocTag::kViews, &worker_a));
  }
  for (void* p : ptrs) alloc.deallocate(p, 32, AllocTag::kViews, &worker_b);
  alloc.flush(worker_a);
  alloc.flush(worker_b);
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).live_blocks, 0u);
  EXPECT_TRUE(alloc.leak_report().clean);
}

TEST(InternalAlloc, FreeHeavyMagazineFoldingFirstNeverWrapsThePeaks) {
  // A frees-only magazine reconciling before the allocating one drives the
  // live counts transiently below zero; the peaks must not record that as a
  // near-2^64 maximum.
  InternalAlloc alloc;
  InternalAlloc::Magazine a, b;
  constexpr std::size_t kBlocks = 40;  // > 2 refills, < the high-water drain
  std::vector<void*> ptrs;
  for (std::size_t i = 0; i < kBlocks; ++i) {
    ptrs.push_back(alloc.allocate(64, AllocTag::kViews, &a));
  }
  for (void* p : ptrs) alloc.deallocate(p, 64, AllocTag::kViews, &b);
  alloc.flush(b);
  alloc.flush(a);
  const auto stats = alloc.tag_stats(AllocTag::kViews);
  EXPECT_EQ(stats.live_blocks, 0u);
  EXPECT_LE(stats.peak_blocks, kBlocks);
  EXPECT_LE(stats.peak_bytes, kBlocks * 64);
}

TEST(InternalAlloc, CrossThreadFreeOnProcessInstanceIsSafe) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kGeneral).live_blocks;
  std::vector<void*> ptrs;
  for (int i = 0; i < 300; ++i) {
    ptrs.push_back(alloc.allocate(64, AllocTag::kGeneral));
  }
  std::thread other([&] {
    for (void* p : ptrs) alloc.deallocate(p, 64, AllocTag::kGeneral);
  });
  other.join();
  std::set<void*> seen;
  std::vector<void*> round2;
  for (int i = 0; i < 300; ++i) {
    void* p = alloc.allocate(64, AllocTag::kGeneral);
    EXPECT_TRUE(seen.insert(p).second);
    round2.push_back(p);
  }
  for (void* p : round2) alloc.deallocate(p, 64, AllocTag::kGeneral);
  alloc.stats_sync();  // the freeing thread's magazine reconciled at exit
  EXPECT_EQ(alloc.tag_stats(AllocTag::kGeneral).live_blocks, before);
}

TEST(InternalAlloc, ConcurrentAllocFreeStress) {
  auto& alloc = InternalAlloc::instance();
  constexpr int kThreads = 4, kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const AllocTag tag = t % 2 == 0 ? AllocTag::kViews : AllocTag::kFrames;
      std::vector<void*> held;
      for (int i = 0; i < kIters; ++i) {
        held.push_back(alloc.allocate(16, tag));
        std::memset(held.back(), 0x5a, 16);
        if (held.size() > 48) {
          alloc.deallocate(held.front(), 16, tag);
          held.erase(held.begin());
        }
      }
      for (void* p : held) alloc.deallocate(p, 16, tag);
    });
  }
  for (auto& th : threads) th.join();
}

// ---------------------------------------------------------------------------
// Leak check
// ---------------------------------------------------------------------------

TEST(InternalAlloc, LeakCheckTripsOnDeliberatelyLeakedBlock) {
  InternalAlloc alloc;
  void* leaked = alloc.allocate(96, AllocTag::kHypermapNodes);
  auto report = alloc.leak_report();
  EXPECT_FALSE(report.clean);
  EXPECT_EQ(
      report.blocks[static_cast<std::size_t>(AllocTag::kHypermapNodes)], 1u);
  EXPECT_NE(report.describe().find("hypermap_nodes=1"), std::string::npos);
  // Repaying the debt makes the report clean again.
  alloc.deallocate(leaked, 96, AllocTag::kHypermapNodes);
  report = alloc.leak_report();
  EXPECT_TRUE(report.clean);
  EXPECT_EQ(report.describe(), "no outstanding blocks");
}

// ---------------------------------------------------------------------------
// Rewired consumers
// ---------------------------------------------------------------------------

TEST(InternalAllocConsumers, HeapSpawnFramesUseTheFramesTag) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kFrames);
  // Spawn frames live on the spawner's stack; the join record a promoted
  // frame needs is the heap-allocated part.
  auto* join = new cilkm::rt::JoinFrame();
  alloc.stats_sync();
  const auto during = alloc.tag_stats(AllocTag::kFrames);
  EXPECT_EQ(during.allocs, before.allocs + 1);
  EXPECT_EQ(during.live_blocks, before.live_blocks + 1);
  delete join;
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kFrames).live_blocks,
            before.live_blocks);
}

TEST(InternalAllocConsumers, HyperMapTablesUseTheHypermapTag) {
  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto before = alloc.tag_stats(AllocTag::kHypermapNodes);
  {
    cilkm::hypermap::HyperMap map;
    int keys[100];
    for (int& k : keys) map.insert(&k, &k, nullptr);  // forces expansions
    alloc.stats_sync();
    EXPECT_GT(alloc.tag_stats(AllocTag::kHypermapNodes).allocs,
              before.allocs);
    EXPECT_GT(alloc.tag_stats(AllocTag::kHypermapNodes).live_blocks,
              before.live_blocks);
  }
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kHypermapNodes).live_blocks,
            before.live_blocks);
}

TEST(InternalAllocConsumers, StackPoolTrimsBeyondPerNodeHighWater) {
  cilkm::rt::StackPool pool(/*max_cached=*/2);

  std::vector<cilkm::rt::Fiber*> fibers;
  for (int i = 0; i < 5; ++i) fibers.push_back(pool.acquire());
  EXPECT_EQ(pool.total_created(), 5u);
  for (auto* f : fibers) pool.release(f);  // no local cache: straight to shard
  // The shard keeps at most the high-water count; the rest were unmapped.
  EXPECT_EQ(pool.cached(), 2u);
  // Re-acquiring two comes from the cache, the third is fresh.
  cilkm::rt::Fiber* a = pool.acquire();
  cilkm::rt::Fiber* b = pool.acquire();
  cilkm::rt::Fiber* c = pool.acquire();
  EXPECT_EQ(pool.total_created(), 6u);
  pool.release(a);
  pool.release(b);
  pool.release(c);
}

// ---------------------------------------------------------------------------
// DPRNG-driven property: random view merge/collapse orders keep the books
// balanced. A random fork-join DAG creates views on whichever workers steal
// its strands and merges/destroys them wherever joins land; whatever order
// the DAG induces, every policy must return the kViews ledger to its
// starting point once the reducers are gone.
// ---------------------------------------------------------------------------

struct MergeFuzzShape {
  std::uint64_t seed;
  unsigned max_depth;
};

template <typename Policy>
void run_merge_fuzz(const MergeFuzzShape& shape, unsigned workers) {
  struct Node {
    static void walk(cilkm::reducer<cilkm::string_concat, Policy>* cat,
                     cilkm::reducer_opadd<long, Policy>* sum,
                     const MergeFuzzShape& shape, std::uint64_t path,
                     unsigned depth) {
      std::uint64_t state = shape.seed ^ (path * 0x9e3779b97f4a7c15ULL);
      const std::uint64_t r = cilkm::splitmix64(state);
      if (depth >= shape.max_depth || r % 5 == 0) {
        cat->view() += static_cast<char>('a' + r % 26);
        *(*sum) += static_cast<long>(r % 100);
        if (r % 7 == 0) std::this_thread::yield();  // vary steal timing
        return;
      }
      cilkm::fork2join(
          [&] { walk(cat, sum, shape, path * 2 + 1, depth + 1); },
          [&] { walk(cat, sum, shape, path * 2 + 2, depth + 1); });
    }
  };

  auto& alloc = InternalAlloc::instance();
  alloc.stats_sync();
  const auto views_before = alloc.tag_stats(AllocTag::kViews).live_blocks;
  {
    cilkm::reducer<cilkm::string_concat, Policy> cat;
    cilkm::reducer_opadd<long, Policy> sum;
    cilkm::run(workers,
               [&] { Node::walk(&cat, &sum, shape, 0, 0); });
    EXPECT_FALSE(cat.get_value().empty());
  }
  // Every view the run created — ambient, stolen-branch, merged — is gone.
  // Worker magazines reconciled when the run's pool shut down; fold in this
  // thread's own deltas before comparing.
  alloc.stats_sync();
  EXPECT_EQ(alloc.tag_stats(AllocTag::kViews).live_blocks, views_before);
}

class MergeOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(MergeOrderProperty, AllPoliciesKeepViewLedgerBalanced) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const MergeFuzzShape shape{
      cilkm::test::derived_seed(100 + static_cast<std::uint64_t>(GetParam())),
      9};
  for (const unsigned workers : {2u, 4u}) {
    run_merge_fuzz<cilkm::mm_policy>(shape, workers);
    run_merge_fuzz<cilkm::hypermap_policy>(shape, workers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeOrderProperty, ::testing::Range(0, 6));

}  // namespace
