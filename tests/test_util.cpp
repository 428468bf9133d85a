// Utility-layer tests: RNG determinism and distribution, cache padding,
// spinlock mutual exclusion, timers, stats counters.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/cache.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/stats.hpp"
#include "util/timing.hpp"

namespace {

using namespace cilkm;

TEST(Rng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42), c(43);
  bool any_differ = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    any_differ |= (va != c());
  }
  EXPECT_TRUE(any_differ);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 10ull, 1000000007ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Xoshiro256 rng(1234);
  constexpr int kBuckets = 16, kSamples = 160000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets / 5);
  }
}

TEST(Rng, Uniform01InUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitMixAdvancesState) {
  std::uint64_t s = 0;
  const auto v1 = splitmix64(s);
  const auto v2 = splitmix64(s);
  EXPECT_NE(v1, v2);
  EXPECT_NE(s, 0u);
}

TEST(CachePadded, ElementsDoNotShareCacheLines) {
  CachePadded<int> arr[4];
  for (int i = 0; i < 3; ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&arr[i].value);
    const auto b = reinterpret_cast<std::uintptr_t>(&arr[i + 1].value);
    EXPECT_GE(b - a, kCacheLineSize);
  }
  arr[0].value = 5;
  EXPECT_EQ(*arr[0], 5);
  EXPECT_EQ(arr[1].value, 0);
}

TEST(SpinLock, ProvidesMutualExclusion) {
  SpinLock lock;
  long counter = 0;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters);
}

TEST(SpinLock, TryLockReflectsState) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Timing, NowNsIsMonotonic) {
  const auto t1 = now_ns();
  const auto t2 = now_ns();
  EXPECT_LE(t1, t2);
}

TEST(Timing, ScopedTimerAccumulates) {
  std::uint64_t sink = 0;
  {
    ScopedTimerNs timer(sink);
    volatile int x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1;
  }
  EXPECT_GT(sink, 0u);
  const std::uint64_t first = sink;
  {
    ScopedTimerNs timer(sink);
    volatile int x = 0;
    for (int i = 0; i < 10000; ++i) x = x + 1;
  }
  EXPECT_GT(sink, first);
}

TEST(Stats, CountersIndexAndAggregate) {
  WorkerStats a, b;
  a[StatCounter::kSteals] = 3;
  b[StatCounter::kSteals] = 4;
  b[StatCounter::kViewsCreated] = 9;
  a += b;
  EXPECT_EQ(a[StatCounter::kSteals], 7u);
  EXPECT_EQ(a[StatCounter::kViewsCreated], 9u);
  a.reset();
  EXPECT_EQ(a[StatCounter::kSteals], 0u);
}

TEST(Stats, StealLatencyBucketBounds) {
  // Bucket b >= 1 starts at 128 * 2^b ns; the last one is open-ended.
  const std::pair<std::uint64_t, std::size_t> cases[] = {
      {0, 0},     {255, 0},     {256, 1},     {16383, 6},
      {16384, 7}, {262143, 10}, {262144, 11}, {~std::uint64_t{0}, 11}};
  for (const auto& [ns, bucket] : cases) {
    WorkerStats s;
    s.record_steal(0, ns);
    EXPECT_EQ(s.steal_lat_hist[0][bucket], 1u) << ns << " ns";
  }
  static_assert(WorkerStats::kStealLatBuckets == 12);
}

TEST(Stats, EveryCounterHasAName) {
  for (unsigned i = 0; i < static_cast<unsigned>(StatCounter::kCount); ++i) {
    EXPECT_NE(to_string(static_cast<StatCounter>(i)), "?");
  }
}

}  // namespace
