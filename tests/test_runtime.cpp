// Scheduler / fork-join runtime tests: serial equivalence, nested
// parallelism, work stealing, parking and joining steals, exceptions, and
// the split between spawn frames and the join records of promoted frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include "chaos/chaos.hpp"
#include "mem/internal_alloc.hpp"
#include "runtime/api.hpp"
#include "runtime/frame.hpp"
#include "util/cache.hpp"

namespace {

using cilkm::fork2join;
using cilkm::parallel_for;
using cilkm::parallel_invoke;

TEST(Fork2Join, RunsBothBranchesSerially) {
  // Outside any scheduler: plain serial execution.
  std::vector<int> order;
  fork2join([&] { order.push_back(1); }, [&] { order.push_back(2); });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Fork2Join, RunsBothBranchesOnOneWorker) {
  std::vector<int> order;
  cilkm::run(1, [&] {
    fork2join([&] { order.push_back(1); }, [&] { order.push_back(2); });
    order.push_back(3);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fork2Join, SerialOrderIsPreservedOnOneWorker) {
  // With P=1 there are no steals, so execution must match the serial
  // elision exactly — the property the reducer protocol builds on.
  std::vector<int> order;
  cilkm::run(1, [&] {
    fork2join(
        [&] {
          order.push_back(1);
          fork2join([&] { order.push_back(2); }, [&] { order.push_back(3); });
          order.push_back(4);
        },
        [&] { order.push_back(5); });
    order.push_back(6);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

std::uint64_t fib_serial(unsigned n) {
  return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2);
}

std::uint64_t fib_parallel(unsigned n) {
  if (n < 2) return n;
  if (n < 10) return fib_serial(n);
  std::uint64_t a = 0, b = 0;
  fork2join([&] { a = fib_parallel(n - 1); }, [&] { b = fib_parallel(n - 2); });
  return a + b;
}

class FibTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FibTest, MatchesSerialAcrossWorkerCounts) {
  const unsigned workers = GetParam();
  std::uint64_t result = 0;
  cilkm::run(workers, [&] { result = fib_parallel(27); });
  EXPECT_EQ(result, fib_serial(27));
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, FibTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr int kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  cilkm::run(4, [&] {
    parallel_for(0, kN, 64, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  cilkm::run(2, [&] {
    parallel_for(5, 5, 1, [&](std::int64_t) { count.fetch_add(1); });
    parallel_for(7, 8, 1, [&](std::int64_t i) {
      EXPECT_EQ(i, 7);
      count.fetch_add(1);
    });
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelInvoke, RunsAllInSerialOrderOnOneWorker) {
  std::vector<int> order;
  cilkm::run(1, [&] {
    parallel_invoke([&] { order.push_back(1); }, [&] { order.push_back(2); },
                    [&] { order.push_back(3); }, [&] { order.push_back(4); });
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Stealing, ForcedStealExecutesBothSidesConcurrently) {
  // The left branch blocks until the right branch runs — this only
  // terminates if a thief steals the continuation. Also exercises parking:
  // the left worker arrives at the join first and must park.
  std::atomic<bool> right_ran{false};
  cilkm::Scheduler sched(2);
  sched.run([&] {
    fork2join(
        [&] {
          while (!right_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  EXPECT_TRUE(right_ran.load());
  EXPECT_GE(sched.total_steals(), 1u);
}

TEST(Stealing, JoiningStealResumesContinuationOnThief) {
  // Left side sleeps; thief finishes right side first in the common case,
  // then the victim arrives last and resumes without parking — or parks and
  // is resumed. Either way the continuation runs exactly once.
  std::atomic<int> continuation_runs{0};
  cilkm::Scheduler sched(2);
  for (int round = 0; round < 20; ++round) {
    sched.run([&] {
      fork2join([&] { std::this_thread::sleep_for(std::chrono::microseconds(100)); },
                [&] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
      continuation_runs.fetch_add(1);
    });
  }
  EXPECT_EQ(continuation_runs.load(), 20);
}

TEST(Stealing, DeepNestingUnderContention) {
  constexpr int kN = 1 << 12;
  std::vector<std::atomic<int>> hits(kN);
  cilkm::run(8, [&] {
    parallel_for(0, kN, 1, [&](std::int64_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    });
  });
  long total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_EQ(total, kN);
}

TEST(Exceptions, PropagatesFromRoot) {
  EXPECT_THROW(cilkm::run(2, [] { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(Exceptions, PropagatesFromLeftBranch) {
  EXPECT_THROW(cilkm::run(2,
                          [] {
                            fork2join([] { throw std::logic_error("left"); },
                                      [] {});
                          }),
               std::logic_error);
}

TEST(Exceptions, PropagatesFromRightBranch) {
  EXPECT_THROW(cilkm::run(2,
                          [] {
                            fork2join([] {},
                                      [] { throw std::logic_error("right"); });
                          }),
               std::logic_error);
}

TEST(Exceptions, PropagatesFromStolenBranch) {
  std::atomic<bool> right_started{false};
  EXPECT_THROW(
      cilkm::run(2,
                 [&] {
                   fork2join(
                       [&] {
                         while (!right_started.load()) std::this_thread::yield();
                       },
                       [&] {
                         right_started.store(true);
                         throw std::runtime_error("stolen branch");
                       });
                 }),
      std::runtime_error);
}

// ------------------------------------------------ spawn frames, join records

// An un-stolen fork2join builds nothing but its spawn frame.
static_assert(std::is_trivially_destructible_v<cilkm::rt::SpawnFrame>);
static_assert(sizeof(cilkm::rt::SpawnFrameT<std::function<void()>>) <=
                  cilkm::kCacheLineSize,
              "a spawn frame fits in one cache line");

/// fib with no serial cutoff: every call above the leaves spawns.
std::uint64_t fib_spawning(unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0, b = 0;
  fork2join([&] { a = fib_spawning(n - 1); },
            [&] { b = fib_spawning(n - 2); });
  return a + b;
}

/// The kFrames tag's counters with every magazine folded in. Call it only
/// once the Scheduler that ran is destroyed: its threads flush their
/// magazines on exit.
cilkm::mem::TagStats frames_tag() {
  auto& alloc = cilkm::mem::InternalAlloc::instance();
  alloc.stats_sync();
  return alloc.tag_stats(cilkm::mem::AllocTag::kFrames);
}

TEST(JoinRecord, UnstolenSpawnsAllocateNone) {
  const std::uint64_t allocs = frames_tag().allocs;
  std::uint64_t result = 0;
  {
    cilkm::Scheduler sched(1);
    sched.run([&] { result = fib_spawning(20); });
  }
  EXPECT_EQ(result, fib_serial(20));
  EXPECT_EQ(frames_tag().allocs, allocs);
}

/// Stealing runs at P=4: a spawning fib checked against its serial value,
/// then a run whose stolen branch throws (the left branch waits until the
/// right one has started, so the right one is always stolen). Every join
/// record built on the way is freed again.
void expect_join_records_freed() {
  const cilkm::mem::TagStats before = frames_tag();
  {
    cilkm::Scheduler sched(4);
    std::uint64_t result = 0;
    sched.run([&] { result = fib_spawning(22); });
    EXPECT_EQ(result, fib_serial(22));
    std::atomic<bool> right_started{false};
    EXPECT_THROW(sched.run([&] {
                   fork2join(
                       [&] {
                         while (!right_started.load()) {
                           std::this_thread::yield();
                         }
                         fib_spawning(16);
                       },
                       [&] {
                         right_started.store(true);
                         fib_spawning(16);
                         throw std::runtime_error("stolen branch");
                       });
                 }),
                 std::runtime_error);
    EXPECT_GE(sched.total_steals(), 1u);
  }
  const cilkm::mem::TagStats after = frames_tag();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_EQ(after.live_blocks, before.live_blocks);
}

TEST(JoinRecord, StolenFramesBuildAndFreeTheirRecords) {
  expect_join_records_freed();
}

TEST(JoinRecord, VictimsBuildTheRecordWhenThievesAreDelayed) {
  // Every theft spins between its claim and its launch, so victims often
  // reach join_slow before their thief and install the record themselves.
  cilkm::chaos::Config cfg;
  cfg.p = 1.0;
  cfg.sites = cilkm::chaos::site_bit(cilkm::chaos::Site::kStealDelay);
  struct Disarm {
    ~Disarm() { cilkm::chaos::disarm(); }
  } disarm_on_exit;  // even if a run throws past the expectations
  cilkm::chaos::arm(cfg);
  expect_join_records_freed();
}

TEST(Scheduler, ReusableAcrossRuns) {
  cilkm::Scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 1000, 16,
                   [&](std::int64_t i) { sum.fetch_add(i, std::memory_order_relaxed); });
    });
    EXPECT_EQ(sum.load(), 999L * 1000 / 2);
  }
}

TEST(Scheduler, AggregateStatsCountFibers) {
  cilkm::Scheduler sched(2);
  sched.reset_stats();
  sched.run([] {});
  const auto stats = sched.aggregate_stats();
  // At least the root fiber was launched.
  EXPECT_GE(stats[cilkm::StatCounter::kFibersAllocated], 1u);
}

TEST(Scheduler, ManyWorkersTinyWork) {
  for (unsigned p : {1u, 2u, 5u, 16u}) {
    std::atomic<int> x{0};
    cilkm::run(p, [&] { x.store(42); });
    EXPECT_EQ(x.load(), 42);
  }
}

}  // namespace
