// The persistent worker pool: threads are created once and survive across
// run() calls, idle workers park on the scheduler's idle gate instead of
// spinning, stats separate genuine thefts from own-deque promotions, and a
// run that throws leaves the pool quiesced and reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"

namespace {

using cilkm::StatCounter;
using cilkm::parallel_for;

/// Threads of this process, from /proc/self/status (Linux-only, like the
/// runtime's context switch).
int count_os_threads() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  std::fclose(f);
  return threads;
}

/// Called by the root strand: returns once every other worker of `sched`
/// is registered on the idle gate. Spin and yield rounds take no fixed
/// time under CPU contention, so a fixed sleep cannot promise that.
void wait_until_others_park(const cilkm::Scheduler& sched) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sched.parked_workers() < sched.num_workers() - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(SchedulerPool, ThreadsPersistAcrossRuns) {
  cilkm::Scheduler sched(4);
  sched.run([] {});
  const int after_first = count_os_threads();
  ASSERT_GE(after_first, 4);
  for (int round = 0; round < 25; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 500, 8, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 499L * 500 / 2);
  }
  // A per-run thread pool would have churned through dozens of threads here;
  // the persistent pool's population is unchanged.
  EXPECT_EQ(count_os_threads(), after_first);
}

TEST(SchedulerPool, WarmUpStartsThreadsWithoutRunning) {
  const int before = count_os_threads();
  cilkm::Scheduler sched(3);
  sched.warm_up();
  EXPECT_GE(count_os_threads(), before + 3);
  // warm_up is idempotent and the warmed pool runs normally.
  sched.warm_up();
  std::atomic<int> ran{0};
  sched.run([&] { ran.store(1); });
  EXPECT_EQ(ran.load(), 1);
}

TEST(SchedulerPool, IdleWorkersParkInsteadOfSpinning) {
  // Oversubscribed pool, serial root: every worker except the one running
  // the root is idle for the whole run and must end up parked on the idle
  // gate (spin → yield → park), observable via the new kParks counter.
  cilkm::Scheduler sched(8);
  sched.run([] {});  // create threads; don't count warm-up parking
  sched.reset_stats();
  sched.run([&] { wait_until_others_park(sched); });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kParks], 1u);
  // The root-done broadcast (and any pushes) must have delivered wake-ups to
  // the parked workers.
  EXPECT_GE(stats[StatCounter::kWakes], 1u);
}

TEST(SchedulerPool, StatsAccumulateUntilReset) {
  cilkm::Scheduler sched(2);
  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  const auto first = sched.aggregate_stats();
  EXPECT_GE(first[StatCounter::kFibersAllocated], 1u);

  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  const auto second = sched.aggregate_stats();
  EXPECT_GE(second[StatCounter::kFibersAllocated],
            first[StatCounter::kFibersAllocated] + 1);

  sched.reset_stats();
  const auto cleared = sched.aggregate_stats();
  for (unsigned i = 0; i < static_cast<unsigned>(StatCounter::kCount); ++i) {
    EXPECT_EQ(cleared.counters[i], 0u) << "counter " << i;
  }

  // The pool still works and records fresh stats after the reset.
  sched.run([] { parallel_for(0, 200, 4, [](std::int64_t) {}); });
  EXPECT_GE(sched.aggregate_stats()[StatCounter::kFibersAllocated], 1u);
}

TEST(SchedulerPool, ExceptionDoesNotPoisonThePool) {
  cilkm::Scheduler sched(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(sched.run([] { throw std::runtime_error("boom"); }),
                 std::runtime_error);
    // The very next run on the same pool is healthy.
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 300, 8, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 299L * 300 / 2);
  }
}

TEST(SchedulerPool, ExceptionIsNotRedeliveredToTheNextRun) {
  cilkm::Scheduler sched(2);
  EXPECT_THROW(sched.run([] { throw std::logic_error("first"); }),
               std::logic_error);
  EXPECT_NO_THROW(sched.run([] {}));
}

TEST(SchedulerPool, SingleWorkerRunHasNoStealsOrAttempts) {
  // With one worker there are no victims: the fork fast path services every
  // spawn, so both the theft counter and the attempt counter stay at zero
  // (the pre-fix code could count own-deque promotions as steals).
  cilkm::Scheduler sched(1);
  sched.reset_stats();
  long total = 0;
  cilkm::reducer_opadd<long> sum;
  sched.run([&] {
    parallel_for(0, 2000, 16, [&](std::int64_t) { *sum += 1; });
  });
  total = sum.get_value();
  EXPECT_EQ(total, 2000);
  const auto stats = sched.aggregate_stats();
  EXPECT_EQ(stats[StatCounter::kSteals], 0u);
  EXPECT_EQ(stats[StatCounter::kStealAttempts], 0u);
  EXPECT_EQ(stats[StatCounter::kSelfPops], 0u);
}

TEST(SchedulerPool, GenuineTheftIsCountedWithItsAttempts) {
  // The left branch cannot finish until the right branch runs, so a second
  // worker MUST steal the continuation: total_steals() counts it, and every
  // steal implies at least one recorded attempt.
  std::atomic<bool> right_ran{false};
  cilkm::Scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kSteals], 1u);
  EXPECT_GE(stats[StatCounter::kStealAttempts], stats[StatCounter::kSteals]);
  EXPECT_EQ(sched.total_steals(), stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, StealAccountingInvariantsHold) {
  // Under steal-half (the default), every theft transaction acquires >= 1
  // frame, every theft is classified into exactly one proximity bucket, and
  // every theft contributes exactly one latency sample to its tier.
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  for (int round = 0; round < 10; ++round) {
    std::atomic<long> sum{0};
    sched.run([&] {
      parallel_for(0, 4000, 4, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 3999L * 4000 / 2);
  }
  const auto stats = sched.aggregate_stats();
  EXPECT_EQ(stats[StatCounter::kLocalSteals] + stats[StatCounter::kRemoteSteals],
            stats[StatCounter::kSteals]);
  EXPECT_GE(stats[StatCounter::kStolenFrames], stats[StatCounter::kSteals]);
  std::uint64_t lat_samples = 0;
  for (std::size_t t = 0; t < cilkm::WorkerStats::kStealTiers; ++t) {
    std::uint64_t in_buckets = 0;
    for (std::size_t b = 0; b < cilkm::WorkerStats::kStealLatBuckets; ++b) {
      in_buckets += stats.steal_lat_hist[t][b];
    }
    EXPECT_EQ(in_buckets, stats.steal_lat_count[t]) << "tier " << t;
    lat_samples += stats.steal_lat_count[t];
  }
  EXPECT_EQ(lat_samples, stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, StealHalfForcedTheftAcquiresFrames) {
  // The forced-steal shape from GenuineTheftIsCountedWithItsAttempts, under
  // the default steal-half config: the theft happens, and stolen-frame
  // accounting covers it.
  std::atomic<bool> right_ran{false};
  cilkm::Scheduler sched(2);
  sched.reset_stats();
  sched.run([&] {
    cilkm::fork2join(
        [&] {
          while (!right_ran.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        [&] { right_ran.store(true, std::memory_order_release); });
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kSteals], 1u);
  EXPECT_GE(stats[StatCounter::kStolenFrames], stats[StatCounter::kSteals]);
}

TEST(SchedulerPool, ParkedWorkersWakeForNewWork) {
  // Phase 1 idles everyone until they park; phase 2 (same run) then
  // spawns real work, which must wake the parked workers via Deque::push and
  // still compute the right answer.
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  std::atomic<long> sum{0};
  sched.run([&] {
    wait_until_others_park(sched);
    parallel_for(0, 4000, 8, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 3999L * 4000 / 2);
  const auto stats = sched.aggregate_stats();
  EXPECT_GE(stats[StatCounter::kParks], 1u);
}

TEST(SchedulerPool, ReducersCorrectAcrossReusedRuns) {
  // Reducer state (view stores, slot offsets) stays warm in the persistent
  // workers; values must still be exact run after run.
  cilkm::Scheduler sched(4);
  for (int round = 0; round < 10; ++round) {
    cilkm::reducer_opadd<long> sum;
    sched.run([&] {
      parallel_for(0, 1000, 4, [&](std::int64_t) { *sum += 1; });
    });
    EXPECT_EQ(sum.get_value(), 1000);
  }
}

TEST(SchedulerPool, ManySequentialRunsAreFast) {
  // 500 empty runs through the persistent pool: mostly a wake/quiesce
  // handshake each. This is a liveness test (no lost wake-up between runs),
  // not a timing assertion.
  cilkm::Scheduler sched(4);
  for (int i = 0; i < 500; ++i) sched.run([] {});
}

}  // namespace
