// Figure 1: relative overhead of ordinary L1-cache accesses, memory-mapped
// reducer lookups, hypermap reducer lookups, and spinlocking — additions on
// four memory locations in a tight loop on a single processor, each bar
// normalized to the L1 baseline.
//
//   ./fig01_overhead [--iters N] [--reps R]
#include <pthread.h>

#include <cstdio>

#include "harness.hpp"

namespace {

constexpr unsigned kLocations = 4;

void l1_baseline(std::uint64_t iters) {
  // Volatile precludes promoting the four accumulators into registers, so
  // each update is a genuine L1 load+store (the paper's methodology).
  volatile std::uint64_t cells[kLocations] = {};
  for (std::uint64_t i = 0; i < iters; ++i) {
    cells[i & (kLocations - 1)] = cells[i & (kLocations - 1)] + 1;
  }
  if (cells[0] + cells[1] + cells[2] + cells[3] != iters) std::abort();
}

template <typename Policy>
void reducer_bench(std::uint64_t iters) {
  cilkm::reducer_opadd<std::uint64_t, Policy> r0, r1, r2, r3;
  cilkm::reducer_opadd<std::uint64_t, Policy>* r[kLocations] = {&r0, &r1, &r2,
                                                                &r3};
  for (std::uint64_t i = 0; i < iters; ++i) {
    *(*r[i & (kLocations - 1)]) += 1;
  }
  if (r0.get_value() + r1.get_value() + r2.get_value() + r3.get_value() !=
      iters) {
    std::abort();
  }
}

void locking_bench(std::uint64_t iters) {
  pthread_spinlock_t locks[kLocations];
  volatile std::uint64_t cells[kLocations] = {};
  for (auto& lock : locks) pthread_spin_init(&lock, PTHREAD_PROCESS_PRIVATE);
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t k = i & (kLocations - 1);
    pthread_spin_lock(&locks[k]);
    cells[k] = cells[k] + 1;
    pthread_spin_unlock(&locks[k]);
  }
  for (auto& lock : locks) pthread_spin_destroy(&lock);
  if (cells[0] + cells[1] + cells[2] + cells[3] != iters) std::abort();
}

}  // namespace

int main(int argc, char** argv) {
  const auto iters =
      bench::flag_int<std::uint64_t>(argc, argv, "--iters", 1 << 25);
  const int reps = bench::flag_int(argc, argv, "--reps", 5, 1);
  bench::reject_unknown_flags(argc, argv);

  double l1 = 0, mm = 0, hyper = 0, lock = 0;

  // All variants run on one worker inside the scheduler so the reducer
  // lookup paths are the real (worker-context) paths; the persistent pool is
  // reused across all four variants. Unlike the delta-based figures, this
  // one reports RATIOS, so each variant times its reps inside a single
  // run() — the per-run dispatch constant must stay out of the samples or
  // it would compress every ratio toward 1 at small --iters.
  cilkm::Scheduler sched(1);
  sched.run([&] { l1 = bench::repeat(reps, [&] { l1_baseline(iters); }).mean_s; });
  sched.run([&] {
    mm = bench::repeat(reps, [&] {
           reducer_bench<cilkm::mm_policy>(iters);
         }).mean_s;
  });
  sched.run([&] {
    hyper = bench::repeat(reps, [&] {
              reducer_bench<cilkm::hypermap_policy>(iters);
            }).mean_s;
  });
  sched.run(
      [&] { lock = bench::repeat(reps, [&] { locking_bench(iters); }).mean_s; });

  std::printf("# Figure 1: normalized overhead of updates to 4 memory "
              "locations (1 processor, %llu iterations)\n",
              static_cast<unsigned long long>(iters));
  std::printf("%-16s %12s %12s\n", "variant", "time (s)", "normalized");
  std::printf("%-16s %12.4f %12.2f\n", "L1-memory", l1, 1.0);
  std::printf("%-16s %12.4f %12.2f\n", "memory-mapped", mm, mm / l1);
  std::printf("%-16s %12.4f %12.2f\n", "hypermap", hyper, hyper / l1);
  std::printf("%-16s %12.4f %12.2f\n", "locking", lock, lock / l1);
  std::printf("# paper (Opteron 8354): L1 1.0, memory-mapped ~3, hypermap "
              "~12, locking ~13\n");
  return 0;
}
