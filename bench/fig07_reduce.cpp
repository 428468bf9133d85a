// Figure 7: reduce overhead — the overheads reducers incur only during
// parallel execution (view creation, view insertion, hypermerges with their
// reduce operations, and, for Cilk-M, view transferal) — measured by
// instrumentation inside the runtime while running add-n on 16 workers.
// Figure 8 follows from the same Cilk-M runs: the breakdown of that
// overhead into its four components, with the views created per run.
//
//   ./fig07_reduce [--lookups N] [--reps R] [--procs P]
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "util/stats.hpp"

namespace {

struct Overheads {
  double create_us = 0, insert_us = 0, transfer_us = 0, merge_us = 0;
  std::uint64_t steals = 0, views = 0;
  double total_us() const {
    return create_us + insert_us + transfer_us + merge_us;
  }
};

template <typename Policy>
Overheads measure(cilkm::Scheduler& sched, unsigned n, std::uint64_t lookups,
                  int reps) {
  using cilkm::StatCounter;
  Overheads out;
  for (int r = 0; r < reps; ++r) {
    sched.reset_stats();
    sched.run([&] {
      bench::MicroBench<Policy>::add_n(n, lookups, /*grain=*/1024,
                                       /*yield_period=*/2048);
    });
    const auto stats = sched.aggregate_stats();
    out.create_us += static_cast<double>(stats[StatCounter::kViewCreateNs]) / 1e3;
    out.insert_us += static_cast<double>(stats[StatCounter::kViewInsertNs]) / 1e3;
    out.transfer_us +=
        static_cast<double>(stats[StatCounter::kViewTransferNs]) / 1e3;
    out.merge_us += static_cast<double>(stats[StatCounter::kHypermergeNs]) / 1e3;
    out.steals += stats[StatCounter::kSteals];
    out.views += stats[StatCounter::kViewsCreated];
  }
  out.create_us /= reps;
  out.insert_us /= reps;
  out.transfer_us /= reps;
  out.merge_us /= reps;
  out.steals /= static_cast<std::uint64_t>(reps);
  out.views /= static_cast<std::uint64_t>(reps);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto lookups =
      bench::flag_int<std::uint64_t>(argc, argv, "--lookups", 1 << 23);
  const int reps = bench::flag_int(argc, argv, "--reps", 5, 1);
  const auto procs = bench::flag_int<unsigned>(argc, argv, "--procs", 16);
  bench::reject_unknown_flags(argc, argv);

  std::printf("# Figure 7: reduce overhead of add-n on %u workers "
              "(microseconds; mean of %d runs)\n",
              procs, reps);
  std::printf("%-10s %14s %14s %10s %10s %10s\n", "bench", "Cilk-M (us)",
              "Cilk Plus (us)", "ratio", "steals-M", "steals-P");

  std::vector<Overheads> mm_runs;
  cilkm::Scheduler sched(procs);
  for (unsigned n = 4; n <= 1024; n *= 2) {
    const auto mm = measure<cilkm::mm_policy>(sched, n, lookups, reps);
    mm_runs.push_back(mm);
    const auto hyper = measure<cilkm::hypermap_policy>(sched, n, lookups, reps);
    std::printf("add-%-6u %14.1f %14.1f %9.2fx %10llu %10llu\n", n,
                mm.total_us(), hyper.total_us(),
                hyper.total_us() / (mm.total_us() > 0 ? mm.total_us() : 1e-9),
                static_cast<unsigned long long>(mm.steals),
                static_cast<unsigned long long>(hyper.steals));
  }
  std::printf("# paper: Cilk Plus reduce overhead much higher, gap grows "
              "with n (view insertion dominates); comparable steal counts\n");

  std::printf("\n# Figure 8: breakdown of Cilk-M reduce overhead, add-n on %u "
              "workers (microseconds; the Cilk-M runs above)\n",
              procs);
  std::printf("%-10s %12s %12s %12s %12s %12s %10s\n", "bench", "create",
              "insert", "hypermerge", "transferal", "total", "views");
  unsigned n = 4;
  for (const Overheads& mm : mm_runs) {
    std::printf("add-%-6u %12.1f %12.1f %12.1f %12.1f %12.1f %10llu\n", n,
                mm.create_us, mm.insert_us, mm.merge_us, mm.transfer_us,
                mm.total_us(), static_cast<unsigned long long>(mm.views));
    n *= 2;
  }
  std::printf("# paper: view creation dominates; transferal grows slowly "
              "with n (the SPA map sequences efficiently)\n");
  return 0;
}
