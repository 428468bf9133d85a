// Figure 6: reducer lookup overhead — time(add-n) minus time(add-base-n) on
// a single processor, n ∈ {4, 8, ..., 1024}, for both view-store policies.
// The paper's result: Cilk-M's overhead is flat in n (two loads and a
// branch), while Cilk Plus's hash-table lookup cost varies with n.
//
//   ./fig06_lookup [--lookups N] [--reps R]
#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  const auto lookups =
      bench::flag_int<std::uint64_t>(argc, argv, "--lookups", 1 << 24);
  const int reps = bench::flag_int(argc, argv, "--reps", 5, 1);
  bench::reject_unknown_flags(argc, argv);
  const std::int64_t grain = 1 << 30;  // single chunk: pure serial loop

  std::printf("# Figure 6: lookup overhead on 1 processor "
              "(time of add-n minus time of add-base-n, %llu lookups)\n",
              static_cast<unsigned long long>(lookups));
  std::printf("%-10s %14s %14s %10s\n", "bench", "Cilk-M (s)",
              "Cilk Plus (s)", "CP/M");

  cilkm::Scheduler sched(1);
  for (unsigned n = 4; n <= 1024; n *= 2) {
    const double base =
        bench::repeat(sched, reps,
                      [&] { bench::add_base_n(n, lookups, grain); }).mean_s;
    const double mm = bench::repeat(sched, reps, [&] {
                        bench::MicroBench<cilkm::mm_policy>::add_n(n, lookups,
                                                                   grain);
                      }).mean_s;
    const double hyper =
        bench::repeat(sched, reps, [&] {
          bench::MicroBench<cilkm::hypermap_policy>::add_n(n, lookups, grain);
        }).mean_s;
    const double mm_over = mm - base;
    const double hyper_over = hyper - base;
    std::printf("add-%-6u %14.4f %14.4f %9.2fx\n", n, mm_over, hyper_over,
                hyper_over / mm_over);
  }
  std::printf("# paper: Cilk-M overhead flat in n; Cilk Plus overhead larger "
              "and varying with n\n");
  return 0;
}
