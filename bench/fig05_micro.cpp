// Figure 5: execution times of the add-n / min-n / max-n microbenchmarks
// with n ∈ {4, 16, 64, 256, 1024} reducers under Cilk-M (memory-mapped) and
// Cilk Plus (hypermap), on (a) a single processor and (b) 16 processors.
// The lookup count is held constant across n, as in the paper.
//
//   ./fig05_micro [--lookups N] [--procs P] [--reps R]
#include <cstdio>

#include "harness.hpp"

namespace {

constexpr unsigned kNs[] = {4, 16, 64, 256, 1024};

template <typename Policy>
double run_kernel(cilkm::Scheduler& sched, const char* kernel, unsigned n,
                  std::uint64_t lookups, std::int64_t grain, int reps) {
  // This figure reports a Cilk Plus / Cilk-M RATIO, so the reps are timed
  // inside one run() on the persistent pool: the per-run dispatch constant
  // stays out of the samples (it would compress the ratio toward 1 at
  // small --lookups), and no sample pays thread creation.
  double mean = 0;
  sched.run([&] {
    mean = bench::repeat(reps, [&] {
             using MB = bench::MicroBench<Policy>;
             if (kernel[0] == 'a') {
               MB::add_n(n, lookups, grain);
             } else if (kernel[0] == 'm' && kernel[1] == 'i') {
               MB::min_n(n, lookups, grain);
             } else {
               MB::max_n(n, lookups, grain);
             }
           }).mean_s;
  });
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  const auto lookups =
      bench::flag_int<std::uint64_t>(argc, argv, "--lookups", 1 << 24);
  const auto procs = bench::flag_int<unsigned>(argc, argv, "--procs", 0);
  const int reps = bench::flag_int(argc, argv, "--reps", 3, 1);
  bench::reject_unknown_flags(argc, argv);
  const std::int64_t grain = 2048;

  const char* kernels[] = {"add", "min", "max"};

  for (const unsigned p : {1u, 16u}) {
    if (procs != 0 && p != procs) continue;
    std::printf("# Figure 5%s: microbenchmark execution times, %u worker(s), "
                "%llu lookups\n",
                p == 1 ? "(a)" : "(b)", p,
                static_cast<unsigned long long>(lookups));
    std::printf("%-10s %14s %14s %10s\n", "bench", "Cilk-M (s)",
                "Cilk Plus (s)", "ratio");
    cilkm::Scheduler sched(p);
    for (const char* kernel : kernels) {
      for (const unsigned n : kNs) {
        const double mm = run_kernel<cilkm::mm_policy>(sched, kernel, n,
                                                       lookups, grain, reps);
        const double hyper = run_kernel<cilkm::hypermap_policy>(
            sched, kernel, n, lookups, grain, reps);
        std::printf("%s-%-6u %14.4f %14.4f %9.2fx\n", kernel, n, mm, hyper,
                    hyper / mm);
      }
    }
    std::printf("# paper: Cilk-M 4-9x faster serial, 3-9x faster on 16 procs\n\n");
  }
  return 0;
}
