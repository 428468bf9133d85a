// Ablation: chaos fail-point overhead on a spawn-dense fork tree. The
// chaos layer's contract is that disarmed sites cost one relaxed load +
// branch on the hot path (the same bar the tracer's enabled() gate meets).
// The chaos/off row is that cost in a spawn-bound run (compare it across
// commits on one host), and each armed row prints its on/off ratio. Series:
//
//   chaos/off      — disarmed (the default; every consult is one load)
//   chaos/armed-p0 — armed with p=0: consults hash pedigrees but never fire
//   chaos/inject   — armed with a small p on the push+fiber fault sites:
//                    the runtime absorbs real degradations mid-run
//
// P is the worker count (1 and --workers). The workload is a binary fork
// tree of --depth levels with trivial leaves: virtually all time is spent
// in fork2join itself, the worst case for per-spawn fail points.
//
//   ./abl_chaos [--reps R] [--workers P] [--depth D]
#include <cstdint>
#include <cstdio>
#include <vector>

#include "chaos/chaos.hpp"
#include "harness.hpp"
#include "runtime/api.hpp"
#include "topo/topology.hpp"

namespace {

struct Mode {
  const char* series;
  bool armed;
  double p;
  std::uint32_t sites;
};

/// Binary fork tree: 2^depth trivial leaves, nothing but spawn machinery.
std::uint64_t fork_tree(unsigned depth) {
  if (depth == 0) return 1;
  std::uint64_t l = 0, r = 0;
  cilkm::fork2join([&] { l = fork_tree(depth - 1); },
                   [&] { r = fork_tree(depth - 1); });
  return l + r;
}

double run_mode(const Mode& mode, cilkm::Scheduler& sched, unsigned workers,
                int reps, unsigned depth) {
  if (mode.armed) {
    cilkm::chaos::Config cfg;
    cfg.p = mode.p;
    cfg.seed = 0xc4a05c4a05c4a05ULL;
    cfg.sites = mode.sites;
    cilkm::chaos::arm(cfg);
  } else {
    cilkm::chaos::disarm();
    // arm() resets the counters; the disarmed mode must too, or it would
    // report the previous armed mode's injected count.
    cilkm::chaos::reset_stats();
  }

  volatile std::uint64_t sink = 0;
  const cilkm::RunStat stat = bench::repeat(sched, reps, [&] {
    sink = fork_tree(depth);
  });
  // Injected push/fiber faults degrade to serial execution — the tree's
  // value must survive every mode bit for bit.
  if (sink != (1ull << depth)) std::abort();

  const cilkm::chaos::SiteStats push =
      cilkm::chaos::site_stats(cilkm::chaos::Site::kDequePush);
  const cilkm::chaos::SiteStats fiber =
      cilkm::chaos::site_stats(cilkm::chaos::Site::kFiberAcquire);
  cilkm::chaos::disarm();

  std::printf("%-18s %4u %12.6f %12.6f %10llu\n", mode.series, workers,
              stat.median_s, stat.stddev_s,
              static_cast<unsigned long long>(push.injected + fiber.injected));
  return stat.median_s;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = bench::flag_int(argc, argv, "--reps", 7, 1);
  const auto workers = bench::flag_int<unsigned>(argc, argv, "--workers", 4);
  const auto depth = bench::flag_int<unsigned>(argc, argv, "--depth", 16);
  bench::reject_unknown_flags(argc, argv);

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: chaos fail-point overhead on a 2^%u-leaf fork tree\n",
              depth);
  std::printf("# machine: %s\n", topo.describe().c_str());
  std::printf("%-18s %4s %12s %12s %10s\n", "series", "P", "median_s",
              "stddev_s", "injected");

  using cilkm::chaos::Site;
  using cilkm::chaos::site_bit;
  const Mode modes[] = {
      {"chaos/off", false, 0.0, 0},
      {"chaos/armed-p0", true, 0.0, cilkm::chaos::kAllSites},
      {"chaos/inject", true, 0.001,
       site_bit(Site::kDequePush) | site_bit(Site::kFiberAcquire)},
  };
  std::vector<unsigned> counts{1};
  if (workers > 1) counts.push_back(workers);
  for (const unsigned p : counts) {
    cilkm::Scheduler sched(p);
    double off_s = 0;
    for (const Mode& mode : modes) {
      const double s = run_mode(mode, sched, p, reps, depth);
      if (!mode.armed) off_s = s;
      else if (off_s > 0) {
        std::printf("#   %-18s on/off ratio: %.3f\n", mode.series, s / off_s);
      }
    }
  }
  return 0;
}
