// Ablation: observability overhead on a spawn-dense fork tree. The whole
// point of the obs layer is that it costs nothing when off — the fork2join
// hot path pays one relaxed load per spawn — so this bench pins that claim
// to a number: the obs/off row, against which each enabled row prints its
// on/off ratio. Series:
//
//   obs/off            — tracer and profiler both disabled (the default)
//   obs/trace          — Tracer enabled (ring writes on steals/parks/merges)
//   obs/trace+profile  — Tracer and the work/span profiler enabled
//
// P is the worker count (1 and --workers). The workload is a binary fork
// tree of --depth levels with trivial leaves: virtually all time is spent
// in fork2join itself, the worst case for per-spawn instrumentation.
//
//   ./abl_obs [--reps R] [--workers P] [--depth D]
#include <cstdint>
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "obs/profiler.hpp"
#include "runtime/api.hpp"
#include "runtime/trace.hpp"
#include "topo/topology.hpp"

namespace {

struct Mode {
  const char* series;
  bool trace;
  bool profile;
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
  auto& tracer = cilkm::rt::Tracer::instance();
  auto& profiler = cilkm::obs::Profiler::instance();
  if (mode.trace) tracer.enable();
  if (mode.profile) profiler.enable();
  tracer.reset();
  profiler.reset();

  volatile std::uint64_t sink = 0;
  const cilkm::RunStat stat = bench::repeat(sched, reps, [&] {
    sink = fork_tree(depth);
  });
  if (sink != (1ull << depth)) std::abort();

  tracer.disable();
  profiler.disable();

  std::printf("%-18s %4u %12.6f %12.6f\n", mode.series, workers, stat.median_s,
              stat.stddev_s);
  return stat.median_s;
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = bench::flag_int(argc, argv, "--reps", 7, 1);
  const auto workers = bench::flag_int<unsigned>(argc, argv, "--workers", 4);
  const auto depth = bench::flag_int<unsigned>(argc, argv, "--depth", 16);
  bench::reject_unknown_flags(argc, argv);

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: observability overhead on a 2^%u-leaf fork tree\n",
              depth);
  std::printf("# machine: %s\n", topo.describe().c_str());
  std::printf("%-18s %4s %12s %12s\n", "series", "P", "median_s", "stddev_s");

  const Mode modes[] = {
      {"obs/off", false, false},
      {"obs/trace", true, false},
      {"obs/trace+profile", true, true},
  };
  std::vector<unsigned> counts{1};
  if (workers > 1) counts.push_back(workers);
  for (const unsigned p : counts) {
    cilkm::Scheduler sched(p);
    double off_s = 0;
    for (const Mode& mode : modes) {
      const double s = run_mode(mode, sched, p, reps, depth);
      if (!mode.trace && !mode.profile) off_s = s;
      else if (off_s > 0) {
        std::printf("#   %-18s on/off ratio: %.3f\n", mode.series, s / off_s);
      }
    }
  }
  return 0;
}
