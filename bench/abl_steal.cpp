// Ablation: steal-half deques, one knob at a time on the registered
// steal-heavy workloads (fib, nqueens, pbfs — the self-checking scenarios
// of src/workloads/). Series, per workload:
//
//   <w>/sb1/wb1    — classic single-frame Chase–Lev stealing, single wakes
//                    (the PR 4 steal discipline)
//   <w>/sb2/wb1    — steal up to 2 frames per theft
//   <w>/sbhalf/wb1 — steal ceil(available/2) per theft (the new default cap)
//   <w>/sb1/wb4    — wake batching alone, for attribution
//   <w>/sbhalf/wb4 — steal-half + batched wake-ups combined
//
// Each series prints the median wall time plus the counters that make the
// policy visible: genuine thefts, frames acquired (stolen_frames / steals
// = mean batch size), and the tier-0 steal-latency histogram, so fence
// amortisation is visible without post-processing. The header line names
// the machine's describe() string, so a cross-host comparison knows what it
// is looking at.
//
//   ./abl_steal [--reps R] [--workers P] [--scale S]
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "runtime/scheduler.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"
#include "workloads/workload.hpp"

namespace {

struct Config {
  const char* suffix;  // "/sb1/wb1" etc.
  cilkm::rt::SchedulerOptions options;
};

void run_config(const cilkm::workloads::Workload& workload, const Config& cfg,
                unsigned workers, int reps, unsigned scale) {
  cilkm::rt::Scheduler sched(workers, cfg.options);
  sched.warm_up();

  cilkm::workloads::RunConfig run_cfg;
  run_cfg.workers = workers;
  run_cfg.scale = scale;
  run_cfg.scheduler = &sched;

  const auto policy = cilkm::workloads::PolicyKind::kMm;
  (void)workload.run_policy(policy, run_cfg);  // warm the pool + view stores
  sched.reset_stats();

  std::vector<double> samples;
  bool verified = true;
  for (int rep = 0; rep < reps; ++rep) {
    const auto result = workload.run_policy(policy, run_cfg);
    samples.push_back(result.seconds);
    verified = verified && result.verified;
  }
  const cilkm::RunStat stat = cilkm::stats_of(std::move(samples));
  const auto stats = sched.aggregate_stats();
  const auto steals = stats[cilkm::StatCounter::kSteals];
  const auto frames = stats[cilkm::StatCounter::kStolenFrames];
  const double frames_per_steal =
      steals == 0 ? 0.0
                  : static_cast<double>(frames) / static_cast<double>(steals);

  const std::string series = workload.name + cfg.suffix;
  std::printf("%-20s %6s %12.6f %10llu %12llu %8.2f   [", series.c_str(),
              verified ? "ok" : "FAIL", stat.median_s,
              static_cast<unsigned long long>(steals),
              static_cast<unsigned long long>(frames), frames_per_steal);
  // Tier-0 (nearest-victim) latency histogram, log2 buckets from 128 ns.
  for (std::size_t b = 0; b < cilkm::WorkerStats::kStealLatBuckets; ++b) {
    std::printf("%s%llu", b == 0 ? "" : " ",
                static_cast<unsigned long long>(stats.steal_lat_hist[0][b]));
  }
  std::printf("]\n");

}

}  // namespace

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 5));
  const auto workers =
      static_cast<unsigned>(bench::flag_int(argc, argv, "--workers", 8));
  const auto scale =
      static_cast<unsigned>(bench::flag_int(argc, argv, "--scale", 1));
  bench::reject_unknown_flags(argc, argv);

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: steal-half batch size x wake batching\n");
  std::printf("# machine: %s, P=%u, scale=%u\n", topo.describe().c_str(),
              workers, scale);
  std::printf("%-20s %6s %12s %10s %12s %8s   %s\n", "series", "verify",
              "median_s", "steals", "stolen_frm", "frm/stl",
              "t0 latency histogram (128ns log2 buckets)");

  std::vector<Config> configs;
  {
    Config sb1{"/sb1/wb1", {}};
    sb1.options.steal_batch = 1;
    sb1.options.wake_batch = 1;
    configs.push_back(sb1);

    Config sb2{"/sb2/wb1", {}};
    sb2.options.steal_batch = 2;
    sb2.options.wake_batch = 1;
    configs.push_back(sb2);

    Config sbhalf{"/sbhalf/wb1", {}};
    sbhalf.options.steal_batch = 0;  // half
    sbhalf.options.wake_batch = 1;
    configs.push_back(sbhalf);

    Config wb4{"/sb1/wb4", {}};
    wb4.options.steal_batch = 1;
    wb4.options.wake_batch = 4;
    configs.push_back(wb4);

    Config both{"/sbhalf/wb4", {}};
    both.options.steal_batch = 0;  // half
    both.options.wake_batch = 4;
    configs.push_back(both);
  }

  const char* names[] = {"fib", "nqueens", "pbfs"};
  cilkm::workloads::Registry& registry = cilkm::workloads::Registry::instance();
  for (const char* name : names) {
    const cilkm::workloads::Workload* workload = registry.find(name);
    if (workload == nullptr) {
      std::fprintf(stderr, "abl_steal: workload '%s' not registered\n", name);
      return 1;
    }
    for (const Config& cfg : configs) {
      run_config(*workload, cfg, workers, reps, scale);
    }
  }
  return 0;
}
