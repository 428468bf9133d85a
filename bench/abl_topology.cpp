// Ablation: the topology subsystem's policy choices, measured one axis at a
// time on a steal-heavy spawn tree. Series:
//
//   uniform/wb1    — uniform random victims, one wake per push (the PR 3
//                    baseline discipline)
//   locality/wb1   — proximity-ordered victims, single wakes
//   locality/wb4   — proximity-ordered victims + wake batches of 4
//   locality/wb4/pin — the full default-plus-pinning configuration
//
// Each series reports the median wall time plus the steal/wake counters
// that make the policy visible: genuine thefts, the local fraction (same
// core or package), and batched wake-ups. On a single-package (or
// container-flattened) host every steal is "local" and the locality rows
// converge to uniform — the header line names the machine's describe()
// string so a cross-host comparison knows what it is looking at.
//
//   ./abl_topology [--reps R] [--workers P]
#include <cstdio>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "topo/topology.hpp"
#include "util/stats.hpp"

namespace {

struct Config {
  const char* series;
  cilkm::rt::SchedulerOptions options;
};

/// Spawn-dense kernel: a fine-grained parallel_for with per-leaf yields, so
/// even an oversubscribed host sees a realistic steal rate (the same trick
/// the reduce-overhead figures use).
void spawn_tree(std::uint64_t items) {
  bench::MicroBench<cilkm::mm_policy>::add_n(64, items, 64, 512);
}

void run_config(const Config& cfg, unsigned workers, int reps,
                std::uint64_t items) {
  cilkm::Scheduler sched(workers, cfg.options);
  sched.warm_up();
  sched.run([&] { spawn_tree(items / 8); });  // warm the view stores
  sched.reset_stats();
  const cilkm::RunStat stat =
      bench::repeat(sched, reps, [&] { spawn_tree(items); });
  const auto stats = sched.aggregate_stats();
  const auto steals = stats[cilkm::StatCounter::kSteals];
  const auto local = stats[cilkm::StatCounter::kLocalSteals];
  const double local_frac =
      steals == 0 ? 1.0 : static_cast<double>(local) / static_cast<double>(steals);
  const auto batch_wakes = stats[cilkm::StatCounter::kBatchWakes];

  std::printf("%-18s %12.6f %10llu %10.3f %12llu\n", cfg.series, stat.median_s,
              static_cast<unsigned long long>(steals), local_frac,
              static_cast<unsigned long long>(batch_wakes));
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 5));
  const auto workers = static_cast<unsigned>(
      bench::flag_int(argc, argv, "--workers", 8));
  bench::reject_unknown_flags(argc, argv);
  const std::uint64_t items = 1 << 20;

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: steal locality and batched wake-ups\n");
  std::printf("# machine: %s, P=%u\n", topo.describe().c_str(), workers);
  std::printf("%-18s %12s %10s %10s %12s\n", "series", "median_s", "steals",
              "local_frac", "batch_wakes");

  std::vector<Config> configs;
  {
    Config uniform{"uniform/wb1", {}};
    uniform.options.locality_steal = false;
    uniform.options.wake_batch = 1;
    configs.push_back(uniform);

    Config locality{"locality/wb1", {}};
    locality.options.wake_batch = 1;
    configs.push_back(locality);

    Config batched{"locality/wb4", {}};
    batched.options.wake_batch = 4;
    configs.push_back(batched);

    Config pinned{"locality/wb4/pin", {}};
    pinned.options.wake_batch = 4;
    pinned.options.pin = true;
    configs.push_back(pinned);
  }
  for (const Config& cfg : configs) {
    run_config(cfg, workers, reps, items);
  }
  return 0;
}
