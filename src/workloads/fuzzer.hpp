// The scenario fuzzer: composes random reducer monoids × workload shapes ×
// view-store policies × worker counts from a single seed, verifies every
// composite against its serial elision, and replays any failure from the
// seed alone. Driven by cilkm_run --fuzz / --fuzz-seed / --fuzz-iters
// and by the bounded fuzz sweep registered in CTest.
//
// Replay discipline: iteration i of a sweep over base seed S runs the
// composite drawn from seed S + i, so a reported failure at seed X replays
// in isolation with `cilkm_run --fuzz --fuzz-seed 0xX --fuzz-iters 1`. The
// draw streams inside a composite come from the DotMix DPRNG
// (util/dprng.hpp), so a replay reproduces the failure under ANY schedule —
// the property the spawn-pedigree runtime exists to provide.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/scheduler.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {

struct FuzzOptions {
  std::uint64_t seed = kDefaultSeed;  ///< base seed of the sweep
  int iters = 25;                     ///< composites to run (seed, seed+1, …)
  unsigned scale = 1;                 ///< input-size multiplier per composite
  /// Policies the composite draw may select from (empty = both).
  std::vector<PolicyKind> policies;
  /// Worker counts the composite draw may select from (empty = {1, 2, 4}).
  std::vector<unsigned> workers;
  /// Settings of every pool the sweep builds (pinning, run watchdog).
  rt::SchedulerOptions sched;
  /// Arm deterministic fault injection (src/chaos/) for the whole sweep.
  /// Composites still verify against their serial elisions — chaos consults
  /// use the pure pedigree hash, so injected faults never perturb workload
  /// draw streams; a composite aborted by an injected allocator OOM is
  /// reported "ok" with a chaos-oom detail (its verify is skipped).
  bool chaos = false;
  double chaos_p = 0.02;         ///< per-consult injection probability
  std::uint64_t chaos_seed = 0;  ///< 0 = derive deterministically from seed
  std::uint32_t chaos_sites = 0; ///< chaos::site_bit mask; 0 = all sites
};

/// Name of the artifact written (in the working directory) when at least
/// one composite fails: one line per failure with the exact replay command.
/// CI uploads it so a red fuzz job always carries its seeds.
inline constexpr const char* kFuzzFailureArtifact = "FUZZ_failing_seeds.txt";

/// Run the sweep; prints one line per composite and a summary. Returns the
/// number of failing composites (0 = every composite matched its serial
/// elision bit for bit).
int run_fuzz(const FuzzOptions& opts);

}  // namespace cilkm::workloads
