// The cilkm_run driver, as a library so the tests can reuse the cell-matrix
// runner. A "cell" is one (workload × view-store policy × worker count)
// execution; every cell self-verifies against its serial reference, and the
// matrix run prints one console row per cell with its timing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {

struct DriverOptions {
  std::vector<std::string> workload_names;  // empty = every registered one
  std::vector<PolicyKind> policies;         // empty = both
  std::vector<unsigned> workers;            // empty = {1, 2, hw_concurrency}
  unsigned scale = 1;
  std::uint64_t seed = RunConfig{}.seed;
  int reps = 1;                // timing repetitions per cell (median reported)
  bool list_only = false;
  bool help = false;           // --help: print usage and exit successfully
  /// --fuzz: run the seed-replayable scenario fuzzer (workloads/fuzzer.hpp)
  /// instead of the cell matrix. --fuzz-seed sets the sweep's base seed,
  /// --fuzz-iters the composite count; --policy/--workers/--scale restrict
  /// the composite space the same way they restrict the matrix.
  bool fuzz = false;
  std::uint64_t fuzz_seed = RunConfig{}.seed;
  int fuzz_iters = 25;
  /// --chaos P: arm deterministic fault injection (src/chaos/) at per-consult
  /// probability P for the whole matrix (or fuzz sweep). --chaos-seed keys
  /// the pedigree DPRNG (0 = derive from --seed / --fuzz-seed); --chaos-sites
  /// restricts the site mask ("alloc,fiber,push,…" or "faults"/"delays"/
  /// "all"). Reps aborted by an injected allocator OOM are annotated, not
  /// counted as verification failures. --watchdog-ms N arms the scheduler's
  /// stalled-run watchdog (SchedulerOptions::watchdog_ms).
  bool chaos = false;
  double chaos_p = 0.02;
  std::uint64_t chaos_seed = 0;
  std::uint32_t chaos_sites = 0;
  /// Settings of every pool run_matrix builds, the fuzzer's included:
  /// --pin and --watchdog-ms.
  rt::SchedulerOptions sched;
  /// --profile: enable the work/span profiler and print one "profile:" line
  /// under each cell (work, span, parallelism, burdened span/parallelism —
  /// see obs/profiler.hpp).
  bool profile = false;
  /// --trace-out FILE: enable the Tracer and export the LAST cell's event
  /// rings as Chrome/Perfetto trace JSON (obs/trace_export.hpp).
  std::string trace_out;
};

/// {1, 2, hardware_concurrency}, deduplicated and sorted.
std::vector<unsigned> default_worker_counts();

/// Parse cilkm_run flags. Returns false (after printing usage to stderr) on
/// unknown flags or unparseable values — including trailing flags with no
/// value and non-numeric or out-of-range numbers. --help sets out->help;
/// callers should then exit 0 without running anything.
bool parse_driver_options(int argc, char** argv, DriverOptions* out);

/// Execute the selected cell matrix: prints one table row per cell, writes
/// no file except the --trace-out trace, and returns the number of cells
/// whose verify() failed (0 = everything checked out). One persistent
/// Scheduler per worker count is reused across all workloads, policies, and
/// reps.
int run_matrix(const DriverOptions& opts);

}  // namespace cilkm::workloads
