// The cilkm_run driver, as a library so the tests can reuse the cell
// runner. A "cell" is one self-verifying run on one pool: a matrix cell
// (workload × view-store policy × worker count) or, under --fuzz, one
// composite of the scenario fuzzer. Both modes run every cell through the
// same path and print one console row per cell with its timing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "runtime/scheduler.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {

struct DriverOptions {
  std::vector<std::string> workload_names;  // empty = every registered one
  std::vector<PolicyKind> policies;         // empty = both
  /// Empty = {1, 2, hw_concurrency}; under --fuzz, {1, 2, 4}.
  std::vector<unsigned> workers;
  unsigned scale = 1;
  /// --seed: every input generator's seed; under --fuzz, the sweep's base
  /// seed (composite i is drawn from seed + i).
  std::uint64_t seed = RunConfig{}.seed;
  bool list_only = false;
  bool help = false;           // --help: print usage and exit successfully
  /// --fuzz: run --fuzz-iters composites of the seed-replayable scenario
  /// fuzzer (workloads/fuzzer.hpp) instead of the workload matrix;
  /// --policy/--workers/--scale restrict the composite space the same way
  /// they restrict the matrix.
  bool fuzz = false;
  int fuzz_iters = 25;
  /// --chaos P / --chaos-seed / --chaos-sites: deterministic fault injection
  /// (src/chaos/), armed for the whole run when p > 0. A zero seed derives
  /// one from --seed. Cells aborted by an injected allocator OOM are
  /// annotated, not counted as verification failures.
  chaos::Config chaos;
  /// Settings of every pool the driver builds: --pin and --watchdog-ms.
  rt::SchedulerOptions sched;
  /// --profile: enable the work/span profiler and print one "profile:" line
  /// under each cell (work, span, parallelism, burdened span/parallelism —
  /// see obs/profiler.hpp).
  bool profile = false;
  /// --trace-out FILE: enable the Tracer and export the LAST cell's event
  /// rings as Chrome/Perfetto trace JSON (obs/trace_export.hpp).
  std::string trace_out;
};

/// One cell to run: the label of its row, the pool size it needs, the seed
/// its inputs come from, and the body that runs it on cfg.scheduler and
/// verifies it.
struct Cell {
  std::string name;  // the workload, or the composite's seed, monoid, shape
  PolicyKind policy;
  unsigned workers;
  std::uint64_t seed;  // --seed, or the composite's own seed under --fuzz
  std::function<RunResult(const RunConfig&)> run;
};

/// {1, 2, hardware_concurrency}, deduplicated and sorted.
std::vector<unsigned> default_worker_counts();

/// Parse cilkm_run flags. Returns false (after printing usage to stderr) on
/// unknown flags, unparseable values — including trailing flags with no
/// value and non-numeric or out-of-range numbers — and matrix-only flags
/// (--workload, --list) under --fuzz. --help sets out->help; callers
/// should then exit 0 without running anything.
bool parse_driver_options(int argc, char** argv, DriverOptions* out);

/// Run the selected cells — the workload matrix, or the fuzz sweep under
/// opts.fuzz — one row each, on one persistent Scheduler per worker count.
/// Writes no file except the --trace-out trace and, when a composite
/// fails, the fuzzer's replay list. Returns the number of cells that
/// failed verification (0 = everything checked out).
int run_matrix(const DriverOptions& opts);

}  // namespace cilkm::workloads
