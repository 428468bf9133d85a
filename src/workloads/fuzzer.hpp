// The scenario fuzzer: composes random reducer monoids × workload shapes ×
// view-store policies × worker counts from a single seed as driver cells,
// each verified against its serial elision. cilkm_run --fuzz runs them
// through the same per-cell path as the workload matrix (pools, chaos,
// --profile, --trace-out), and CTest registers a bounded sweep.
//
// Replay discipline: iteration i of a sweep over base seed S runs the
// composite drawn from seed S + i, so a reported failure at seed X replays
// in isolation with `cilkm_run --fuzz --seed 0xX --fuzz-iters 1` (plus the
// sweep's --policy/--workers/--scale, which the recorded command carries).
// The draw streams inside a composite come from the DotMix DPRNG
// (util/dprng.hpp), so a replay reproduces the failure under ANY schedule —
// the property the spawn-pedigree runtime exists to provide.
#pragma once

#include <cstdint>

#include "workloads/driver.hpp"

namespace cilkm::workloads {

/// Name of the artifact written (in the working directory) when at least
/// one composite fails: one line per failure with the exact replay command.
/// CI uploads it so a red fuzz job always carries its seeds.
inline constexpr const char* kFuzzFailureArtifact = "FUZZ_failing_seeds.txt";

/// The composite drawn from `seed`, within opts.policies, opts.workers
/// (empty = {1, 2, 4}) and opts.scale.
Cell fuzz_cell(std::uint64_t seed, const DriverOptions& opts);

}  // namespace cilkm::workloads
