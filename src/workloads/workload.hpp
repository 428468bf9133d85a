// The workload subsystem: registered, self-checking scenarios exercised
// across every reducer view-store policy. A Workload is (name, input-size
// knob, one run function per policy); each run function executes its
// parallel sections via run_cell on the caller's persistent pool, which
// also times them, and verifies the outcome against a serial reference
// before returning, so every registered scenario doubles as a regression
// test. The cilkm_run driver (and tests/test_workloads.cpp) sweep the full
// workload × policy × worker-count matrix.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/reducer.hpp"
#include "util/rng.hpp"

namespace cilkm::rt {
class Scheduler;
}

namespace cilkm::workloads {

/// The two view-store mechanisms a workload runs under (the Policy types of
/// core/reducer.hpp, reified for runtime selection by cilkm_run).
enum class PolicyKind : int { kMm = 0, kHypermap = 1 };
inline constexpr int kNumPolicies = 2;
inline constexpr PolicyKind kAllPolicies[] = {PolicyKind::kMm,
                                              PolicyKind::kHypermap};

const char* policy_name(PolicyKind kind);

/// Parse "mm" | "hypermap"; returns false on anything else.
bool parse_policy(const std::string& text, PolicyKind* out);

/// Input knobs for one workload cell. `scale` multiplies the workload's
/// base input size (scale 1 is sized for sub-second smoke runs); `seed`
/// feeds every pseudo-random input generator, so a cell is reproducible
/// from (workload, policy, workers, scale, seed) alone.
struct RunConfig {
  unsigned scale = 1;
  std::uint64_t seed = kDefaultSeed;
  /// The persistent worker pool the cell runs on; its worker count is the
  /// cell's P. The driver keeps one pool per worker count, so a cell's
  /// timing measures the mechanism, not thread creation.
  rt::Scheduler* scheduler = nullptr;
};

/// Execute `root` on cfg.scheduler and return the wall-clock seconds it
/// took. Every workload body funnels its parallel sections through this.
double run_cell(const RunConfig& cfg, std::function<void()> root);

/// Outcome of one cell. `verified` is the workload's self-check against its
/// serial reference; `seconds` sums its run_cell times, so it excludes
/// input generation and the serial oracle.
struct RunResult {
  bool verified = false;
  double seconds = 0;
  std::string detail;  // human-readable outcome or failure reason
};

using RunFn = RunResult (*)(const RunConfig&);

struct Workload {
  std::string name;
  std::string summary;
  RunFn run[kNumPolicies] = {};

  RunResult run_policy(PolicyKind kind, const RunConfig& cfg) const {
    return run[static_cast<int>(kind)](cfg);
  }
};

/// Instantiate Body<Policy>::run for both policies. Body is a class
/// template over the reducer policy with a static
/// `RunResult run(const RunConfig&)`.
template <template <typename> class Body>
Workload make_workload(std::string name, std::string summary) {
  Workload w;
  w.name = std::move(name);
  w.summary = std::move(summary);
  w.run[static_cast<int>(PolicyKind::kMm)] = &Body<mm_policy>::run;
  w.run[static_cast<int>(PolicyKind::kHypermap)] = &Body<hypermap_policy>::run;
  return w;
}

/// The process-wide workload registry. Registration happens eagerly and in a
/// fixed order on first use (no static-initialization-order or linker
/// dead-stripping games): Registry::instance() calls every workload file's
/// register_*() hook exactly once.
class Registry {
 public:
  static Registry& instance();

  void add(Workload w);

  const Workload* find(const std::string& name) const;
  const std::vector<Workload>& all() const { return workloads_; }

 private:
  std::vector<Workload> workloads_;
};

}  // namespace cilkm::workloads
