#include "workloads/workload.hpp"

#include <cstring>
#include <utility>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace cilkm::workloads {

void run_cell(const RunConfig& cfg, std::function<void()> root) {
  if (cfg.scheduler != nullptr) {
    CILKM_CHECK(cfg.scheduler->num_workers() == cfg.workers,
                "run_cell: pool size does not match cfg.workers");
    cfg.scheduler->run(std::move(root));
  } else {
    rt::run(cfg.workers, std::move(root));
  }
}

// One hook per workload file, called in a fixed order so --list and the test
// matrix enumerate deterministically. Adding a workload = one w_*.cpp file
// defining register_<name>() plus one line here.
void register_sum_loop(Registry& r);
void register_fib(Registry& r);
void register_nqueens(Registry& r);
void register_tree_walk(Registry& r);
void register_wordcount(Registry& r);
void register_histogram(Registry& r);
void register_argminmax(Registry& r);
void register_samplesort(Registry& r);
void register_pbfs(Registry& r);
void register_components(Registry& r);
void register_quadtree(Registry& r);
void register_listappend(Registry& r);
void register_streamcount(Registry& r);

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kMm: return "mm";
    case PolicyKind::kHypermap: return "hypermap";
    case PolicyKind::kFlat: return "flat";
  }
  return "?";
}

bool parse_policy(const std::string& text, PolicyKind* out) {
  for (const PolicyKind kind : kAllPolicies) {
    if (text == policy_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

Registry& Registry::instance() {
  static Registry* registry = [] {
    auto* r = new Registry;
    register_sum_loop(*r);
    register_fib(*r);
    register_nqueens(*r);
    register_tree_walk(*r);
    register_wordcount(*r);
    register_histogram(*r);
    register_argminmax(*r);
    register_samplesort(*r);
    register_pbfs(*r);
    register_components(*r);
    register_quadtree(*r);
    register_listappend(*r);
    register_streamcount(*r);
    return r;
  }();
  return *registry;
}

void Registry::add(Workload w) {
  CILKM_CHECK(!w.name.empty(), "workload must have a name");
  for (int p = 0; p < kNumPolicies; ++p) {
    CILKM_CHECK(w.run[p] != nullptr, "workload missing a policy run fn");
  }
  CILKM_CHECK(find(w.name) == nullptr, "duplicate workload registration");
  workloads_.push_back(std::move(w));
}

const Workload* Registry::find(const std::string& name) const {
  for (const Workload& w : workloads_) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace cilkm::workloads
