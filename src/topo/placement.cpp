#include "topo/placement.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include <sched.h>

namespace cilkm::topo {

std::vector<unsigned> assign_cpus(const Topology& topo, unsigned num_workers) {
  struct Ranked {
    unsigned cpu;
    unsigned core;
    unsigned smt_rank;  // 0 for a core's first thread, 1 for its sibling, …
  };
  std::map<unsigned, std::vector<Ranked>> per_package;
  std::map<unsigned, unsigned> seen_per_core;
  for (const CpuInfo& info : topo.cpus()) {  // cpus() ascends by id
    per_package[info.package].push_back(
        Ranked{info.cpu, info.core, seen_per_core[info.core]++});
  }

  // Within each package, distinct cores before SMT siblings; then interleave
  // the packages round-robin so consecutive workers land as far apart as
  // possible.
  for (auto& [package, bucket] : per_package) {
    std::stable_sort(bucket.begin(), bucket.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return std::tie(a.smt_rank, a.core, a.cpu) <
                              std::tie(b.smt_rank, b.core, b.cpu);
                     });
  }
  std::vector<unsigned> order;
  order.reserve(topo.cpus().size());
  for (std::size_t i = 0; order.size() < topo.cpus().size(); ++i) {
    for (auto& [package, bucket] : per_package) {
      if (i < bucket.size()) order.push_back(bucket[i].cpu);
    }
  }

  std::vector<unsigned> out(num_workers);
  for (unsigned w = 0; w < num_workers; ++w) out[w] = order[w % order.size()];
  return out;
}

bool pin_current_thread(unsigned cpu) noexcept {
  if (cpu >= CPU_SETSIZE) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

}  // namespace cilkm::topo
