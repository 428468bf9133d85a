// CPU → NUMA-shard mapping shared by the node-sharded internal pools
// (mem::InternalAlloc, rt::StackPool). A shard is a dense index over the
// topology's NUMA nodes: sysfs node ids may be sparse (node0 + node2 on a
// half-populated board), so the map densifies them once at construction and
// every pool indexes its shard array with the result. A single-node (or
// flat-fallback) topology collapses to one shard — the "flat fallback" of
// the allocator design.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "topo/topology.hpp"

namespace cilkm::mem {

class NodeMap {
 public:
  explicit NodeMap(const topo::Topology& topo) {
    // Densify the node ids present in the topology.
    std::vector<unsigned> nodes;
    for (const topo::CpuInfo& info : topo.cpus()) nodes.push_back(info.node);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    num_shards_ = nodes.empty() ? 1 : static_cast<unsigned>(nodes.size());

    unsigned max_cpu = 0;
    for (const topo::CpuInfo& info : topo.cpus()) {
      max_cpu = std::max(max_cpu, info.cpu);
    }
    cpu_shard_.assign(static_cast<std::size_t>(max_cpu) + 1, 0);
    for (const topo::CpuInfo& info : topo.cpus()) {
      const auto it = std::lower_bound(nodes.begin(), nodes.end(), info.node);
      cpu_shard_[info.cpu] =
          static_cast<unsigned>(std::distance(nodes.begin(), it));
    }
  }

  unsigned num_shards() const noexcept { return num_shards_; }

  /// Shard of a logical CPU id; ids outside the topology map to shard 0
  /// (conservative — an unpinned thread on a masked-out CPU still works).
  unsigned shard_of_cpu(unsigned cpu) const noexcept {
    return cpu < cpu_shard_.size() ? cpu_shard_[cpu] : 0;
  }

  /// Shard of the calling thread's current CPU. One vDSO call; callers
  /// amortise it over a refill/flush batch, never per allocation.
  unsigned current_shard() const noexcept {
    if (num_shards_ == 1) return 0;
    const int cpu = ::sched_getcpu();
    return cpu >= 0 ? shard_of_cpu(static_cast<unsigned>(cpu)) : 0;
  }

 private:
  std::vector<unsigned> cpu_shard_;  // logical cpu id -> dense shard index
  unsigned num_shards_ = 1;
};

}  // namespace cilkm::mem
