// Worker placement: map worker ids onto the topology's CPUs and optionally
// pin the calling thread. The order is spread: round-robin across packages,
// distinct physical cores before SMT siblings, which maximises cache and
// memory bandwidth per worker — what the paper's bandwidth-hungry SPA view
// stores want.
//
// With more workers than CPUs the assignment wraps modulo the CPU order, so
// oversubscribed pools (the test suite's bread and butter) stay valid.
#pragma once

#include <vector>

#include "topo/topology.hpp"

namespace cilkm::topo {

/// worker id -> logical cpu id for `num_workers` workers, in spread order.
/// Never empty; wraps modulo the topology's CPU count when oversubscribed.
std::vector<unsigned> assign_cpus(const Topology& topo, unsigned num_workers);

/// Pin the calling thread to one logical CPU. Returns false (leaving
/// affinity unchanged) when unsupported or rejected by the kernel — callers
/// treat pinning as best-effort.
bool pin_current_thread(unsigned cpu) noexcept;

}  // namespace cilkm::topo
