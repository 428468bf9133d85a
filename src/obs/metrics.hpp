// Unified metrics registry: one typed snapshot of everything the runtime
// counts — WorkerStats (per worker and aggregated), steal-latency
// histograms, the internal allocator's per-tag footprint, and the tracer's
// drop counter. Three readers consume this one schema: the Chrome-trace
// exporter's otherData block (trace_export.cpp), the watchdog's stall dump
// (scheduler.cpp) and the repository benchmark (benchmark/cilkm_bench.cpp).
//
// capture() takes relaxed/plain snapshots; call it only on a quiesced
// scheduler (Scheduler::run returning gives the happens-before, exactly the
// WorkerStats contract).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/chaos.hpp"
#include "mem/internal_alloc.hpp"
#include "util/stats.hpp"

namespace cilkm::rt {
class Scheduler;
}  // namespace cilkm::rt

namespace cilkm::obs {

/// One flattened name/value pair, the lowest common denominator both
/// consumers speak (JSON metric rows, trace otherData entries).
struct Metric {
  std::string name;
  double value = 0.0;
};

struct MetricsSnapshot {
  /// Pool width, 0 when captured without a scheduler (mem/trace only).
  unsigned workers = 0;

  /// Sum over per_worker (empty aggregate when workers == 0).
  WorkerStats aggregate;
  std::vector<WorkerStats> per_worker;

  /// Internal-allocator footprint per tag, post stats_sync().
  std::array<mem::TagStats, mem::kNumTags> mem_tags{};

  /// Events the tracer had to discard (worker id beyond its ring table).
  std::uint64_t trace_dropped = 0;

  /// Fault-injection activity per chaos site (all zero when disarmed).
  std::array<chaos::SiteStats, chaos::kNumSites> chaos_sites{};

  /// Flatten to stable names: every StatCounter under its to_string() name,
  /// steal tiers as steal_ns_t<t> / steal_count_t<t> / steal_hist_t<t>_b<b>,
  /// allocator tags as mem.<tag>.<field>, chaos sites as
  /// chaos.<site>.consults / chaos.<site>.injected, plus workers and
  /// trace_dropped_records.
  std::vector<Metric> flatten() const;
};

/// Snapshot all metric sources. `sched` may be null (no worker rows); it
/// must be quiesced otherwise. Folds the calling thread's allocator
/// magazine deltas in (InternalAlloc::stats_sync) before reading tag stats.
MetricsSnapshot capture(rt::Scheduler* sched);

}  // namespace cilkm::obs
