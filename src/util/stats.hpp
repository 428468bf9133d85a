// Per-worker instrumentation counters for the reduce-overhead study
// (paper Figures 7 and 8): view creation, view insertion, view transferal,
// and hypermerge time, plus steal counts.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/cache.hpp"

namespace cilkm {

/// Categories of reduce overhead the paper attributes in Figure 8, plus
/// bookkeeping counters used by tests and the Figure 7 comparison.
enum class StatCounter : unsigned {
  kViewCreateNs,     ///< time spent constructing identity views
  kViewInsertNs,     ///< time spent installing views into SPA map / hypermap
  kViewTransferNs,   ///< time spent in view transferal (Cilk-M only)
  kHypermergeNs,     ///< time spent merging deposited views (incl. REDUCE ops)
  kViewsCreated,     ///< number of identity views created
  kViewsTransferred, ///< number of view pointers copied private -> public
  kHypermerges,      ///< number of deposit-merge operations
  kSteals,           ///< genuine thefts from another worker's deque
  kStolenFrames,     ///< frames acquired by thefts (≥ kSteals under steal-half)
  kLocalSteals,      ///< thefts from a same-core / same-package victim
  kRemoteSteals,     ///< thefts from a cross-package (or cross-node) victim
  kSelfPops,         ///< frames promoted from the worker's own deque
  kStealAttempts,    ///< steal() attempts on victims, successful or not
  kJoiningSteals,    ///< joins resumed by the non-owning worker
  kParks,            ///< idle episodes in which the worker blocked (parked)
  kWakes,            ///< wake-ups this worker's pushes/completions delivered
  kBatchWakes,       ///< extra sleepers (beyond the first) woken per push batch
  kFibersAllocated,  ///< fiber stacks allocated (cactus-stack pressure)
  kSerialDegrades,   ///< spawns executed serially in place (deque full or
                     ///< injected push fault) instead of being pushed
  kFiberFallbacks,   ///< launches degraded to the scheduler's own stack
                     ///< because no fiber stack could be acquired
  kCount
};

constexpr std::string_view to_string(StatCounter c) noexcept {
  switch (c) {
    case StatCounter::kViewCreateNs: return "view_create_ns";
    case StatCounter::kViewInsertNs: return "view_insert_ns";
    case StatCounter::kViewTransferNs: return "view_transfer_ns";
    case StatCounter::kHypermergeNs: return "hypermerge_ns";
    case StatCounter::kViewsCreated: return "views_created";
    case StatCounter::kViewsTransferred: return "views_transferred";
    case StatCounter::kHypermerges: return "hypermerges";
    case StatCounter::kSteals: return "steals";
    case StatCounter::kStolenFrames: return "stolen_frames";
    case StatCounter::kLocalSteals: return "local_steals";
    case StatCounter::kRemoteSteals: return "remote_steals";
    case StatCounter::kSelfPops: return "self_pops";
    case StatCounter::kStealAttempts: return "steal_attempts";
    case StatCounter::kJoiningSteals: return "joining_steals";
    case StatCounter::kParks: return "parks";
    case StatCounter::kWakes: return "wakes";
    case StatCounter::kBatchWakes: return "batch_wakes";
    case StatCounter::kFibersAllocated: return "fibers_allocated";
    case StatCounter::kSerialDegrades: return "serial_degrades";
    case StatCounter::kFiberFallbacks: return "fiber_fallbacks";
    case StatCounter::kCount: break;
  }
  return "?";
}

/// One worker's private counter block. Plain (non-atomic) increments: each
/// block is written by exactly one worker thread and read only after the
/// scheduler quiesces.
struct WorkerStats {
  /// Proximity tiers a steal-latency sample can be attributed to; mirrors
  /// the scheduler's victim tiers (same-core / same-package / remote).
  static constexpr std::size_t kStealTiers = 3;
  /// Log2 histogram buckets at 128 ns granularity: bucket 0 is < 256 ns,
  /// bucket b ≥ 1 covers [128·2^b, 128·2^(b+1)) ns, and bucket 11 collects
  /// everything ≥ 262,144 ns. A theft pays one membarrier(2) (deque.hpp),
  /// several µs with other threads running, so the top buckets stay
  /// resolved where that cost lands.
  static constexpr std::size_t kStealLatBuckets = 12;

  std::array<std::uint64_t, static_cast<std::size_t>(StatCounter::kCount)>
      counters{};

  /// Per-tier latency of successful steal rounds (round start → theft):
  /// sample counts per log2 bucket, plus total ns and sample count for
  /// computing means in reports.
  std::uint64_t steal_lat_hist[kStealTiers][kStealLatBuckets]{};
  std::uint64_t steal_lat_ns[kStealTiers]{};
  std::uint64_t steal_lat_count[kStealTiers]{};

  std::uint64_t& operator[](StatCounter c) noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](StatCounter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }

  /// Record one successful steal round's latency, attributed to the winning
  /// victim's proximity tier.
  void record_steal(unsigned tier, std::uint64_t ns) noexcept {
    if (tier >= kStealTiers) tier = kStealTiers - 1;
    const std::uint64_t scaled = ns >> 7;  // 128 ns granularity
    std::size_t bucket = 0;
    while (bucket + 1 < kStealLatBuckets && (scaled >> (bucket + 1)) != 0) {
      ++bucket;
    }
    ++steal_lat_hist[tier][bucket];
    steal_lat_ns[tier] += ns;
    ++steal_lat_count[tier];
  }

  void reset() noexcept {
    counters.fill(0);
    for (std::size_t t = 0; t < kStealTiers; ++t) {
      for (std::size_t b = 0; b < kStealLatBuckets; ++b) {
        steal_lat_hist[t][b] = 0;
      }
      steal_lat_ns[t] = 0;
      steal_lat_count[t] = 0;
    }
  }

  WorkerStats& operator+=(const WorkerStats& other) noexcept {
    for (std::size_t i = 0; i < counters.size(); ++i)
      counters[i] += other.counters[i];
    for (std::size_t t = 0; t < kStealTiers; ++t) {
      for (std::size_t b = 0; b < kStealLatBuckets; ++b) {
        steal_lat_hist[t][b] += other.steal_lat_hist[t][b];
      }
      steal_lat_ns[t] += other.steal_lat_ns[t];
      steal_lat_count[t] += other.steal_lat_count[t];
    }
    return *this;
  }
};

}  // namespace cilkm
