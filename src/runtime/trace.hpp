// Lightweight scheduler event tracing: per-worker ring buffers recording
// steals, parks, resumes, deposits, and hypermerges with nanosecond
// timestamps. Off by default; when enabled it serialises the join protocol's
// externally visible behaviour for tests and post-mortem analysis (dump to
// CSV). Hot paths (reducer lookups, un-stolen forks) are never instrumented.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

#include "util/cache.hpp"
#include "util/timing.hpp"

namespace cilkm::rt {

enum class TraceEvent : std::uint8_t {
  kSteal,          // stole a frame from another worker's deque
  kLaunch,         // started a fiber for a stolen frame or the root
  kPark,           // suspended a continuation at a join
  kResumeByThief,  // joining steal: thief resumed the parked continuation
  kResumeSelf,     // victim resumed its own parked continuation
  kDepositLeft,    // victim-side view transferal into a frame
  kDepositRight,   // thief-side view transferal into a frame
  kMerge,          // hypermerge of a deposit into ambient views
  kSelfPop,        // promoted a frame from the worker's own deque
  kRootDone,       // root task completed
};

constexpr std::string_view to_string(TraceEvent e) noexcept {
  switch (e) {
    case TraceEvent::kSteal: return "steal";
    case TraceEvent::kSelfPop: return "self_pop";
    case TraceEvent::kLaunch: return "launch";
    case TraceEvent::kPark: return "park";
    case TraceEvent::kResumeByThief: return "resume_by_thief";
    case TraceEvent::kResumeSelf: return "resume_self";
    case TraceEvent::kDepositLeft: return "deposit_left";
    case TraceEvent::kDepositRight: return "deposit_right";
    case TraceEvent::kMerge: return "merge";
    case TraceEvent::kRootDone: return "root_done";
  }
  return "?";
}

struct TraceRecord {
  std::uint64_t time_ns;
  // The SpawnFrame of a steal, self-pop or launch; the JoinFrame of a
  // deposit, park or resume; the deposit of a merge; nullptr for the root.
  const void* frame;
  TraceEvent event;
  std::uint8_t worker;
};

/// Process-wide trace sink. Enable before a run, snapshot after quiescence.
class Tracer {
 public:
  static constexpr std::size_t kRingCapacity = 1 << 14;  // per worker
  static constexpr unsigned kMaxWorkers = 64;

  static Tracer& instance();

  void enable() { enabled_.store(true, std::memory_order_release); }
  void disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }

  /// Record an event for `worker`. Wait-free: a per-worker ring that
  /// overwrites the oldest entries on overflow. Each ring is written by
  /// exactly one worker thread. Events for workers beyond kMaxWorkers
  /// cannot be retained (there is no ring to put them in) — they bump the
  /// dropped() counter instead of vanishing silently.
  void record(unsigned worker, TraceEvent event, const void* frame) noexcept {
    if (!enabled()) return;
    if (worker >= kMaxWorkers) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Ring& ring = rings_[worker].value;
    const std::uint64_t i = ring.next.load(std::memory_order_relaxed);
    ring.buf[i % kRingCapacity] =
        TraceRecord{now_ns(), frame, event, static_cast<std::uint8_t>(worker)};
    // Release: a snapshotting thread that observes i+1 also observes the
    // record. A mid-run snapshot is thereby well-defined (it sees a clean
    // prefix of each ring) though still racy on wrapped slots; the intended
    // contract remains snapshot-after-quiescence.
    ring.next.store(i + 1, std::memory_order_release);
  }

  /// Events discarded because the worker id had no ring (>= kMaxWorkers).
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// All retained records in true time order, starting at the oldest entry
  /// each ring still holds (on overflow the ring keeps the newest
  /// kRingCapacity records per worker).
  ///
  /// Quiescence contract: call only after the traced run has completed
  /// (Scheduler::run returning establishes happens-before with every worker
  /// thread). The atomic ring indices make a mid-run call well-defined
  /// memory-wise, but it may then miss in-flight records and, on a wrapped
  /// ring, read slots concurrently overwritten.
  std::vector<TraceRecord> snapshot() const;

  /// Clear all rings and the dropped counter (call between runs, after
  /// quiescence).
  void reset();

  /// CSV dump: time_ns,worker,event,frame.
  void dump_csv(std::ostream& out) const;

 private:
  struct Ring {
    std::atomic<std::uint64_t> next{0};
    std::array<TraceRecord, kRingCapacity> buf{};
  };

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::array<CachePadded<Ring>, kMaxWorkers> rings_{};
};

}  // namespace cilkm::rt
