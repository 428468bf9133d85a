// The work-stealing scheduler: owns the workers, runs root tasks, selects
// steal victims, and aggregates statistics. The pool is persistent: OS
// threads are created once (lazily on the first run(), or eagerly via
// warm_up()) and survive across run() calls, parking between and during
// runs instead of spinning, so repeated runs pay a wake-up — not thread
// creation and TLMM-region TLS rebuild — per invocation. Workers also
// persist logically, keeping reducer slot offsets and pools warm.
//
// One scheduling policy, from the topo/ subsystem: worker ids take the
// spread CPU order (pinned there when SchedulerOptions::pin is set), steal
// victims are probed in proximity order (same core → same package → remote)
// with a randomized escape hatch, a theft claims half the victim's frames,
// and a push wakes up to Deque::kWakeBatch of the nearest sleepers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/parking.hpp"
#include "runtime/worker.hpp"

namespace cilkm::rt {

/// Deployment settings of a worker pool; neither changes the scheduling
/// policy.
struct SchedulerOptions {
  /// Pin each worker thread to its assigned CPU (best-effort: a failed
  /// sched_setaffinity leaves the thread unpinned).
  bool pin = false;

  /// Run watchdog: if > 0, run() checks every watchdog_ms milliseconds that
  /// some worker made scheduling progress (launch, degraded run, or join
  /// resumption); a window with no progress and no quiescence dumps a
  /// metrics snapshot plus the tracer rings to stderr and aborts. 0 (the
  /// default) disables the watchdog. Note: a single strand that legitimately
  /// computes for longer than the window without spawning looks like a
  /// stall — size the window to the workload's longest serial stretch.
  unsigned watchdog_ms = 0;
};

class Scheduler {
 public:
  explicit Scheduler(unsigned num_workers, SchedulerOptions options = {});

  /// Parks the pool, joins the worker threads. Must not be called while a
  /// run is in flight (run() does not return until quiescence, so ordinary
  /// single-owner usage is safe by construction).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Execute `root` to completion on the worker pool. Exceptions escaping
  /// the root task are rethrown here; a throwing run leaves the pool fully
  /// quiesced and reusable. Reentrant calls are not allowed, and at most
  /// one external thread may be inside run() at a time.
  void run(std::function<void()> root);

  /// Create the worker threads now (idempotent). run() does this lazily;
  /// benches call it so the first timed sample doesn't pay thread creation.
  void warm_up();

  unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  Worker& worker(unsigned i) noexcept { return *workers_[i]; }

  /// The logical CPU worker `w` is assigned (and pinned to, under
  /// SchedulerOptions::pin).
  unsigned worker_cpu(unsigned w) const noexcept { return worker_cpu_[w]; }

  /// Workers registered on the idle gate right now (a relaxed read: tests
  /// poll it to wait for the pool to park).
  std::uint32_t parked_workers() const noexcept {
    return parking_.parked_count();
  }

  /// Worker `thief`'s victims in proximity order (nearest first): a
  /// permutation of every other worker id. Stable after construction; the
  /// per-round sequence additionally shuffles within proximity tiers.
  const std::vector<unsigned>& victim_order(unsigned thief) const noexcept {
    return victim_order_[thief];
  }

  /// Proximity tier of `victim` as seen from `thief` (0 = same core,
  /// 1 = same package, 2 = remote), the rank used by steals and wake-ups.
  std::uint8_t victim_tier(unsigned thief, unsigned victim) const noexcept {
    return victim_tier_[thief][victim];
  }

  /// Most victims probed per steal round: bounds the latency of the idle
  /// loop's done-flag re-check on wide pools, and bounds the shuffle work
  /// per round (only this prefix of the victim sequence is randomized).
  static constexpr unsigned kMaxStealProbes = 16;

  /// Build one steal round for `thief` into `out`: every other worker
  /// exactly once (no victim is probed twice in a round), nearest tiers
  /// first (shuffled within each tier, with a randomized escape hatch for
  /// whole-machine balance). Only the first kMaxStealProbes entries — all a
  /// round ever probes — are randomized; the tail keeps tier order. Uses
  /// the thief worker's private rng, so callers other than the thief itself
  /// may only call this on a quiesced pool.
  void build_victim_round(unsigned thief, std::vector<unsigned>* out);

  /// Sum of all workers' counters. Counters accumulate across run() calls
  /// on the same pool; call reset_stats() between runs for per-run numbers.
  WorkerStats aggregate_stats() const;
  void reset_stats();

  /// Genuine cross-worker thefts (excludes own-deque promotions, which are
  /// counted under kSelfPops) since construction or the last reset_stats().
  std::uint64_t total_steals() const;

 private:
  friend class Worker;

  void start_threads_locked();
  void worker_thread(Worker* w);

  /// True iff any worker's deque holds a stealable frame. Used by the park
  /// protocol's post-registration re-check.
  bool work_available() const noexcept;

  /// Sum of all workers' progress ticks (relaxed; watchdog heartbeat).
  std::uint64_t progress_sum() const noexcept;

  /// Stalled-epoch post-mortem: dump an obs::capture metrics snapshot and
  /// the per-worker tracer rings to stderr before the watchdog aborts.
  void dump_stall_diagnostics();

  SchedulerOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Topology-derived placement (worker id → logical CPU) and proximity
  // structure, fixed at construction.
  std::vector<unsigned> worker_cpu_;
  std::vector<std::vector<unsigned>> victim_order_;      // per thief
  std::vector<std::vector<std::uint8_t>> victim_tier_;   // [thief][victim]

  std::atomic<bool> done_{false};
  std::function<void()> root_fn_;
  std::exception_ptr root_eptr_;

  // Mid-run idle parking (see parking.hpp). Producers: Deque::push, the
  // root-completion path (Worker::complete_root).
  ParkingLot parking_;

  // Pool lifecycle. All fields below are guarded by lifecycle_mu_; workers
  // sleep on start_cv_ between runs, run() sleeps on quiesce_cv_ until every
  // worker has left the run.
  std::mutex lifecycle_mu_;
  std::condition_variable start_cv_;
  std::condition_variable quiesce_cv_;
  std::uint64_t run_epoch_ = 0;
  unsigned active_workers_ = 0;
  bool running_ = false;
  bool shutdown_ = false;
};

}  // namespace cilkm::rt
