// A worker thread: its deque, its scheduling contexts, and one ViewStoreSet
// holding its private reducer-view state for every mechanism. The
// view-transferal / hypermerge engine itself lives in the views layer
// (views/view_store.hpp); the worker only decides WHEN to deposit, install,
// or merge — the join protocol of paper Sections 3 and 7.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/deque.hpp"
#include "runtime/frame.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "views/view_store.hpp"

namespace cilkm::rt {

class Scheduler;
enum class TraceEvent : std::uint8_t;

/// 1024-byte alignment (cf. the OpenCilk __cilkrts_worker layout): adjacent
/// Worker objects never share a cache line OR an adjacent-line prefetch
/// pair, so hardware prefetchers on one worker's hot line cannot induce
/// false sharing with its neighbour. Workers are heap-allocated (C++17
/// aligned operator new honours this).
class alignas(1024) Worker {
 public:
  Worker(Scheduler* sched, unsigned id);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// The worker the calling OS thread belongs to, or nullptr outside runs.
  static Worker* current() noexcept;

  // ---- identity / scheduling ----
  unsigned id() const noexcept { return id_; }
  Scheduler* scheduler() const noexcept { return sched_; }
  WorkerStats& stats() noexcept { return stats_; }
  Deque& deque() noexcept { return deque_; }

  /// True while this worker runs a degraded (fiber-less) frame on its
  /// scheduler stack: fork2join then executes children serially in place —
  /// nothing is pushed, so the frame cannot park and the OS-thread stack
  /// unwinds synchronously (see run_degraded).
  bool serial_spawns() const noexcept { return serial_mode_; }

  /// Monotonic scheduling-progress tick (launches, degraded runs, join
  /// resumptions), read across threads by the run watchdog: a window in
  /// which no worker's tick advances and the run has not quiesced is a
  /// stalled epoch.
  std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Main loop for one run: bootstraps the root (worker 0), then promotes
  /// own-deque frames and steals until the run's done flag rises, parking on
  /// the scheduler's idle gate (after a spin→yield backoff) while no work
  /// exists anywhere.
  void scheduler_loop();

  /// Slow join path for fork2join when the deferred branch was stolen:
  /// returns the frame's join record once both sides have arrived, for the
  /// caller to take the stolen branch's results from and free. May return
  /// on a *different* worker (the continuation migrates).
  static JoinFrame* join_slow(SpawnFrame* frame);

  // ---- reducer-view state (all mechanisms) ----
  views::ViewStoreSet& views() noexcept { return views_; }
  const views::ViewStoreSet& views() const noexcept { return views_; }

  /// Base of the emulated TLMM region (installed into TLS by the scheduler).
  std::byte* region_base() noexcept { return views_.spa().base(); }

  /// True iff this worker holds no live view in any store.
  bool ambient_empty() const noexcept { return views_.empty(); }

 private:
  friend class Scheduler;
  friend void fiber_main(void* arg);

  void launch(SpawnFrame* frame_or_null_root);

  /// Graceful-degradation path when no fiber stack could be acquired (real
  /// mmap exhaustion after StackPool's backoff, or an injected chaos
  /// fault): the fiber-less twin of fiber_main. It runs the same
  /// run_launched routine as an ordinary call on the scheduler's own
  /// OS-thread stack, with serial_spawns() forcing nested fork2joins serial
  /// so nothing below can push, park, or migrate. A joining resume switches
  /// into the parked continuation exactly as the scheduler loop's
  /// kResumeSelf path does; control returns here when some fiber on this
  /// thread next yields to the scheduler context.
  void run_degraded(SpawnFrame* frame_or_null_root);

  /// The one body behind fiber_main and run_degraded: begin the launched
  /// strand — the run's root (nullptr) or a promoted frame's deferred branch
  /// — at its pedigree, run it, then complete the root or perform the thief
  /// side of the frame's join on whichever worker the strand ended on.
  /// `from` is the context the strand runs on: its fiber's own, or
  /// sched_ctx_ for a degraded launch. Everything that differs between the
  /// two follows from it: a fiber recycles itself and never returns, while
  /// a degraded strand returns to the scheduler loop.
  void run_launched(SpawnFrame* frame_or_null_root, Context* from);
  void complete_root(Context* from);
  void join_thief(JoinFrame* join, Context* from);

  // The join protocol's edges, one helper each, so every use of an edge
  // gets its trace record, chaos suppression and delay, and profiler burden
  // (the views layer knows nothing about workers, tracing, or chaos).
  // `victim` picks the serially earlier (left) side; `burden_slot` is the
  // calling side's JoinFrame profiler slot (prof_burden_left for the
  // victim, prof_b.burden for the thief).
  void deposit(JoinFrame* join, bool victim);
  void merge(ViewSetDeposit* in, bool deposit_is_left);
  void reinstall(JoinFrame* join, std::uint64_t* burden_slot);
  void resume_parked(JoinFrame* join, Context* from, TraceEvent ev);
  /// Leave a finished strand for the scheduler loop: a fiber recycles itself
  /// and switches away for good; on sched_ctx_ this simply returns.
  void yield_to_scheduler(Context* from);

  void drain_pending();

  /// One steal round: a deduplicated tour over the other workers — in
  /// proximity order (Scheduler::build_victim_round) — with pause backoff
  /// between attempts. Every attempt (hit or miss) bumps kStealAttempts; a
  /// hit is classified into kLocalSteals or kRemoteSteals by the victim's
  /// proximity tier.
  SpawnFrame* try_steal_round();

  /// Two-phase park on the scheduler's idle gate: register, re-check (done
  /// flag, any stealable work), then block. Returns after a wake-up or the
  /// backstop; the caller re-runs the full loop either way. `episode_parks`
  /// is 1 on the first park of an idle episode (counted in kParks) and grows
  /// with each consecutive re-park, escalating the backstop.
  void park_idle(unsigned episode_parks);

  // Hot/cold member layout (see README "Steal path"). First line: identity
  // and the fiber-switch state touched on every launch/park/resume.
  unsigned id_;
  Scheduler* sched_;
  Context sched_ctx_;
  void* sched_tsan_ = nullptr;  // TSan state of the scheduler-loop stack
  Fiber* current_fiber_ = nullptr;
  Fiber* pending_recycle_ = nullptr;
  LocalFiberCache fiber_cache_;  // lock-free front of the global pool
  JoinFrame* pending_park_ = nullptr;
  SpawnFrame* launch_frame_ = nullptr;
  bool serial_mode_ = false;  // degraded frame in flight (see serial_spawns)

  /// Written (relaxed) only by this worker, read by the watchdog thread.
  std::atomic<std::uint64_t> progress_{0};

  /// Burden seed for the next launch (profiling only): the steal latency
  /// that delivered the frame about to be launched, or 0 for a self-pop.
  /// run_launched charges it to the stolen branch's burdened span.
  std::uint64_t launch_burden_ns_ = 0;

  // Steal-side state, on its own line(s): touched only while idle-stealing,
  // so steal rounds don't bounce the fiber-switch line above.
  alignas(kCacheLineSize) Xoshiro256 rng_;
  std::vector<unsigned> round_;  // scratch victim sequence, reused per round
  SpawnFrame* steal_buf_[Deque::kMaxStealBatch];  // steal_batch scratch

  // Stats on their own line: bumped from both the owner path (self-pops,
  // view work) and the steal path, but never by other threads.
  alignas(kCacheLineSize) WorkerStats stats_;

  views::ViewStoreSet views_{&stats_};

  Deque deque_;  // large (512 KiB); Worker objects are heap-allocated

  static_assert(alignof(Deque) == kCacheLineSize,
                "deque hot lines rely on cache-line alignment");
};

static_assert(alignof(Worker) == 1024,
              "Worker must be 1024-byte aligned against prefetcher-induced "
              "false sharing (cf. the __cilkrts_worker exemplar)");

/// Install the worker-aware assert_fail context hook (worker id + the
/// failing strand's pedigree). Idempotent; Scheduler's constructor calls it
/// so every runtime-linked binary gets diagnosable aborts.
void install_assert_context() noexcept;

/// TLS pointer to the calling thread's worker.
extern thread_local Worker* tls_worker;

inline Worker* Worker::current() noexcept { return tls_worker; }

}  // namespace cilkm::rt
