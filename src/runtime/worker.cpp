#include "runtime/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <utility>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/sanitizer.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "topo/topology.hpp"
#include "util/assert.hpp"
#include "util/timing.hpp"

namespace cilkm::rt {

thread_local Worker* tls_worker = nullptr;

JoinFrame::~JoinFrame() = default;

namespace {

/// Promote `frame`: return its join record, building it if this side asks
/// first. The two sides race only through the one CAS that installs it; the
/// loser frees its copy. The allocation runs inside the join protocol,
/// outside any eptr catch, so injected refill faults are suppressed, and a
/// real exhaustion aborts (noexcept) instead of unwinding past a frame the
/// other side still uses.
JoinFrame* promote(SpawnFrame* frame) noexcept {
  JoinFrame* join = frame->join.load(std::memory_order_acquire);
  if (join != nullptr) return join;
  chaos::SuppressFaults suppress;
  auto* fresh = new JoinFrame;
  if (frame->join.compare_exchange_strong(join, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;
  return join;
}

}  // namespace

Worker::Worker(Scheduler* sched, unsigned id) : id_(id), sched_(sched) {}

Worker::~Worker() {
  // Hand cached fibers back to the pool's shard; the pool (and its trim
  // policy) outlives any one worker.
  StackPool::instance().flush(fiber_cache_);
}

// ---------------------------------------------------------------------------
// Scheduling: fibers, parking, stealing. All view bookkeeping is delegated
// to views_ (the ViewStoreSet); this file only sequences the join protocol.
// ---------------------------------------------------------------------------

void Worker::merge(ViewSetDeposit* in, bool deposit_is_left) {
  // Merges allocate (monoid combines, table growth) inside the join
  // protocol, outside any JoinFrame::eptr catch: injected allocator faults
  // are suppressed here, injected protocol delays are not.
  chaos::SuppressFaults suppress;
  chaos::maybe_delay(chaos::Site::kMergeDelay);
  Tracer::instance().record(id_, TraceEvent::kMerge, in);
  views_.merge(in, deposit_is_left);
}

void Worker::deposit(JoinFrame* join, bool victim) {
  Tracer::instance().record(
      id_, victim ? TraceEvent::kDepositLeft : TraceEvent::kDepositRight,
      join);
  // Scoped to this call, not to the caller: a fiber that never returns
  // must not hold a SuppressFaults open across its context switch, or the
  // thread-local count would leak and mute injection on this worker
  // forever.
  chaos::SuppressFaults suppress;
  chaos::maybe_delay(chaos::Site::kDepositDelay);
  // View-transferal burden, charged before the arrival announcement (or the
  // park whose announcement the scheduler loop makes), so whoever resumes
  // the continuation observes the final value.
  obs::BurdenTimer burden(victim ? &join->prof_burden_left
                                 : &join->prof_b.burden);
  views_.deposit_ambient(victim ? &join->left_views : &join->right_views);
}

void Worker::reinstall(JoinFrame* join, std::uint64_t* burden_slot) {
  chaos::SuppressFaults suppress;
  chaos::maybe_delay(chaos::Site::kInstallDelay);
  // The continuation resumes on this thread right after, so this burden
  // store is ordered before its read.
  obs::BurdenTimer burden(burden_slot);
  views_.install_deposit(&join->left_views);
  merge(&join->right_views, /*deposit_is_left=*/false);
}

void Worker::resume_parked(JoinFrame* join, Context* from, TraceEvent ev) {
  Tracer::instance().record(id_, ev, join);
  // Only a fiber recycles itself; the scheduler context has no fiber of its
  // own, and current_fiber_ may still name a parked one there.
  if (from != &sched_ctx_) pending_recycle_ = current_fiber_;
  current_fiber_ = join->parked_fiber;
  tsan::switch_to(join->parked_fiber->tsan_fiber);
  cilkm_ctx_switch(from, &join->parked);
}

void Worker::yield_to_scheduler(Context* from) {
  if (from == &sched_ctx_) return;  // degraded: already on the loop's stack
  pending_recycle_ = current_fiber_;
  current_fiber_ = nullptr;
  tsan::switch_to(sched_tsan_);
  cilkm_ctx_switch(from, &sched_ctx_);
  __builtin_unreachable();
}

void Worker::drain_pending() {
  if (pending_recycle_ != nullptr) {
    StackPool::instance().release(pending_recycle_, &fiber_cache_);
    pending_recycle_ = nullptr;
  }
}

/// Trampoline for every fiber: runs the launched root task or stolen branch
/// and its join. Never returns.
void fiber_main(void* arg) {
  auto* self = static_cast<Fiber*>(arg);
  Worker* w = Worker::current();
  w->drain_pending();
  w->run_launched(std::exchange(w->launch_frame_, nullptr), &self->ctx);
  __builtin_unreachable();
}

void Worker::run_launched(SpawnFrame* frame, Context* from) {
  const bool prof = obs::profiler_enabled();
  JoinFrame* join = nullptr;
  if (frame == nullptr) {
    // Root task: every run() starts from the root pedigree, so pedigrees
    // (and DPRNG streams) are reproducible per run, not per pool lifetime.
    // Its profile opens the run's outermost subcomputation.
    current_strand().begin({}, prof);
    try {
      sched_->root_fn_();
    } catch (...) {
      sched_->root_eptr_ = std::current_exception();
    }
  } else {
    // A promoted frame resumes the continuation strand: rank ped_rank + 1
    // under the spawn-time prefix, exactly where the victim's fast path
    // would have resumed it (thieves and self-pops alike). The stolen branch
    // is a fresh subcomputation whose burden starts at the steal latency
    // that delivered the frame (0 for a self-pop). Its join record is built
    // now unless the victim already reached its join; past invoke_b the
    // frame itself is never touched again.
    join = promote(frame);
    current_strand().begin({frame->ped_parent, frame->ped_rank + 1}, prof,
                           launch_burden_ns_);
    try {
      frame->invoke_b(frame);
    } catch (...) {
      join->eptr = std::current_exception();
    }
  }
  Worker* w = Worker::current();  // a fiber's strand may have migrated
  // A degraded strand's forced-serial spawns end with its body: the join
  // below may resume a parked continuation, which must spawn normally.
  w->serial_mode_ = false;
  if (join == nullptr) {
    w->complete_root(from);
  } else {
    w->join_thief(join, from);
  }
}

void Worker::complete_root(Context* from) {
  // The root strand's final combined state IS the run's work/span/burden.
  obs::Profiler::instance().record_run(
      current_strand().end(obs::profiler_enabled()));
  views_.collapse_into_leftmosts();
  Tracer::instance().record(id_, TraceEvent::kRootDone, nullptr);
  sched_->done_.store(true, std::memory_order_release);
  // Idle workers may be parked on the lot; they must all observe the done
  // flag to quiesce the run.
  stats_[StatCounter::kWakes] += sched_->parking_.wake_all();
  yield_to_scheduler(from);
}

void Worker::join_thief(JoinFrame* join, Context* from) {
  // Publish b's totals in the join record BEFORE any arrival announcement:
  // the release fetch_add below (or the victim's acquire load of arrivals)
  // makes them visible to whoever resumes the continuation.
  join->prof_b = current_strand().end(obs::profiler_enabled());
  if (join->arrivals.load(std::memory_order_acquire) == 1) {
    // The victim has already parked (its arrival is announced only after
    // its deposit and context save are complete). Merge its serially
    // earlier views on the left of ours and perform the joining steal —
    // resume the parked continuation on this worker, no deposit needed.
    // The continuation resumes on THIS thread, so the post-publish burden
    // store is still ordered before its read.
    obs::BurdenTimer burden(&join->prof_b.burden);
    merge(&join->left_views, /*deposit_is_left=*/true);
  } else {
    // Deposit our views on the right, THEN announce the arrival: the other
    // side must never observe a half-built deposit.
    deposit(join, /*victim=*/false);
    if (join->arrivals.fetch_add(1, std::memory_order_acq_rel) != 1) {
      // First arriver: the victim will resume the continuation.
      yield_to_scheduler(from);
      return;
    }
    // The victim parked in the meantime and we arrived last: both deposits
    // exist and our ambient is empty. Reinstall the victim's (left) views,
    // merge our own deposit back on the right, and resume the continuation.
    reinstall(join, &join->prof_b.burden);
  }
  ++stats_[StatCounter::kJoiningSteals];
  resume_parked(join, from, TraceEvent::kResumeByThief);
}

void Worker::launch(SpawnFrame* frame_or_null_root) {
  progress_.fetch_add(1, std::memory_order_relaxed);
  Tracer::instance().record(id_, TraceEvent::kLaunch, frame_or_null_root);
  Fiber* fiber = nullptr;
  // The fiber consult is keyed on the frame's pedigree SNAPSHOT, not this
  // thread's pedigree slot: on the scheduler context the slot may reference
  // chain nodes on stacks that are already recycled, and the snapshot is
  // what makes the decision schedule-independent (the frame's identity,
  // not who launches it).
  const PedigreeState frame_ped =
      frame_or_null_root != nullptr
          ? PedigreeState{frame_or_null_root->ped_parent,
                          frame_or_null_root->ped_rank}
          : PedigreeState{};
  if (!chaos::should_fail(chaos::Site::kFiberAcquire, frame_ped)) {
    // The fiber-header allocation goes through the internal allocator;
    // suppress injected refill faults for it (a throw here would escape
    // into the scheduler loop). Real exhaustion returns nullptr instead.
    chaos::SuppressFaults suppress;
    fiber = StackPool::instance().acquire(&fiber_cache_);
  }
  if (fiber == nullptr) {
    // Out of fiber stacks (or an injected fault said so): run the frame on
    // this OS thread's own stack instead of aborting.
    ++stats_[StatCounter::kFiberFallbacks];
    run_degraded(frame_or_null_root);
    return;
  }
  ++stats_[StatCounter::kFibersAllocated];
  launch_frame_ = frame_or_null_root;
  current_fiber_ = fiber;
  tsan::switch_to(fiber->tsan_fiber);
  cilkm_ctx_start(&sched_ctx_, fiber->stack_top, &fiber_main, fiber);
  // Control returns here when the fiber parks or finishes.
}

void Worker::run_degraded(SpawnFrame* frame) {
  serial_mode_ = true;
  run_launched(frame, &sched_ctx_);
}

JoinFrame* Worker::join_slow(SpawnFrame* frame) {
  // The thief may still be between its steal and its launch: then this side
  // builds the join record.
  JoinFrame* join = promote(frame);
  Worker* w = Worker::current();
  if (join->arrivals.load(std::memory_order_acquire) == 1) {
    // The thief has already deposited and left: merge its views on the
    // right of ours and carry on without parking. The caller (fork2join's
    // slow path, same thread) reads this burden right after we return.
    obs::BurdenTimer burden(&join->prof_burden_left);
    w->merge(&join->right_views, /*deposit_is_left=*/false);
    return join;
  }
  // Park: transfer our views (serially earlier than the thief's) into the
  // join record, suspend this fiber, and let the scheduler announce our
  // arrival once the context is fully saved.
  w->deposit(join, /*victim=*/true);
  Tracer::instance().record(w->id(), TraceEvent::kPark, join);
  join->parked_fiber = w->current_fiber_;
  w->pending_park_ = join;
  tsan::switch_to(w->sched_tsan_);
  cilkm_ctx_switch(&join->parked, &w->sched_ctx_);
  // Resumed by the last arriver — possibly on a different worker.
  Worker::current()->drain_pending();
  return join;
}

SpawnFrame* Worker::try_steal_round() {
  const unsigned n = sched_->num_workers();
  if (n <= 1) return nullptr;
  // One deduplicated tour: every other worker probed at most once, nearest
  // proximity tiers first (shuffled within tiers; see build_victim_round).
  // Capped so wide oversubscribed pools still re-check the done flag
  // promptly.
  sched_->build_victim_round(id_, &round_);
  const auto attempts =
      std::min<std::size_t>(round_.size(), Scheduler::kMaxStealProbes);
  for (std::size_t a = 0; a < attempts; ++a) {
    const unsigned victim_id = round_[a];
    ++stats_[StatCounter::kStealAttempts];
    // Timestamp per attempt, not per round: the per-tier latency sample
    // must cover only the successful theft, or failed probes of other
    // (possibly nearer) victims and round construction would be charged
    // to the winning victim's tier and skew tier-vs-tier comparisons.
    const std::uint64_t attempt_start = now_ns();
    const unsigned got = sched_->workers_[victim_id]->deque_.steal_batch(
        steal_buf_, Deque::kMaxStealBatch);
    if (got > 0) {
      // Tier 0/1 (same core or package) is a cache-near theft; tier 2
      // crossed a package or NUMA boundary.
      const std::uint8_t tier = sched_->victim_tier(id_, victim_id);
      const bool local = tier < static_cast<std::uint8_t>(
                                    topo::Topology::Proximity::kRemote);
      ++stats_[local ? StatCounter::kLocalSteals : StatCounter::kRemoteSteals];
      stats_[StatCounter::kStolenFrames] += got;
      const std::uint64_t steal_lat = now_ns() - attempt_start;
      stats_.record_steal(tier, steal_lat);
      launch_burden_ns_ = steal_lat;  // burden seed if this frame launches
      // Injected delay between claiming the frames and publishing /
      // launching them — the window a preempted thief would leave the
      // protocol in. Keyed on the promoted frame's pedigree snapshot (this
      // thread's pedigree slot is scheduler-context here).
      chaos::maybe_delay(chaos::Site::kStealDelay,
                         PedigreeState{steal_buf_[0]->ped_parent,
                                       steal_buf_[0]->ped_rank});
      if (got > 1) {
        // Steal-half tail: our deque is empty (we only steal when it is),
        // so a bulk push of the younger frames oldest-first preserves the
        // depth order thieves and our own pops rely on. The push is
        // wake-suppressed; instead ONE ParkingLot call wakes up to got-1
        // nearest sleepers to fan the new work out without got-1 serial
        // wake chains.
        deque_.push_bulk(steal_buf_ + 1, got - 1);
        const std::uint32_t woken =
            sched_->parking_.wake(got - 1, sched_->victim_tier_[id_].data());
        stats_[StatCounter::kWakes] += woken;
        if (woken > 1) stats_[StatCounter::kBatchWakes] += woken - 1;
      }
      return steal_buf_[0];  // promote the oldest stolen frame
    }
    cpu_relax();
  }
  return nullptr;
}

void Worker::park_idle(unsigned episode_parks) {
  ParkingLot& lot = sched_->parking_;
  const std::uint32_t ticket = lot.prepare_park(id_);
  // Registered as a sleeper — re-check everything a producer could have
  // published before it saw us: the done flag and every deque. Publications
  // after this point are guaranteed to observe the registration and wake.
  if (sched_->done_.load(std::memory_order_acquire) ||
      sched_->work_available()) {
    // A producer may have targeted us already; cancel forwards its wake
    // credit to the next sleeper, and those forwards count as wake-ups we
    // delivered.
    stats_[StatCounter::kWakes] += lot.cancel_park(id_);
    return;
  }
  // kParks counts idle EPISODES, not poll cycles: re-parking after a
  // backstop expiry (episode_parks > 1) is the same episode.
  if (episode_parks == 1) ++stats_[StatCounter::kParks];
  // The backstop bounds the damage of any missed wake-up; in correct
  // operation only a wake ends the wait. It escalates exponentially
  // (2ms → 64ms) across one episode so long-idle workers converge to a
  // handful of spurious wake-ups per second instead of a 500 Hz poll.
  const auto backstop =
      std::chrono::milliseconds(2L << std::min(episode_parks - 1, 5u));
  lot.park(id_, ticket, backstop);
}

void Worker::scheduler_loop() {
  // Record this thread's own TSan identity so fibers can switch back to the
  // scheduler stack. The pool thread persists across runs, so this is
  // idempotent after the first run.
  sched_tsan_ = tsan::current_fiber();
  const bool is_bootstrap = (id_ == 0);
  if (is_bootstrap) launch(nullptr);  // run the root task

  // Exponential idle backoff: pause-spin rounds, then yields, then parking.
  constexpr unsigned kSpinRounds = 48;
  constexpr unsigned kYieldRounds = 8;
  unsigned idle_rounds = 0;

  while (true) {
    drain_pending();
    if (pending_park_ != nullptr) {
      JoinFrame* join = std::exchange(pending_park_, nullptr);
      if (join->arrivals.fetch_add(1, std::memory_order_acq_rel) == 1) {
        // The thief finished in the meantime: both deposits exist. Take our
        // own views back, merge the thief's on the right, and resume the
        // continuation ourselves.
        reinstall(join, &join->prof_burden_left);
        progress_.fetch_add(1, std::memory_order_relaxed);
        resume_parked(join, &sched_ctx_, TraceEvent::kResumeSelf);
        // The resumed continuation ran (and may have spawned): restart the
        // idle backoff from the spin phase rather than parking immediately.
        idle_rounds = 0;
        continue;
      }
      // We arrived first; the thief will resume the continuation.
    }
    if (sched_->done_.load(std::memory_order_acquire)) break;

    CILKM_DCHECK(ambient_empty(), "stealing with non-empty ambient views");
    SpawnFrame* frame = deque_.take_any();
    if (frame != nullptr) {
      // Promoting a frame from our own deque is not a theft: count and
      // trace it separately so the steal rate reported for the paper's
      // figures (and total_steals()) measures genuine cross-worker traffic.
      ++stats_[StatCounter::kSelfPops];
      launch_burden_ns_ = 0;  // no steal latency to burden a self-pop with
      Tracer::instance().record(id_, TraceEvent::kSelfPop, frame);
    } else {
      frame = try_steal_round();
      if (frame != nullptr) {
        ++stats_[StatCounter::kSteals];
        Tracer::instance().record(id_, TraceEvent::kSteal, frame);
      }
    }
    if (frame != nullptr) {
      idle_rounds = 0;
      launch(frame);
      continue;
    }
    // Nothing runnable anywhere we looked: back off, then park.
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) {
      for (unsigned i = 0; i < 1u << std::min(idle_rounds / 8, 5u); ++i) {
        cpu_relax();
      }
    } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
      std::this_thread::yield();
    } else {
      park_idle(idle_rounds - kSpinRounds - kYieldRounds);
    }
  }
}

namespace {

/// assert_fail context: which worker died, executing which strand. Uses
/// only async-signal-tolerant pieces (fprintf, a bounded stack array) since
/// the process is already aborting.
void print_assert_context(std::FILE* out) {
  Worker* w = Worker::current();
  if (w == nullptr) {
    std::fprintf(out, "  on an external thread (no worker)\n");
    return;
  }
  std::fprintf(out, "  on worker %u", w->id());
  constexpr unsigned kMaxDepth = 128;
  std::uint64_t ranks[kMaxDepth];
  unsigned depth = 0;
  const PedigreeState& ped = current_strand().ped;
  const PedigreeNode* n = ped.parent;
  for (; n != nullptr && depth < kMaxDepth; n = n->parent) {
    ranks[depth++] = n->rank;
  }
  std::fprintf(out, ", pedigree (root->leaf):");
  if (n != nullptr) std::fprintf(out, " ...");  // deeper than the buffer
  for (unsigned i = depth; i-- > 0;) {
    std::fprintf(out, " %llu", static_cast<unsigned long long>(ranks[i]));
  }
  std::fprintf(out, " %llu\n", static_cast<unsigned long long>(ped.rank));
}

}  // namespace

void install_assert_context() noexcept {
  ::cilkm::detail::assert_context_fn = &print_assert_context;
}

}  // namespace cilkm::rt
