// Public fork-join API. fork2join(a, b) runs `a` immediately and exposes
// "`b`, then the join" as a stealable continuation — exactly the
// continuation-stealing discipline of cilk_spawn/cilk_sync, expressed with
// closures instead of compiler support. Any spawn/sync pattern desugars into
// nested fork2join calls, and each worker executes in precise serial order
// between steals, which is what the reducer protocol relies on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "chaos/chaos.hpp"
#include "obs/profiler.hpp"
#include "runtime/frame.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"

namespace cilkm {

/// Run a() then b(), allowing b's side (with everything after it up to the
/// join) to be stolen. Serial semantics: exactly a(); b();.
///
/// Pedigree discipline (runtime/pedigree.hpp): at spawn rank r, `a` runs as
/// the child with pedigree prefix+[r] (its own leaf rank restarts at 0),
/// `b` runs as the continuation at rank r+1, and the strand past the join
/// runs at r+2 — the same transitions in the serial elision and under every
/// steal schedule, so pedigree-hashed draws are schedule-independent.
///
/// NOTE: the call may return on a different worker thread than it started on
/// (the continuation migrates at a joining steal); do not cache
/// thread-identity-dependent state across this call.
///
/// Strand bookkeeping (runtime/pedigree.hpp StrandState): every transition
/// here — spawning strand closed, child begun, continuation begun, join
/// combined — is one method on the thread's strand record, which seats the
/// pedigree and, under --profile, times the strand. The serial elision, the
/// un-stolen fast path, and the stolen slow path apply the identical
/// transitions and differ only in where b's totals come from (the local
/// strand, or the thief's publication in the join record), so pedigrees and
/// the reported span are the same under every schedule. Profiler off, the
/// only cost is one relaxed load and predicted branches.
///
/// Frames (runtime/frame.hpp): the un-stolen path pushes a four-word
/// SpawnFrame and pops it again; the JoinFrame that a stolen continuation
/// joins through exists only on the slow path.
template <typename A, typename B>
void fork2join(A&& a, B&& b) {
  rt::Worker* w = rt::Worker::current();
  rt::StrandState& s = rt::current_strand();
  const rt::PedigreeState at = s.ped;  // the spawn point: prefix, rank r
  rt::PedigreeNode child_node{at.rank, at.parent};
  const bool prof = obs::profiler_enabled();
  // Close the spawning strand; its prefix totals resume past the join.
  const obs::Totals prefix = s.end(prof);
  if (w != nullptr && !w->serial_spawns()) {
    rt::SpawnFrameT<std::remove_reference_t<B>> frame(&b);
    // The pedigree snapshot must be complete before the push: a thief may
    // promote the frame (and read it) immediately.
    frame.ped_parent = at.parent;
    frame.ped_rank = at.rank;
    // An injected push fault or a genuinely full deque both land on the
    // serial tail below: the child runs in place, exactly as in the serial
    // elision, and the process survives what used to be a capacity abort.
    if (!chaos::should_fail(chaos::Site::kDequePush) &&
        w->deque().push(&frame)) {
      s.begin({&child_node, 0}, prof);
      std::exception_ptr a_eptr;
      try {
        a();
      } catch (...) {
        a_eptr = std::current_exception();
      }
      // `w` (and the thread-local strand record) may be stale if a() itself
      // migrated at an inner join; re-fetch both.
      rt::StrandState& sa = rt::current_strand();
      obs::Totals a_tot = sa.end(prof);
      if (rt::Worker::current()->deque().take_if(&frame) == &frame) {
        // Fast path: not stolen. Mirrors serial execution; no view
        // operations.
        sa.begin({at.parent, at.rank + 1}, prof);
        if (a_eptr) std::rethrow_exception(a_eptr);
        b();
        rt::StrandState& sb = rt::current_strand();
        sb.join({at.parent, at.rank + 2}, prof, prefix, a_tot, sb.end(prof));
        return;
      }
      // Slow path: the continuation was (or is being) stolen. b runs (or
      // ran) on the thief at rank r+1, which published b's totals in the
      // join record before its release arrival; every victim-side protocol
      // cost landed in prof_burden_left. This thread may not be the one
      // that ran a() — re-fetch the strand record. Both sides are done with
      // the join record once join_slow returns: take what the strand past
      // the join needs, then free it.
      rt::JoinFrame* join = rt::Worker::join_slow(&frame);
      if (prof) a_tot.burden += join->prof_burden_left;
      rt::current_strand().join({at.parent, at.rank + 2}, prof, prefix, a_tot,
                                join->prof_b);
      const std::exception_ptr b_eptr = std::move(join->eptr);
      delete join;
      if (a_eptr) std::rethrow_exception(a_eptr);
      if (b_eptr) std::rethrow_exception(b_eptr);
      return;
    }
    ++w->stats()[StatCounter::kSerialDegrades];
  }
  // Serial execution in place, through the identical strand transitions.
  // Three callers share this tail: the serial elision (no scheduler), a
  // degraded (fiber-less) frame whose worker forces nested spawns serial,
  // and a spawn whose push was refused (deque full or injected chaos fault).
  s.begin({&child_node, 0}, prof);
  a();
  rt::StrandState& sa = rt::current_strand();
  const obs::Totals a_tot = sa.end(prof);
  sa.begin({at.parent, at.rank + 1}, prof);
  b();
  rt::StrandState& sb = rt::current_strand();
  sb.join({at.parent, at.rank + 2}, prof, prefix, a_tot, sb.end(prof));
}

/// Run all invocables, allowing them to execute in parallel; serial order is
/// left-to-right (so order-sensitive reducers behave as in serial code).
template <typename F1, typename F2, typename... Rest>
void parallel_invoke(F1&& f1, F2&& f2, Rest&&... rest) {
  if constexpr (sizeof...(Rest) == 0) {
    fork2join(std::forward<F1>(f1), std::forward<F2>(f2));
  } else {
    fork2join(std::forward<F1>(f1), [&] {
      parallel_invoke(std::forward<F2>(f2), std::forward<Rest>(rest)...);
    });
  }
}

namespace detail {

/// parallel_for's leaf loop, out of line and on a 64-byte boundary, so that
/// edits elsewhere (fork2join above all) cannot move a loop body's
/// alignment and with it the speed of loops bound by their body's
/// code placement.
template <typename Body>
[[gnu::noinline, gnu::aligned(64)]] void parallel_for_leaf(std::int64_t lo,
                                                           std::int64_t hi,
                                                           Body& body) {
  for (std::int64_t i = lo; i < hi; ++i) body(i);
}

}  // namespace detail

/// Parallel loop over [lo, hi): recursive binary splitting down to `grain`
/// iterations, preserving ascending serial order within and across leaves.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, std::int64_t grain,
                  Body&& body) {
  if (hi - lo <= grain) {
    detail::parallel_for_leaf(lo, hi, body);
    return;
  }
  const std::int64_t mid = lo + (hi - lo) / 2;
  fork2join([&] { parallel_for(lo, mid, grain, body); },
            [&] { parallel_for(mid, hi, grain, body); });
}

/// Parallel loop with automatic grain selection: aims for ~8 leaf chunks per
/// worker, the usual divide-and-conquer rule of thumb.
template <typename Body>
void parallel_for(std::int64_t lo, std::int64_t hi, Body&& body) {
  std::int64_t workers = 1;
  if (rt::Worker* w = rt::Worker::current()) {
    workers = static_cast<std::int64_t>(w->scheduler()->num_workers());
  }
  const std::int64_t grain = std::max<std::int64_t>(1, (hi - lo) / (8 * workers));
  parallel_for(lo, hi, grain, std::forward<Body>(body));
}

/// A dynamic set of tasks executed in parallel at sync(), with serial order
/// preserved left-to-right (so order-sensitive reducers behave exactly as if
/// the tasks ran in spawn order). Unlike cilk_spawn, children do not begin
/// until sync() — use fork2join directly when the spawning strand should
/// overlap with its children.
class SpawnGroup {
 public:
  template <typename F>
  void spawn(F&& task) {
    tasks_.emplace_back(std::forward<F>(task));
  }

  bool empty() const noexcept { return tasks_.empty(); }
  std::size_t size() const noexcept { return tasks_.size(); }

  /// Run all spawned tasks (parallel, order-preserving) and clear the group.
  void sync() {
    if (!tasks_.empty()) invoke_range(0, tasks_.size());
    tasks_.clear();
  }

  ~SpawnGroup() { sync(); }

 private:
  void invoke_range(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) {
      tasks_[lo]();
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    fork2join([&] { invoke_range(lo, mid); }, [&] { invoke_range(mid, hi); });
  }

  std::vector<std::function<void()>> tasks_;
};

/// Convenience re-exports.
using rt::Scheduler;
using rt::SchedulerOptions;

/// Convenience: run `root` on a fresh P-worker scheduler. One-shot — code
/// that runs repeatedly should hold a Scheduler and reuse the pool.
inline void run(unsigned num_workers, std::function<void()> root) {
  Scheduler(num_workers).run(std::move(root));
}

}  // namespace cilkm
