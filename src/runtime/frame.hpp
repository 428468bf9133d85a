// Spawn frames, split the way Cilk-5's work-first design splits them. Every
// fork2join pushes a SpawnFrame — four words on the spawner's stack: the
// deferred branch's invoker, the pedigree snapshot, and a pointer to the
// frame's join record — and an un-stolen frame costs only that push and an
// unfenced pop (deque.hpp). The full frame of the paper (the join-arrival
// counter, the parked continuation, and the view-deposit placeholders that
// hold the left-child / right-sibling hypermaps, or public SPA maps in the
// memory-mapping scheme) is a JoinFrame, built only when a frame is promoted:
// stolen by a thief, or self-popped by its own worker's scheduler loop.
#pragma once

#include <atomic>
#include <exception>

#include "mem/internal_alloc.hpp"
#include "obs/profiler.hpp"
#include "runtime/context.hpp"
#include "runtime/pedigree.hpp"
#include "runtime/stack_pool.hpp"
#include "views/view_store.hpp"

namespace cilkm::rt {

/// A deposited set of local views, one component per view store (SPA maps,
/// hypermap). Defined by the views layer; re-exported here because the
/// runtime embeds two deposit placeholders in every join record.
using ViewSetDeposit = views::ViewSetDeposit;

/// The join record of a promoted frame. Whichever side of the join needs it
/// first — the thief (or self-pop fiber) when it launches the deferred
/// branch, or the victim when its fast-path pop fails — allocates one from
/// the kFrames tag and installs it in SpawnFrame::join with one CAS; the
/// loser frees its copy. The strand past the join takes eptr and the
/// profiler totals out of it and frees it (fork2join's slow path).
struct JoinFrame {
  static void* operator new(std::size_t bytes) {
    return mem::InternalAlloc::instance().allocate(bytes,
                                                   mem::AllocTag::kFrames);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    mem::InternalAlloc::instance().deallocate(p, bytes,
                                              mem::AllocTag::kFrames);
  }

  /// Out of line (worker.cpp), so no fork2join instantiation inlines the
  /// deposit placeholders' teardown into its slow path.
  ~JoinFrame();

  /// Join-arrival counter. The side whose fetch_add returns 1 arrived last
  /// and resumes the parked continuation; the side that got 0 deposited its
  /// views and went back to work-stealing.
  std::atomic<int> arrivals{0};

  /// The victim's suspended continuation (valid once the victim's scheduler
  /// announces its arrival) and its fiber for bookkeeping.
  Context parked;
  Fiber* parked_fiber = nullptr;

  /// Deposit placeholders: the victim deposits to `left_views` (its views
  /// are serially earlier), the thief to `right_views`.
  ViewSetDeposit left_views;
  ViewSetDeposit right_views;

  /// Exception thrown by the stolen branch, rethrown at the join.
  std::exception_ptr eptr;

  /// Work/span profiler slots (obs/profiler.hpp). The thief (or self-pop
  /// fiber) publishes the stolen branch's subcomputation totals in prof_b
  /// before announcing its join arrival; under profiling the victim
  /// accumulates its own protocol costs (deposit, reinstall, merge) into
  /// prof_burden_left. The resumed continuation combines both sides at the
  /// join.
  obs::Totals prof_b{};
  std::uint64_t prof_burden_left = 0;
};

/// What fork2join pushes. Trivially destructible and written once before
/// the push, so the un-stolen path never touches anything else.
struct SpawnFrame {
  /// Type-erased invoker of the deferred branch `b` (set by SpawnFrameT).
  void (*invoke_b)(SpawnFrame*) = nullptr;

  /// Pedigree snapshot of the spawning strand, written by fork2join BEFORE
  /// the frame is pushed (a thief may promote it immediately) and immutable
  /// afterwards. Whoever runs the continuation — the spawner's own fast
  /// path, a thief, or a self-pop — begins the thread's strand record
  /// (StrandState, runtime/pedigree.hpp) at rank ped_rank + 1 under the
  /// ped_parent prefix; the strand past the join runs at ped_rank + 2.
  /// The chain nodes live in ancestor fork2join stack frames, all of which
  /// are suspended until this frame's join completes.
  const PedigreeNode* ped_parent = nullptr;
  std::uint64_t ped_rank = 0;

  /// The join record, null until the frame is promoted (see JoinFrame).
  std::atomic<JoinFrame*> join{nullptr};
};

template <typename B>
struct SpawnFrameT : SpawnFrame {
  B* body;

  explicit SpawnFrameT(B* b) : body(b) {
    invoke_b = [](SpawnFrame* f) { (*static_cast<SpawnFrameT*>(f)->body)(); };
  }
};

}  // namespace cilkm::rt
