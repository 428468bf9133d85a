// Spawn pedigrees (Leiserson, Schardl & Sukha, SPAA'12 "DPRNG"): every
// strand of the fork-join computation is named by the path of spawn ranks
// from the root — a sequence fixed by the SERIAL elision of the program,
// identical under every steal schedule and worker count. fork2join
// maintains the ranks (api.hpp), promoted frames carry them through steals
// (frame.hpp / fiber_main), and util/dprng.hpp hashes them so any random
// draw inside a parallel region is a pure function of (seed, pedigree).
//
// Representation: the rank prefix is a linked chain of stack-allocated
// nodes, one per live fork2join activation (the node lives in the spawning
// call's stack frame, exactly as deep as the spawn tree). A chain node is
// immutable once published; only the leaf rank — the current strand's own
// counter — mutates, and it lives in the thread-local strand record
// (StrandState, below) that every resume point (steal, self-pop, joining
// resume) re-establishes from the frame.
//
// Rank discipline, mirroring cilk_spawn/cilk_sync:
//   - fork2join(a, b) at rank r runs `a` as the spawned child with pedigree
//     prefix+[r] (child leaf rank restarts at 0), runs `b` as the
//     continuation at rank r+1, and leaves the join at rank r+2 (the sync
//     bump), so strands before, beside, and after the join never alias.
//   - A DPRNG draw consumes the current leaf rank and bumps it, so
//     consecutive draws on one strand are distinct and a draw's value
//     depends only on the serial position of the draw.
#pragma once

#include <algorithm>
#include <cstdint>

#include "obs/profiler.hpp"

namespace cilkm::rt {

/// One rank of the pedigree prefix, linked toward the root. Lives on the
/// spawning fork2join's stack; valid for exactly as long as that call is
/// live, which covers every strand (and thief) below it.
struct PedigreeNode {
  std::uint64_t rank;
  const PedigreeNode* parent;
};

/// A strand's pedigree: the immutable prefix chain plus the mutable leaf
/// rank. The running strand's lives in StrandState::ped; SpawnFrame keeps a
/// snapshot, and chaos consults and Dprng::hash take one by value.
struct PedigreeState {
  const PedigreeNode* parent = nullptr;
  std::uint64_t rank = 0;
};

/// Everything the running strand carries from one OS thread to the next: its
/// pedigree and, under the profiler, its work/span/burden accumulators. One
/// thread-local record, re-seated wherever a strand (re)starts on a thread,
/// through three transitions that fork2join, the stolen-branch launch, and
/// root launch all share:
///   - begin(at): a new strand at pedigree `at`, opening a fresh profiled
///     subcomputation whose burden starts at `burden_seed`;
///   - end(): close the running strand and return its subcomputation totals;
///   - join(at, prefix, a, b): the strand past a join at pedigree `at`,
///     combining prefix + (a ∥ b) by the rule in obs/profiler.hpp.
/// `profiling` is the caller's one read of obs::profiler_enabled(); off, the
/// profile half is never touched and end() returns zeros.
struct StrandState {
  PedigreeState ped;
  obs::ProfileState profile{};

  void begin(PedigreeState at, bool profiling,
             std::uint64_t burden_seed = 0) noexcept {
    ped = at;
    if (profiling) {
      profile = {};
      profile.burden = burden_seed;
      obs::strand_begin(profile);
    }
  }

  obs::Totals end(bool profiling) noexcept {
    if (!profiling) return {};
    obs::strand_end(profile);
    return profile;
  }

  void join(PedigreeState at, bool profiling, const obs::Totals& prefix,
            const obs::Totals& a, const obs::Totals& b) noexcept {
    ped = at;
    if (profiling) {
      profile.work = prefix.work + a.work + b.work;
      profile.span = prefix.span + std::max(a.span, b.span);
      profile.burden = prefix.burden + std::max(a.burden, b.burden);
      obs::strand_begin(profile);
    }
  }
};

/// The calling thread's strand record. Valid on any thread: workers are
/// re-seated at strand boundaries, and a scheduler-less thread (serial
/// elision) just advances its own thread-local copy through the identical
/// transitions.
///
/// Deliberately OUT OF LINE (pedigree.cpp, noinline): fibers migrate
/// between OS threads at joins, and an inlined accessor lets the compiler
/// CSE the thread-local's materialized address across the migration point —
/// the resumed strand would then write the OLD thread's record (its pedigree,
/// and its profile time). The opaque call forces a fresh %fs-relative address
/// computation on the thread that is actually running the strand. The
/// returned reference stays valid only until the next potential migration
/// (any fork2join / scheduler call): re-fetch after those, never cache across
/// them.
StrandState& current_strand() noexcept;

/// Number of ranks in the pedigree (prefix length + the leaf). Linear walk;
/// meant for tests and diagnostics, not hot paths.
inline unsigned pedigree_depth() noexcept {
  unsigned depth = 1;
  for (const PedigreeNode* n = current_strand().ped.parent; n != nullptr;
       n = n->parent) {
    ++depth;
  }
  return depth;
}

/// Scoped reset to the root pedigree, restoring the caller's state on exit.
/// Serial reference computations wrap themselves in one of these so their
/// draws replay the root-rooted pedigrees a scheduler run produces.
class PedigreeScope {
 public:
  PedigreeScope() noexcept : saved_(current_strand().ped) {
    current_strand().ped = {};
  }
  ~PedigreeScope() { current_strand().ped = saved_; }

  PedigreeScope(const PedigreeScope&) = delete;
  PedigreeScope& operator=(const PedigreeScope&) = delete;

 private:
  PedigreeState saved_;
};

}  // namespace cilkm::rt
