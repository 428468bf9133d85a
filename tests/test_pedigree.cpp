// Pedigree and DPRNG invariants: a strand's spawn pedigree — and therefore
// every DotMix draw — is a pure function of its serial position, identical
// across worker counts, forced-steal stress, and repeated runs of one seed.
// These are the guarantees the scenario fuzzer and the DPRNG-using
// workloads replay failures by.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/pedigree.hpp"
#include "runtime/scheduler.hpp"
#include "test_support.hpp"
#include "util/dprng.hpp"

namespace {

using cilkm::Dprng;
using cilkm::fork2join;
using cilkm::parallel_for;
using cilkm::rt::current_strand;
using cilkm::rt::PedigreeScope;
using cilkm::rt::Scheduler;

// ---------------------------------------------------------------------------
// Harnesses. Every shape uses FIXED grains / fanouts so the spawn tree — and
// with it each leaf's pedigree — is independent of the worker count.
// ---------------------------------------------------------------------------

/// Flat loop: each index draws twice (value and a rank-advancing extra) into
/// index-addressed slots, so logs are comparable across any schedule.
/// `jitter` inserts yield points to provoke steals on oversubscribed pools.
std::vector<std::uint64_t> loop_draws(std::uint64_t seed, std::int64_t n,
                                      bool jitter) {
  Dprng rng(seed);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(2 * n));
  parallel_for(0, n, 8, [&](std::int64_t i) {
    out[static_cast<std::size_t>(2 * i)] = rng.next();
    out[static_cast<std::size_t>(2 * i + 1)] = rng.next();
    if (jitter && i % 7 == 0) std::this_thread::yield();
  });
  return out;
}

/// Irregular tree whose SHAPE is itself chosen by DPRNG draws — the
/// strongest self-test: if any draw diverged under some schedule, the tree
/// (and the leaf log) would diverge with it. Leaves append to
/// index-unordered storage via per-leaf slots keyed by a path id.
void draw_tree(Dprng& rng, unsigned depth, std::uint64_t path,
               std::vector<std::pair<std::uint64_t, std::uint64_t>>* log,
               bool jitter) {
  const std::uint64_t r = rng.next();
  if (depth == 0 || r % 3 == 0) {
    const std::uint64_t tail = rng.next();
    // Pre-sized log indexed by path: no synchronization, order-free.
    (*log)[static_cast<std::size_t>(path)] = {r, tail};
    if (jitter) std::this_thread::yield();
    return;
  }
  fork2join([&] { draw_tree(rng, depth - 1, 2 * path + 1, log, jitter); },
            [&] { draw_tree(rng, depth - 1, 2 * path + 2, log, jitter); });
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> tree_draws(
    std::uint64_t seed, unsigned depth, bool jitter) {
  Dprng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log(
      std::size_t{1} << (depth + 1), {0, 0});
  draw_tree(rng, depth, 0, &log, jitter);
  return log;
}

/// The serial elision of a harness: same calls, no scheduler, pedigree
/// reset to the root exactly as a run()'s root launch does.
template <typename F>
auto serial_elision(F&& body) {
  PedigreeScope scope;
  return body();
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

TEST(Pedigree, SerialElisionMatchesP1AndPN) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const std::uint64_t seed = cilkm::test::derived_seed(10);
  struct Input {
    unsigned workers;
    std::int64_t n;
    bool jitter;  // yield points provoke steals
  };
  for (const Input in : {Input{1, 512, false}, Input{2, 512, false},
                         Input{4, 512, false}, Input{8, 512, false},
                         Input{4, 1024, true}}) {
    const auto expect =
        serial_elision([&] { return loop_draws(seed, in.n, in.jitter); });
    Scheduler pool(in.workers);
    std::vector<std::uint64_t> got;
    pool.run([&] { got = loop_draws(seed, in.n, in.jitter); });
    EXPECT_EQ(got, expect) << "P=" << in.workers << " jitter=" << in.jitter;
  }
}

// Forced-steal stress (the PR 5 discipline): oversubscribed pool, yield
// jitter at every leaf so preemption scrambles the schedule each round —
// repeated runs of one seed on one persistent pool must stay bit-identical.
TEST(PedigreeStress, RepeatedRunsUnderForcedStealsAreIdentical) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const std::uint64_t seed = cilkm::test::derived_seed(12);
  const auto expect = serial_elision([&] { return tree_draws(seed, 10, true); });
  Scheduler pool(8);
  for (int round = 0; round < 6; ++round) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    pool.run([&] { got = tree_draws(seed, 10, true); });
    ASSERT_EQ(got, expect) << "round " << round;
  }
}

TEST(Pedigree, DrawsWithinAndAcrossStrandsAreDistinct) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  auto draws = serial_elision(
      [&] { return loop_draws(cilkm::test::derived_seed(14), 2048, false); });
  std::sort(draws.begin(), draws.end());
  EXPECT_EQ(std::adjacent_find(draws.begin(), draws.end()), draws.end())
      << "DotMix produced a colliding draw in a 4096-draw stream";
}

TEST(Pedigree, SeedsProduceDecorrelatedStreams) {
  const auto a = serial_elision([&] { return loop_draws(1, 64, false); });
  const auto b = serial_elision([&] { return loop_draws(2, 64, false); });
  EXPECT_NE(a, b);
}

// The rank discipline itself: child prefix+[r] / continuation r+1 / join
// r+2, in the serial elision (the scheduler paths are covered by the
// equality tests above — they'd diverge if any resume point mis-seated it).
TEST(Pedigree, RankDisciplineFollowsSpawnSyncTransitions) {
  PedigreeScope scope;
  EXPECT_EQ(current_strand().ped.rank, 0u);
  EXPECT_EQ(cilkm::rt::pedigree_depth(), 1u);
  std::uint64_t child_rank = ~0ull, child_depth = 0;
  std::uint64_t cont_rank = ~0ull;
  fork2join(
      [&] {
        child_rank = current_strand().ped.rank;
        child_depth = cilkm::rt::pedigree_depth();
        ASSERT_NE(current_strand().ped.parent, nullptr);
        EXPECT_EQ(current_strand().ped.parent->rank, 0u);
      },
      [&] { cont_rank = current_strand().ped.rank; });
  EXPECT_EQ(child_rank, 0u);
  EXPECT_EQ(child_depth, 2u);
  EXPECT_EQ(cont_rank, 1u);
  EXPECT_EQ(current_strand().ped.rank, 2u);
  EXPECT_EQ(cilkm::rt::pedigree_depth(), 1u);

  // A draw consumes one rank, interleaving with spawn ranks.
  Dprng rng(7);
  rng.next();
  EXPECT_EQ(current_strand().ped.rank, 3u);
  fork2join([] {}, [] {});
  EXPECT_EQ(current_strand().ped.rank, 5u);
}

TEST(Pedigree, HashIsAPureFunctionOfSeedAndPedigree) {
  PedigreeScope scope;
  Dprng a(42), b(42), c(43);
  const auto& ped = current_strand().ped;
  EXPECT_EQ(a.hash(ped), b.hash(ped));
  EXPECT_NE(a.hash(ped), c.hash(ped));
  // hash() does not bump; next() returns the same value then bumps.
  const std::uint64_t h = a.hash(ped);
  EXPECT_EQ(a.hash(ped), h);
  EXPECT_EQ(a.next(), h);
  EXPECT_NE(a.hash(ped), h);  // rank advanced
}

// The accessor every fork2join calls starts a cache line, so code placement
// elsewhere cannot make it straddle two (pedigree.cpp).
TEST(Pedigree, StrandAccessorStartsACacheLine) {
  const auto address = reinterpret_cast<std::uintptr_t>(&current_strand);
  EXPECT_EQ(address % 64, 0u) << std::hex << address;
}

// parallel_invoke and SpawnGroup desugar into fork2join, so their draw
// streams inherit the same schedule independence.
TEST(Pedigree, ParallelInvokeAndSpawnGroupAreDeterministic) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const std::uint64_t seed = cilkm::test::derived_seed(15);
  auto shape = [&] {
    Dprng rng(seed);
    std::vector<std::uint64_t> out(6, 0);
    cilkm::parallel_invoke([&] { out[0] = rng.next(); },
                           [&] { out[1] = rng.next(); },
                           [&] { out[2] = rng.next(); });
    cilkm::SpawnGroup group;
    for (int i = 3; i < 6; ++i) {
      group.spawn([&, i] { out[static_cast<std::size_t>(i)] = rng.next(); });
    }
    group.sync();
    return out;
  };
  const auto expect = serial_elision(shape);
  for (const unsigned workers : {1u, 4u}) {
    Scheduler pool(workers);
    std::vector<std::uint64_t> got;
    pool.run([&] { got = shape(); });
    EXPECT_EQ(got, expect) << "P=" << workers;
  }
}

}  // namespace
