// Property-based tests: random fork-join DAGs performing random updates on
// a set of reducers must produce bit-identical results to a serial replay of
// the same update sequence — for associative, non-commutative monoids, under
// every worker count. This is the strongest end-to-end statement of the
// paper's reducer semantics.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {

using cilkm::fork2join;

// A reproducible random computation tree. Leaves perform updates; interior
// nodes fork. Every node derives its own RNG from (seed, path), so the tree
// shape and the updates are identical regardless of scheduling.
struct TreeShape {
  std::uint64_t seed;
  unsigned max_depth;
  unsigned updates_per_leaf;
};

template <typename Policy>
struct Harness {
  cilkm::reducer<cilkm::string_concat, Policy>* cat;
  std::vector<cilkm::reducer_opadd<long, Policy>*> sums;
  TreeShape shape;
  bool jitter;

  void leaf(std::uint64_t state) const {
    for (unsigned i = 0; i < shape.updates_per_leaf; ++i) {
      const std::uint64_t r = cilkm::splitmix64(state);
      cat->view() += static_cast<char>('a' + r % 26);
      *(*sums[r % sums.size()]) += static_cast<long>(r % 1000);
      if (jitter && r % 13 == 0) std::this_thread::yield();
    }
  }

  void node(std::uint64_t path, unsigned depth) const {
    std::uint64_t state = shape.seed ^ (path * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t r = cilkm::splitmix64(state);
    if (depth >= shape.max_depth || r % 4 == 0) {
      leaf(state);
      return;
    }
    fork2join([&] { node(path * 2 + 1, depth + 1); },
              [&] { node(path * 2 + 2, depth + 1); });
  }
};

// Serial oracle: same traversal, no scheduler.
struct Oracle {
  std::string cat;
  std::vector<long> sums;
  TreeShape shape;

  void leaf(std::uint64_t state) {
    for (unsigned i = 0; i < shape.updates_per_leaf; ++i) {
      const std::uint64_t r = cilkm::splitmix64(state);
      cat += static_cast<char>('a' + r % 26);
      sums[r % sums.size()] += static_cast<long>(r % 1000);
    }
  }

  void node(std::uint64_t path, unsigned depth) {
    std::uint64_t state = shape.seed ^ (path * 0x9e3779b97f4a7c15ULL);
    const std::uint64_t r = cilkm::splitmix64(state);
    if (depth >= shape.max_depth || r % 4 == 0) {
      leaf(state);
      return;
    }
    node(path * 2 + 1, depth + 1);
    node(path * 2 + 2, depth + 1);
  }
};

// gtest names each case by printing its Params byte by byte, so Params has
// no padding: an indeterminate byte in that printout would give the case a
// new CTest name in every gtest_discover_tests listing.
struct Params {
  std::uint64_t seed;
  unsigned workers;
  unsigned depth;
  bool jitter;
  char zero_tail[7] = {};  // fills what would be tail padding
};
static_assert(std::has_unique_object_representations_v<Params>);

class RandomDagProperty : public ::testing::TestWithParam<Params> {};

template <typename Policy>
void run_property(const Params& p) {
  constexpr unsigned kNumSums = 7;
  const TreeShape shape{p.seed, p.depth, 4};

  Oracle oracle{{}, std::vector<long>(kNumSums, 0), shape};
  oracle.node(0, 0);

  cilkm::reducer<cilkm::string_concat, Policy> cat;
  std::vector<std::unique_ptr<cilkm::reducer_opadd<long, Policy>>> sums;
  std::vector<cilkm::reducer_opadd<long, Policy>*> sum_ptrs;
  for (unsigned i = 0; i < kNumSums; ++i) {
    sums.push_back(std::make_unique<cilkm::reducer_opadd<long, Policy>>());
    sum_ptrs.push_back(sums.back().get());
  }
  Harness<Policy> harness{&cat, sum_ptrs, shape, p.jitter};
  cilkm::run(p.workers, [&] { harness.node(0, 0); });

  EXPECT_EQ(cat.get_value(), oracle.cat);
  for (unsigned i = 0; i < kNumSums; ++i) {
    EXPECT_EQ(sums[i]->get_value(), oracle.sums[i]) << "sum " << i;
  }
}

TEST_P(RandomDagProperty, MemoryMappedMatchesSerialOracle) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  run_property<cilkm::mm_policy>(GetParam());
}

TEST_P(RandomDagProperty, HypermapMatchesSerialOracle) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  run_property<cilkm::hypermap_policy>(GetParam());
}

// Tree seeds are drawn from the CILKM_TEST_SEED stream (fixed default, env
// overridable), so a failure is replayable from the printed base seed.
std::vector<Params> make_params() {
  std::vector<Params> out;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    for (const std::uint64_t i : {0ull, 1ull, 2ull}) {
      out.push_back({cilkm::test::derived_seed(i), workers, 9, false});
    }
    // Deeper tree with jitter.
    out.push_back({cilkm::test::derived_seed(3), workers, 11, true});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomDagProperty,
                         ::testing::ValuesIn(make_params()));

// Repeat one contended configuration many times: scheduling differs every
// round, output must not.
TEST(RandomDagStress, RepeatedRunsAreIdentical) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const Params p{cilkm::test::derived_seed(4), 4, 10, true};
  for (int round = 0; round < 10; ++round) {
    run_property<cilkm::mm_policy>(p);
  }
}

}  // namespace
