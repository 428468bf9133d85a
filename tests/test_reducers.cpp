// Reducer semantics tests, run against BOTH view-store policies
// (memory-mapped, hypermap) via typed tests: serial equivalence,
// identity/merge behaviour, non-commutative determinism, lifetime, and
// multi-reducer interactions. This is the shared policy-parameterised suite
// every ViewStore implementation must pass.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"

namespace {

using cilkm::fork2join;
using cilkm::parallel_for;

template <typename Policy>
struct ReducerMechanism : ::testing::Test {
  using policy = Policy;
};
using Policies = ::testing::Types<cilkm::mm_policy, cilkm::hypermap_policy>;
TYPED_TEST_SUITE(ReducerMechanism, Policies);

TYPED_TEST(ReducerMechanism, SumOutsideSchedulerIsSerial) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  for (int i = 0; i < 100; ++i) *sum += i;
  EXPECT_EQ(sum.get_value(), 99L * 100 / 2);
}

TYPED_TEST(ReducerMechanism, SumSingleWorker) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  cilkm::run(1, [&] {
    parallel_for(0, 1000, 16, [&](std::int64_t i) { *sum += i; });
  });
  EXPECT_EQ(sum.get_value(), 999L * 1000 / 2);
}

TYPED_TEST(ReducerMechanism, SumManyWorkersWithContention) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  cilkm::run(8, [&] {
    parallel_for(0, 100000, 8, [&](std::int64_t i) { *sum += i; });
  });
  EXPECT_EQ(sum.get_value(), 99999L * 100000 / 2);
}

TYPED_TEST(ReducerMechanism, InitialValueIsPreserved) {
  cilkm::reducer_opadd<long, TypeParam> sum(cilkm::op_add<long>{}, 1000);
  cilkm::run(4, [&] {
    parallel_for(0, 100, 4, [&](std::int64_t) { *sum += 1; });
  });
  EXPECT_EQ(sum.get_value(), 1100);
}

TYPED_TEST(ReducerMechanism, MinMaxReducers) {
  cilkm::reducer_min<int, TypeParam> lo;
  cilkm::reducer_max<int, TypeParam> hi;
  cilkm::run(4, [&] {
    parallel_for(0, 10000, 32, [&](std::int64_t i) {
      const int v = static_cast<int>((i * 2654435761u) % 100000);
      if (v < *lo) *lo = v;
      if (v > *hi) *hi = v;
    });
  });
  int expect_lo = std::numeric_limits<int>::max();
  int expect_hi = std::numeric_limits<int>::lowest();
  for (int i = 0; i < 10000; ++i) {
    const int v = static_cast<int>((static_cast<std::int64_t>(i) * 2654435761u) % 100000);
    expect_lo = std::min(expect_lo, v);
    expect_hi = std::max(expect_hi, v);
  }
  EXPECT_EQ(lo.get_value(), expect_lo);
  EXPECT_EQ(hi.get_value(), expect_hi);
}

TYPED_TEST(ReducerMechanism, BitwiseReducers) {
  cilkm::reducer_opor<std::uint64_t, TypeParam> all_bits;
  cilkm::reducer_opxor<std::uint64_t, TypeParam> parity;
  cilkm::run(4, [&] {
    parallel_for(0, 64, 1, [&](std::int64_t i) {
      *all_bits |= (1ull << i);
      *parity ^= (1ull << i);
    });
  });
  EXPECT_EQ(all_bits.get_value(), ~0ull);
  EXPECT_EQ(parity.get_value(), ~0ull);
}

// The key property the paper's reducers guarantee: for an associative but
// NON-commutative monoid, the parallel result is identical to the serial
// one. String concatenation over an index range makes any ordering bug
// visible.
TYPED_TEST(ReducerMechanism, NonCommutativeDeterminism) {
  std::string expected;
  for (int i = 0; i < 2000; ++i) expected += std::to_string(i) + ",";

  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    cilkm::string_reducer<TypeParam> cat;
    cilkm::run(workers, [&] {
      parallel_for(0, 2000, 8, [&](std::int64_t i) {
        *cat += std::to_string(i) + ",";
      });
    });
    EXPECT_EQ(cat.get_value(), expected) << "workers=" << workers;
  }
}

TYPED_TEST(ReducerMechanism, NonCommutativeDeterminismUnderForcedSteals) {
  // Jittered work makes steal points vary run to run; the output must not.
  std::string expected;
  for (int i = 0; i < 256; ++i) expected += static_cast<char>('a' + i % 26);

  for (int round = 0; round < 5; ++round) {
    cilkm::string_reducer<TypeParam> cat;
    cilkm::run(4, [&] {
      parallel_for(0, 256, 1, [&](std::int64_t i) {
        if ((i * 7 + round) % 11 == 0) std::this_thread::yield();
        *cat += static_cast<char>('a' + i % 26);
      });
    });
    EXPECT_EQ(cat.get_value(), expected) << "round " << round;
  }
}

TYPED_TEST(ReducerMechanism, ListAppendMatchesSerial) {
  // The paper's Figure 2 use case.
  cilkm::list_append_reducer<int, TypeParam> list;
  cilkm::run(4, [&] {
    parallel_for(0, 5000, 16, [&](std::int64_t i) {
      list->push_back(static_cast<int>(i));
    });
  });
  const auto& result = list.get_value();
  ASSERT_EQ(result.size(), 5000u);
  int expect = 0;
  for (const int v : result) EXPECT_EQ(v, expect++);
}

TYPED_TEST(ReducerMechanism, VectorConcatMatchesSerial) {
  cilkm::vector_reducer<int, TypeParam> vec;
  cilkm::run(8, [&] {
    parallel_for(0, 20000, 64, [&](std::int64_t i) {
      vec->push_back(static_cast<int>(i));
    });
  });
  const auto& v = vec.get_value();
  ASSERT_EQ(v.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 19999);
}

TYPED_TEST(ReducerMechanism, ManyReducersSimultaneously) {
  constexpr int kReducers = 300;  // spans multiple SPA pages
  std::vector<std::unique_ptr<cilkm::reducer_opadd<long, TypeParam>>> sums;
  sums.reserve(kReducers);
  for (int r = 0; r < kReducers; ++r) {
    sums.push_back(std::make_unique<cilkm::reducer_opadd<long, TypeParam>>());
  }
  cilkm::run(4, [&] {
    parallel_for(0, 30000, 64, [&](std::int64_t i) {
      *(*sums[static_cast<std::size_t>(i) % kReducers]) += 1;
    });
  });
  long total = 0;
  for (auto& s : sums) total += s->get_value();
  EXPECT_EQ(total, 30000);
}

TYPED_TEST(ReducerMechanism, ReducerCreatedAndDestroyedInsideRun) {
  long outer_total = 0;
  cilkm::run(4, [&] {
    for (int round = 0; round < 10; ++round) {
      cilkm::reducer_opadd<long, TypeParam> sum;
      parallel_for(0, 1000, 8, [&](std::int64_t) { *sum += 1; });
      outer_total += sum.get_value();
    }
  });
  EXPECT_EQ(outer_total, 10000);
}

TYPED_TEST(ReducerMechanism, ReducerReusedAcrossRuns) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  for (int round = 0; round < 3; ++round) {
    cilkm::run(4, [&] {
      parallel_for(0, 1000, 8, [&](std::int64_t) { *sum += 1; });
    });
  }
  EXPECT_EQ(sum.get_value(), 3000);
}

TYPED_TEST(ReducerMechanism, SetAndMoveValue) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  sum.set_value(7);
  cilkm::run(2, [&] {
    parallel_for(0, 10, 1, [&](std::int64_t) { *sum += 1; });
  });
  EXPECT_EQ(sum.move_value(), 17);
}

TYPED_TEST(ReducerMechanism, NestedParallelismSharingOneReducer) {
  cilkm::reducer_opadd<long, TypeParam> sum;
  cilkm::run(4, [&] {
    parallel_for(0, 50, 1, [&](std::int64_t) {
      parallel_for(0, 50, 4, [&](std::int64_t) { *sum += 1; });
    });
  });
  EXPECT_EQ(sum.get_value(), 2500);
}

TYPED_TEST(ReducerMechanism, GetValueMidRunSeesLocalView) {
  // Inside a run get_value() returns the strand's local view, as in Cilk
  // Plus; after the run the folded total is exact.
  cilkm::reducer_opadd<long, TypeParam> sum;
  cilkm::run(2, [&] {
    *sum += 5;
    EXPECT_GE(sum.get_value(), 5);
  });
  EXPECT_EQ(sum.get_value(), 5);
}

// Regression test for a join-protocol race: the thief must deposit its
// views *before* announcing its join arrival, or the victim's "thief
// already done" fast path can merge a half-built deposit (observed as heap
// corruption). Oversubscribed workers + frequent yields recreate the high
// steal rate that exposed it.
TYPED_TEST(ReducerMechanism, HighStealRateJoinDepositRace) {
  for (int round = 0; round < 3; ++round) {
    std::vector<std::unique_ptr<cilkm::reducer_opadd<long, TypeParam>>> sums;
    for (int r = 0; r < 64; ++r) {
      sums.push_back(std::make_unique<cilkm::reducer_opadd<long, TypeParam>>());
    }
    cilkm::run(16, [&] {
      parallel_for(0, 20000, 64, [&](std::int64_t i) {
        *(*sums[static_cast<std::size_t>(i) & 63]) += 1;
        if (i % 256 == 0) std::this_thread::yield();
      });
    });
    long total = 0;
    for (auto& s : sums) total += s->get_value();
    EXPECT_EQ(total, 20000) << "round " << round;
  }
}

// Mixing both mechanisms in one computation must work (the benchmarks rely
// on it).
TEST(MixedMechanisms, AllPoliciesCoexist) {
  cilkm::reducer_opadd<long, cilkm::mm_policy> a;
  cilkm::reducer_opadd<long, cilkm::hypermap_policy> b;
  cilkm::run(4, [&] {
    parallel_for(0, 10000, 16, [&](std::int64_t) {
      *a += 1;
      *b += 2;
    });
  });
  EXPECT_EQ(a.get_value(), 10000);
  EXPECT_EQ(b.get_value(), 20000);
}

TEST(MmReducer, TlmmAddrIsStableAndSlotShaped) {
  cilkm::reducer_opadd<int> r1;
  cilkm::reducer_opadd<int> r2;
  EXPECT_NE(r1.tlmm_addr(), r2.tlmm_addr());
  EXPECT_EQ(r1.tlmm_addr() % 16, 0u);  // 16-byte slots
  EXPECT_EQ(r2.tlmm_addr() % 16, 0u);
}

TEST(MmReducer, SlotIsRecycledAfterDestruction) {
  std::uint64_t addr1;
  {
    cilkm::reducer_opadd<int> r;
    addr1 = r.tlmm_addr();
  }
  cilkm::reducer_opadd<int> r2;
  EXPECT_EQ(r2.tlmm_addr(), addr1);  // LIFO reuse from the global pool
}

}  // namespace
