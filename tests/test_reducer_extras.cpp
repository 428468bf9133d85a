// Tests for the extended reducer library (min_index/max_index, list
// prepend, holder, ostream reducer) and the SpawnGroup API.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "reducers/extras.hpp"
#include "runtime/api.hpp"

namespace {

using cilkm::parallel_for;

template <typename Policy>
struct ExtrasMechanism : ::testing::Test {};
using Policies = ::testing::Types<cilkm::mm_policy, cilkm::hypermap_policy>;
TYPED_TEST_SUITE(ExtrasMechanism, Policies);

std::uint64_t keyed(std::int64_t i) {
  std::uint64_t x = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
  x ^= x >> 31;
  return x % 100000;
}

TYPED_TEST(ExtrasMechanism, MinIndexFindsArgmin) {
  cilkm::min_index_reducer<std::int64_t, std::uint64_t, TypeParam> best;
  cilkm::run(4, [&] {
    parallel_for(0, 50000, 128, [&](std::int64_t i) {
      decltype(best)::monoid_type::update(best.view(), i, keyed(i));
    });
  });
  // Serial oracle with first-occurrence tie-break.
  std::int64_t expect_idx = -1;
  std::uint64_t expect_val = ~0ull;
  for (std::int64_t i = 0; i < 50000; ++i) {
    if (keyed(i) < expect_val) {
      expect_val = keyed(i);
      expect_idx = i;
    }
  }
  ASSERT_TRUE(best.get_value().valid);
  EXPECT_EQ(best.get_value().value, expect_val);
  EXPECT_EQ(best.get_value().index, expect_idx);
}

TYPED_TEST(ExtrasMechanism, MaxIndexTieBreaksToEarliestIndex) {
  // Many duplicates of the maximum: the reported index must be the serially
  // first one regardless of scheduling, for every worker count.
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    cilkm::max_index_reducer<std::int64_t, int, TypeParam> best;
    cilkm::run(workers, [&] {
      parallel_for(0, 10000, 16, [&](std::int64_t i) {
        const int v = (i % 100 == 37) ? 999 : static_cast<int>(i % 100);
        decltype(best)::monoid_type::update(best.view(), i, v);
      });
    });
    ASSERT_TRUE(best.get_value().valid);
    EXPECT_EQ(best.get_value().value, 999);
    EXPECT_EQ(best.get_value().index, 37) << "workers=" << workers;
  }
}

TYPED_TEST(ExtrasMechanism, ListPrependReversesSerialOrder) {
  cilkm::list_prepend_reducer<int, TypeParam> list;
  cilkm::run(4, [&] {
    parallel_for(0, 2000, 8, [&](std::int64_t i) {
      list->push_front(static_cast<int>(i));
    });
  });
  ASSERT_EQ(list.get_value().size(), 2000u);
  int expect = 1999;
  for (const int v : list.get_value()) EXPECT_EQ(v, expect--);
}

TYPED_TEST(ExtrasMechanism, HolderProvidesScratchSpace) {
  // Use a holder as per-strand scratch: correctness = no interference
  // between parallel strands (each sees a private buffer).
  cilkm::holder<std::vector<int>, TypeParam> scratch;
  std::atomic<int> violations{0};
  cilkm::run(4, [&] {
    parallel_for(0, 2000, 4, [&](std::int64_t i) {
      auto& buf = scratch.view();
      buf.clear();
      for (int k = 0; k < 8; ++k) buf.push_back(static_cast<int>(i));
      for (const int v : buf) {
        if (v != i) violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(violations.load(), 0);
}

TYPED_TEST(ExtrasMechanism, OstreamReducerProducesSerialTranscript) {
  std::ostringstream sink;
  cilkm::ostream_reducer<TypeParam> out(sink);
  cilkm::run(4, [&] {
    parallel_for(0, 500, 2, [&](std::int64_t i) {
      out << "line " << i << "\n";
    });
  });
  out.flush();
  std::string expect;
  for (int i = 0; i < 500; ++i) {
    expect += "line " + std::to_string(i) + "\n";
  }
  EXPECT_EQ(sink.str(), expect);
}

TEST(OstreamReducer, FlushClearsPending) {
  std::ostringstream sink;
  cilkm::ostream_reducer<> out(sink);
  out << "abc" << 42;
  EXPECT_EQ(out.pending(), "abc42");
  out.flush();
  EXPECT_EQ(sink.str(), "abc42");
  EXPECT_TRUE(out.pending().empty());
}

TEST(SpawnGroup, RunsAllTasksInSerialOrder) {
  cilkm::reducer<cilkm::string_concat> cat;
  cilkm::run(4, [&] {
    cilkm::SpawnGroup group;
    for (int i = 0; i < 26; ++i) {
      group.spawn([&cat, i] { *cat += static_cast<char>('a' + i); });
    }
    group.sync();
  });
  EXPECT_EQ(cat.get_value(), "abcdefghijklmnopqrstuvwxyz");
}

TEST(SpawnGroup, SyncOnEmptyGroupIsNoop) {
  cilkm::run(2, [] {
    cilkm::SpawnGroup group;
    group.sync();
    EXPECT_TRUE(group.empty());
  });
}

TEST(SpawnGroup, DestructorSyncsPendingTasks) {
  std::atomic<int> ran{0};
  cilkm::run(2, [&] {
    {
      cilkm::SpawnGroup group;
      for (int i = 0; i < 10; ++i) group.spawn([&] { ran.fetch_add(1); });
      // no explicit sync
    }
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST(SpawnGroup, ReusableAfterSync) {
  std::atomic<int> ran{0};
  cilkm::run(2, [&] {
    cilkm::SpawnGroup group;
    group.spawn([&] { ran.fetch_add(1); });
    group.sync();
    group.spawn([&] { ran.fetch_add(10); });
    group.spawn([&] { ran.fetch_add(10); });
    group.sync();
  });
  EXPECT_EQ(ran.load(), 21);
}

TEST(ParallelForAutoGrain, CoversRange) {
  std::atomic<long> sum{0};
  cilkm::run(4, [&] {
    cilkm::parallel_for(0, 100000, [&](std::int64_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(sum.load(), 99999L * 100000 / 2);
}

}  // namespace
