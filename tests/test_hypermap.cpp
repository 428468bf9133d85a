// Hypermap (Cilk Plus baseline) unit tests: open-addressing behaviour,
// growth, deletion with probe-chain repair, iteration, move semantics.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "hypermap/hypermap.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace {

using cilkm::hypermap::HyperMap;

int key_storage[4096];
const void* key(int i) { return &key_storage[i]; }

TEST(HyperMap, StartsEmptyWithNoTable) {
  HyperMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), 0u);  // empty maps cost nothing (thief startup)
  EXPECT_EQ(map.lookup(key(0)), nullptr);
}

TEST(HyperMap, InsertLookup) {
  HyperMap map;
  int view = 42;
  map.insert(key(1), &view, nullptr);
  auto* entry = map.lookup(key(1));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->view, &view);
  EXPECT_EQ(map.lookup(key(2)), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(HyperMap, GrowthPreservesAllEntries) {
  HyperMap map;
  std::vector<int> views(1000);
  for (int i = 0; i < 1000; ++i) map.insert(key(i), &views[i], nullptr);
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_GE(map.capacity(), 1024u);
  for (int i = 0; i < 1000; ++i) {
    auto* entry = map.lookup(key(i));
    ASSERT_NE(entry, nullptr) << i;
    EXPECT_EQ(entry->view, &views[i]);
  }
}

TEST(HyperMap, EraseRepairsProbeChains) {
  HyperMap map;
  std::vector<int> views(300);
  for (int i = 0; i < 300; ++i) map.insert(key(i), &views[i], nullptr);
  // Erase every third key, then every remaining key must still be found.
  for (int i = 0; i < 300; i += 3) map.erase(key(i));
  EXPECT_EQ(map.size(), 200u);
  for (int i = 0; i < 300; ++i) {
    auto* entry = map.lookup(key(i));
    if (i % 3 == 0) {
      EXPECT_EQ(entry, nullptr) << i;
    } else {
      ASSERT_NE(entry, nullptr) << i;
      EXPECT_EQ(entry->view, &views[i]);
    }
  }
}

TEST(HyperMap, EraseAbsentKeyIsNoop) {
  HyperMap map;
  int v = 0;
  map.insert(key(1), &v, nullptr);
  map.erase(key(2));
  EXPECT_EQ(map.size(), 1u);
}

TEST(HyperMap, ForEachVisitsEveryEntryOnce) {
  HyperMap map;
  std::vector<int> views(64);
  for (int i = 0; i < 64; ++i) map.insert(key(i), &views[i], nullptr);
  std::set<const void*> seen;
  map.for_each([&](cilkm::hypermap::Entry& e) {
    EXPECT_TRUE(seen.insert(e.key).second);
  });
  EXPECT_EQ(seen.size(), 64u);
}

TEST(HyperMap, MoveTransfersOwnership) {
  // View transferal in the hypermap scheme is a pointer switch.
  HyperMap a;
  int v = 7;
  a.insert(key(5), &v, nullptr);
  HyperMap b = std::move(a);
  EXPECT_TRUE(a.empty());
  ASSERT_NE(b.lookup(key(5)), nullptr);
  HyperMap c;
  c = std::move(b);
  ASSERT_NE(c.lookup(key(5)), nullptr);
  EXPECT_TRUE(b.empty());
}

TEST(HyperMap, SwapExchangesContents) {
  HyperMap a, b;
  int va = 1, vb = 2;
  a.insert(key(1), &va, nullptr);
  b.insert(key(2), &vb, nullptr);
  b.insert(key(3), &vb, nullptr);
  a.swap(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(a.lookup(key(2)), nullptr);
  EXPECT_NE(b.lookup(key(1)), nullptr);
}

TEST(HyperMap, ClearRemovesEverythingKeepsCapacity) {
  HyperMap map;
  int v = 0;
  for (int i = 0; i < 50; ++i) map.insert(key(i), &v, nullptr);
  const std::size_t cap = map.capacity();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.lookup(key(10)), nullptr);
}

TEST(HyperMapDeathTest, DuplicateInsertIsRejectedInAllBuildModes) {
  // A duplicate insert used to be caught only by a debug-only DCHECK inside
  // the probe loop; in release builds it silently corrupted size_ and
  // leaked the old view. The precondition is now enforced unconditionally.
  HyperMap map;
  int v1 = 1, v2 = 2;
  map.insert(key(1), &v1, nullptr);
  EXPECT_DEATH(map.insert(key(1), &v2, nullptr),
               "duplicate hypermap insertion");
}

TEST(HyperMap, EraseRepairsWrappedProbeChain) {
  // Build a probe chain that wraps around the end of the table: pick keys
  // whose home slot is the LAST slot of the initial capacity-16 table, so
  // the second and third collide past the wrap point, then erase the head
  // of the chain. Backward-shift deletion must move the wrapped entries
  // back across the boundary or they become unreachable.
  HyperMap map;
  const std::size_t cap = HyperMap::kInitialCapacity;
  std::vector<const void*> tail_home_keys;
  for (int i = 0; i < 4096 && tail_home_keys.size() < 3; ++i) {
    if ((HyperMap::hash(key(i)) & (cap - 1)) == cap - 1) {
      tail_home_keys.push_back(key(i));
    }
  }
  ASSERT_EQ(tail_home_keys.size(), 3u) << "need 3 keys homing to slot 15";

  int v = 0;
  for (const void* k : tail_home_keys) map.insert(k, &v, nullptr);
  ASSERT_EQ(map.capacity(), cap);  // no growth: the chain really wraps

  map.erase(tail_home_keys[0]);  // head of the chain, at the home slot
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.lookup(tail_home_keys[0]), nullptr);
  // The wrapped entries must have shifted back and still be reachable.
  EXPECT_NE(map.lookup(tail_home_keys[1]), nullptr);
  EXPECT_NE(map.lookup(tail_home_keys[2]), nullptr);

  // Erase from the middle of the (now shorter) wrapped chain too.
  map.erase(tail_home_keys[1]);
  EXPECT_EQ(map.lookup(tail_home_keys[1]), nullptr);
  EXPECT_NE(map.lookup(tail_home_keys[2]), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(HyperMap, RandomizedOpsMirrorUnorderedMap) {
  // Seeded fuzz (CILKM_TEST_SEED overridable): a random insert / erase /
  // lookup stream must track std::unordered_map exactly, across growth and
  // backward-shift deletions.
  SCOPED_TRACE(cilkm::test::seed_trace());
  cilkm::Xoshiro256 rng(cilkm::test::derived_seed(0x9a5));
  HyperMap map;
  std::unordered_map<const void*, void*> mirror;
  int views[4096];
  for (int step = 0; step < 20000; ++step) {
    const int i = static_cast<int>(rng.below(4096));
    switch (rng.below(3)) {
      case 0: {  // insert if absent
        if (mirror.find(key(i)) == mirror.end()) {
          map.insert(key(i), &views[i], nullptr);
          mirror.emplace(key(i), &views[i]);
        }
        break;
      }
      case 1: {  // erase
        map.erase(key(i));
        mirror.erase(key(i));
        break;
      }
      default: {  // lookup
        auto* entry = map.lookup(key(i));
        const auto it = mirror.find(key(i));
        if (it == mirror.end()) {
          ASSERT_EQ(entry, nullptr) << "step " << step << " key " << i;
        } else {
          ASSERT_NE(entry, nullptr) << "step " << step << " key " << i;
          ASSERT_EQ(entry->view, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(map.size(), mirror.size()) << "step " << step;
  }
  // Full sweep at the end: every surviving key, and only those, present.
  for (int i = 0; i < 4096; ++i) {
    const bool expect_present = mirror.find(key(i)) != mirror.end();
    EXPECT_EQ(map.lookup(key(i)) != nullptr, expect_present) << i;
  }
}

TEST(HyperMap, AdversarialCollidingKeysStillWork) {
  // Keys 4096 bytes apart often share low bits; make sure probing resolves.
  HyperMap map;
  std::vector<std::unique_ptr<int[]>> blocks;
  std::vector<const void*> keys;
  for (int i = 0; i < 200; ++i) {
    blocks.push_back(std::make_unique<int[]>(1024));
    keys.push_back(blocks.back().get());
  }
  int v = 0;
  for (const void* k : keys) map.insert(k, &v, nullptr);
  for (const void* k : keys) EXPECT_NE(map.lookup(k), nullptr);
}

}  // namespace
