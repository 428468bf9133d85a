// ViewStore-layer unit tests: the FlatViewStore (dense-id ablation policy),
// the FlatIdAllocator, and the ViewStoreSet engine moving all three stores'
// views through one deposit — the contract every policy implements.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "tlmm/region.hpp"
#include "views/flat_registry.hpp"
#include "views/view_store.hpp"

namespace {

using cilkm::ViewOps;
using cilkm::WorkerStats;
using cilkm::rt::Scheduler;
using cilkm::rt::Worker;
using cilkm::views::FlatIdAllocator;
using cilkm::views::FlatViewStore;
using cilkm::views::ViewSetDeposit;

struct StrView {
  std::string text;
};

struct FakeReducer {
  std::string collapsed;
  ViewOps ops{};

  FakeReducer() {
    ops.create_identity = [](void*) -> void* { return new StrView{}; };
    ops.reduce = [](void*, void* l, void* r) {
      static_cast<StrView*>(l)->text += static_cast<StrView*>(r)->text;
      delete static_cast<StrView*>(r);
    };
    ops.destroy = [](void*, void* v) { delete static_cast<StrView*>(v); };
    ops.collapse = [](void* self, void* v) {
      static_cast<FakeReducer*>(self)->collapsed +=
          static_cast<StrView*>(v)->text;
      delete static_cast<StrView*>(v);
    };
    ops.reducer = this;
  }
};

// ---------------------------------------------------------------------------
// FlatIdAllocator
// ---------------------------------------------------------------------------

TEST(FlatIdAllocator, IdsAreDenseAndRecycledLifo) {
  auto& alloc = FlatIdAllocator::instance();
  const std::size_t live_before = alloc.live();
  const std::uint32_t a = alloc.allocate();
  const std::uint32_t b = alloc.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(alloc.live(), live_before + 2);
  alloc.free(b);
  const std::uint32_t c = alloc.allocate();
  EXPECT_EQ(c, b);  // LIFO reuse keeps the id space dense
  alloc.free(a);
  alloc.free(c);
  EXPECT_EQ(alloc.live(), live_before);
}

// ---------------------------------------------------------------------------
// FlatViewStore in isolation
// ---------------------------------------------------------------------------

class FlatStoreTest : public ::testing::Test {
 protected:
  WorkerStats stats;
  FlatViewStore store{&stats};
};

TEST_F(FlatStoreTest, InstallLookupExtract) {
  FakeReducer r;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.lookup(5), nullptr);

  store.install(5, new StrView{"v"}, &r.ops);
  ASSERT_NE(store.lookup(5), nullptr);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(5))->text, "v");
  EXPECT_FALSE(store.empty());
  EXPECT_GE(store.capacity(), 6u);  // grew to cover the id

  void* out = store.extract(5);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(store.lookup(5), nullptr);
  EXPECT_TRUE(store.empty());
  delete static_cast<StrView*>(out);
}

TEST_F(FlatStoreTest, ExtractAbsentIdIsNull) {
  EXPECT_EQ(store.extract(0), nullptr);
  EXPECT_EQ(store.extract(1u << 20), nullptr);  // beyond capacity
}

TEST_F(FlatStoreTest, DepositMovesViewsAndEmptiesStore) {
  FakeReducer r;
  store.install(0, new StrView{"a"}, &r.ops);
  store.install(7, new StrView{"b"}, &r.ops);

  std::vector<cilkm::views::FlatDepositEntry> dep;
  store.deposit(&dep);
  EXPECT_TRUE(store.empty());
  ASSERT_EQ(dep.size(), 2u);

  store.install_deposit(&dep);
  EXPECT_TRUE(dep.empty());
  EXPECT_EQ(static_cast<StrView*>(store.lookup(0))->text, "a");
  EXPECT_EQ(static_cast<StrView*>(store.lookup(7))->text, "b");
  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "ab");
}

TEST_F(FlatStoreTest, MergePreservesOperandOrderBothDirections) {
  FakeReducer r;
  WorkerStats other_stats;
  FlatViewStore other{&other_stats};

  // Left merge: deposit is serially earlier.
  other.install(3, new StrView{"L"}, &r.ops);
  std::vector<cilkm::views::FlatDepositEntry> dep;
  other.deposit(&dep);
  store.install(3, new StrView{"R"}, &r.ops);
  store.merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(3))->text, "LR");

  // Right merge: ambient is serially earlier.
  other.install(3, new StrView{"!"}, &r.ops);
  other.deposit(&dep);
  store.merge(&dep, /*deposit_is_left=*/false);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(3))->text, "LR!");

  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "LR!");
}

TEST_F(FlatStoreTest, MergeAdoptsViewsAbsentFromAmbient) {
  FakeReducer r;
  WorkerStats other_stats;
  FlatViewStore other{&other_stats};
  other.install(1, new StrView{"x"}, &r.ops);
  other.install(2, new StrView{"y"}, &r.ops);
  std::vector<cilkm::views::FlatDepositEntry> dep;
  other.deposit(&dep);

  store.install(1, new StrView{"q"}, &r.ops);
  store.merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(static_cast<StrView*>(store.lookup(1))->text, "xq");
  EXPECT_EQ(static_cast<StrView*>(store.lookup(2))->text, "y");  // adopted
  store.collapse_into_leftmosts();
  EXPECT_TRUE(store.empty());
}

TEST_F(FlatStoreTest, ReinstallAfterExtractIsCleanDespiteStaleTouchedEntry) {
  // extract() leaves a stale id in the touched log (same convention as the
  // SPA page log); a reinstall plus deposit must not duplicate the view.
  FakeReducer r;
  store.install(4, new StrView{"a"}, &r.ops);
  delete static_cast<StrView*>(store.extract(4));
  store.install(4, new StrView{"b"}, &r.ops);

  std::vector<cilkm::views::FlatDepositEntry> dep;
  store.deposit(&dep);
  ASSERT_EQ(dep.size(), 1u);
  EXPECT_EQ(static_cast<StrView*>(dep[0].slot.view)->text, "b");
  store.install_deposit(&dep);
  store.collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "b");
}

// ---------------------------------------------------------------------------
// ViewStoreSet: one deposit carries all three mechanisms at once
// ---------------------------------------------------------------------------

class ViewStoreSetTest : public ::testing::Test {
 protected:
  ViewStoreSetTest() : sched_(2) {}
  ~ViewStoreSetTest() override { cilkm::tlmm::set_current_region(nullptr); }

  Worker& w(unsigned i) { return sched_.worker(i); }

  Scheduler sched_;
};

TEST_F(ViewStoreSetTest, DepositCarriesAllThreeStores) {
  FakeReducer r_spa, r_hmap, r_flat;
  w(0).views().spa().install(cilkm::spa::slot_offset(0, 11),
                             new StrView{"s"}, &r_spa.ops);
  w(0).views().hypermap().install(&r_hmap, new StrView{"h"}, &r_hmap.ops);
  w(0).views().flat().install(9, new StrView{"f"}, &r_flat.ops);
  EXPECT_FALSE(w(0).views().empty());

  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(w(0).views().empty());
  EXPECT_EQ(dep.spa.size(), 1u);
  EXPECT_EQ(dep.hmap.size(), 1u);
  EXPECT_EQ(dep.flat.size(), 1u);

  w(1).views().install_deposit(&dep);
  EXPECT_TRUE(dep.empty());
  w(1).views().collapse_into_leftmosts();
  EXPECT_EQ(r_spa.collapsed, "s");
  EXPECT_EQ(r_hmap.collapsed, "h");
  EXPECT_EQ(r_flat.collapsed, "f");
}

TEST_F(ViewStoreSetTest, MergeLeftOrdersAllThreeStores) {
  FakeReducer r_spa, r_hmap, r_flat;
  const auto off = cilkm::spa::slot_offset(2, 20);

  w(0).views().spa().install(off, new StrView{"S1"}, &r_spa.ops);
  w(0).views().hypermap().install(&r_hmap, new StrView{"H1"}, &r_hmap.ops);
  w(0).views().flat().install(2, new StrView{"F1"}, &r_flat.ops);
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);

  w(1).views().spa().install(off, new StrView{"S2"}, &r_spa.ops);
  w(1).views().hypermap().install(&r_hmap, new StrView{"H2"}, &r_hmap.ops);
  w(1).views().flat().install(2, new StrView{"F2"}, &r_flat.ops);
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  w(1).views().collapse_into_leftmosts();

  EXPECT_EQ(r_spa.collapsed, "S1S2");
  EXPECT_EQ(r_hmap.collapsed, "H1H2");
  EXPECT_EQ(r_flat.collapsed, "F1F2");
}

}  // namespace
