// Direct unit tests of the view-transferal and hypermerge engine (paper
// Sections 3 and 7) through the ViewStore layer, without any scheduling: a
// fake monoid records every reduce call so operand ORDER — the heart of
// reducer correctness for non-commutative monoids — is asserted exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "tlmm/region.hpp"
#include "views/view_store.hpp"

namespace spa {
inline std::uint64_t offset(std::uint32_t page, std::uint32_t idx) {
  return cilkm::spa::slot_offset(page, idx);
}
}  // namespace spa

namespace {

using cilkm::ViewOps;
using cilkm::rt::Scheduler;
using cilkm::rt::ViewSetDeposit;
using cilkm::rt::Worker;

// A "view" carrying a string; reduce concatenates — order-revealing.
struct StrView {
  std::string text;
};

struct FakeReducer {
  std::string collapsed;  // where collapse() folds into
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

class ViewMergeTest : public ::testing::Test {
 protected:
  // Two workers from a scheduler that never runs: we drive the view engine
  // by hand through each worker's ViewStoreSet.
  ViewMergeTest() : sched_(2) {}

  ~ViewMergeTest() override { cilkm::tlmm::set_current_region(nullptr); }

  Worker& w(unsigned i) { return sched_.worker(i); }

  void install(Worker& worker, FakeReducer& r, std::uint64_t offset,
               const std::string& text) {
    worker.views().spa().install(offset, new StrView{text}, &r.ops);
  }

  std::string spa_text(Worker& worker, std::uint64_t offset) {
    auto* slot = worker.views().spa().slot_at(offset);
    return slot->empty() ? std::string{}
                         : static_cast<StrView*>(slot->view)->text;
  }

  Scheduler sched_;
};

TEST_F(ViewMergeTest, DepositMovesViewsAndZeroesPrivateMap) {
  FakeReducer r;
  install(w(0), r, spa::offset(0, 5), "A");
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(w(0).views().empty());
  ASSERT_EQ(dep.spa.size(), 1u);
  EXPECT_EQ(dep.spa[0].page_index, 0u);
  EXPECT_EQ(dep.spa[0].page->num_valid, 1u);
  // Clean up: install back and collapse.
  w(0).views().install_deposit(&dep);
  w(0).views().collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "A");
}

TEST_F(ViewMergeTest, MergeLeftPutsDepositBeforeAmbient) {
  FakeReducer r;
  const auto off = spa::offset(0, 7);
  // Worker 0 (victim, serially earlier) deposits "L"; worker 1 (thief)
  // holds ambient "R". A left merge must produce "LR".
  install(w(0), r, off, "L");
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);

  install(w(1), r, off, "R");
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(spa_text(w(1), off), "LR");
  w(1).views().collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "LR");
}

TEST_F(ViewMergeTest, MergeRightPutsDepositAfterAmbient) {
  FakeReducer r;
  const auto off = spa::offset(0, 9);
  install(w(1), r, off, "R");
  ViewSetDeposit dep;
  w(1).views().deposit_ambient(&dep);

  install(w(0), r, off, "L");
  w(0).views().merge(&dep, /*deposit_is_left=*/false);
  EXPECT_EQ(spa_text(w(0), off), "LR");
  w(0).views().collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "LR");
}

TEST_F(ViewMergeTest, MergeAdoptsViewsAbsentFromAmbient) {
  FakeReducer r1, r2;
  const auto off1 = spa::offset(0, 1), off2 = spa::offset(0, 2);
  install(w(0), r1, off1, "X");
  install(w(0), r2, off2, "Y");
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);

  // Ambient has a view only for r1.
  install(w(1), r1, off1, "Z");
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(spa_text(w(1), off1), "XZ");
  EXPECT_EQ(spa_text(w(1), off2), "Y");  // adopted untouched
  w(1).views().collapse_into_leftmosts();
}

TEST_F(ViewMergeTest, DoubleDepositInstallThenMergeRight) {
  // The victim-last join case: both sides deposited; the resumer reinstalls
  // the left deposit into its empty ambient, then merges the right one.
  FakeReducer r;
  const auto off = spa::offset(1, 3);  // second SPA page
  install(w(0), r, off, "A");
  ViewSetDeposit left;
  w(0).views().deposit_ambient(&left);

  install(w(0), r, off, "B");
  ViewSetDeposit right;
  w(0).views().deposit_ambient(&right);

  EXPECT_TRUE(w(0).views().empty());
  w(0).views().install_deposit(&left);
  w(0).views().merge(&right, /*deposit_is_left=*/false);
  EXPECT_EQ(spa_text(w(0), off), "AB");
  w(0).views().collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "AB");
}

TEST_F(ViewMergeTest, HypermapDepositIsPointerSwitchAndOrderCorrect) {
  FakeReducer r;
  // Hypermap side of the same protocol.
  w(0).views().hypermap().install(&r, new StrView{"L"}, &r.ops);
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(w(0).views().hypermap().empty());
  EXPECT_EQ(dep.hmap.size(), 1u);

  w(1).views().hypermap().install(&r, new StrView{"R"}, &r.ops);
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  auto* entry = w(1).views().hypermap().lookup(&r);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(static_cast<StrView*>(entry->view)->text, "LR");
  w(1).views().collapse_into_leftmosts();
  EXPECT_EQ(r.collapsed, "LR");
}

TEST_F(ViewMergeTest, HypermapMergeIteratesSmallerMapBothDirections) {
  // Deposit larger than ambient triggers the swap optimisation; operand
  // order must survive it.
  FakeReducer rs[8];
  for (auto& r : rs) {
    w(0).views().hypermap().install(&r, new StrView{"l"}, &r.ops);
  }
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);  // 8 entries

  w(1).views().hypermap().install(&rs[2], new StrView{"r"}, &rs[2].ops);
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  EXPECT_EQ(w(1).views().hypermap().map().size(), 8u);
  EXPECT_EQ(static_cast<StrView*>(
                w(1).views().hypermap().lookup(&rs[2])->view)->text,
            "lr");
  EXPECT_EQ(static_cast<StrView*>(
                w(1).views().hypermap().lookup(&rs[5])->view)->text,
            "l");
  w(1).views().collapse_into_leftmosts();
}

TEST_F(ViewMergeTest, HypermapMergeRightSurvivesSwapOptimisation) {
  // The swap path in the OTHER direction: a right-merged deposit larger
  // than the ambient map flips deposit_is_left inside the merge; the
  // result must still read ambient ⊗ deposit for the shared key.
  FakeReducer rs[8];
  // Thief-side deposit: 8 entries, all "r".
  for (auto& r : rs) {
    w(1).views().hypermap().install(&r, new StrView{"r"}, &r.ops);
  }
  ViewSetDeposit dep;
  w(1).views().deposit_ambient(&dep);
  ASSERT_EQ(dep.hmap.size(), 8u);

  // Victim ambient: a single serially-earlier "l" for rs[3].
  w(0).views().hypermap().install(&rs[3], new StrView{"l"}, &rs[3].ops);
  w(0).views().merge(&dep, /*deposit_is_left=*/false);

  EXPECT_EQ(w(0).views().hypermap().map().size(), 8u);
  EXPECT_EQ(static_cast<StrView*>(
                w(0).views().hypermap().lookup(&rs[3])->view)->text,
            "lr");
  EXPECT_EQ(static_cast<StrView*>(
                w(0).views().hypermap().lookup(&rs[0])->view)->text,
            "r");
  w(0).views().collapse_into_leftmosts();
  EXPECT_EQ(rs[3].collapsed, "lr");
  EXPECT_EQ(rs[0].collapsed, "r");
}

TEST_F(ViewMergeTest, SpaCreateDestroyCyclesListTheirPageOnce) {
  // Creating and destroying an mm reducer inside one strand installs and
  // extracts its slot. However many cycles run before the next transferal,
  // the touched-page log lists the page once.
  FakeReducer r;
  auto& store = w(0).views().spa();
  const auto off = spa::offset(3, 17);
  for (int i = 0; i < 1000; ++i) {
    install(w(0), r, off, "x");
    delete static_cast<StrView*>(store.extract(off));
  }
  EXPECT_EQ(store.touched_page_count(), 1u);
  EXPECT_TRUE(store.empty());
}

TEST_F(ViewMergeTest, SpaTransferalResetsTheLogOfAnEmptiedPage) {
  // A page whose views were all extracted has nothing to transfer, but
  // deposit and collapse must still unlist it and reset its log, or the
  // next install would not list it again.
  FakeReducer r;
  auto& store = w(0).views().spa();
  const auto off = spa::offset(4, 2);
  install(w(0), r, off, "x");
  delete static_cast<StrView*>(store.extract(off));
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(dep.spa.empty());
  EXPECT_EQ(store.page_at(4)->num_logs, 0u);
  EXPECT_EQ(store.touched_page_count(), 0u);

  install(w(0), r, off, "y");
  EXPECT_EQ(store.touched_page_count(), 1u);
  delete static_cast<StrView*>(store.extract(off));
  w(0).views().collapse_into_leftmosts();
  EXPECT_EQ(store.page_at(4)->num_logs, 0u);
  EXPECT_EQ(store.touched_page_count(), 0u);
  EXPECT_TRUE(r.collapsed.empty());
}

TEST_F(ViewMergeTest, ManyPagesTransferal) {
  // Views spanning several SPA pages transfer and merge page by page.
  FakeReducer r;
  std::vector<std::uint64_t> offsets;
  for (std::uint32_t page = 0; page < 5; ++page) {
    for (std::uint32_t idx = 0; idx < 3; ++idx) {
      const auto off = spa::offset(page, idx * 80);
      offsets.push_back(off);
      install(w(0), r, off, "p" + std::to_string(page));
    }
  }
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_EQ(dep.spa.size(), 5u);

  // An empty ambient adopts every view.
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  for (const auto off : offsets) {
    EXPECT_FALSE(w(1).views().spa().slot_at(off)->empty());
  }
  w(1).views().collapse_into_leftmosts();
  EXPECT_TRUE(w(1).views().empty());
}

// One deposit carries both mechanisms at once.

TEST_F(ViewMergeTest, DepositCarriesBothStores) {
  FakeReducer r_spa, r_hmap;
  install(w(0), r_spa, spa::offset(0, 11), "s");
  w(0).views().hypermap().install(&r_hmap, new StrView{"h"}, &r_hmap.ops);
  EXPECT_FALSE(w(0).views().empty());

  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);
  EXPECT_TRUE(w(0).views().empty());
  EXPECT_EQ(dep.spa.size(), 1u);
  EXPECT_EQ(dep.hmap.size(), 1u);

  w(1).views().install_deposit(&dep);
  EXPECT_TRUE(dep.empty());
  w(1).views().collapse_into_leftmosts();
  EXPECT_EQ(r_spa.collapsed, "s");
  EXPECT_EQ(r_hmap.collapsed, "h");
}

TEST_F(ViewMergeTest, MergeLeftOrdersBothStores) {
  FakeReducer r_spa, r_hmap;
  const auto off = spa::offset(2, 20);

  install(w(0), r_spa, off, "S1");
  w(0).views().hypermap().install(&r_hmap, new StrView{"H1"}, &r_hmap.ops);
  ViewSetDeposit dep;
  w(0).views().deposit_ambient(&dep);

  install(w(1), r_spa, off, "S2");
  w(1).views().hypermap().install(&r_hmap, new StrView{"H2"}, &r_hmap.ops);
  w(1).views().merge(&dep, /*deposit_is_left=*/true);
  w(1).views().collapse_into_leftmosts();

  EXPECT_EQ(r_spa.collapsed, "S1S2");
  EXPECT_EQ(r_hmap.collapsed, "H1H2");
}

}  // namespace
