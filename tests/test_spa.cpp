// SPA-map, slot-allocator and page-pool tests (paper Sections 5–7): exact
// page layout, log semantics incl. the 120-entry overflow rule, slot
// allocation with Hoard-style local pools, and the only-empty-pages-recycled
// invariant of the public-page pool (spa::acquire_page/release_page over
// the internal allocator's kSpaPages tag).
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "mem/internal_alloc.hpp"
#include "spa/page_pool.hpp"
#include "spa/slot_alloc.hpp"
#include "spa/spa_map.hpp"

namespace {

using namespace cilkm::spa;

TEST(SpaLayout, MatchesPaperExactly) {
  // Paper Section 6: 248 view-pair elements, 120 one-byte logs, two 4-byte
  // counters, in one 4096-byte page; 16-byte slots; 2:1 view:log ratio.
  static_assert(sizeof(SpaPage) == 4096);
  static_assert(sizeof(ViewSlot) == 16);
  static_assert(kViewsPerPage == 248);
  static_assert(kLogCapacity == 120);
  EXPECT_EQ(offsetof(SpaPage, log), 248u * 16u);
  EXPECT_EQ(offsetof(SpaPage, num_valid), 4088u);
  EXPECT_EQ(offsetof(SpaPage, num_logs), 4092u);
}

TEST(SpaOffsets, RoundTrip) {
  for (std::uint32_t page : {0u, 1u, 77u, 65535u}) {
    for (std::uint32_t idx : {0u, 1u, 247u}) {
      const std::uint64_t off = slot_offset(page, idx);
      EXPECT_EQ(offset_page(off), page);
      EXPECT_EQ(offset_index(off), idx);
    }
  }
}

TEST(SpaPageBasics, InsertTracksLogAndCounts) {
  SpaPage page;
  page.clear();
  EXPECT_TRUE(page.all_empty());

  int v1 = 0, v2 = 0;
  page.views[5] = {&v1, nullptr};
  page.note_insert(5);
  page.views[200] = {&v2, nullptr};
  page.note_insert(200);

  EXPECT_EQ(page.num_valid, 2u);
  EXPECT_EQ(page.num_logs, 2u);

  std::vector<std::uint32_t> seen;
  page.for_each_valid([&](std::uint32_t idx, ViewSlot&) { seen.push_back(idx); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5, 200}));
}

TEST(SpaPageBasics, VisitorSkipsZeroedSlots) {
  SpaPage page;
  page.clear();
  int v = 0;
  page.views[3] = {&v, nullptr};
  page.note_insert(3);
  // Zero the slot without touching the log — stale log entries must be
  // skipped (this happens after reducer destruction mid-scope).
  page.views[3] = {nullptr, nullptr};
  page.num_valid = 0;
  int visits = 0;
  page.for_each_valid([&](std::uint32_t, ViewSlot&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(SpaPageBasics, LogOverflowSwitchesToFullWalk) {
  SpaPage page;
  page.clear();
  static int dummy;
  // Insert more than kLogCapacity entries.
  for (std::uint32_t i = 0; i < kLogCapacity + 10; ++i) {
    page.views[i] = {&dummy, nullptr};
    page.note_insert(i);
  }
  EXPECT_EQ(page.num_logs, kLogsOverflowed);
  EXPECT_EQ(page.num_valid, kLogCapacity + 10);
  // Sequencing still visits every valid entry (full-array walk).
  std::set<std::uint32_t> seen;
  page.for_each_valid([&](std::uint32_t idx, ViewSlot&) { seen.insert(idx); });
  EXPECT_EQ(seen.size(), kLogCapacity + 10);
}

TEST(SpaPageBasics, DuplicateLogEntriesAreDeduplicatedByZeroing) {
  // A slot can appear twice in a log (freed and re-allocated reducer). The
  // transferal pattern zeroes the slot at the first visit, so the second
  // log hit is skipped.
  SpaPage page;
  page.clear();
  static int dummy;
  page.views[9] = {&dummy, nullptr};
  page.note_insert(9);
  page.views[9] = {nullptr, nullptr};  // reducer destroyed
  --page.num_valid;
  page.views[9] = {&dummy, nullptr};  // slot re-used by a new reducer
  page.note_insert(9);

  int visits = 0;
  page.for_each_valid([&](std::uint32_t, ViewSlot& slot) {
    ++visits;
    slot = ViewSlot{nullptr, nullptr};  // transferal zeroes as it copies
  });
  EXPECT_EQ(visits, 1);
}

TEST(SlotAllocator, OffsetsAreUniqueAnd16ByteAligned) {
  auto& alloc = SlotAllocator::instance();
  std::set<std::uint64_t> offsets;
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 600; ++i) {  // spans > 2 pages
    const std::uint64_t off = alloc.allocate(nullptr);
    EXPECT_EQ(off % 16, 0u);
    EXPECT_LT(offset_index(off), kViewsPerPage);  // never in the header area
    EXPECT_TRUE(offsets.insert(off).second) << "duplicate offset";
    got.push_back(off);
  }
  for (const auto off : got) alloc.free(off, nullptr);
}

TEST(SlotAllocator, LocalCacheRefillsAndRebalances) {
  auto& alloc = SlotAllocator::instance();
  LocalSlotCache cache;
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 100; ++i) got.push_back(alloc.allocate(&cache));
  // After the first miss the cache was batch-refilled.
  EXPECT_FALSE(cache.slots.empty());
  for (const auto off : got) alloc.free(off, &cache);
  // Rebalancing caps the local pool near the high-water mark.
  EXPECT_LE(cache.slots.size(), LocalSlotCache::kHighWater + LocalSlotCache::kBatch);
  alloc.flush(cache);
  EXPECT_TRUE(cache.slots.empty());
}

TEST(SlotAllocator, ConcurrentAllocationYieldsDistinctSlots) {
  auto& alloc = SlotAllocator::instance();
  constexpr int kThreads = 8, kPer = 300;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      LocalSlotCache cache;
      for (int i = 0; i < kPer; ++i) got[t].push_back(alloc.allocate(&cache));
      alloc.flush(cache);
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got) {
    for (const auto off : v) {
      EXPECT_TRUE(all.insert(off).second) << "duplicate slot across threads";
    }
  }
  for (const auto off : all) alloc.free(off, nullptr);
}

std::size_t carved_pages() {
  return cilkm::mem::InternalAlloc::instance()
      .tag_stats(cilkm::mem::AllocTag::kSpaPages)
      .carved_blocks;
}

TEST(PagePool, RecyclesOnlyEmptyPagesAndReusesThem) {
  SpaPage* page = acquire_page();
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->all_empty());

  static int dummy;
  page->views[0] = {&dummy, nullptr};
  page->note_insert(0);
  // Must empty the page before recycling (the paper's invariant).
  page->views[0] = {nullptr, nullptr};
  page->num_valid = 0;
  release_page(page);

  SpaPage* again = acquire_page();
  EXPECT_TRUE(again->all_empty());
  release_page(again);
}

TEST(PagePool, OverflowedLogStateIsResetOnRelease) {
  SpaPage* page = acquire_page();
  static int dummy;
  for (std::uint32_t i = 0; i < kLogCapacity + 1; ++i) {
    page->views[i] = {&dummy, nullptr};
    page->note_insert(i);
  }
  page->for_each_valid([](std::uint32_t, ViewSlot& s) { s = {nullptr, nullptr}; });
  page->num_valid = 0;
  release_page(page);
  SpaPage* again = acquire_page();
  EXPECT_NE(again->num_logs, kLogsOverflowed);
  release_page(again);
}

TEST(PagePool, ReleasedPagesAreRecycledNotRecarved) {
  // The per-worker caching moved into the internal allocator's magazines:
  // releasing pages and re-acquiring the same number must be served entirely
  // from recycled blocks, without carving new backing store.
  std::vector<SpaPage*> pages;
  for (int i = 0; i < 12; ++i) pages.push_back(acquire_page());
  for (SpaPage* p : pages) release_page(p);
  const std::size_t carved_before = carved_pages();
  pages.clear();
  for (int i = 0; i < 12; ++i) {
    SpaPage* p = acquire_page();
    EXPECT_TRUE(p->all_empty());
    pages.push_back(p);
  }
  EXPECT_EQ(carved_pages(), carved_before);
  for (SpaPage* p : pages) release_page(p);
}

TEST(PagePoolDeath, ReleasingNonEmptyPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SpaPage* page = acquire_page();
  static int dummy;
  page->views[1] = {&dummy, nullptr};
  page->note_insert(1);
  EXPECT_DEATH(release_page(page), "only empty SPA maps");
  page->views[1] = {nullptr, nullptr};
  page->num_valid = 0;
  release_page(page);
}

}  // namespace
