#include "views/view_store.hpp"

#include "util/assert.hpp"
#include "util/timing.hpp"

namespace cilkm::views {

// ---------------------------------------------------------------------------
// SpaViewStore
// ---------------------------------------------------------------------------

SpaViewStore::SpaViewStore(WorkerStats* stats) : stats_(stats) {}

SpaViewStore::~SpaViewStore() {
  spa::SlotAllocator::instance().flush(slot_cache_);
}

void SpaViewStore::install(std::uint64_t offset, void* view,
                           const ViewOps* ops) {
  ScopedTimerNs timer((*stats_)[StatCounter::kViewInsertNs]);
  const std::uint32_t page_idx = spa::offset_page(offset);
  spa::SpaPage* page = page_at(page_idx);
  spa::ViewSlot* slot = slot_at(offset);
  CILKM_DCHECK(slot->empty(), "installing over a live view");
  slot->view = view;
  slot->ops = ops;
  const bool unlisted = page->num_logs == 0;
  page->note_insert(spa::offset_index(offset));
  if (unlisted) touched_pages_.push_back(page_idx);
}

void* SpaViewStore::extract(std::uint64_t offset) {
  spa::ViewSlot* slot = slot_at(offset);
  if (slot->empty()) return nullptr;
  void* view = slot->view;
  *slot = spa::ViewSlot{nullptr, nullptr};
  spa::SpaPage* page = page_at(spa::offset_page(offset));
  CILKM_DCHECK(page->num_valid > 0, "page valid-count underflow");
  --page->num_valid;
  // The page stays listed with its log; transferal skips empty pages, and a
  // stale log entry is harmless because the slot is now a null pair.
  return view;
}

bool SpaViewStore::empty() const noexcept {
  for (const std::uint32_t page_idx : touched_pages_) {
    const auto* page = reinterpret_cast<const spa::SpaPage*>(
        region_.base() + std::size_t{page_idx} * spa::kPageBytes);
    if (!page->all_empty()) return false;
  }
  return true;
}

void SpaViewStore::deposit(std::vector<spa::SpaDepositEntry>* out) {
  ScopedTimerNs timer((*stats_)[StatCounter::kViewTransferNs]);
  for (const std::uint32_t page_idx : touched_pages_) {
    spa::SpaPage* priv = page_at(page_idx);
    if (!priv->all_empty()) {
      spa::SpaPage* pub = spa::acquire_page();
      priv->for_each_valid([&](std::uint32_t idx, spa::ViewSlot& slot) {
        pub->views[idx] = slot;
        pub->note_insert(idx);
        slot = spa::ViewSlot{nullptr, nullptr};
        ++(*stats_)[StatCounter::kViewsTransferred];
      });
      priv->num_valid = 0;
      out->push_back({page_idx, pub});
    }
    priv->num_logs = 0;  // after the walk, which reads the log
  }
  touched_pages_.clear();
}

void SpaViewStore::install_deposit(std::vector<spa::SpaDepositEntry>* in) {
  for (auto& [page_idx, pub] : *in) {
    pub->for_each_valid([&](std::uint32_t idx, spa::ViewSlot& dslot) {
      install(spa::slot_offset(page_idx, idx), dslot.view, dslot.ops);
      dslot = spa::ViewSlot{nullptr, nullptr};
    });
    pub->num_valid = 0;
    spa::release_page(pub);
  }
  in->clear();
}

void SpaViewStore::merge(std::vector<spa::SpaDepositEntry>* in,
                         bool deposit_is_left) {
  for (auto& [page_idx, pub] : *in) {
    pub->for_each_valid([&](std::uint32_t idx, spa::ViewSlot& dslot) {
      const std::uint64_t offset = spa::slot_offset(page_idx, idx);
      spa::ViewSlot* mine = slot_at(offset);
      if (mine->empty()) {
        install(offset, dslot.view, dslot.ops);
      } else if (deposit_is_left) {
        // Deposit is serially earlier: fold our view into it, then adopt it.
        dslot.ops->reduce(dslot.ops->reducer, dslot.view, mine->view);
        mine->view = dslot.view;
      } else {
        mine->ops->reduce(mine->ops->reducer, mine->view, dslot.view);
      }
      dslot = spa::ViewSlot{nullptr, nullptr};
    });
    pub->num_valid = 0;
    spa::release_page(pub);
  }
  in->clear();
}

void SpaViewStore::collapse_into_leftmosts() {
  for (const std::uint32_t page_idx : touched_pages_) {
    spa::SpaPage* page = page_at(page_idx);
    if (!page->all_empty()) {
      page->for_each_valid([&](std::uint32_t, spa::ViewSlot& slot) {
        slot.ops->collapse(slot.ops->reducer, slot.view);
        slot = spa::ViewSlot{nullptr, nullptr};
      });
      page->num_valid = 0;
    }
    page->num_logs = 0;  // after the walk, which reads the log
  }
  touched_pages_.clear();
}

// ---------------------------------------------------------------------------
// HyperMapViewStore
// ---------------------------------------------------------------------------

void HyperMapViewStore::install(const void* key, void* view,
                                const ViewOps* ops) {
  ScopedTimerNs timer((*stats_)[StatCounter::kViewInsertNs]);
  map_.insert(key, view, ops);
}

void* HyperMapViewStore::extract(const void* key) {
  hypermap::Entry* entry = map_.lookup(key);
  if (entry == nullptr) return nullptr;
  void* view = entry->view;
  map_.erase(key);
  return view;
}

void HyperMapViewStore::merge(hypermap::HyperMap&& deposit,
                              bool deposit_is_left) {
  if (deposit.empty()) return;
  // Sequence through the map with fewer views and reduce into the larger
  // one (the paper's hypermerge rule). Swapping the table objects flips
  // which physical map survives but not the ⊗ operand order.
  if (deposit.size() > map_.size()) {
    map_.swap(deposit);
    deposit_is_left = !deposit_is_left;
  }
  deposit.for_each([&](hypermap::Entry& e) {
    hypermap::Entry* mine = map_.lookup(e.key);
    if (mine == nullptr) {
      map_.insert(e.key, e.view, e.ops);
      return;
    }
    if (deposit_is_left) {
      // e is serially earlier: result = e.view ⊗ mine->view, kept in e.view.
      e.ops->reduce(e.ops->reducer, e.view, mine->view);
      mine->view = e.view;
    } else {
      mine->ops->reduce(mine->ops->reducer, mine->view, e.view);
    }
  });
  deposit = hypermap::HyperMap{};
}

void HyperMapViewStore::collapse_into_leftmosts() {
  map_.for_each([&](hypermap::Entry& e) {
    e.ops->collapse(e.ops->reducer, e.view);
  });
  map_.clear();
}

// ---------------------------------------------------------------------------
// ViewStoreSet — the view-transferal / hypermerge engine
// ---------------------------------------------------------------------------

bool ViewStoreSet::empty() const noexcept {
  return spa_.empty() && hypermap_.empty();
}

void ViewStoreSet::deposit_ambient(ViewSetDeposit* out) {
  CILKM_DCHECK(out->empty(), "deposit placeholder already occupied");
  spa_.deposit(&out->spa);
  // Hypermap transferal is a pointer switch, as in Cilk Plus.
  hypermap_.deposit(&out->hmap);
}

void ViewStoreSet::install_deposit(ViewSetDeposit* in) {
  CILKM_DCHECK(empty(), "install_deposit requires an empty ambient");
  spa_.install_deposit(&in->spa);
  hypermap_.install_deposit(&in->hmap);
}

void ViewStoreSet::merge(ViewSetDeposit* in, bool deposit_is_left) {
  ScopedTimerNs timer((*stats_)[StatCounter::kHypermergeNs]);
  ++(*stats_)[StatCounter::kHypermerges];
  spa_.merge(&in->spa, deposit_is_left);
  hypermap_.merge(std::move(in->hmap), deposit_is_left);
}

void ViewStoreSet::collapse_into_leftmosts() {
  spa_.collapse_into_leftmosts();
  hypermap_.collapse_into_leftmosts();
}

}  // namespace cilkm::views
