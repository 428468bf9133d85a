#include "spa/page_pool.hpp"

#include "mem/internal_alloc.hpp"
#include "util/assert.hpp"

namespace cilkm::spa {

SpaPage* acquire_page() {
  void* p = mem::InternalAlloc::instance().allocate(sizeof(SpaPage),
                                                    mem::AllocTag::kSpaPages);
  auto* page = static_cast<SpaPage*>(p);
  // The free-list link occupied the first 8 bytes (views[0].view); every
  // other byte is null/zero — fresh pages come from zeroed chunks, recycled
  // pages were released empty. Re-null the one clobbered slot.
  page->views[0] = ViewSlot{nullptr, nullptr};
  CILKM_DCHECK(page->all_empty(), "acquired SPA page not empty");
  return page;
}

void release_page(SpaPage* page) {
  CILKM_CHECK(page->all_empty(), "only empty SPA maps may be recycled");
  page->num_logs = 0;  // reset overflow state; view array is already zero
  mem::InternalAlloc::instance().deallocate(page, sizeof(SpaPage),
                                            mem::AllocTag::kSpaPages);
}

}  // namespace cilkm::spa
