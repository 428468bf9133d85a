// The pool of public SPA maps (paper Section 7): view transferal acquires
// pages, hypermerge releases them. Pages are blocks of the internal
// allocator's kSpaPages tag, so the calling thread's magazine is the
// per-worker cache and the global pool is sharded per NUMA node. Only
// all-empty pages are recycled (release_page enforces it) and fresh pages
// come from the tag's zeroed chunks, so an acquired page is always
// all-empty: every view slot null, num_valid == 0, num_logs == 0.
#pragma once

#include "spa/spa_map.hpp"

namespace cilkm::spa {

SpaPage* acquire_page();
void release_page(SpaPage* page);

}  // namespace cilkm::spa
