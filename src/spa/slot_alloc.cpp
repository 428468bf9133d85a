#include "spa/slot_alloc.hpp"

#include "util/assert.hpp"

namespace cilkm::spa {

SlotAllocator& SlotAllocator::instance() {
  static SlotAllocator alloc;
  return alloc;
}

std::uint64_t SlotAllocator::allocate_global_locked() {
  if (!global_free_.empty()) {
    const std::uint64_t offset = global_free_.back();
    global_free_.pop_back();
    return offset;
  }
  CILKM_CHECK(bump_page_ < kMaxPages, "TLMM region exhausted (too many reducers)");
  const std::uint64_t offset = slot_offset(bump_page_, bump_index_);
  if (++bump_index_ == kViewsPerPage) {
    bump_index_ = 0;
    ++bump_page_;
  }
  return offset;
}

std::uint64_t SlotAllocator::allocate(LocalSlotCache* cache) {
  if (cache != nullptr && !cache->slots.empty()) {
    const std::uint64_t offset = cache->slots.back();
    cache->slots.pop_back();
    live_.fetch_add(1, std::memory_order_relaxed);
    return offset;
  }
  std::lock_guard lock(mutex_);
  if (cache != nullptr) {
    // Refill a batch into the local pool while we hold the lock once.
    for (std::size_t i = 0; i + 1 < LocalSlotCache::kBatch &&
                            (!global_free_.empty() || bump_page_ < kMaxPages);
         ++i) {
      cache->slots.push_back(allocate_global_locked());
    }
  }
  live_.fetch_add(1, std::memory_order_relaxed);
  return allocate_global_locked();
}

void SlotAllocator::free(std::uint64_t offset, LocalSlotCache* cache) {
  if (cache != nullptr) {
    cache->slots.push_back(offset);
    live_.fetch_sub(1, std::memory_order_relaxed);
    if (cache->slots.size() > LocalSlotCache::kHighWater) {
      // Rebalance: return a batch to the global pool (Hoard-style).
      std::lock_guard lock(mutex_);
      for (std::size_t i = 0; i < LocalSlotCache::kBatch; ++i) {
        global_free_.push_back(cache->slots.back());
        cache->slots.pop_back();
      }
    }
    return;
  }
  live_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard lock(mutex_);
  global_free_.push_back(offset);
}

void SlotAllocator::flush(LocalSlotCache& cache) {
  std::lock_guard lock(mutex_);
  for (const std::uint64_t offset : cache.slots) global_free_.push_back(offset);
  cache.slots.clear();
}

}  // namespace cilkm::spa
