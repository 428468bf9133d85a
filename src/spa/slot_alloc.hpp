// Allocation of 16-byte view-array slots in the (emulated) TLMM region
// (paper Sections 5–6). The offset space is global — an assigned slot
// represents the same reducer in every worker's region for the reducer's
// whole life — while allocation itself is scalable in the manner of Hoard:
// each worker owns a local pool of free slots and occasionally rebalances
// fixed-size batches against a global pool.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "spa/spa_map.hpp"

namespace cilkm::spa {

/// Maximum SPA pages per worker region: 2^16 pages = 256 MiB of (lazily
/// committed) virtual space, i.e. up to ~16M live reducers.
inline constexpr std::uint32_t kMaxPages = 1u << 16;
inline constexpr std::size_t kRegionBytes =
    static_cast<std::size_t>(kMaxPages) * kPageBytes;

/// A worker-local cache of free slot offsets (the "local pool").
struct LocalSlotCache {
  static constexpr std::size_t kBatch = 32;    // refill/flush granularity
  static constexpr std::size_t kHighWater = 64;
  std::vector<std::uint64_t> slots;
};

class SlotAllocator {
 public:
  static SlotAllocator& instance();

  /// Allocate a slot offset. `cache` may be null (e.g. reducers constructed
  /// on a non-worker thread go straight to the global pool).
  std::uint64_t allocate(LocalSlotCache* cache);

  /// Return a slot offset. The slot must already be empty in every region.
  void free(std::uint64_t offset, LocalSlotCache* cache);

  /// Flush a worker's local pool back to the global pool (worker teardown).
  void flush(LocalSlotCache& cache);

  /// Number of offsets currently handed out (live reducers); test hook.
  std::size_t live_slots() const noexcept {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t allocate_global_locked();

  std::mutex mutex_;
  std::vector<std::uint64_t> global_free_;
  std::uint32_t bump_page_ = 0;
  std::uint32_t bump_index_ = 0;
  // Relaxed: a counter only, so a local-cache hit takes no lock.
  std::atomic<std::size_t> live_{0};
};

}  // namespace cilkm::spa
