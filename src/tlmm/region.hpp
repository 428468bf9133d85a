// Fast user-space emulation of a worker's TLMM region. Each worker owns one
// contiguous, lazily committed private region; a reducer stores a byte
// offset into it (its tlmm_addr).
// The hardware page-table walk of TLMM-Linux is replaced by a TLS load of
// the current worker's region base, so a reducer lookup costs
//   load tlmm_addr  ->  load tls_base  ->  load base[offset]  ->  branch
// preserving the paper's "two memory accesses and a predictable branch"
// profile up to the extra fs:-relative load and the TLS-init test described
// at tls_region_base.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/assert.hpp"

namespace cilkm::tlmm {

inline constexpr std::size_t kPageSize = 4096;

/// One worker's private region. Backed by an anonymous, norm-reserve mmap so
/// a large virtual span costs nothing until touched (mirroring the paper's
/// observation that in a 64-bit address space the region can be generous).
class WorkerRegion {
 public:
  /// Reserve `capacity` bytes of virtual address space (rounded up to pages).
  explicit WorkerRegion(std::size_t capacity);
  ~WorkerRegion();

  WorkerRegion(const WorkerRegion&) = delete;
  WorkerRegion& operator=(const WorkerRegion&) = delete;

  std::byte* base() const noexcept { return base_; }
  std::size_t capacity() const noexcept { return capacity_; }

  std::byte* at(std::size_t offset) const noexcept {
    CILKM_DCHECK(offset < capacity_, "region offset out of range");
    return base_ + offset;
  }

 private:
  std::byte* base_ = nullptr;
  std::size_t capacity_ = 0;
};

/// The executing worker's region base. A plain extern thread_local (neither
/// constinit nor a tls_model attribute): an access from another translation
/// unit first tests the weak TLS-init wrapper symbol (never called, since
/// the definition needs no dynamic initialization), then loads the base
/// fs-relative.
extern thread_local std::byte* tls_region_base;

/// Install/clear the current thread's region (done by the scheduler when a
/// worker thread starts/stops, and by tests).
inline void set_current_region(WorkerRegion* region) noexcept {
  tls_region_base = region != nullptr ? region->base() : nullptr;
}

/// The fast path used by reducer lookups: resolve a global region offset in
/// the *current* worker's private region.
inline std::byte* resolve(std::uint64_t offset) noexcept {
  return tls_region_base + offset;
}

}  // namespace cilkm::tlmm
