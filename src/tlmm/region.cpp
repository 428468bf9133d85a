#include "tlmm/region.hpp"

#include <sys/mman.h>

namespace cilkm::tlmm {

thread_local std::byte* tls_region_base = nullptr;

WorkerRegion::WorkerRegion(std::size_t capacity) {
  capacity_ = (capacity + kPageSize - 1) / kPageSize * kPageSize;
  void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CILKM_CHECK(p != MAP_FAILED, "mmap of worker TLMM region failed");
  base_ = static_cast<std::byte*>(p);
}

WorkerRegion::~WorkerRegion() {
  if (base_ != nullptr) ::munmap(base_, capacity_);
}

}  // namespace cilkm::tlmm
