#include "runtime/stack_pool.hpp"

#include <sys/mman.h>

#include <chrono>
#include <mutex>
#include <new>
#include <thread>

#include "mem/internal_alloc.hpp"
#include "runtime/sanitizer.hpp"
#include "util/assert.hpp"

namespace cilkm::rt {

StackPool& StackPool::instance() {
  static StackPool pool;
  return pool;
}

StackPool::StackPool(std::size_t max_cached) : max_cached_(max_cached) {
  // Fiber headers live in the internal allocator; touching it here pins the
  // construction order, so its (function-local static) instance outlives
  // this pool's destructor.
  (void)mem::InternalAlloc::instance();
}

StackPool::~StackPool() {
  while (shard_.head != nullptr) {
    Fiber* fiber = shard_.head;
    shard_.head = fiber->next;
    destroy_fiber(fiber);
  }
}

Fiber* StackPool::allocate_fresh() {
  const std::size_t size = kDefaultStackBytes;
  void* p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  // Exhaustion (vm.max_map_count, overcommit limits, address space) is a
  // load condition, not a bug: report it as nullptr and let acquire()'s
  // backoff — and ultimately the worker's serial-degradation path — absorb
  // it instead of aborting the process.
  if (p == MAP_FAILED) return nullptr;
  // Guard page at the low end (stacks grow downward).
  if (::mprotect(p, 4096, PROT_NONE) != 0) {
    ::munmap(p, size);
    return nullptr;
  }
  Fiber* fiber = nullptr;
  try {
    fiber = mem::InternalAlloc::instance().create<Fiber>(
        mem::AllocTag::kFiberStacks);
  } catch (const std::bad_alloc&) {
    ::munmap(p, size);
    return nullptr;
  }
  fiber->alloc_base = static_cast<std::byte*>(p);
  fiber->alloc_size = size;
  fiber->stack_top = fiber->alloc_base + size;
  // TSan state lives (and is recycled) with the stack it shadows.
  fiber->tsan_fiber = tsan::create_fiber();
  return fiber;
}

void StackPool::destroy_fiber(Fiber* fiber) {
  tsan::destroy_fiber(fiber->tsan_fiber);
  ::munmap(fiber->alloc_base, fiber->alloc_size);
  // Shard-direct free (no magazine): trims are rare, and the pool's static
  // destructor may run after the calling thread's TLS magazine is gone.
  fiber->~Fiber();
  mem::InternalAlloc::instance().deallocate(
      fiber, sizeof(Fiber), mem::AllocTag::kFiberStacks, nullptr);
}

Fiber* StackPool::acquire(LocalFiberCache* local) {
  if (local != nullptr && local->head != nullptr) {
    Fiber* fiber = local->head;
    local->head = fiber->next;
    fiber->next = nullptr;
    --local->count;
    return fiber;
  }
  Shard& s = shard_;
  {
    std::lock_guard guard(s.lock);
    if (s.head != nullptr) {
      Fiber* fiber = s.head;
      s.head = fiber->next;
      fiber->next = nullptr;
      --s.count;
      return fiber;
    }
  }
  // Nothing pooled: allocate fresh, retrying transient exhaustion with a
  // capped exponential backoff (1/2/4 ms). Another worker may release a
  // fiber meanwhile, so the shard is re-probed between attempts. nullptr
  // after the final attempt; Worker::launch then degrades to running the
  // frame on its own stack.
  for (unsigned attempt = 0;; ++attempt) {
    Fiber* fiber = allocate_fresh();
    if (fiber != nullptr) {
      created_.fetch_add(1, std::memory_order_relaxed);
      return fiber;
    }
    if (attempt >= kAcquireRetries) return nullptr;
    std::this_thread::sleep_for(std::chrono::milliseconds(1L << attempt));
    std::lock_guard guard(s.lock);
    if (s.head != nullptr) {
      Fiber* recycled = s.head;
      s.head = recycled->next;
      recycled->next = nullptr;
      --s.count;
      return recycled;
    }
  }
}

void StackPool::release(Fiber* fiber, LocalFiberCache* local) {
  if (local != nullptr && local->count < LocalFiberCache::kMaxCached) {
    fiber->next = local->head;
    local->head = fiber;
    ++local->count;
    return;
  }
  shard_release(fiber);
}

void StackPool::shard_release(Fiber* fiber) {
  Shard& s = shard_;
  {
    std::lock_guard guard(s.lock);
    if (s.count < max_cached_) {
      fiber->next = s.head;
      s.head = fiber;
      ++s.count;
      return;
    }
  }
  // Shard at its high-water mark: trim instead of pooling, so peak RSS
  // follows demand down.
  destroy_fiber(fiber);
}

void StackPool::flush(LocalFiberCache& local) {
  while (local.head != nullptr) {
    Fiber* fiber = local.head;
    local.head = fiber->next;
    fiber->next = nullptr;
    shard_release(fiber);
  }
  local.count = 0;
}

std::size_t StackPool::cached() const {
  std::lock_guard guard(const_cast<SpinLock&>(shard_.lock));
  return shard_.count;
}

}  // namespace cilkm::rt
