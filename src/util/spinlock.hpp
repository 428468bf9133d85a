// Test-and-test-and-set spinlock, and the pause hint every spin loop in the
// runtime uses. The lock guards the internal pools' shards.
#pragma once

#include <atomic>

namespace cilkm {

/// Pause hint for spin loops: keeps the core's speculation machinery (and a
/// hyperthread sibling) out of the way without yielding the time slice.
inline void cpu_relax() noexcept { __builtin_ia32_pause(); }

/// TTAS spinlock with exponential-free polite spinning.
/// Satisfies Lockable, so it composes with std::lock_guard.
class SpinLock {
 public:
  void lock() noexcept {
    while (true) {
      if (!flag_.exchange(true, std::memory_order_acquire)) return;
      while (flag_.load(std::memory_order_relaxed)) cpu_relax();
    }
  }

  bool try_lock() noexcept {
    return !flag_.load(std::memory_order_relaxed) &&
           !flag_.exchange(true, std::memory_order_acquire);
  }

  void unlock() noexcept { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

}  // namespace cilkm
