// Idle-worker parking: a per-worker parking lot (targeted wake-ups). Workers
// that find no work after an exponential spin→yield backoff park on their
// own slot; producers (Deque::push, root completion) wake up to k parked
// workers at once, choosing by proximity to the producer and, within a
// proximity tier, most-recently-parked first (LIFO — the last worker to go
// idle has the warmest cache and the shortest wake latency).
//
// The lost-wakeup race is closed Dekker-style: a consumer takes a TICKET
// from its slot's epoch, REGISTERS in the shared parked stack, RE-CHECKS its
// sleep condition, then blocks; a producer PUBLISHES its work, then checks
// for registered sleepers. The consumer's registration and the producer's
// check are separated by seq_cst fences, so at least one party observes the
// other: either the producer pops the consumer from the stack and bumps its
// epoch (the ticket predates the bump, so the consumer's block falls
// through), or the consumer's re-check sees the published work. The
// producer-side fast-out reads the parked count relaxed — with nobody
// parked the push hot path pays one load, and the rare missed wake of a
// concurrent registrant is repaired by the next publication or the
// consumer's timed backstop.
//
// One wrinkle the single-eventcount design did not have: a producer targets
// a SPECIFIC worker, which may be between registration and re-check and
// find work on its own (cancel_park). That worker consumes a wake credit
// that was meant to rouse a sleeper, so cancel_park forwards the credit to
// the next most-recently-parked worker — without this, a push could leave
// its frame stranded with every other worker asleep until a backstop.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/assert.hpp"
#include "util/cache.hpp"
#include "util/spinlock.hpp"

namespace cilkm::rt {

class ParkingLot {
 public:
  explicit ParkingLot(unsigned num_slots)
      : num_slots_(num_slots), slots_(new Slot[num_slots]) {
    stack_.reserve(num_slots);
  }

  ParkingLot(const ParkingLot&) = delete;
  ParkingLot& operator=(const ParkingLot&) = delete;

  /// Consumer side, phase 1: capture the wake ticket, then register in the
  /// parked stack. The caller MUST re-check its sleep condition after this
  /// call and then either cancel_park() (work appeared) or park() (commit).
  std::uint32_t prepare_park(unsigned who) noexcept {
    CILKM_DCHECK(who < num_slots_, "parking slot out of range");
    // The ticket must predate the registration: a producer that pops us
    // bumps the epoch AFTER seeing us registered, so the bump always moves
    // the epoch past this ticket and park() cannot sleep through it.
    const std::uint32_t ticket =
        slots_[who].epoch.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(stack_mu_);
      stack_.push_back(who);
      parked_count_.store(static_cast<std::uint32_t>(stack_.size()),
                          std::memory_order_relaxed);
    }
    // Pairs with the producer-side fence in wake()/wake_all(): one of the
    // two parties is guaranteed to observe the other.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return ticket;
  }

  /// Consumer side: abandon the park because the re-check found work.
  /// Returns the number of forwarded wake-ups (0 or 1): if a producer
  /// already popped us, its wake credit is passed to the next
  /// most-recently-parked worker so the new work cannot be stranded.
  std::uint32_t cancel_park(unsigned who) noexcept {
    unsigned forward_to = kNone;
    {
      std::lock_guard<std::mutex> lock(stack_mu_);
      if (remove_locked(who)) return 0;
      if (!stack_.empty()) {
        forward_to = stack_.back();
        stack_.pop_back();
        parked_count_.store(static_cast<std::uint32_t>(stack_.size()),
                            std::memory_order_relaxed);
      }
    }
    if (forward_to == kNone) return 0;
    wake_slot(forward_to);
    return 1;
  }

  /// Consumer side, phase 2: block until a producer bumps this slot's epoch
  /// past `ticket` or the backstop elapses. Deregisters on return; the
  /// caller re-runs its full work-finding loop either way.
  void park(unsigned who, std::uint32_t ticket,
            std::chrono::milliseconds backstop) {
    Slot& slot = slots_[who];
    {
      std::unique_lock<std::mutex> lock(slot.mu);
      slot.cv.wait_for(lock, backstop, [&] {
        return slot.epoch.load(std::memory_order_relaxed) != ticket;
      });
    }
    // Still registered after a backstop expiry or spurious wake: deregister.
    // (After a targeted wake the producer already removed us.)
    std::lock_guard<std::mutex> lock(stack_mu_);
    remove_locked(who);
  }

  /// Producer side. Call AFTER the new work (or completion flag) is
  /// visible. Wakes up to `max_wake` parked workers; `tier_of`, when
  /// non-null, ranks candidate worker w by tier_of[w] (lower = nearer the
  /// producer), ties broken most-recently-parked first; null means pure
  /// LIFO. Returns the number of workers woken.
  std::uint32_t wake(unsigned max_wake, const std::uint8_t* tier_of) noexcept {
    if (max_wake == 0) return 0;
    // Fast-out: with no one parked a relaxed read avoids a full fence
    // (Deque::push makes the same check inline, before it calls here on a
    // spawn). The relaxed read can miss a concurrently registering worker;
    // that lone missed wake is repaired by the next publication or the
    // timed backstop.
    if (parked_count_.load(std::memory_order_relaxed) == 0) return 0;
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_count_.load(std::memory_order_relaxed) == 0) return 0;

    unsigned chosen[kMaxBatch];
    std::uint32_t count = 0;
    {
      std::lock_guard<std::mutex> lock(stack_mu_);
      const unsigned want =
          max_wake < kMaxBatch ? max_wake : unsigned{kMaxBatch};
      while (count < want && !stack_.empty()) {
        // Nearest tier wins; within a tier the highest stack index (most
        // recently parked) wins. The stack is small (≤ P), so a linear scan
        // per pick is cheaper than maintaining a sorted structure.
        std::size_t best = stack_.size() - 1;
        if (tier_of != nullptr) {
          for (std::size_t i = stack_.size(); i-- > 0;) {
            if (tier_of[stack_[i]] < tier_of[stack_[best]]) best = i;
          }
        }
        chosen[count++] = stack_[best];
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(best));
      }
      parked_count_.store(static_cast<std::uint32_t>(stack_.size()),
                          std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < count; ++i) wake_slot(chosen[i]);
    return count;
  }

  /// Producer side: wake every parked worker (root completion — quiescence).
  /// Always takes the fenced path, so ending a run never relies on the
  /// backstop.
  std::uint32_t wake_all() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::vector<unsigned> all;
    all.reserve(num_slots_);  // allocate before taking the hot-path lock
    {
      std::lock_guard<std::mutex> lock(stack_mu_);
      all.insert(all.end(), stack_.begin(), stack_.end());
      // clear() keeps stack_'s reserved capacity, so later prepare_park
      // push_backs never allocate while holding stack_mu_ (a swap here
      // would leak the constructor's reserve into `all` every run).
      stack_.clear();
      parked_count_.store(0, std::memory_order_relaxed);
    }
    for (const unsigned who : all) wake_slot(who);
    return static_cast<std::uint32_t>(all.size());
  }

  /// Registered sleepers right now (approximate outside the lock).
  std::uint32_t parked_count() const noexcept {
    return parked_count_.load(std::memory_order_relaxed);
  }

  /// Most sleepers a single wake() call will rouse.
  static constexpr unsigned kMaxBatch = 16;

 private:
  static constexpr unsigned kNone = ~0u;

  struct alignas(kCacheLineSize) Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<std::uint32_t> epoch{0};  // written under mu, read anywhere
  };

  void wake_slot(unsigned who) noexcept {
    Slot& slot = slots_[who];
    {
      // The bump must happen under the slot mutex so a consumer between its
      // final predicate check and the actual block cannot miss it.
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.epoch.fetch_add(1, std::memory_order_relaxed);
    }
    slot.cv.notify_one();
  }

  bool remove_locked(unsigned who) noexcept {
    for (std::size_t i = stack_.size(); i-- > 0;) {
      if (stack_[i] == who) {
        stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(i));
        parked_count_.store(static_cast<std::uint32_t>(stack_.size()),
                            std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  unsigned num_slots_;
  std::unique_ptr<Slot[]> slots_;

  // LIFO stack of parked worker ids + a lock-free mirror of its size for
  // the producer fast-out. Both mutate only under stack_mu_.
  std::mutex stack_mu_;
  std::vector<unsigned> stack_;
  std::atomic<std::uint32_t> parked_count_{0};
};

}  // namespace cilkm::rt
