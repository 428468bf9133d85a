// Work-stealing deque of continuation descriptors (SpawnFrame*), following
// the Chase–Lev design with the memory orderings of Lê/Pop/Cohen/Nardelli
// (PPoPP'13). The owner pushes and takes at the bottom; thieves steal from
// the top — so the oldest (shallowest) continuation is stolen first, exactly
// the Cilk THE-protocol discipline the paper's Section 3 describes.
//
// Two extensions beyond the textbook deque:
//
//   take_if(expected) — the owner's fork-join fast path pops the bottom
//   entry only if it is its own descriptor. If the bottom holds an *older*
//   descriptor the owner's frame was stolen, and the older entry must stay
//   in place for its own owner/thieves.
//
//   steal_batch(out, max) — steal-half: one transaction claims up to
//   ceil((b-t)/2) top entries with a single seq_cst CAS on top_, amortizing
//   the heavy fence and the CAS that every theft pays (see below) across k
//   frames. A multi-entry claim is NOT safe in a plain Chase–Lev deque: the
//   owner pops bottom entries checked against top_ only, so between a
//   thief's bottom_ read and its CAS the owner can drain the deque down
//   INTO the thief's intended range without ever touching top_. The classic
//   Cilk-5 THE protocol closes exactly this race with its exception marker,
//   and we borrow it: a batching thief serializes with other batchers on a
//   thief-side spinlock, announces its claim bound in exc_, and
//   Dekker-fences that announcement against the owner's bottom_ decrement —
//   so either the thief observes the decrement and shrinks its claim, or
//   the owner observes exc_ > its pop index and resolves the conflict under
//   the thief lock. The owner checks exc_ (acquire) before it reads top_:
//   if it instead observes the post-commit clear, the acquire pairs with
//   the thief's release so the owner's top_ read sees the committed CAS
//   and takes the empty path — never a frame inside the claimed range.
//   Single steals (k == 1) keep the lock-free Chase–Lev
//   path unchanged: they claim only index t, which the top_ CAS itself
//   protects.
//
// Asymmetric fences (Ladan-Mozes, Lee and Vyukov, "Location-Based Memory
// Fences", SPAA'11). Both Dekker pairs — the owner's bottom_ store against
// its exc_/top_ loads, and a thief's top_ load or exc_ store against its
// bottom_ load — need a store-load barrier on each side. Every spawn pops,
// and only a theft steals, so the owner's side is a compiler barrier only
// and the thief pays for both with heavy_fence(): membarrier(2) makes every
// running thread of the process execute a full barrier before it returns
// (a thread that is not running passes one at its next context switch).
// That barrier lands somewhere in the owner's pop. If it lands after the
// bottom_ store, the store is visible before the thief's bottom_ read, and
// the thief sees the decrement. If it lands before the store, the owner's
// exc_ and top_ loads run after it and see every value the thief read or
// wrote before its call. Either way one side observes the other, as with
// two seq_cst fences. A thief probes for an empty deque before it fences,
// so idle probing makes no system call.
//
// Layout discipline (cf. the OpenCilk __cilkrts_worker hot/cold split): the
// owner-hot line holds bottom_ plus the wake-gate fields read on every
// push; the thief-hot line holds top_, exc_, and the thief lock; the
// buffer starts on its own line. layout_static_checks() pins this with
// static_asserts so a refactor cannot silently re-merge the lines.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/parking.hpp"
#include "util/assert.hpp"
#include "util/cache.hpp"
#include "util/spinlock.hpp"

namespace cilkm::rt {

struct SpawnFrame;

/// The thieves' half of the asymmetric Dekker fence (file comment):
/// membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED), so every running thread of
/// the process executes a full barrier before this returns. Aborts with the
/// errno if the kernel refuses. Out of line: the syscall headers stay in
/// deque.cpp.
void heavy_fence() noexcept;

class Deque {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 16;
  static constexpr std::size_t kMask = kCapacity - 1;

  /// Most frames one steal_batch() transaction may claim, however large the
  /// victim's deque is ("half" mode caps here). Bounds the thief-side copy
  /// buffer and the time the thief lock is held.
  static constexpr unsigned kMaxStealBatch = 64;

  /// Most sleepers one push() wakes when the deque is backing up (see
  /// wake_sleepers()); an isolated push wakes one.
  static constexpr unsigned kWakeBatch = 2;

  /// Registers the process for heavy_fence() on first use (once per
  /// process); aborts if the kernel lacks membarrier(2) or forbids it.
  Deque() noexcept;

  /// Wire the owning scheduler's parking lot into this deque: push() then
  /// wakes parked workers after publishing the new bottom entry. `tier_of`
  /// (indexed by worker id, owned by the scheduler) ranks sleepers by
  /// proximity to this deque's owner. `wake_counter` / `batch_counter` are
  /// the owner's kWakes / kBatchWakes stat slots. Unattached deques (unit
  /// tests, standalone use) pay nothing beyond a null check.
  void attach_wake_gate(ParkingLot* lot, const std::uint8_t* tier_of,
                        std::uint64_t* wake_counter,
                        std::uint64_t* batch_counter) noexcept {
    lot_ = lot;
    wake_tier_of_ = tier_of;
    wake_counter_ = wake_counter;
    batch_counter_ = batch_counter;
  }

  /// Owner only. Returns false — deque untouched, no wake fired — when the
  /// deque is full (spawn depth beyond kCapacity); fork2join then degrades
  /// to executing the child serially in place instead of aborting, so one
  /// pathological spawn burst cannot kill the process. Forced inline, like
  /// take_if: fork2join's fast path is these two plus the frame stores.
  [[gnu::always_inline]] bool push(SpawnFrame* frame) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    buffer_[static_cast<std::size_t>(b) & kMask].store(
        frame, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_release);
    // wake()'s own relaxed no-sleeper fast-out, hoisted so that a push with
    // nobody parked stays inline in fork2join.
    if (lot_ != nullptr && lot_->parked_count() != 0) wake_sleepers(b + 1 - t);
    return true;
  }

  /// Owner only: publish `n` frames (frames[0] oldest, i.e. stolen first)
  /// with one bottom_ store and NO wake-gate firing. Used by a thief
  /// re-queueing the tail of a steal_batch into its own deque — the wake-up
  /// for those frames is issued by the thief as ONE ParkingLot::wake call —
  /// and by take_impl's restore path, where no new work appeared.
  void push_bulk(SpawnFrame* const* frames, std::size_t n) noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    CILKM_CHECK(b - t + static_cast<std::int64_t>(n) <=
                    static_cast<std::int64_t>(kCapacity),
                "deque overflow: bulk push exceeds capacity");
    for (std::size_t i = 0; i < n; ++i) {
      buffer_[static_cast<std::size_t>(b + static_cast<std::int64_t>(i)) &
              kMask]
          .store(frames[i], std::memory_order_relaxed);
    }
    bottom_.store(b + static_cast<std::int64_t>(n),
                  std::memory_order_release);
  }

  /// Owner only: push one frame without firing the wake gate (the frame was
  /// already published once; re-announcing it would wake a sleeper for no
  /// new work).
  void push_quiet(SpawnFrame* frame) noexcept { push_bulk(&frame, 1); }

  /// Owner only: pop the bottom entry unconditionally (scheduler self-steal
  /// path — the caller promotes it like any stolen frame).
  SpawnFrame* take_any() noexcept { return take_impl(nullptr); }

  /// Owner only: pop the bottom entry only if it equals `expected` (fork-join
  /// fast path). Returns nullptr when the deque is empty, when the bottom
  /// entry is not `expected` (i.e., `expected` was stolen), or when a thief
  /// wins the race for the last entry.
  [[gnu::always_inline]] SpawnFrame* take_if(SpawnFrame* expected) noexcept {
    CILKM_DCHECK(expected != nullptr, "take_if requires a frame");
    return take_impl(expected);
  }

  /// Thieves: steal the top (oldest) entry. Returns nullptr if empty or if
  /// the CAS race is lost (caller just retries elsewhere). Lock-free; claims
  /// only index t, so the CAS alone arbitrates against the owner.
  SpawnFrame* steal() noexcept {
    std::int64_t t = top_.load(std::memory_order_acquire);
    // Fence-free probe: an empty deque costs no system call.
    if (t >= bottom_.load(std::memory_order_acquire)) return nullptr;
    heavy_fence();
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    SpawnFrame* frame =
        buffer_[static_cast<std::size_t>(t) & kMask].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return frame;
  }

  /// Thieves: steal up to min(max_frames, kMaxStealBatch, ceil((b-t)/2))
  /// top entries in one transaction — out[0] is the oldest. Returns the
  /// number of frames claimed (0 on an empty deque or a lost race). One
  /// entry is always stealable even from a one-entry deque (the k == 1
  /// case degenerates to steal()). See the file comment for why a
  /// multi-entry claim needs the exc_ announcement and the thief lock.
  unsigned steal_batch(SpawnFrame** out, unsigned max_frames) noexcept {
    if (max_frames <= 1) {
      SpawnFrame* frame = steal();
      if (frame == nullptr) return 0;
      out[0] = frame;
      return 1;
    }
    // Cheap probe before committing to the locked protocol.
    {
      const std::int64_t t = top_.load(std::memory_order_acquire);
      const std::int64_t b = bottom_.load(std::memory_order_acquire);
      if (t >= b) return 0;
      if (b - t == 1 || !thief_lock_.try_lock()) {
        // One entry (nothing to batch), or another thief is mid-batch on
        // this victim — don't convoy behind it, grab a single frame on the
        // lock-free path instead.
        SpawnFrame* frame = steal();
        if (frame == nullptr) return 0;
        out[0] = frame;
        return 1;
      }
    }
    // Locked: no other steal_batch is in flight on this deque; lock-free
    // single steals and the owner still race below.
    std::int64_t t = top_.load(std::memory_order_acquire);
    const std::int64_t b1 = bottom_.load(std::memory_order_acquire);
    std::int64_t want = b1 - t;            // may be stale-high; re-checked
    want -= want / 2;                      // ceil(avail / 2)
    if (want > static_cast<std::int64_t>(max_frames)) want = max_frames;
    if (want > static_cast<std::int64_t>(kMaxStealBatch)) {
      want = kMaxStealBatch;
    }
    if (want <= 0) {
      thief_lock_.unlock();
      return 0;
    }
    // Announce the claim bound, then Dekker-fence against the owner's
    // bottom_ decrement: the owner stores bottom_ / loads exc_, we store
    // exc_ / heavy-fence / load bottom_ — at least one side observes the
    // other (file comment), so either we shrink below every concurrent pop
    // or the owner backs out into the lock-resolved conflict path.
    exc_.store(t + want, std::memory_order_relaxed);
    heavy_fence();
    const std::int64_t b2 = bottom_.load(std::memory_order_acquire);
    const std::int64_t k = b2 - t < want ? b2 - t : want;
    if (k <= 0) {
      exc_.store(kNoExc, std::memory_order_release);
      thief_lock_.unlock();
      return 0;
    }
    // Read the claimed frames BEFORE the CAS (as in steal(): once top_
    // moves, pushes may recycle these slots after the ring wraps).
    for (std::int64_t i = 0; i < k; ++i) {
      out[i] = buffer_[static_cast<std::size_t>(t + i) & kMask].load(
          std::memory_order_relaxed);
    }
    // One CAS claims all k entries; a concurrent single steal or the
    // owner's last-entry race moves top_ and fails us (caller retries on
    // another victim, like steal()).
    const bool won = top_.compare_exchange_strong(
        t, t + k, std::memory_order_seq_cst, std::memory_order_relaxed);
    exc_.store(kNoExc, std::memory_order_release);
    thief_lock_.unlock();
    return won ? static_cast<unsigned>(k) : 0;
  }

  bool empty() const noexcept {
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  static constexpr std::int64_t kNoExc =
      static_cast<std::int64_t>(INT64_MIN);

  /// push()'s wake-up, out of line: taken only while a worker is parked.
  /// Batched: one isolated push wakes at most one sleeper (the 1:1
  /// discipline), but when pushes outrun thieves — `outstanding` stealable
  /// entries, a fan-out burst — wake up to kWakeBatch nearest sleepers at
  /// once to cut the serial wake latency chain. wake() internally fences so
  /// the bottom store is ordered before its sleeper check (see parking.hpp).
  [[gnu::noinline]] void wake_sleepers(std::int64_t outstanding) noexcept {
    unsigned want = kWakeBatch;
    if (outstanding < static_cast<std::int64_t>(want)) {
      want = outstanding < 1 ? 1u : static_cast<unsigned>(outstanding);
    }
    const std::uint32_t woken = lot_->wake(want, wake_tier_of_);
    *wake_counter_ += woken;
    if (woken > 1) *batch_counter_ += woken - 1;
  }

  /// Owner pop. The fast attempt detects an in-flight steal_batch whose
  /// announced claim bound covers our pop index; the conflict is resolved
  /// out of line by re-running the classic pop under the thief lock
  /// (THE-style), where no batch transaction can be in flight.
  [[gnu::always_inline]] SpawnFrame* take_impl(SpawnFrame* expected) noexcept {
    SpawnFrame* out = nullptr;
    if (take_attempt(expected, &out)) return out;
    return take_locked(expected);
  }

  [[gnu::noinline]] SpawnFrame* take_locked(SpawnFrame* expected) noexcept {
    SpawnFrame* out = nullptr;
    thief_lock_.lock();
    [[maybe_unused]] const bool resolved = take_attempt(expected, &out);
    CILKM_DCHECK(resolved, "owner pop conflicted while holding thief lock");
    thief_lock_.unlock();
    return out;
  }

  /// One pop attempt. Returns false only on a steal_batch conflict (deque
  /// state restored); true otherwise, with the result in *out.
  [[gnu::always_inline]] bool take_attempt(SpawnFrame* expected,
                                           SpawnFrame** out) noexcept {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    // The owner's half of the asymmetric Dekker fence: only the compiler is
    // kept from moving the loads below above the store. The CPU may still
    // hold the store in its store buffer; the thief's heavy_fence() drains
    // it or runs before these loads (file comment).
    std::atomic_signal_fence(std::memory_order_seq_cst);
    // A batching thief may have announced a claim [*, exc_) that covers
    // index b while its top_ CAS is still in flight; popping b unchecked
    // would race it. Back out and let take_impl resolve under the lock.
    //
    // The check must be an ACQUIRE load and must come BEFORE the top_ load.
    // The Dekker pair (our bottom_ store / exc_ load vs the thief's exc_
    // store / heavy fence / bottom_ load) guarantees that when the thief's
    // claim could cover b we read either the announcement — back out — or
    // the post-CAS clear; the clear is a release store sequenced after the
    // CAS, so acquiring it forces the top_ load below to observe top_ moved
    // past the claim and take the empty path. Loading exc_ relaxed or after
    // top_ admits the fatal interleaving: a stale pre-CAS top_ paired with
    // the cleared marker, both checks pass, and the frame runs twice (here
    // and in the thief's batch). A stale announcement — transaction already
    // finished — costs one harmless lock round-trip.
    if (exc_.load(std::memory_order_acquire) > b) {
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was empty (or a batch claim just committed past b).
      bottom_.store(b + 1, std::memory_order_relaxed);
      *out = nullptr;
      return true;
    }
    SpawnFrame* frame =
        buffer_[static_cast<std::size_t>(b) & kMask].load(std::memory_order_relaxed);
    if (t == b) {
      // Single entry: race a potential thief for it via the top CAS.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      if (!won) {
        *out = nullptr;
        return true;
      }
      if (expected != nullptr && frame != expected) {
        // We consumed an older entry that must remain available: the deque
        // is now empty (we hold its sole entry), so re-pushing preserves
        // order. Quiet push: this frame was already announced to sleepers
        // when it was first pushed — no new work appeared here.
        push_quiet(frame);
        *out = nullptr;
        return true;
      }
      *out = frame;
      return true;
    }
    // More than one entry: the bottom entry is ours without a race.
    if (expected != nullptr && frame != expected) {
      bottom_.store(b + 1, std::memory_order_relaxed);  // leave it in place
      *out = nullptr;
      return true;
    }
    *out = frame;
    return true;
  }

  /// Compile-time pins for the hot/cold split (documented in README's
  /// "Steal path" table). Never called; the static_asserts fire on any
  /// layout regression.
  static void layout_static_checks() noexcept {
    // Owner-hot line: bottom_ plus every field push() reads.
    static_assert(offsetof(Deque, lot_) / kCacheLineSize ==
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "wake-gate fields must share the owner-hot line");
    static_assert(offsetof(Deque, batch_counter_) / kCacheLineSize ==
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "wake-gate fields must share the owner-hot line");
    // Thief-hot line: top_, exc_, and the thief lock — written by thieves,
    // read once per owner pop.
    static_assert(offsetof(Deque, exc_) / kCacheLineSize ==
                      offsetof(Deque, top_) / kCacheLineSize,
                  "exc_ must share the thief-hot line with top_");
    static_assert(offsetof(Deque, thief_lock_) / kCacheLineSize ==
                      offsetof(Deque, top_) / kCacheLineSize,
                  "the thief lock must share the thief-hot line");
    // The two hot lines must not be the same line, and the buffer starts
    // on its own.
    static_assert(offsetof(Deque, top_) / kCacheLineSize !=
                      offsetof(Deque, bottom_) / kCacheLineSize,
                  "owner-hot and thief-hot fields on one line");
    static_assert(offsetof(Deque, buffer_) % kCacheLineSize == 0,
                  "buffer must start on a cache-line boundary");
    static_assert(offsetof(Deque, buffer_) / kCacheLineSize !=
                      offsetof(Deque, top_) / kCacheLineSize,
                  "buffer head must not share the thief-hot line");
  }

  // --- owner-hot line: bottom_ + the wake gate push() reads every time ---
  alignas(kCacheLineSize) std::atomic<std::int64_t> bottom_{0};
  ParkingLot* lot_ = nullptr;           // owner-written at attach, then const
  const std::uint8_t* wake_tier_of_ = nullptr;
  std::uint64_t* wake_counter_ = nullptr;
  std::uint64_t* batch_counter_ = nullptr;

  // --- thief-hot line: top_ + the steal-batch transaction state ---
  alignas(kCacheLineSize) std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> exc_{kNoExc};  // claim bound of an in-flight batch
  SpinLock thief_lock_;                    // serializes steal_batch thieves

  alignas(kCacheLineSize) std::atomic<SpawnFrame*> buffer_[kCapacity]{};
};

}  // namespace cilkm::rt
