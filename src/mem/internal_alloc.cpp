#include "mem/internal_alloc.hpp"

#include <cstdio>
#include <cstring>
#include <mutex>
#include <new>

#include "chaos/chaos.hpp"

namespace cilkm::mem {

InternalAlloc::~InternalAlloc() {
#ifndef NDEBUG
  // Teardown leak check (debug builds): report, never abort — long-lived
  // singletons (persistent Schedulers in tests) may legitimately hold
  // blocks at process exit, and exit-time aborts would mask the real test
  // result. Tests prove detection through leak_report() directly.
  const LeakReport report = leak_report();
  if (!report.clean) {
    std::fprintf(stderr, "InternalAlloc teardown: %s\n",
                 report.describe().c_str());
  }
#endif
  for (void* chunk : chunks_owned_) ::operator delete(chunk);
}

InternalAlloc& InternalAlloc::instance() {
  static InternalAlloc alloc;
  return alloc;
}

InternalAlloc::Magazine* InternalAlloc::tls_magazine() {
  // Thread-local magazines belong to the process-wide instance only: a
  // standalone allocator (tests, benches) must not mix blocks into them.
  if (this != &instance()) return nullptr;
  thread_local Magazine mag;
  return &mag;
}

InternalAlloc::Magazine::~Magazine() {
  // Return everything to the global shards so blocks freed by a dead
  // worker thread remain reusable.
  if (owner != nullptr) owner->flush(*this);
}

namespace {

/// CAS-max `live` into `peak`; racing updates keep the maximum either way.
/// Compared as signed: a magazine whose frees outnumber its allocations
/// folds in a net-negative delta, so a live count can be transiently below
/// zero (wrapped as unsigned), and such a value must never become a peak.
void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t live) noexcept {
  std::uint64_t seen = peak.load(std::memory_order_relaxed);
  while (static_cast<std::int64_t>(live) > static_cast<std::int64_t>(seen) &&
         !peak.compare_exchange_weak(seen, live, std::memory_order_relaxed)) {
  }
}

}  // namespace

void InternalAlloc::note_alloc(TagCounters& c, std::size_t bytes) noexcept {
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  raise_peak(c.peak_blocks,
             c.live_blocks.fetch_add(1, std::memory_order_relaxed) + 1);
  raise_peak(c.peak_bytes,
             c.live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes);
}

void InternalAlloc::note_free(TagCounters& c, std::size_t bytes) noexcept {
  c.live_blocks.fetch_sub(1, std::memory_order_relaxed);
  c.live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

void InternalAlloc::reconcile(Magazine& mag, AllocTag tag) noexcept {
  Magazine::Pending& p = mag.pending[static_cast<std::size_t>(tag)];
  if (p.allocs == 0 && p.blocks == 0 && p.bytes == 0) return;
  TagCounters& c = counters_[static_cast<std::size_t>(tag)];
  c.allocs.fetch_add(p.allocs, std::memory_order_relaxed);
  // Negative deltas ride two's-complement wraparound of the unsigned add.
  const auto blocks = static_cast<std::uint64_t>(p.blocks);
  const auto bytes = static_cast<std::uint64_t>(p.bytes);
  raise_peak(c.peak_blocks,
             c.live_blocks.fetch_add(blocks, std::memory_order_relaxed) +
                 blocks);
  raise_peak(c.peak_bytes,
             c.live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes);
  p = {};
}

InternalAlloc::FreeNode* InternalAlloc::carve_chunk(AllocTag tag, int cls) {
  const std::size_t slot = kClassSizes[static_cast<std::size_t>(cls)];
  void* chunk = ::operator new(kChunkBytes);
  if (tag_zeroes_chunks(tag)) std::memset(chunk, 0, kChunkBytes);
  {
    std::lock_guard guard(chunk_lock_);
    chunks_owned_.push_back(chunk);
  }
  chunks_count_.fetch_add(1, std::memory_order_relaxed);
  auto* bytes = static_cast<std::byte*>(chunk);
  const std::size_t slots = kChunkBytes / slot;
  FreeNode* head = nullptr;
  for (std::size_t i = 0; i < slots; ++i) {
    auto* node = reinterpret_cast<FreeNode*>(bytes + i * slot);
    node->next = head;
    head = node;
  }
  counters_[static_cast<std::size_t>(tag)].carved_blocks.fetch_add(
      slots, std::memory_order_relaxed);
  return head;
}

void InternalAlloc::refill(Magazine& mag, AllocTag tag, int cls) {
  // Chaos fail-point: the magazine-refill edge is where a real allocator
  // first observes memory pressure, so an injected fault throws the same
  // std::bad_alloc a failed carve_chunk would. It unwinds through the user
  // strand into the JoinFrame::eptr join protocol (fork2join completes the
  // join before rethrowing, so the pool stays consistent) and surfaces at
  // Scheduler::run. Protocol-section refills are suppressed (SuppressFaults)
  // and non-worker threads are never injected — see chaos.hpp.
  if (chaos::should_fail(chaos::Site::kAllocRefill)) throw std::bad_alloc{};
  const auto t = static_cast<std::size_t>(tag);
  const auto c = static_cast<std::size_t>(cls);
  reconcile(mag, tag);  // batch-exchange point: fold the stat deltas in
  counters_[t].refills.fetch_add(1, std::memory_order_relaxed);
  Shard& s = shard(tag, cls);
  {
    // Grab a batch from the shard first.
    std::lock_guard guard(s.lock);
    std::size_t moved = 0;
    while (s.head != nullptr && moved < kBatch) {
      FreeNode* node = s.head;
      s.head = node->next;
      --s.count;
      node->next = mag.head[t][c];
      mag.head[t][c] = node;
      ++moved;
    }
    mag.count[t][c] += static_cast<std::uint32_t>(moved);
    if (moved > 0) return;
  }
  // Shard empty: carve a fresh chunk on this thread — first touch puts the
  // pages on the allocating worker's node. The magazine takes one batch;
  // the remainder parks in the shard (dumping a whole chunk into the
  // magazine would blow past the high-water mark and drain-storm on the
  // very next free).
  FreeNode* head = carve_chunk(tag, cls);
  std::uint32_t taken = 0;
  while (head != nullptr && taken < kBatch) {
    FreeNode* node = head;
    head = node->next;
    node->next = mag.head[t][c];
    mag.head[t][c] = node;
    ++taken;
  }
  mag.count[t][c] += taken;
  if (head != nullptr) {
    std::size_t rest = 0;
    for (FreeNode* n = head; n != nullptr; n = n->next) ++rest;
    FreeNode* tail = head;
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard guard(s.lock);
    tail->next = s.head;
    s.head = head;
    s.count += rest;
  }
}

void InternalAlloc::drain(Magazine& mag, AllocTag tag, int cls,
                          std::size_t keep) {
  const auto t = static_cast<std::size_t>(tag);
  const auto c = static_cast<std::size_t>(cls);
  if (mag.count[t][c] <= keep) return;
  reconcile(mag, tag);  // batch-exchange point: fold the stat deltas in
  counters_[t].flushes.fetch_add(1, std::memory_order_relaxed);
  // Detach the surplus outside the lock, splice it in under the lock.
  FreeNode* batch_head = nullptr;
  std::size_t moved = 0;
  while (mag.count[t][c] > keep) {
    FreeNode* node = mag.head[t][c];
    mag.head[t][c] = node->next;
    --mag.count[t][c];
    node->next = batch_head;
    batch_head = node;
    ++moved;
  }
  if (batch_head == nullptr) return;
  FreeNode* batch_tail = batch_head;
  while (batch_tail->next != nullptr) batch_tail = batch_tail->next;
  Shard& s = shard(tag, cls);
  std::lock_guard guard(s.lock);
  batch_tail->next = s.head;
  s.head = batch_head;
  s.count += moved;
}

void* InternalAlloc::allocate_from_shard(AllocTag tag, int cls) {
  Shard& s = shard(tag, cls);
  {
    std::lock_guard guard(s.lock);
    if (s.head != nullptr) {
      FreeNode* node = s.head;
      s.head = node->next;
      --s.count;
      return node;
    }
  }
  // Carve, keep one block, park the rest in the shard.
  counters_[static_cast<std::size_t>(tag)].refills.fetch_add(
      1, std::memory_order_relaxed);
  FreeNode* head = carve_chunk(tag, cls);
  FreeNode* taken = head;
  head = head->next;
  std::size_t rest = 0;
  for (FreeNode* n = head; n != nullptr; n = n->next) ++rest;
  if (head != nullptr) {
    FreeNode* tail = head;
    while (tail->next != nullptr) tail = tail->next;
    std::lock_guard guard(s.lock);
    tail->next = s.head;
    s.head = head;
    s.count += rest;
  }
  return taken;
}

void* InternalAlloc::allocate(std::size_t bytes, AllocTag tag, Magazine* mag) {
  const auto t = static_cast<std::size_t>(tag);
  const int cls = size_class(bytes);
  if (cls < 0) {
    // Oversize: operator new FIRST (it may throw — real OOM or a test
    // double), then count; the stats must never record an allocation that
    // never happened. Tag-counted so the leak check and the mem: stats
    // cover oversize blocks too.
    void* p = ::operator new(bytes);
    note_alloc(counters_[t], bytes);
    return p;
  }
  if (mag == nullptr) {
    void* p = allocate_from_shard(tag, cls);  // may throw (carve_chunk OOM)
    note_alloc(counters_[t], kClassSizes[static_cast<std::size_t>(cls)]);
    return p;
  }
  CILKM_DCHECK(mag->owner == nullptr || mag->owner == this,
               "magazine used with two allocators");
  mag->owner = this;
  // Refill before the pending-delta stores: a refill may throw (carve_chunk
  // OOM, or an injected chaos fault), and the deltas must stay exception-
  // consistent.
  const auto c = static_cast<std::size_t>(cls);
  if (mag->head[t][c] == nullptr) refill(*mag, tag, cls);
  // Plain stores into the magazine's pending deltas: the hot path touches
  // no shared cache line (reconciled at the next batch exchange).
  Magazine::Pending& pend = mag->pending[t];
  ++pend.allocs;
  ++pend.blocks;
  pend.bytes += static_cast<std::int64_t>(
      kClassSizes[static_cast<std::size_t>(cls)]);
  FreeNode* node = mag->head[t][c];
  mag->head[t][c] = node->next;
  --mag->count[t][c];
  return node;
}

void InternalAlloc::deallocate(void* p, std::size_t bytes, AllocTag tag,
                               Magazine* mag) {
  if (p == nullptr) return;
  const auto t = static_cast<std::size_t>(tag);
  const int cls = size_class(bytes);
  if (cls < 0) {
    note_free(counters_[t], bytes);
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<FreeNode*>(p);
  if (mag == nullptr) {
    note_free(counters_[t], kClassSizes[static_cast<std::size_t>(cls)]);
    Shard& s = shard(tag, cls);
    std::lock_guard guard(s.lock);
    node->next = s.head;
    s.head = node;
    ++s.count;
    return;
  }
  CILKM_DCHECK(mag->owner == nullptr || mag->owner == this,
               "magazine used with two allocators");
  mag->owner = this;
  Magazine::Pending& pend = mag->pending[t];
  --pend.blocks;
  pend.bytes -= static_cast<std::int64_t>(
      kClassSizes[static_cast<std::size_t>(cls)]);
  const auto c = static_cast<std::size_t>(cls);
  node->next = mag->head[t][c];
  mag->head[t][c] = node;
  if (++mag->count[t][c] > kHighWater) {
    drain(*mag, tag, cls, kHighWater - kBatch);  // rebalance, Hoard-style
  }
}

void InternalAlloc::flush(Magazine& mag) {
  if (mag.owner == nullptr) return;
  CILKM_DCHECK(mag.owner == this, "flushing a foreign magazine");
  for (std::size_t t = 0; t < kNumTags; ++t) {
    reconcile(mag, static_cast<AllocTag>(t));
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (mag.head[t][c] != nullptr) {
        drain(mag, static_cast<AllocTag>(t), static_cast<int>(c), 0);
      }
    }
  }
}

void InternalAlloc::stats_sync() {
  Magazine* mag = tls_magazine();
  if (mag == nullptr || mag->owner != this) return;
  for (std::size_t t = 0; t < kNumTags; ++t) {
    reconcile(*mag, static_cast<AllocTag>(t));
  }
}

TagStats InternalAlloc::tag_stats(AllocTag tag) const noexcept {
  const TagCounters& c = counters_[static_cast<std::size_t>(tag)];
  TagStats out;
  out.live_blocks = c.live_blocks.load(std::memory_order_relaxed);
  out.peak_blocks = c.peak_blocks.load(std::memory_order_relaxed);
  out.live_bytes = c.live_bytes.load(std::memory_order_relaxed);
  out.peak_bytes = c.peak_bytes.load(std::memory_order_relaxed);
  out.allocs = c.allocs.load(std::memory_order_relaxed);
  out.refills = c.refills.load(std::memory_order_relaxed);
  out.flushes = c.flushes.load(std::memory_order_relaxed);
  out.carved_blocks = c.carved_blocks.load(std::memory_order_relaxed);
  return out;
}

std::size_t InternalAlloc::shard_cached(AllocTag tag, int cls) const {
  Shard& s = const_cast<InternalAlloc*>(this)->shard(tag, cls);
  std::lock_guard guard(s.lock);
  return s.count;
}

InternalAlloc::LeakReport InternalAlloc::leak_report() const {
  LeakReport report;
  for (std::size_t t = 0; t < kNumTags; ++t) {
    report.blocks[t] = counters_[t].live_blocks.load(std::memory_order_relaxed);
    report.bytes[t] = counters_[t].live_bytes.load(std::memory_order_relaxed);
    if (report.blocks[t] != 0) report.clean = false;
  }
  return report;
}

std::string InternalAlloc::LeakReport::describe() const {
  if (clean) return "no outstanding blocks";
  std::string out = "outstanding blocks:";
  for (std::size_t t = 0; t < kNumTags; ++t) {
    if (blocks[t] == 0) continue;
    out += ' ';
    out += to_string(static_cast<AllocTag>(t));
    out += '=';
    out += std::to_string(blocks[t]);
    out += " (";
    out += std::to_string(bytes[t]);
    out += " B)";
  }
  return out;
}

}  // namespace cilkm::mem
