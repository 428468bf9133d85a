// The runtime's unified internal allocator (paper Sections 5 and 7: Cilk-M
// structures all internal memory as per-worker local pools rebalanced
// against a global pool; cf. OpenCilk's runtime/internal-malloc design).
//
// One layer serves every internal consumer, keyed by size class × AllocTag:
//
//   tag             consumer                       block
//   kViews          reducer views (core/reducer)   16..256 B typically
//   kSpaPages       public SPA maps (page_pool)    4096 B, zeroed chunks
//   kHypermapNodes  HyperMap entry tables          384 B+ (class-rounded)
//   kFiberStacks    Fiber headers (StackPool)      ~128 B (stacks are mmap'd)
//   kFrames         JoinFrames (promoted spawns)   ~256 B
//   kGeneral        everything else
//
// Each thread holds a Magazine: free lists per (tag, class) exchanging
// kBatch-sized batches with one global pool, a spin-locked shard per
// (tag, class). Chunks are carved on the allocating thread, so first touch
// places their pages where that thread runs.
//
// Every tag keeps relaxed-atomic live/peak/refill counters (readable from
// any thread — the stats surface of cilkm_run's mem: rows), and the
// destructor runs a leak check in debug builds reporting outstanding blocks
// by tag.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/cache.hpp"
#include "util/spinlock.hpp"

namespace cilkm::mem {

/// What a block is for. Tags never share free lists: a recycled block can
/// only come back to the consumer class that freed it, which is what lets
/// kSpaPages guarantee the only-empty-pages-recycled invariant at the
/// allocator level.
enum class AllocTag : unsigned {
  kViews = 0,
  kSpaPages,
  kHypermapNodes,
  kFiberStacks,
  kFrames,
  kGeneral,
  kTagCount,
};

inline constexpr std::size_t kNumTags =
    static_cast<std::size_t>(AllocTag::kTagCount);

constexpr const char* to_string(AllocTag tag) noexcept {
  switch (tag) {
    case AllocTag::kViews: return "views";
    case AllocTag::kSpaPages: return "spa_pages";
    case AllocTag::kHypermapNodes: return "hypermap_nodes";
    case AllocTag::kFiberStacks: return "fiber_stacks";
    case AllocTag::kFrames: return "frames";
    case AllocTag::kGeneral: return "general";
    case AllocTag::kTagCount: break;
  }
  return "?";
}

/// Relaxed snapshot of one tag's counters. Bytes are class-rounded for
/// pooled blocks and exact for oversize fall-through allocations.
struct TagStats {
  std::uint64_t live_blocks = 0;   ///< allocated minus freed
  std::uint64_t peak_blocks = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t peak_bytes = 0;
  std::uint64_t allocs = 0;        ///< total allocations ever
  std::uint64_t refills = 0;       ///< magazine refills (shard or carve)
  std::uint64_t flushes = 0;       ///< magazine high-water drains + flush()
  std::uint64_t carved_blocks = 0; ///< blocks cut from fresh chunks
};

class InternalAlloc {
 public:
  static constexpr std::size_t kClassSizes[] = {16,  32,   64,   128, 256,
                                                512, 1024, 2048, 4096};
  static constexpr std::size_t kNumClasses = std::size(kClassSizes);
  static constexpr std::size_t kBatch = 16;
  static constexpr std::size_t kHighWater = 64;
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Class index serving `bytes`, or -1 for the operator-new fall-through
  /// (sizes above the largest class; still tag-counted).
  static constexpr int size_class(std::size_t bytes) noexcept {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      if (bytes <= kClassSizes[c]) return static_cast<int>(c);
    }
    return -1;
  }

 private:
  struct FreeNode {
    FreeNode* next;
  };

 public:
  /// A thread's local free lists, one per (tag, class). The process-wide
  /// instance() keeps one per thread automatically; tests construct their
  /// own and pass them explicitly. A magazine binds to the first
  /// InternalAlloc it is used with and flushes back to it on destruction.
  struct Magazine {
    Magazine() = default;
    ~Magazine();
    Magazine(const Magazine&) = delete;
    Magazine& operator=(const Magazine&) = delete;

   private:
    friend class InternalAlloc;
    /// Stat deltas accumulated with plain stores on the hot path and folded
    /// into the global atomics at every batch exchange — the pre-refactor
    /// pools had no per-op shared-line traffic and neither does this one.
    struct Pending {
      std::int64_t blocks = 0;
      std::int64_t bytes = 0;
      std::uint64_t allocs = 0;
    };
    InternalAlloc* owner = nullptr;
    FreeNode* head[kNumTags][kNumClasses] = {};
    std::uint32_t count[kNumTags][kNumClasses] = {};
    Pending pending[kNumTags] = {};
  };

  InternalAlloc() = default;
  ~InternalAlloc();

  InternalAlloc(const InternalAlloc&) = delete;
  InternalAlloc& operator=(const InternalAlloc&) = delete;

  /// The process-wide allocator every runtime layer routes through.
  static InternalAlloc& instance();

  /// Allocate/free through the calling thread's magazine (the instance()
  /// hot path; standalone instances fall back to the shard directly).
  void* allocate(std::size_t bytes, AllocTag tag) {
    return allocate(bytes, tag, tls_magazine());
  }
  void deallocate(void* p, std::size_t bytes, AllocTag tag) {
    deallocate(p, bytes, tag, tls_magazine());
  }

  /// Explicit-magazine variants (tests, non-TLS consumers). `mag` may be
  /// nullptr: the block then moves straight to/from the global shard.
  void* allocate(std::size_t bytes, AllocTag tag, Magazine* mag);
  void deallocate(void* p, std::size_t bytes, AllocTag tag, Magazine* mag);

  /// Typed convenience: tagged pool-backed construct/destroy.
  template <typename T, typename... Args>
  T* create(AllocTag tag, Args&&... args) {
    void* p = allocate(sizeof(T), tag);
    try {
      return ::new (p) T(static_cast<Args&&>(args)...);
    } catch (...) {
      deallocate(p, sizeof(T), tag);
      throw;
    }
  }
  template <typename T>
  void destroy(AllocTag tag, T* p) {
    p->~T();
    deallocate(p, sizeof(T), tag);
  }

  /// Drain every list of `mag` to the global shards (worker teardown).
  void flush(Magazine& mag);

  /// Relaxed snapshot. Blocks moving through magazines fold their stat
  /// deltas in at batch-exchange granularity (refill/drain/flush/teardown);
  /// call stats_sync() first for exactness over the calling thread's
  /// traffic. Magazine-less and oversize paths update globally per op.
  TagStats tag_stats(AllocTag tag) const noexcept;

  /// Fold the calling thread's in-magazine stat deltas into the global
  /// counters now (stats readers, tests, report emission).
  void stats_sync();

  /// Total chunks carved so far (diagnostics; all tags).
  std::size_t chunks_allocated() const noexcept {
    return chunks_count_.load(std::memory_order_relaxed);
  }

  /// Blocks sitting free in the global (tag, class) shard — a test hook
  /// for batching assertions.
  std::size_t shard_cached(AllocTag tag, int cls) const;

  /// Outstanding (allocated, never freed) blocks by tag. Clean iff every
  /// tag is balanced. The destructor runs this in debug builds and reports
  /// leaks to stderr; tests call it directly to prove detection.
  struct LeakReport {
    std::array<std::uint64_t, kNumTags> blocks{};
    std::array<std::uint64_t, kNumTags> bytes{};
    bool clean = true;
    std::string describe() const;
  };
  LeakReport leak_report() const;

 private:
  struct alignas(kCacheLineSize) Shard {
    SpinLock lock;
    FreeNode* head = nullptr;
    std::size_t count = 0;
  };

  struct TagCounters {
    std::atomic<std::uint64_t> live_blocks{0};
    std::atomic<std::uint64_t> peak_blocks{0};
    std::atomic<std::uint64_t> live_bytes{0};
    std::atomic<std::uint64_t> peak_bytes{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> carved_blocks{0};
  };

  /// kSpaPages blocks come from zeroed chunks: a freshly carved page is
  /// already the all-null SpaPage the acquire invariant wants, and because
  /// tags never share free lists only spa::release_page (which enforces
  /// emptiness) ever recycles into this tag.
  static constexpr bool tag_zeroes_chunks(AllocTag tag) noexcept {
    return tag == AllocTag::kSpaPages;
  }

  Magazine* tls_magazine();
  Shard& shard(AllocTag tag, int cls) noexcept {
    return shards_[static_cast<std::size_t>(tag)]
                  [static_cast<std::size_t>(cls)];
  }

  void refill(Magazine& mag, AllocTag tag, int cls);
  void drain(Magazine& mag, AllocTag tag, int cls, std::size_t keep);
  void reconcile(Magazine& mag, AllocTag tag) noexcept;
  FreeNode* carve_chunk(AllocTag tag, int cls);
  void* allocate_from_shard(AllocTag tag, int cls);

  static void note_alloc(TagCounters& c, std::size_t bytes) noexcept;
  static void note_free(TagCounters& c, std::size_t bytes) noexcept;

  Shard shards_[kNumTags][kNumClasses];
  std::array<TagCounters, kNumTags> counters_;

  SpinLock chunk_lock_;
  std::vector<void*> chunks_owned_;
  std::atomic<std::size_t> chunks_count_{0};
};

}  // namespace cilkm::mem
