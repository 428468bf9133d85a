// Reducer hyperobjects (paper Sections 2, 5, 6): the public reducer<Monoid,
// Policy> template, with three interchangeable runtime mechanisms selected
// at compile time per reducer — each one an implementation of the ViewStore
// contract (views/view_store.hpp):
//
//   mm_policy        the paper's contribution: thread-local indirection
//                    through the (emulated) TLMM region. The reducer stores
//                    its tlmm_addr (a 16-byte view-array slot offset valid
//                    in every worker's region); a lookup is
//                        load tlmm_addr -> load slot -> predictable branch.
//
//   hypermap_policy  the Cilk Plus baseline: a per-worker hash table keyed
//                    by the reducer's address.
//
//   flat_policy      ablation upper bound: a dense per-worker array indexed
//                    by a globally allocated reducer id — no hashing, no
//                    mmap emulation; a lookup is a bounds check and a load.
//
// All mechanisms share the ViewOps ABI, the view-transferal/hypermerge
// engine in the views layer, and these semantics: the value observed after
// quiescence equals the serial-execution result whenever the monoid's
// reduce operation is associative.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "core/view_ops.hpp"
#include "mem/internal_alloc.hpp"
#include "runtime/worker.hpp"
#include "spa/slot_alloc.hpp"
#include "tlmm/region.hpp"
#include "util/timing.hpp"
#include "views/flat_registry.hpp"
#include "views/view_store.hpp"

namespace cilkm {

/// A reducer is defined in terms of an algebraic monoid (T, ⊗, e):
/// identity() returns e, and reduce(a, b) performs a = a ⊗ b (it may pilfer
/// b's resources; b is destroyed by the runtime afterwards). The runtime
/// guarantees a deterministic, serial-equivalent result iff ⊗ is
/// associative; commutativity is NOT required.
template <typename M>
concept MonoidFor = requires(M m, typename M::value_type& a,
                             typename M::value_type& b) {
  typename M::value_type;
  { m.identity() } -> std::convertible_to<typename M::value_type>;
  m.reduce(a, b);
};

struct mm_policy {};
struct hypermap_policy {};
struct flat_policy {};

/// Display/series names for the policies, used by benches and reports.
template <typename Policy>
struct policy_traits;
template <>
struct policy_traits<mm_policy> {
  static constexpr const char* name = "mm";
};
template <>
struct policy_traits<hypermap_policy> {
  static constexpr const char* name = "hypermap";
};
template <>
struct policy_traits<flat_policy> {
  static constexpr const char* name = "flat";
};

template <MonoidFor M, typename Policy = mm_policy>
class reducer {
 public:
  using value_type = typename M::value_type;
  using monoid_type = M;
  using policy_type = Policy;
  static constexpr bool is_memory_mapped = std::is_same_v<Policy, mm_policy>;
  static constexpr bool is_flat = std::is_same_v<Policy, flat_policy>;
  static constexpr bool is_hypermap =
      std::is_same_v<Policy, hypermap_policy>;
  static_assert(is_memory_mapped || is_flat || is_hypermap,
                "Policy must be mm_policy, hypermap_policy, or flat_policy");

  reducer() : reducer(M{}) {}

  explicit reducer(M monoid)
      : monoid_(std::move(monoid)), leftmost_(monoid_.identity()) {
    init();
  }

  /// Start from an initial value (the pre-existing contents of the leftmost
  /// view, e.g. a non-empty list being appended to).
  reducer(M monoid, value_type initial)
      : monoid_(std::move(monoid)), leftmost_(std::move(initial)) {
    init();
  }

  ~reducer() {
    // Fold any view the destroying worker still holds, then release the
    // key. Destroying a reducer while logically-parallel updates to it are
    // outstanding is a precondition violation, as in Cilk Plus.
    if (rt::Worker* w = rt::Worker::current()) {
      void* view = nullptr;
      if constexpr (is_memory_mapped) {
        view = w->views().spa().extract(tlmm_addr_);
      } else if constexpr (is_flat) {
        view = w->views().flat().extract(flat_id_);
      } else {
        view = w->views().hypermap().extract(this);
      }
      if (view != nullptr) collapse_view(static_cast<value_type*>(view));
    }
    if constexpr (is_memory_mapped) {
      rt::Worker* w = rt::Worker::current();
      spa::SlotAllocator::instance().free(
          tlmm_addr_, w ? &w->views().spa().slot_cache() : nullptr);
    } else if constexpr (is_flat) {
      views::FlatIdAllocator::instance().free(flat_id_);
    }
  }

  reducer(const reducer&) = delete;
  reducer& operator=(const reducer&) = delete;

  /// The local view of the executing strand — the hot operation the paper's
  /// Figures 1 and 6 measure. Outside a scheduler run this is the leftmost
  /// view itself (serial semantics).
  value_type& view() {
    if constexpr (is_memory_mapped) {
      std::byte* base = tlmm::tls_region_base;
      if (base != nullptr) [[likely]] {
        auto* slot = reinterpret_cast<spa::ViewSlot*>(base + tlmm_addr_);
        if (slot->view != nullptr) [[likely]] {
          return *static_cast<value_type*>(slot->view);
        }
        return *miss_mm();
      }
      return leftmost_;
    } else if constexpr (is_flat) {
      rt::Worker* w = rt::Worker::current();
      if (w != nullptr) [[likely]] {
        if (void* v = w->views().flat().lookup(flat_id_)) [[likely]] {
          return *static_cast<value_type*>(v);
        }
        return *miss_flat(w);
      }
      return leftmost_;
    } else {
      rt::Worker* w = rt::Worker::current();
      if (w != nullptr) [[likely]] {
        if (auto* entry = w->views().hypermap().lookup(this)) [[likely]] {
          return *static_cast<value_type*>(entry->view);
        }
        return *miss_hypermap(w);
      }
      return leftmost_;
    }
  }

  value_type& operator*() { return view(); }
  value_type* operator->() { return &view(); }

  /// The reducer's value. After quiescence (outside runs) this is the exact
  /// serial-execution result; from inside a run it is the current strand's
  /// local view, as in Cilk Plus.
  value_type& get_value() { return view(); }

  /// Replace the value (quiescent context only).
  void set_value(value_type v) {
    CILKM_CHECK(rt::Worker::current() == nullptr,
                "set_value must be called outside parallel execution");
    leftmost_ = std::move(v);
  }

  /// Move the final value out (quiescent context only).
  value_type move_value() {
    CILKM_CHECK(rt::Worker::current() == nullptr,
                "move_value must be called outside parallel execution");
    return std::move(leftmost_);
  }

  const M& monoid() const noexcept { return monoid_; }

  /// The reducer's slot offset in the emulated TLMM region (mm policy).
  std::uint64_t tlmm_addr() const noexcept { return tlmm_addr_; }

  /// The reducer's dense id in the flat view store (flat policy).
  std::uint32_t flat_id() const noexcept { return flat_id_; }

 private:
  void init() {
    ops_.create_identity = &s_create_identity;
    ops_.reduce = &s_reduce;
    ops_.destroy = &s_destroy;
    ops_.collapse = &s_collapse;
    ops_.reducer = this;
    if constexpr (is_memory_mapped) {
      rt::Worker* w = rt::Worker::current();
      tlmm_addr_ = spa::SlotAllocator::instance().allocate(
          w ? &w->views().spa().slot_cache() : nullptr);
    } else if constexpr (is_flat) {
      flat_id_ = views::FlatIdAllocator::instance().allocate();
    }
  }

  // Views live in the internal allocator's kViews pool (per-worker
  // magazines): view creation dominates the reduce overhead (paper
  // Figure 8), so its allocation path avoids the general-purpose heap.
  template <typename... Args>
  static value_type* new_view(Args&&... args) {
    return mem::InternalAlloc::instance().create<value_type>(
        mem::AllocTag::kViews, static_cast<Args&&>(args)...);
  }
  static void delete_view(value_type* view) {
    mem::InternalAlloc::instance().destroy(mem::AllocTag::kViews, view);
  }

  value_type* make_identity(rt::Worker* w) {
    ScopedTimerNs timer(w->stats()[StatCounter::kViewCreateNs]);
    ++w->stats()[StatCounter::kViewsCreated];
    return new_view(monoid_.identity());
  }

  value_type* miss_mm() {
    rt::Worker* w = rt::Worker::current();
    CILKM_CHECK(w != nullptr, "TLMM region set but no current worker");
    value_type* view = make_identity(w);
    w->views().spa().install(tlmm_addr_, view, &ops_);
    return view;
  }

  value_type* miss_flat(rt::Worker* w) {
    value_type* view = make_identity(w);
    w->views().flat().install(flat_id_, view, &ops_);
    return view;
  }

  value_type* miss_hypermap(rt::Worker* w) {
    value_type* view = make_identity(w);
    w->views().hypermap().install(this, view, &ops_);
    return view;
  }

  void collapse_view(value_type* view) {
    monoid_.reduce(leftmost_, *view);
    delete_view(view);
  }

  static void* s_create_identity(void* r) {
    auto* self = static_cast<reducer*>(r);
    rt::Worker* w = rt::Worker::current();
    return w ? self->make_identity(w)
             : new_view(self->monoid_.identity());
  }
  static void s_reduce(void* r, void* left, void* right) {
    auto* self = static_cast<reducer*>(r);
    auto* l = static_cast<value_type*>(left);
    auto* rv = static_cast<value_type*>(right);
    self->monoid_.reduce(*l, *rv);
    delete_view(rv);
  }
  static void s_destroy(void*, void* view) {
    delete_view(static_cast<value_type*>(view));
  }
  static void s_collapse(void* r, void* view) {
    static_cast<reducer*>(r)->collapse_view(static_cast<value_type*>(view));
  }

  M monoid_;
  value_type leftmost_;
  std::uint64_t tlmm_addr_ = 0;  // mm policy key
  std::uint32_t flat_id_ = 0;    // flat policy key
  ViewOps ops_{};
};

}  // namespace cilkm
