// The hypermap reducer-view map of Cilk++/Cilk Plus (paper Section 3): a
// worker-local hash table mapping a reducer's address to its local view.
// Open addressing with linear probing; the table starts small and expands,
// so lookups cost a hash plus a probe chain and insertions occasionally
// trigger an expansion — the overheads the paper's Figures 6 and 7 measure
// against the memory-mapping approach.
//
// View transferal in this scheme is cheap by design ("switching a few
// pointers"): a deposit simply moves the HyperMap object.
#pragma once

#include <cstdint>
#include <utility>

#include "core/view_ops.hpp"
#include "mem/internal_alloc.hpp"
#include "util/assert.hpp"

namespace cilkm::hypermap {

struct Entry {
  const void* key = nullptr;  // reducer address
  void* view = nullptr;
  const ViewOps* ops = nullptr;
};

class HyperMap {
 public:
  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  HyperMap() = default;
  HyperMap(HyperMap&& other) noexcept { swap(other); }
  HyperMap& operator=(HyperMap&& other) noexcept {
    if (this != &other) {
      free_table(table_, capacity_);
      table_ = nullptr;
      capacity_ = size_ = 0;
      swap(other);
    }
    return *this;
  }
  HyperMap(const HyperMap&) = delete;
  HyperMap& operator=(const HyperMap&) = delete;

  ~HyperMap() { free_table(table_, capacity_); }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// Find the entry for `key`, or nullptr. The hot lookup path.
  Entry* lookup(const void* key) noexcept {
    if (capacity_ == 0) return nullptr;
    Entry& e = table_[probe(key)];
    return e.key == key ? &e : nullptr;
  }

  /// Insert a view for `key`; the key must NOT be present. The precondition
  /// is enforced in every build mode: a duplicate insert would corrupt
  /// size_ and leak the old view, and the probe walk reads each key anyway,
  /// so the check is free.
  void insert(const void* key, void* view, const ViewOps* ops) {
    if (size_ + 1 > capacity_ - capacity_ / 4) expand();
    const std::size_t i = probe(key);
    CILKM_CHECK(table_[i].key == nullptr, "duplicate hypermap insertion");
    table_[i] = Entry{key, view, ops};
    ++size_;
  }

  /// Remove the entry for `key` (reducer destruction mid-scope). Uses
  /// backward-shift deletion to keep probe chains intact.
  void erase(const void* key) noexcept {
    Entry* e = lookup(key);
    if (e == nullptr) return;
    const std::size_t mask = capacity_ - 1;
    std::size_t hole = static_cast<std::size_t>(e - table_);
    std::size_t i = (hole + 1) & mask;
    while (table_[i].key != nullptr) {
      const std::size_t home = hash(table_[i].key) & mask;
      // Move the entry back if its home position lies at or "before" the
      // hole along the probe path.
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        table_[hole] = table_[i];
        hole = i;
      }
      i = (i + 1) & mask;
    }
    table_[hole] = Entry{};
    --size_;
  }

  template <typename Visitor>
  void for_each(Visitor&& visit) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (table_[i].key != nullptr) visit(table_[i]);
    }
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < capacity_; ++i) table_[i] = Entry{};
    size_ = 0;
  }

  void swap(HyperMap& other) noexcept {
    std::swap(table_, other.table_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
  }

  /// The key hash (SplitMix64 finalizer over the pointer bits). Public so
  /// tests can construct adversarial probe chains deterministically.
  static std::size_t hash(const void* key) noexcept {
    std::uint64_t z = reinterpret_cast<std::uintptr_t>(key);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }

 private:

  /// Walk `key`'s probe chain: the index of its entry if present, else of
  /// the first empty slot where it would be inserted. capacity_ != 0.
  std::size_t probe(const void* key) const noexcept {
    const std::size_t mask = capacity_ - 1;
    std::size_t i = hash(key) & mask;
    while (table_[i].key != nullptr && table_[i].key != key) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Rehash path only: keys come from the old table, so they are unique by
  /// construction and the duplicate check can stay debug-only here.
  void insert_nogrow(const void* key, void* view, const ViewOps* ops) noexcept {
    const std::size_t i = probe(key);
    CILKM_DCHECK(table_[i].key == nullptr, "duplicate hypermap insertion");
    table_[i] = Entry{key, view, ops};
    ++size_;
  }

  void expand() {
    const std::size_t new_cap = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
    Entry* old_table = table_;
    const std::size_t old_cap = capacity_;
    table_ = alloc_table(new_cap);
    capacity_ = new_cap;
    size_ = 0;
    for (std::size_t i = 0; i < old_cap; ++i) {
      if (old_table[i].key != nullptr) {
        insert_nogrow(old_table[i].key, old_table[i].view, old_table[i].ops);
      }
    }
    free_table(old_table, old_cap);
  }

  /// Entry tables come from the tagged internal allocator. A deposited map
  /// moves between workers and is merged (and its table freed) wherever the
  /// join lands, so the cross-worker free path is the allocator's problem,
  /// not this class's.
  static Entry* alloc_table(std::size_t cap) {
    void* p = mem::InternalAlloc::instance().allocate(
        cap * sizeof(Entry), mem::AllocTag::kHypermapNodes);
    Entry* table = static_cast<Entry*>(p);
    for (std::size_t i = 0; i < cap; ++i) ::new (&table[i]) Entry{};
    return table;
  }
  static void free_table(Entry* table, std::size_t cap) noexcept {
    if (table == nullptr) return;
    mem::InternalAlloc::instance().deallocate(table, cap * sizeof(Entry),
                                              mem::AllocTag::kHypermapNodes);
  }

  Entry* table_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cilkm::hypermap
