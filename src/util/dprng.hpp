// Deterministic parallel random number generation by pedigree hashing — the
// DotMix scheme of Leiserson, Schardl & Sukha (SPAA'12 "Deterministic
// Parallel Random-Number Generation for Dynamic-Multithreading Platforms").
// A draw hashes the calling strand's spawn pedigree (runtime/pedigree.hpp),
// so its value is a pure function of (seed, pedigree): identical at every
// worker count, view-store policy and steal schedule, and identical to the
// serial elision. This is what lets randomized workloads double as
// determinism regression tests — a failing draw sequence replays from the
// seed alone.
//
// DotMix, concretely: compress the rank vector [r_leaf, …, r_root] into one
// word with a seeded dot product modulo the prime p = 2^64 − 59,
//
//     c = Σ_i (r_i + 1) · Γ_i  (mod p),   Γ_i uniform in [1, p),
//
// then scatter the compressed value with 4 rounds of the RC6-style mixer
// x ← x·(2x+1) followed by a half-word rotation. Distinct pedigrees
// collide in the compression with probability < depth/p, and the mixing
// rounds de-correlate adjacent pedigrees.
//
// A draw also BUMPS the leaf rank (pedigree scoping, per the paper), so
// consecutive draws on one strand have distinct pedigrees; the bump
// participates in the ordinary rank discipline, so draws and spawns share
// one deterministic serial-order rank stream.
#pragma once

#include <cstdint>

#include "runtime/pedigree.hpp"
#include "util/rng.hpp"

namespace cilkm {

/// DotMix pedigree-hashing generator. The object holds only seed-derived
/// constants (the Γ table and an offset); all mutable state is the calling
/// strand's pedigree, so one Dprng may be shared by every worker without
/// synchronization.
class Dprng {
 public:
  /// Γ-table length. Pedigrees deeper than this wrap their coefficient
  /// index; determinism is unaffected (a strand's depth is fixed), only the
  /// collision bound degrades for computations nested > 128 spawns deep.
  static constexpr unsigned kMaxDepth = 128;

  /// The compression prime, 2^64 − 59 (the largest 64-bit prime).
  static constexpr std::uint64_t kPrime = 0xffffffffffffffc5ULL;

  explicit Dprng(std::uint64_t seed = kDefaultSeed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    seed_ = seed;
    std::uint64_t state = seed ^ 0x9e3779b97f4a7c15ULL;
    offset_ = splitmix64(state) % kPrime;
    for (auto& gamma : gamma_) {
      // Uniform in [1, p): zero would erase its pedigree position.
      do {
        gamma = splitmix64(state) % kPrime;
      } while (gamma == 0);
    }
  }

  std::uint64_t seed() const noexcept { return seed_; }

  /// Draw one value: hash the current pedigree, then bump the leaf rank so
  /// the next draw (or spawn) on this strand sees a fresh pedigree.
  std::uint64_t next() noexcept {
    rt::PedigreeState& ped = rt::current_strand().ped;
    const std::uint64_t value = hash(ped);
    ++ped.rank;
    return value;
  }

  /// Uniform value in [0, bound) (Lemire reduction), drawn via next().
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

  /// The pure pedigree hash, no rank bump. Exposed for the pedigree
  /// invariant tests (test_pedigree.cpp), which compare hash streams across
  /// schedules without perturbing them.
  std::uint64_t hash(const rt::PedigreeState& ped) const noexcept {
    // Each term is < 2^64, so the 128-bit accumulator cannot overflow for
    // any realizable pedigree depth; one reduction at the end suffices.
    unsigned __int128 sum = offset_;
    sum += mulmod(ped.rank + 1, gamma_[0]);
    unsigned depth = 1;
    for (const rt::PedigreeNode* n = ped.parent; n != nullptr;
         n = n->parent, ++depth) {
      sum += mulmod(n->rank + 1, gamma_[depth & (kMaxDepth - 1)]);
    }
    return mix(static_cast<std::uint64_t>(sum % kPrime));
  }

 private:
  static std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) noexcept {
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a) * b % kPrime);
  }

  /// 4 rounds of x ← x·(2x+1) mod 2^64 then rotate by 32: the quadratic is
  /// a permutation of Z_2^64 whose high half mixes thoroughly; the rotation
  /// exposes it to the next round.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    for (int round = 0; round < 4; ++round) {
      x = x * (2 * x + 1);
      x = (x << 32) | (x >> 32);
    }
    return x;
  }

  static_assert((kMaxDepth & (kMaxDepth - 1)) == 0,
                "depth wrap relies on kMaxDepth being a power of two");

  std::uint64_t seed_ = 0;
  std::uint64_t offset_ = 0;
  std::uint64_t gamma_[kMaxDepth];
};

}  // namespace cilkm
