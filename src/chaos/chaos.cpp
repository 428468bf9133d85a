#include "chaos/chaos.hpp"

#include <cstring>

#include "runtime/worker.hpp"
#include "util/dprng.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"
#include "util/timing.hpp"

namespace cilkm::chaos {
namespace {

/// Armed-state snapshot. Written only by arm()/disarm() (which the contract
/// restricts to quiescent moments — no run in flight), read by every
/// consult; the g_armed release store publishes it.
struct State {
  Config cfg;
  Dprng rng{0};
  /// Fire iff (decision_hash >> 11) < threshold53; 53 bits so the
  /// double→integer scaling is exact for every p in [0, 1).
  std::uint64_t threshold53 = 0;
  bool always = false;
};

State g_state;

/// Per-site salts folded into the pedigree hash so the seven sites draw
/// independent decision streams from one Γ table. Arbitrary odd constants.
constexpr std::uint64_t kSiteSalt[kNumSites] = {
    0x9e3779b97f4a7c15ULL, 0xc2b2ae3d27d4eb4fULL, 0x165667b19e3779f9ULL,
    0x27d4eb2f165667c5ULL, 0x85ebca77c2b2ae63ULL, 0xd6e8feb86659fd93ULL,
    0xa0761d6478bd642fULL,
};

std::atomic<std::uint64_t> g_consults[kNumSites];
std::atomic<std::uint64_t> g_injected[kNumSites];
std::atomic<std::uint64_t> g_digest[kNumSites];

constexpr const char* kSiteNames[kNumSites] = {
    "alloc", "fiber", "push", "steal", "install", "merge", "deposit",
};

/// The decision: salt the strand's pure DotMix hash per site, scatter once
/// more, compare against the probability threshold. Returns the scattered
/// hash through *decision so fired consults can fold it into the digest.
bool decide(Site s, const rt::PedigreeState& ped,
            std::uint64_t* decision) noexcept {
  std::uint64_t salted =
      g_state.rng.hash(ped) ^ kSiteSalt[static_cast<unsigned>(s)];
  const std::uint64_t mixed = splitmix64(salted);
  *decision = mixed;
  if (g_state.always) return true;
  return (mixed >> 11) < g_state.threshold53;
}

/// Common consult body once the armed gate has passed. Fault sites are
/// gated to worker threads (a serial reference or external caller is never
/// injected) and to unsuppressed contexts, BEFORE hashing: on scheduler-
/// context threads the thread-local pedigree may reference chain nodes on
/// stacks that are already gone, so suppressed consults must not walk it.
bool consult(Site s, const rt::PedigreeState& ped, bool fault) noexcept {
  const auto i = static_cast<unsigned>(s);
  if ((g_state.cfg.sites & site_bit(s)) == 0) return false;
  if (fault && detail::t_suppress != 0) return false;
  if (rt::Worker::current() == nullptr) return false;
  g_consults[i].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t decision = 0;
  if (!decide(s, ped, &decision)) return false;
  g_injected[i].fetch_add(1, std::memory_order_relaxed);
  g_digest[i].fetch_add(splitmix64(decision), std::memory_order_relaxed);
  return true;
}

void spin_ns(std::uint64_t ns) noexcept {
  const std::uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) cpu_relax();
}

}  // namespace

namespace detail {

std::atomic<bool> g_armed{false};
thread_local unsigned t_suppress = 0;

bool consult_fail(Site s, const rt::PedigreeState& ped) noexcept {
  return consult(s, ped, /*fault=*/true);
}

bool consult_fail_here(Site s) noexcept {
  // Order matters: the suppress/worker gates in consult() run before the
  // hash, so this current_strand() pedigree is only ever WALKED on a
  // worker thread executing a live strand.
  return consult(s, rt::current_strand().ped, /*fault=*/true);
}

void consult_delay(Site s, const rt::PedigreeState& ped) noexcept {
  if (consult(s, ped, /*fault=*/false)) spin_ns(g_state.cfg.delay_ns);
}

void consult_delay_here(Site s) noexcept {
  consult_delay(s, rt::current_strand().ped);
}

}  // namespace detail

const char* to_string(Site s) noexcept {
  return kSiteNames[static_cast<unsigned>(s)];
}

bool parse_sites(const char* text, std::uint32_t* mask) noexcept {
  std::uint32_t out = 0;
  const char* p = text;
  while (*p != '\0') {
    const char* end = p;
    while (*end != '\0' && *end != ',') ++end;
    const std::size_t len = static_cast<std::size_t>(end - p);
    const auto is = [&](const char* name) {
      return std::strlen(name) == len && std::strncmp(p, name, len) == 0;
    };
    if (is("all")) {
      out |= kAllSites;
    } else if (is("faults")) {
      out |= kFaultSites;
    } else if (is("delays")) {
      out |= kDelaySites;
    } else {
      bool matched = false;
      for (unsigned i = 0; i < kNumSites; ++i) {
        if (is(kSiteNames[i])) {
          out |= site_bit(static_cast<Site>(i));
          matched = true;
          break;
        }
      }
      if (!matched) return false;
    }
    p = (*end == ',') ? end + 1 : end;
  }
  if (out == 0) return false;
  *mask = out;
  return true;
}

void arm(const Config& cfg) {
  detail::g_armed.store(false, std::memory_order_relaxed);
  g_state.cfg = cfg;
  if (g_state.cfg.p < 0.0) g_state.cfg.p = 0.0;
  g_state.rng.reseed(cfg.seed);
  g_state.always = g_state.cfg.p >= 1.0;
  g_state.threshold53 = g_state.always
                            ? 0
                            : static_cast<std::uint64_t>(g_state.cfg.p *
                                                         9007199254740992.0);
  reset_stats();
  detail::g_armed.store(true, std::memory_order_release);
}

void disarm() { detail::g_armed.store(false, std::memory_order_release); }

Config config() { return g_state.cfg; }

SiteStats site_stats(Site s) noexcept {
  const auto i = static_cast<unsigned>(s);
  return {g_consults[i].load(std::memory_order_relaxed),
          g_injected[i].load(std::memory_order_relaxed),
          g_digest[i].load(std::memory_order_relaxed)};
}

void reset_stats() noexcept {
  for (unsigned i = 0; i < kNumSites; ++i) {
    g_consults[i].store(0, std::memory_order_relaxed);
    g_injected[i].store(0, std::memory_order_relaxed);
    g_digest[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace cilkm::chaos
