// Deterministic fault injection for the runtime's resource and protocol
// edges. Each fail-point site consults a pedigree-keyed DotMix hash
// (util/dprng.hpp), so whether a given strand faults is a pure function of
// (chaos seed, site, pedigree): the same --chaos-seed injects the same
// faults at the same strands regardless of worker count, view-store policy,
// or steal schedule — exactly the replay property the SPAA'12 DPRNG gives
// workload draws, applied to failure testing.
//
// Sites come in two flavors:
//   - fault sites (kAllocRefill, kFiberAcquire, kDequePush): the consult
//     returns true and the caller takes its degradation path — allocator
//     refill throws std::bad_alloc into the JoinFrame::eptr join protocol,
//     fiber acquire falls back to running the frame on the scheduler's own
//     stack, deque push executes the child serially in place.
//   - delay sites (kStealDelay, kInstallDelay, kMergeDelay, kDepositDelay):
//     the consult spins for Config::delay_ns at a protocol point, widening
//     the THE/join race windows the way a preempted core would.
//
// Consults only happen on worker threads (external threads and the fuzzer's
// serial references are never injected), use the PURE hash (no leaf-rank
// bump), and so never perturb workload DPRNG streams: a run under chaos
// still verifies against its serial elision.
//
// Disarmed cost is one relaxed atomic load + branch per site (the same bar
// as the tracer's enabled() gate, pinned by bench/abl_chaos).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/pedigree.hpp"

namespace cilkm::chaos {

enum class Site : unsigned {
  kAllocRefill = 0,  // fault: internal-allocator magazine refill → bad_alloc
  kFiberAcquire,     // fault: fiber-stack acquire → degraded (stackless) run
  kDequePush,        // fault: deque push → child runs serially in place
  kStealDelay,       // delay: after a successful steal, before the launch
  kInstallDelay,     // delay: before a join installs its deposited views
  kMergeDelay,       // delay: before a view-set merge at a join
  kDepositDelay,     // delay: before a view-set deposit at a park
};

inline constexpr unsigned kNumSites = 7;

constexpr std::uint32_t site_bit(Site s) noexcept {
  return 1u << static_cast<unsigned>(s);
}

inline constexpr std::uint32_t kFaultSites = site_bit(Site::kAllocRefill) |
                                             site_bit(Site::kFiberAcquire) |
                                             site_bit(Site::kDequePush);
inline constexpr std::uint32_t kDelaySites = site_bit(Site::kStealDelay) |
                                             site_bit(Site::kInstallDelay) |
                                             site_bit(Site::kMergeDelay) |
                                             site_bit(Site::kDepositDelay);
inline constexpr std::uint32_t kAllSites = kFaultSites | kDelaySites;

const char* to_string(Site s) noexcept;

/// Parse a comma-separated site list ("alloc,fiber,push,steal,install,
/// merge,deposit", plus the groups "faults", "delays", "all") into a mask.
/// Returns false on an unknown name; *mask is untouched then.
bool parse_sites(const char* text, std::uint32_t* mask) noexcept;

struct Config {
  /// Per-consult injection probability in [0, 1]; >= 1 always fires.
  double p = 0.0;
  /// DPRNG seed for the site decisions; independent of workload seeds.
  std::uint64_t seed = 0;
  /// Which sites are live (site_bit mask).
  std::uint32_t sites = kAllSites;
  /// Spin length for delay sites.
  std::uint32_t delay_ns = 2000;
};

/// Arm injection with `cfg`. Call only while no Scheduler::run is in
/// flight; arming resets all site statistics.
void arm(const Config& cfg);
void disarm();
Config config();

/// Per-site statistics, written with relaxed atomics by the consulting
/// workers. `digest` is an order-independent fingerprint (a commutative sum
/// over the decision hashes of the consults that fired), so two runs
/// injected the SAME fault set iff their (injected, digest) pairs match —
/// regardless of the order the schedule visited the strands in.
struct SiteStats {
  std::uint64_t consults = 0;
  std::uint64_t injected = 0;
  std::uint64_t digest = 0;
};

SiteStats site_stats(Site s) noexcept;
void reset_stats() noexcept;

namespace detail {
extern std::atomic<bool> g_armed;
extern thread_local unsigned t_suppress;

bool consult_fail(Site s, const rt::PedigreeState& ped) noexcept;
bool consult_fail_here(Site s) noexcept;
void consult_delay(Site s, const rt::PedigreeState& ped) noexcept;
void consult_delay_here(Site s) noexcept;
}  // namespace detail

/// The hot-path gate: false (one relaxed load) whenever chaos is disarmed.
inline bool enabled() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Fault consult keyed on the calling strand's current pedigree. Forced
/// inline: fork2join's push consults it, and there it must stay the one
/// load and branch, not a call.
[[gnu::always_inline]] inline bool should_fail(Site s) noexcept {
  return enabled() && detail::consult_fail_here(s);
}

/// Fault consult keyed on an explicit pedigree — for scheduler-context
/// sites where current_strand().ped is not the faulting strand's (e.g. the
/// fiber acquire for a stolen frame is keyed on that frame's snapshot).
inline bool should_fail(Site s, const rt::PedigreeState& ped) noexcept {
  return enabled() && detail::consult_fail(s, ped);
}

/// Delay consult (spin Config::delay_ns when it fires).
inline void maybe_delay(Site s) noexcept {
  if (enabled()) detail::consult_delay_here(s);
}

inline void maybe_delay(Site s, const rt::PedigreeState& ped) noexcept {
  if (enabled()) detail::consult_delay(s, ped);
}

/// RAII fault suppression for protocol sections whose allocations an
/// injected throw could NOT unwind safely — merges/deposits/installs at
/// joins, the join-record allocation of a promoted frame, and the
/// fiber-header allocation in Worker::launch run inside the scheduler's
/// machinery, outside any JoinFrame::eptr catch, so a
/// bad_alloc there would escape into the join routines/scheduler_loop and
/// terminate. Fault sites check the (thread-local, nestable) counter before
/// hashing; delay sites are unaffected.
class SuppressFaults {
 public:
  SuppressFaults() noexcept { ++detail::t_suppress; }
  ~SuppressFaults() { --detail::t_suppress; }

  SuppressFaults(const SuppressFaults&) = delete;
  SuppressFaults& operator=(const SuppressFaults&) = delete;
};

}  // namespace cilkm::chaos
