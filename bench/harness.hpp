// Shared benchmark harness: repetition with mean/median/stddev, strict
// flag parsing, and the microbenchmark kernels of paper Figure 4 (add-n /
// min-n / max-n and the add-base-n control), parameterised over the reducer
// view-store policy. Each program prints its figure as a console table.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "util/run_stat.hpp"
#include "util/timing.hpp"

namespace bench {

/// Run `body` `reps` times; returns mean, median, and standard deviation of
/// wall time.
template <typename F>
cilkm::RunStat repeat(int reps, F&& body) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = cilkm::now_ns();
    body();
    const auto t1 = cilkm::now_ns();
    samples.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  return cilkm::stats_of(std::move(samples));
}

/// Run `body` under `sched` `reps` times — one sched.run() per rep on the
/// persistent pool. warm_up() first, so every sample times the parallel
/// mechanism (wake, steal, reduce, quiesce) and none pays thread creation.
template <typename F>
cilkm::RunStat repeat(cilkm::Scheduler& sched, int reps, F&& body) {
  sched.warm_up();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = cilkm::now_ns();
    sched.run([&] { body(); });
    const auto t1 = cilkm::now_ns();
    samples.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  return cilkm::stats_of(std::move(samples));
}

/// The flag names flag_int has been asked for, in call order: the flags
/// this program reads.
inline std::vector<const char*>& flags_read() {
  static std::vector<const char*> names;
  return names;
}

/// Integer flag lookup into a T. A named flag whose value is missing, not
/// one integer, out of T's range or below `min` is a hard error (exit 2)
/// rather than a silently substituted default (every bench flag is a count
/// or a size; every --reps passes min 1).
template <typename T>
T flag_int(int argc, char** argv, const char* name, T def, T min = 0) {
  flags_read().push_back(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name);
      std::exit(2);
    }
    T v{};
    if (!cilkm::parse_int(argv[i + 1], &v) || v < min) {
      std::fprintf(stderr,
                   "bad value '%s' for %s (want an integer in [%lld, %llu])\n",
                   argv[i + 1], name, static_cast<long long>(min),
                   static_cast<unsigned long long>(
                       std::numeric_limits<T>::max()));
      std::exit(2);
    }
    return v;
  }
  return def;
}

/// Call after the last flag_int: any argument that is not a flag read there
/// (or its value) is a hard error (exit 2) naming the flags the program
/// accepts, so a flag meant for another bench cannot silently leave the
/// default input in place.
inline void reject_unknown_flags(int argc, char** argv) {
  const std::vector<const char*>& known = flags_read();
  for (int i = 1; i < argc; ++i) {
    const bool read =
        std::any_of(known.begin(), known.end(),
                    [&](const char* k) { return std::strcmp(argv[i], k) == 0; });
    if (read) {
      ++i;  // its value, already checked by flag_int
      continue;
    }
    std::fprintf(stderr, "unknown flag '%s'; %s accepts", argv[i], argv[0]);
    for (const char* k : known) std::fprintf(stderr, " %s", k);
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

// ---------------------------------------------------------------------------
// Paper Figure 4 microbenchmark kernels.
//
// add-n: summing 1..x into n add-reducers in parallel.
// min-n/max-n: processing x pseudorandom values in parallel, accumulating
//   the min/max into n reducers.
// For each, x is chosen by the caller so that the number of lookups is the
// same across n (the paper's setup).
// ---------------------------------------------------------------------------

inline std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

template <typename Policy>
struct MicroBench {
  /// One lookup+update per iteration, reducer chosen round-robin. A nonzero
  /// yield_period inserts sched_yield points: on an oversubscribed host this
  /// provokes the preemption-driven steals that 16 real cores would produce
  /// organically, so the reduce-overhead bench (Figures 7–8) sees a
  /// realistic steal rate. Execution-time benches keep it at 0.
  static void add_n(unsigned n, std::uint64_t x, std::int64_t grain,
                    std::int64_t yield_period = 0) {
    std::vector<std::unique_ptr<cilkm::reducer_opadd<std::uint64_t, Policy>>> r;
    r.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      r.push_back(
          std::make_unique<cilkm::reducer_opadd<std::uint64_t, Policy>>());
    }
    const std::uint64_t mask = n - 1;  // n is a power of two
    cilkm::parallel_for(0, static_cast<std::int64_t>(x), grain,
                        [&](std::int64_t i) {
                          *(*r[static_cast<std::size_t>(i) & mask]) += 1;
                          if (yield_period != 0 && i % yield_period == 0) {
                            std::this_thread::yield();
                          }
                        });
    // Consume results so the work cannot be elided.
    std::uint64_t total = 0;
    for (auto& red : r) total += red->get_value();
    if (total != x) std::abort();
  }

  static void min_n(unsigned n, std::uint64_t x, std::int64_t grain) {
    std::vector<std::unique_ptr<cilkm::reducer_min<std::uint64_t, Policy>>> r;
    r.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      r.push_back(
          std::make_unique<cilkm::reducer_min<std::uint64_t, Policy>>());
    }
    const std::uint64_t mask = n - 1;
    cilkm::parallel_for(0, static_cast<std::int64_t>(x), grain,
                        [&](std::int64_t i) {
                          const std::uint64_t v = mix(static_cast<std::uint64_t>(i));
                          auto& view = r[static_cast<std::size_t>(i) & mask]->view();
                          if (v < view) view = v;
                        });
    std::uint64_t lo = ~0ull;
    for (auto& red : r) lo = std::min(lo, red->get_value());
    if (lo == ~0ull) std::abort();
  }

  static void max_n(unsigned n, std::uint64_t x, std::int64_t grain) {
    std::vector<std::unique_ptr<cilkm::reducer_max<std::uint64_t, Policy>>> r;
    r.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      r.push_back(
          std::make_unique<cilkm::reducer_max<std::uint64_t, Policy>>());
    }
    const std::uint64_t mask = n - 1;
    cilkm::parallel_for(0, static_cast<std::int64_t>(x), grain,
                        [&](std::int64_t i) {
                          const std::uint64_t v = mix(static_cast<std::uint64_t>(i));
                          auto& view = r[static_cast<std::size_t>(i) & mask]->view();
                          if (v > view) view = v;
                        });
    std::uint64_t hi = 0;
    for (auto& red : r) hi = std::max(hi, red->get_value());
    if (hi == 0) std::abort();
  }
};

/// add-base-n: identical loop shape but updating a plain array — the
/// control that isolates lookup overhead (paper Figure 6).
inline void add_base_n(unsigned n, std::uint64_t x, std::int64_t grain) {
  std::vector<std::uint64_t> cells(n, 0);
  volatile std::uint64_t* raw = cells.data();
  const std::uint64_t mask = n - 1;
  cilkm::parallel_for(0, static_cast<std::int64_t>(x), grain,
                      [&](std::int64_t i) {
                        raw[static_cast<std::size_t>(i) & mask] =
                            raw[static_cast<std::size_t>(i) & mask] + 1;
                      });
  std::uint64_t total = 0;
  for (unsigned i = 0; i < n; ++i) total += raw[i];
  if (total != x) std::abort();
}

}  // namespace bench
