// Timing-sample statistics and strict integer parsing, shared by the
// figure benches (bench/harness.hpp) and the cilkm_run workload driver.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

namespace cilkm {

struct RunStat {
  double mean_s = 0;
  double median_s = 0;
  double stddev_s = 0;
};

/// Median of a sample set (the value the console tables report: robust
/// against the occasional descheduled run on a shared host).
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// Mean/median/population-stddev of a sample set — the one definition of
/// these statistics behind the figure benches (via bench::repeat) and the
/// workload driver's per-cell samples.
inline RunStat stats_of(std::vector<double> samples) {
  RunStat out;
  if (samples.empty()) return out;
  const auto n = static_cast<double>(samples.size());
  for (const double s : samples) out.mean_s += s;
  out.mean_s /= n;
  for (const double s : samples) {
    out.stddev_s += (s - out.mean_s) * (s - out.mean_s);
  }
  out.stddev_s = std::sqrt(out.stddev_s / n);
  out.median_s = median(std::move(samples));
  return out;
}

/// Strict base-10 parse: the whole string must be one integer. Rejects the
/// silent results std::atol gives for garbage like "abc" or "12abc".
inline bool parse_long_strict(const char* text, long* out) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace cilkm
