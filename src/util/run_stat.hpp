// Timing-sample statistics for the figure benches (bench/harness.hpp), and
// the strict integer parse behind every count and seed flag: the benches'
// flag_int and the cilkm_run workload driver's flags.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
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
/// these statistics behind the figure benches (via bench::repeat).
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

/// Strict integer parse: all of `text` must be one integer, decimal or
/// 0x-prefixed hex, that T can hold. It rejects what strtol and strtoull let
/// through: trailing garbage ("12abc"), a negative value for an unsigned T
/// ("-1", which strtoull wraps to 2^64-1), and a value past T's range
/// ("99999999999999999999", which they saturate and a cast then wraps).
template <typename T>
bool parse_int(std::string_view text, T* out) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  }
  const char* end = text.data() + text.size();
  T v{};
  const auto [stop, ec] = std::from_chars(text.data(), end, v, base);
  if (ec != std::errc{} || stop != end) return false;
  *out = v;
  return true;
}

}  // namespace cilkm
