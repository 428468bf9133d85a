// Parallel histogram over a reducer array: one add-reducer per bucket (the
// classic "reducer array" pattern), plus a max-reducer tracking the largest
// single value seen. Stresses many simultaneously-live reducers of the same
// policy — wide SPA pages and big hypermaps.
#include <cstdint>
#include <memory>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

constexpr unsigned kBuckets = 64;

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 29;
  return x;
}

template <typename Policy>
struct Histogram {
  static RunResult run(const RunConfig& cfg) {
    const std::int64_t n = 200'000 * static_cast<std::int64_t>(cfg.scale);

    std::vector<std::unique_ptr<reducer_opadd<std::uint64_t, Policy>>> bins;
    bins.reserve(kBuckets);
    for (unsigned b = 0; b < kBuckets; ++b) {
      bins.push_back(
          std::make_unique<reducer_opadd<std::uint64_t, Policy>>());
    }
    reducer_max<std::uint64_t, Policy> largest;

    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      parallel_for(0, n, 1024, [&](std::int64_t i) {
        const std::uint64_t v =
            mix(cfg.seed + static_cast<std::uint64_t>(i));
        *(*bins[v % kBuckets]) += 1;
        auto& view = largest.view();
        if (v > view) view = v;
      });
    });

    std::vector<std::uint64_t> expect(kBuckets, 0);
    std::uint64_t expect_largest = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t v = mix(cfg.seed + static_cast<std::uint64_t>(i));
      ++expect[v % kBuckets];
      if (v > expect_largest) expect_largest = v;
    }

    bool ok = largest.get_value() == expect_largest;
    std::uint64_t total = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      ok = ok && bins[b]->get_value() == expect[b];
      total += bins[b]->get_value();
    }
    ok = ok && total == static_cast<std::uint64_t>(n);

    out.verified = ok;
    out.detail = ok ? std::to_string(kBuckets) +
                          " bucket counts and the max all match"
                    : "bucket counts differ from serial histogram";
    return out;
  }
};

}  // namespace

void register_histogram(Registry& r) {
  r.add(make_workload<Histogram>(
      "histogram", "reducer-array histogram, 64 live add-reducers + a max"));
}

}  // namespace cilkm::workloads
