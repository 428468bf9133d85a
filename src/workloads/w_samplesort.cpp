// Sample sort with reducer buckets: phase 1 classifies elements into 32
// vector-concat reducers in parallel (order within a bucket is the serial
// input order, by the reducer guarantee); phase 2 sorts the buckets in
// parallel with no reducers at all. The concatenation must equal std::sort
// of the input.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

constexpr unsigned kBuckets = 32;

template <typename Policy>
struct SampleSort {
  static RunResult run(const RunConfig& cfg) {
    const std::size_t n = 100'000 * static_cast<std::size_t>(cfg.scale);

    Xoshiro256 rng(cfg.seed);
    std::vector<std::uint64_t> input(n);
    for (auto& v : input) v = rng();

    // Splitters from a sorted oversample (deterministic given the seed).
    std::vector<std::uint64_t> sample;
    for (unsigned i = 0; i < 8 * kBuckets; ++i) {
      sample.push_back(input[rng.below(n)]);
    }
    std::sort(sample.begin(), sample.end());
    std::vector<std::uint64_t> splitters;
    for (unsigned b = 1; b < kBuckets; ++b) {
      splitters.push_back(sample[b * sample.size() / kBuckets]);
    }

    std::vector<std::unique_ptr<vector_reducer<std::uint64_t, Policy>>>
        buckets;
    for (unsigned b = 0; b < kBuckets; ++b) {
      buckets.push_back(
          std::make_unique<vector_reducer<std::uint64_t, Policy>>());
    }

    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      parallel_for(0, static_cast<std::int64_t>(n), 1024,
                   [&](std::int64_t i) {
                     const std::uint64_t v =
                         input[static_cast<std::size_t>(i)];
                     const auto it = std::upper_bound(splitters.begin(),
                                                      splitters.end(), v);
                     const auto b = static_cast<std::size_t>(
                         it - splitters.begin());
                     (*buckets[b])->push_back(v);
                   });
    });

    // Buckets are now quiescent plain vectors; sort them in parallel.
    std::vector<std::vector<std::uint64_t>> sorted(kBuckets);
    for (unsigned b = 0; b < kBuckets; ++b) {
      sorted[b] = buckets[b]->move_value();
    }
    out.seconds += run_cell(cfg, [&] {
      parallel_for(0, kBuckets, 1, [&](std::int64_t b) {
        std::sort(sorted[static_cast<std::size_t>(b)].begin(),
                  sorted[static_cast<std::size_t>(b)].end());
      });
    });

    std::vector<std::uint64_t> result;
    result.reserve(n);
    for (const auto& bucket : sorted) {
      result.insert(result.end(), bucket.begin(), bucket.end());
    }

    std::vector<std::uint64_t> expect = input;
    std::sort(expect.begin(), expect.end());

    out.verified = result == expect;
    out.detail = out.verified
                     ? std::to_string(n) + " elements sorted across " +
                           std::to_string(kBuckets) + " reducer buckets"
                     : "sample-sorted output differs from std::sort";
    return out;
  }
};

}  // namespace

void register_samplesort(Registry& r) {
  r.add(make_workload<SampleSort>(
      "samplesort", "two-phase sample sort with vector-reducer buckets"));
}

}  // namespace cilkm::workloads
