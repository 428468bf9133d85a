// Argmin/argmax with deterministic first-occurrence tie-breaking: the
// values are drawn from a tiny range, so ties abound and only a reducer
// runtime that preserves serial operand order returns the serially-first
// index — a sharp probe of the non-commutative merge path.
#include <cstdint>

#include "reducers/extras.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

std::uint64_t value_at(std::uint64_t seed, std::int64_t i) {
  std::uint64_t state = seed + static_cast<std::uint64_t>(i);
  return splitmix64(state) % 1024;  // tiny range -> many ties
}

template <typename Policy>
struct ArgMinMax {
  static RunResult run(const RunConfig& cfg) {
    const std::int64_t n = 300'000 * static_cast<std::int64_t>(cfg.scale);

    min_index_reducer<std::int64_t, std::uint64_t, Policy> lo;
    max_index_reducer<std::int64_t, std::uint64_t, Policy> hi;

    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      parallel_for(0, n, 2048, [&](std::int64_t i) {
        const std::uint64_t v = value_at(cfg.seed, i);
        op_min_index<std::int64_t, std::uint64_t>::update(lo.view(), i, v);
        op_max_index<std::int64_t, std::uint64_t>::update(hi.view(), i, v);
      });
    });

    indexed_value<std::int64_t, std::uint64_t> expect_lo, expect_hi;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::uint64_t v = value_at(cfg.seed, i);
      op_min_index<std::int64_t, std::uint64_t>::update(expect_lo, i, v);
      op_max_index<std::int64_t, std::uint64_t>::update(expect_hi, i, v);
    }

    out.verified =
        lo.get_value() == expect_lo && hi.get_value() == expect_hi;
    out.detail =
        out.verified
            ? "argmin@" + std::to_string(expect_lo.index) + " argmax@" +
                  std::to_string(expect_hi.index) +
                  " with first-occurrence ties"
            : "argmin/argmax index differs (tie-break order violated)";
    return out;
  }
};

}  // namespace

void register_argminmax(Registry& r) {
  r.add(make_workload<ArgMinMax>(
      "argminmax", "min/max-index reducers with first-occurrence ties"));
}

}  // namespace cilkm::workloads
