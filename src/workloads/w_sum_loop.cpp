// Parallel summation (the quickstart example, registered): sum 1..N into an
// add-reducer and fold N products-of-ones into a mul-reducer on the side,
// verified against closed forms.
#include <cstdint>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

template <typename Policy>
struct SumLoop {
  static RunResult run(const RunConfig& cfg) {
    const std::int64_t n = 250'000 * static_cast<std::int64_t>(cfg.scale);

    reducer_opadd<long long, Policy> sum;
    reducer_opmul<long long, Policy> parity;  // (-1)^N via repeated * -1

    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      parallel_for(1, n + 1, 4096, [&](std::int64_t i) {
        *sum += i;
        *parity *= -1;
      });
    });

    const long long expect_sum = n * (n + 1) / 2;
    const long long expect_parity = (n % 2 == 0) ? 1 : -1;
    out.verified = sum.get_value() == expect_sum &&
                   parity.get_value() == expect_parity;
    out.detail = out.verified
                     ? "sum and parity match closed forms"
                     : "sum=" + std::to_string(sum.get_value()) +
                           " expected=" + std::to_string(expect_sum);
    return out;
  }
};

}  // namespace

void register_sum_loop(Registry& r) {
  r.add(make_workload<SumLoop>(
      "sum_loop", "parallel_for summation into add/mul reducers"));
}

}  // namespace cilkm::workloads
