// Naive parallel Fibonacci — the canonical spawn-dense Cilk benchmark. The
// value flows back through locals; an add-reducer counts recursion leaves,
// which a serial replay must match exactly. Stresses raw fork2join churn
// with a single hot reducer.
#include <cstdint>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

constexpr int kSerialCutoff = 12;

std::uint64_t serial_fib(int n, std::uint64_t* leaves) {
  if (n < 2) {
    ++*leaves;
    return static_cast<std::uint64_t>(n);
  }
  return serial_fib(n - 1, leaves) + serial_fib(n - 2, leaves);
}

template <typename Policy>
std::uint64_t fib(int n, reducer_opadd<std::uint64_t, Policy>& leaves) {
  if (n < 2) {
    *leaves += 1;
    return static_cast<std::uint64_t>(n);
  }
  if (n <= kSerialCutoff) {
    std::uint64_t count = 0;
    const std::uint64_t value = serial_fib(n, &count);
    *leaves += count;
    return value;
  }
  std::uint64_t a = 0, b = 0;
  fork2join([&] { a = fib(n - 1, leaves); }, [&] { b = fib(n - 2, leaves); });
  return a + b;
}

template <typename Policy>
struct Fib {
  static RunResult run(const RunConfig& cfg) {
    const int n = 20 + static_cast<int>(cfg.scale > 8 ? 8 : cfg.scale - 1);

    reducer_opadd<std::uint64_t, Policy> leaves;
    std::uint64_t value = 0;
    RunResult out;
    out.seconds = run_cell(cfg, [&] { value = fib<Policy>(n, leaves); });

    std::uint64_t expect_leaves = 0;
    const std::uint64_t expect_value = serial_fib(n, &expect_leaves);

    out.verified =
        value == expect_value && leaves.get_value() == expect_leaves;
    out.detail = out.verified
                     ? "fib(" + std::to_string(n) + ") and leaf count match"
                     : "fib=" + std::to_string(value) + "/" +
                           std::to_string(expect_value) +
                           " leaves=" + std::to_string(leaves.get_value()) +
                           "/" + std::to_string(expect_leaves);
    return out;
  }
};

}  // namespace

void register_fib(Registry& r) {
  r.add(make_workload<Fib>(
      "fib", "spawn-dense naive Fibonacci with a leaf-counting reducer"));
}

}  // namespace cilkm::workloads
