// Quickstart: parallel summation with a memory-mapped reducer.
//
//   $ ./quickstart [workers]      (1..4096, default 4; anything else exits 2)
//
// Demonstrates the three core pieces of the public API:
//   1. cilkm::run(P, root)           — execute a task on P workers
//   2. cilkm::parallel_for           — fork-join parallel loop
//   3. cilkm::reducer_opadd<T>       — a race-free "global" accumulator
#include <cstdio>
#include <string_view>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "util/run_stat.hpp"

int main(int argc, char** argv) {
  // The worker counts cilkm_run's --workers accepts.
  unsigned workers = 4;
  if (argc > 2 ||
      (argc == 2 && (!cilkm::parse_int(std::string_view(argv[1]), &workers) ||
                     workers < 1 || workers > 4096))) {
    std::fprintf(stderr, "usage: quickstart [workers 1..4096]\n");
    return 2;
  }
  constexpr std::int64_t kN = 10'000'000;

  // A reducer declared like a global accumulator. Every strand updates its
  // own local view; the runtime folds the views so the final value equals
  // the serial result — no locks, no atomics, no races.
  cilkm::reducer_opadd<long long> sum;

  cilkm::run(workers, [&] {
    cilkm::parallel_for(1, kN + 1, 4096, [&](std::int64_t i) { *sum += i; });
  });

  const long long expect = kN * (kN + 1) / 2;
  std::printf("sum(1..%lld) = %lld (expected %lld) on %u workers — %s\n",
              static_cast<long long>(kN), sum.get_value(), expect, workers,
              sum.get_value() == expect ? "OK" : "MISMATCH");
  return sum.get_value() == expect ? 0 : 1;
}
