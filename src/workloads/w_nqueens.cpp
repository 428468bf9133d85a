// N-queens, registered: counts solutions with an add-reducer and collects
// every packed board into a vector reducer, which must come back in exact
// serial (depth-first) order.
#include <cstdint>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

constexpr int kMaxN = 16;

struct Board {
  int rows[kMaxN];
  int n = 0;

  bool safe(int row, int col) const {
    for (int r = 0; r < row; ++r) {
      const int c = rows[r];
      if (c == col || c - r == col - row || c + r == col + row) return false;
    }
    return true;
  }
};

std::uint64_t pack(const Board& board, int n) {
  std::uint64_t packed = 0;
  for (int r = 0; r < n; ++r) {
    packed |= static_cast<std::uint64_t>(board.rows[r]) << (4 * r);
  }
  return packed;
}

template <typename Policy>
void solve(Board board, int row, int n,
           reducer_opadd<long, Policy>& count,
           vector_reducer<std::uint64_t, Policy>& solutions) {
  if (row == n) {
    *count += 1;
    solutions->push_back(pack(board, n));
    return;
  }
  SpawnGroup group;
  for (int col = 0; col < n; ++col) {
    if (!board.safe(row, col)) continue;
    Board next = board;
    next.rows[row] = col;
    if (row < 3) {
      group.spawn([next, row, n, &count, &solutions] {
        solve(next, row + 1, n, count, solutions);
      });
    } else {
      solve(next, row + 1, n, count, solutions);
    }
  }
  group.sync();
}

void serial_solve(Board board, int row, int n, long& count,
                  std::vector<std::uint64_t>& solutions) {
  if (row == n) {
    ++count;
    solutions.push_back(pack(board, n));
    return;
  }
  for (int col = 0; col < n; ++col) {
    if (!board.safe(row, col)) continue;
    Board next = board;
    next.rows[row] = col;
    serial_solve(next, row + 1, n, count, solutions);
  }
}

template <typename Policy>
struct NQueens {
  static RunResult run(const RunConfig& cfg) {
    const int n = cfg.scale >= 4 ? 11 : 8 + static_cast<int>(cfg.scale) - 1;

    reducer_opadd<long, Policy> count;
    vector_reducer<std::uint64_t, Policy> solutions;
    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      solve<Policy>(Board{{}, n}, 0, n, count, solutions);
    });

    long expect_count = 0;
    std::vector<std::uint64_t> expect_solutions;
    serial_solve(Board{{}, n}, 0, n, expect_count, expect_solutions);

    out.verified = count.get_value() == expect_count &&
                   solutions.get_value() == expect_solutions;
    out.detail = out.verified
                     ? std::to_string(expect_count) + " solutions for n=" +
                           std::to_string(n) + " in serial order"
                     : "count=" + std::to_string(count.get_value()) +
                           " expected=" + std::to_string(expect_count) +
                           (solutions.get_value() == expect_solutions
                                ? ""
                                : " (solution order differs)");
    return out;
  }
};

}  // namespace

void register_nqueens(Registry& r) {
  r.add(make_workload<NQueens>(
      "nqueens", "irregular backtracking search; solutions in serial order"));
}

}  // namespace cilkm::workloads
