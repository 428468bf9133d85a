// PBFS, registered: parallel breadth-first search with bag reducers over an
// RMAT graph, verified distance-for-distance against serial BFS — the
// paper's Section 8 application.
#include <algorithm>
#include <cstdint>

#include "pbfs/pbfs.hpp"
#include "runtime/api.hpp"
#include "util/timing.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

template <typename Policy>
struct Pbfs {
  static RunResult run(const RunConfig& cfg) {
    using namespace cilkm::pbfs;
    const unsigned scale = std::min(9u + cfg.scale, 20u);
    const Graph g =
        rmat(scale, (1ull << scale) * 8, 0.45, 0.22, 0.22, cfg.seed);

    const auto expect = serial_bfs(g, 0);

    BfsResult got;
    const auto t0 = now_ns();
    run_cell(cfg, [&] { got = pbfs<Policy>(g, 0); });
    const auto t1 = now_ns();

    RunResult out;
    out.seconds = static_cast<double>(t1 - t0) / 1e9;
    out.items = g.num_edges();
    out.verified =
        got.dist == expect.dist && got.num_layers == expect.num_layers;
    out.detail =
        out.verified
            ? "distances identical to serial BFS over " +
                  std::to_string(g.num_edges()) + " edges, " +
                  std::to_string(got.reducer_lookups) + " bag lookups"
            : "BFS distances differ from serial reference";
    return out;
  }
};

}  // namespace

void register_pbfs(Registry& r) {
  r.add(make_workload<Pbfs>(
      "pbfs", "bag-reducer parallel BFS on an RMAT graph vs serial BFS"));
}

}  // namespace cilkm::workloads
