// Connected components by min-label propagation over the pbfs graph layer:
// each round writes next[u] = min(cur[u], min over neighbours cur[v]) in
// parallel, an add-reducer counts label changes (the convergence test) and
// a min-reducer tracks the smallest vertex whose label changed. Converged
// labels must equal the per-component minimum vertex id computed serially.
#include <cstdint>
#include <limits>
#include <vector>

#include "pbfs/graph.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

using pbfs::Graph;
using pbfs::Vertex;

/// Serial reference: label every vertex with the smallest id reachable from
/// it (iterative DFS per unvisited component).
std::vector<Vertex> serial_components(const Graph& g) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> label(n, pbfs::kUnreached);
  std::vector<Vertex> stack;
  for (Vertex s = 0; s < n; ++s) {
    if (label[s] != pbfs::kUnreached) continue;
    // s is the smallest unvisited id, hence the component minimum.
    stack.push_back(s);
    label[s] = s;
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      for (const Vertex* it = g.adj_begin(u); it != g.adj_end(u); ++it) {
        if (label[*it] == pbfs::kUnreached) {
          label[*it] = s;
          stack.push_back(*it);
        }
      }
    }
  }
  return label;
}

template <typename Policy>
struct Components {
  static RunResult run(const RunConfig& cfg) {
    const Vertex n = 4'000 * cfg.scale;
    const Graph g =
        pbfs::uniform_random(n, std::uint64_t{3} * n / 2, cfg.seed);

    std::vector<Vertex> cur(n), next(n);
    for (Vertex v = 0; v < n; ++v) cur[v] = v;

    std::uint64_t rounds = 0;
    std::vector<std::uint64_t> changed_history;
    std::vector<Vertex> first_changed_history;

    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      while (true) {
        reducer_opadd<std::uint64_t, Policy> changed;
        reducer_min<Vertex, Policy> first_changed;
        parallel_for(0, static_cast<std::int64_t>(n), 256,
                     [&](std::int64_t i) {
                       const auto u = static_cast<Vertex>(i);
                       Vertex best = cur[u];
                       for (const Vertex* it = g.adj_begin(u);
                            it != g.adj_end(u); ++it) {
                         if (cur[*it] < best) best = cur[*it];
                       }
                       next[u] = best;
                       if (best != cur[u]) {
                         *changed += 1;
                         auto& view = first_changed.view();
                         if (u < view) view = u;
                       }
                     });
        ++rounds;
        changed_history.push_back(changed.get_value());
        first_changed_history.push_back(first_changed.get_value());
        cur.swap(next);
        if (changed.get_value() == 0) break;
      }
    });

    // Replay the propagation serially: every round's change count and
    // first-changed vertex are deterministic, so the reducers themselves
    // are checked, not just the fixpoint.
    std::vector<Vertex> scur(n), snext(n);
    for (Vertex v = 0; v < n; ++v) scur[v] = v;
    bool reducers_ok = true;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      std::uint64_t changed = 0;
      Vertex first = std::numeric_limits<Vertex>::max();
      for (Vertex u = 0; u < n; ++u) {
        Vertex best = scur[u];
        for (const Vertex* it = g.adj_begin(u); it != g.adj_end(u); ++it) {
          if (scur[*it] < best) best = scur[*it];
        }
        snext[u] = best;
        if (best != scur[u]) {
          ++changed;
          if (u < first) first = u;
        }
      }
      scur.swap(snext);
      reducers_ok = reducers_ok && changed_history[r] == changed &&
                    first_changed_history[r] == first;
    }

    const std::vector<Vertex> expect = serial_components(g);

    out.verified = reducers_ok && cur == expect;
    out.detail =
        out.verified
            ? "labels converged in " + std::to_string(rounds) +
                  " rounds; per-round reducers match serial replay"
            : (reducers_ok ? "converged labels differ from serial components"
                           : "per-round change counts differ from replay");
    return out;
  }
};

}  // namespace

void register_components(Registry& r) {
  r.add(make_workload<Components>(
      "components", "min-label propagation with add+min reducers per round"));
}

}  // namespace cilkm::workloads
