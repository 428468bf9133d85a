// Compressed-sparse-row graphs and synthetic generators standing in for the
// paper's Figure 10(b) input suite.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cilkm::pbfs {

using Vertex = std::uint32_t;
inline constexpr Vertex kUnreached = 0xffffffffu;

/// Immutable CSR graph. Edges are stored directed; builders symmetrise.
class Graph {
 public:
  Graph() = default;

  /// Build from a directed edge list; when `symmetrise` both directions are
  /// inserted. Self-loops are kept (harmless for BFS); duplicates are kept
  /// (they only scale |E| like the paper's multigraph inputs).
  static Graph from_edges(Vertex num_vertices,
                          const std::vector<std::pair<Vertex, Vertex>>& edges,
                          bool symmetrise = true);

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }
  std::uint64_t num_edges() const noexcept { return targets_.size(); }

  /// Neighbour range of u: [adj_begin(u), adj_end(u)).
  const Vertex* adj_begin(Vertex u) const noexcept {
    return targets_.data() + offsets_[u];
  }
  const Vertex* adj_end(Vertex u) const noexcept {
    return targets_.data() + offsets_[u + 1];
  }
  std::uint32_t degree(Vertex u) const noexcept {
    return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

 private:
  std::vector<std::uint64_t> offsets_;
  std::vector<Vertex> targets_;
};

/// Generator parameters for one Figure 10(b) stand-in.
struct GraphSpec {
  std::string name;       // paper graph it stands in for
  std::string kind;       // "rmat" | "grid3d" | "uniform"
  Vertex num_vertices;
  std::uint64_t num_edges;  // directed edge count before symmetrisation
  std::uint64_t seed;
};

Graph uniform_random(Vertex n, std::uint64_t m, std::uint64_t seed);
Graph rmat(unsigned scale, std::uint64_t m, double a, double b, double c,
           std::uint64_t seed);
Graph grid3d(Vertex side);

Graph generate(const GraphSpec& spec);

/// The eight stand-ins for the paper's input graphs, scaled by 1/`shrink`
/// in vertex and edge count (shrink = 1 reproduces paper sizes).
std::vector<GraphSpec> paper_graph_suite(unsigned shrink);

}  // namespace cilkm::pbfs
