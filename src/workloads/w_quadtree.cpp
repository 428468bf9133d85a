// Quad-tree build (second-wave scenario): recursively partition a random
// point set into quadrants with 4-way parallel_invoke, drawing a DotMix
// signature at every node. The tree shape depends only on the input data;
// the signatures depend only on (seed, pedigree) — so the xor/sum/count
// accumulators must be bit-identical to the serial elision under every
// policy, worker count, and steal schedule.
#include <cstdint>
#include <string>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/pedigree.hpp"
#include "util/dprng.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

struct Point {
  std::uint32_t x, y;
};

std::vector<Point> synth_points(int n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back({static_cast<std::uint32_t>(rng.below(1u << 16)),
                      static_cast<std::uint32_t>(rng.below(1u << 16))});
  }
  return points;
}

constexpr int kLeafCap = 48;
constexpr unsigned kMaxDepth = 12;

/// Accumulated build outcome; combined with xor/sum/count monoids so the
/// parallel run folds through reducers and the serial run through a plain
/// instance of this struct.
struct BuildSums {
  std::uint64_t sig_xor = 0;   // xor of every node signature
  std::uint64_t weighted = 0;  // Σ signature-low-bits × points-in-node
  std::uint64_t leaves = 0;
};

/// One build node: draw the node signature, split or stop, recurse into the
/// four quadrants via sink (parallel or serial). Splitting on the box
/// midpoint keeps the tree a function of the data alone.
template <typename Sink>
void build_node(const std::vector<Point>& pts, std::uint32_t x0,
                std::uint32_t y0, std::uint32_t half, unsigned depth,
                Dprng& rng, Sink&& sink) {
  const std::uint64_t sig = rng.next();
  sink.node(sig, pts.size());
  if (pts.size() <= kLeafCap || depth >= kMaxDepth || half == 0) {
    sink.leaf();
    return;
  }
  std::vector<Point> quad[4];
  for (const Point& p : pts) {
    const int qx = p.x >= x0 + half ? 1 : 0;
    const int qy = p.y >= y0 + half ? 1 : 0;
    quad[2 * qy + qx].push_back(p);
  }
  const std::uint32_t nx[4] = {x0, x0 + half, x0, x0 + half};
  const std::uint32_t ny[4] = {y0, y0, y0 + half, y0 + half};
  sink.recurse(
      [&](int q) {
        build_node(quad[q], nx[q], ny[q], half / 2, depth + 1, rng, sink);
      });
}

/// Parallel sink: reducer-backed accumulators, 4-way parallel recursion.
template <typename Policy>
struct ReducerSink {
  reducer<op_xor<std::uint64_t>, Policy>* sig_xor;
  reducer<op_add<std::uint64_t>, Policy>* weighted;
  reducer<op_add<std::uint64_t>, Policy>* leaves;

  void node(std::uint64_t sig, std::size_t npts) const {
    sig_xor->view() ^= sig;
    weighted->view() += (sig & 0xffff) * npts;
  }
  void leaf() const { leaves->view() += 1; }
  template <typename Recurse>
  void recurse(Recurse&& into) const {
    parallel_invoke([&] { into(0); }, [&] { into(1); }, [&] { into(2); },
                    [&] { into(3); });
  }
};

/// Serial sink: plain accumulators. The reference runs outside the
/// scheduler, where parallel_invoke takes fork2join's serial path — plain
/// left-to-right execution through the SAME pedigree transitions as the
/// parallel build, which is exactly what makes the draws comparable.
struct SerialSink {
  BuildSums* sums;

  void node(std::uint64_t sig, std::size_t npts) const {
    sums->sig_xor ^= sig;
    sums->weighted += (sig & 0xffff) * npts;
  }
  void leaf() const { sums->leaves += 1; }
  template <typename Recurse>
  void recurse(Recurse&& into) const {
    parallel_invoke([&] { into(0); }, [&] { into(1); }, [&] { into(2); },
                    [&] { into(3); });
  }
};

template <typename Policy>
struct QuadTree {
  static RunResult run(const RunConfig& cfg) {
    const int n = 4000 * static_cast<int>(cfg.scale);
    const auto points = synth_points(n, cfg.seed);

    BuildSums expect;
    {
      rt::PedigreeScope scope;
      Dprng rng(cfg.seed);
      SerialSink sink{&expect};
      build_node(points, 0, 0, 1u << 15, 0, rng, sink);
    }

    reducer<op_xor<std::uint64_t>, Policy> sig_xor;
    reducer<op_add<std::uint64_t>, Policy> weighted;
    reducer<op_add<std::uint64_t>, Policy> leaves;
    Dprng rng(cfg.seed);
    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      ReducerSink<Policy> sink{&sig_xor, &weighted, &leaves};
      build_node(points, 0, 0, 1u << 15, 0, rng, sink);
    });

    out.verified = sig_xor.get_value() == expect.sig_xor &&
                   weighted.get_value() == expect.weighted &&
                   leaves.get_value() == expect.leaves;
    out.detail =
        out.verified
            ? std::to_string(expect.leaves) +
                  " leaves, signatures bit-identical to the serial build"
            : "quad-tree accumulators diverge from the serial elision";
    return out;
  }
};

}  // namespace

void register_quadtree(Registry& r) {
  r.add(make_workload<QuadTree>(
      "quadtree",
      "DPRNG-signed quad-tree build, bit-identical across schedules"));
}

}  // namespace cilkm::workloads
