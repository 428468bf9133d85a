// The paper's Figure 2 tree walk, registered: walk a random binary tree in
// parallel and collect matching nodes into a list-append reducer — the
// result must equal the serial preorder list, element for element.
#include <cstdint>
#include <list>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

struct Node {
  int key;
  Node* left = nullptr;
  Node* right = nullptr;
};

bool has_property(const Node* n) { return n->key % 7 == 0; }

Node* build(std::vector<Node>& pool, int lo, int hi, Xoshiro256& rng) {
  if (lo >= hi) return nullptr;
  const int mid =
      lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo)));
  Node* n = &pool[static_cast<std::size_t>(mid)];
  n->key = mid;
  n->left = build(pool, lo, mid, rng);
  n->right = build(pool, mid + 1, hi, rng);
  return n;
}

template <typename Policy>
void walk(const Node* n, list_append_reducer<const Node*, Policy>& l) {
  if (n != nullptr) {
    if (has_property(n)) l->push_back(n);
    fork2join([&] { walk(n->left, l); }, [&] { walk(n->right, l); });
  }
}

void serial_walk(const Node* n, std::list<const Node*>& out) {
  if (n != nullptr) {
    if (has_property(n)) out.push_back(n);
    serial_walk(n->left, out);
    serial_walk(n->right, out);
  }
}

template <typename Policy>
struct TreeWalk {
  static RunResult run(const RunConfig& cfg) {
    const int n = 50'000 * static_cast<int>(cfg.scale);

    std::vector<Node> pool(static_cast<std::size_t>(n));
    Xoshiro256 rng(cfg.seed);
    Node* root = build(pool, 0, n, rng);

    list_append_reducer<const Node*, Policy> l;
    const auto t0 = now_ns();
    run_cell(cfg, [&] { walk<Policy>(root, l); });
    const auto t1 = now_ns();

    std::list<const Node*> expect;
    serial_walk(root, expect);

    RunResult out;
    out.seconds = static_cast<double>(t1 - t0) / 1e9;
    out.items = static_cast<std::uint64_t>(n);
    out.verified = l.get_value() == expect;
    out.detail = out.verified
                     ? std::to_string(expect.size()) +
                           " matches in exact preorder"
                     : "parallel list differs from serial preorder walk";
    return out;
  }
};

}  // namespace

void register_tree_walk(Registry& r) {
  r.add(make_workload<TreeWalk>(
      "tree_walk", "Figure 2 tree walk into a list-append reducer"));
}

}  // namespace cilkm::workloads
