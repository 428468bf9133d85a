// Seed-replayable scenario fuzzer (see fuzzer.hpp for the replay contract).
// Each composite is drawn from one 64-bit seed: a reducer monoid, a spawn
// shape, a view-store policy, and a worker count.
// The composite's draws come from the DotMix DPRNG, so the serial elision
// and the scheduled run consume IDENTICAL value streams — any divergence is
// a runtime bug (lost view update, misordered reduce, pedigree drift), not
// noise, and the failing seed reproduces it on any machine and schedule.
#include "workloads/fuzzer.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/pedigree.hpp"
#include "util/dprng.hpp"
#include "util/rng.hpp"

namespace cilkm::workloads {
namespace {

// ---------------------------------------------------------------- the space

enum class Shape : int { kFlatLoop, kBinaryTree, kIrregularTree, kNestedLoops };
constexpr int kNumShapes = 4;

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kFlatLoop: return "flat-loop";
    case Shape::kBinaryTree: return "binary-tree";
    case Shape::kIrregularTree: return "irregular-tree";
    case Shape::kNestedLoops: return "nested-loops";
  }
  return "?";
}

enum class MonoidKind : int {
  kAdd,
  kXor,
  kMin,
  kMax,
  kString,
  kVector,
  kMapUnion,
};
constexpr int kNumMonoids = 7;

const char* monoid_name(MonoidKind m) {
  switch (m) {
    case MonoidKind::kAdd: return "op_add";
    case MonoidKind::kXor: return "op_xor";
    case MonoidKind::kMin: return "op_min";
    case MonoidKind::kMax: return "op_max";
    case MonoidKind::kString: return "string_concat";
    case MonoidKind::kVector: return "vector_concat";
    case MonoidKind::kMapUnion: return "map_union";
  }
  return "?";
}

struct AddValues {
  void operator()(std::uint64_t& into, const std::uint64_t& from) const {
    into += from;
  }
};

using FuzzMap = map_union<std::uint64_t, std::uint64_t, AddValues>;

/// One fully-specified composite, a pure function of its seed (plus the
/// sweep's policy/worker allow-lists and scale knob).
struct Scenario {
  std::uint64_t seed = 0;
  MonoidKind monoid{};
  Shape shape{};
  PolicyKind policy{};
  unsigned workers = 1;
  std::int64_t n = 0;  // loop-shape trip count
  int depth = 0;       // tree-shape depth
  int draws = 1;       // DPRNG draws folded in per leaf strand
};

Scenario draw_scenario(std::uint64_t seed, const DriverOptions& opts) {
  std::uint64_t state = seed;
  auto pick = [&state](std::uint64_t bound) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(splitmix64(state)) * bound) >> 64);
  };

  Scenario sc;
  sc.seed = seed;
  sc.monoid = static_cast<MonoidKind>(pick(kNumMonoids));
  sc.shape = static_cast<Shape>(pick(kNumShapes));

  std::vector<PolicyKind> policies = opts.policies;
  if (policies.empty()) {
    policies.assign(std::begin(kAllPolicies), std::end(kAllPolicies));
  }
  sc.policy = policies[pick(policies.size())];

  std::vector<unsigned> workers = opts.workers;
  if (workers.empty()) workers = {1, 2, 4};
  sc.workers = workers[pick(workers.size())];

  // An unused draw: dropping it would shift every draw below and change
  // the composite each recorded seed replays.
  (void)pick(2);
  sc.n = static_cast<std::int64_t>(200 + pick(1800)) *
         static_cast<std::int64_t>(std::max(1u, opts.scale));
  sc.depth = 4 + static_cast<int>(pick(5));  // 4..8
  sc.draws = 1 + static_cast<int>(pick(3));  // 1..3
  return sc;
}

// ------------------------------------------------------------------- shapes

/// Execute the composite's spawn shape, invoking `leaf()` at every leaf
/// strand. Grains and split points are fixed constants (never derived from
/// the worker count), so the spawn tree — hence every pedigree — is
/// identical across schedules; the irregular tree additionally draws its own
/// fan-out from `rng`, making the SHAPE itself schedule-independent too.
template <typename Leaf>
void run_shape(const Scenario& sc, Dprng& rng, Leaf&& leaf) {
  switch (sc.shape) {
    case Shape::kFlatLoop:
      parallel_for(0, sc.n, 16, [&](std::int64_t) { leaf(); });
      return;
    case Shape::kBinaryTree: {
      auto rec = [&](auto&& self, int depth) -> void {
        if (depth == 0) {
          leaf();
          return;
        }
        parallel_invoke([&] { self(self, depth - 1); },
                        [&] { self(self, depth - 1); });
      };
      rec(rec, sc.depth + 3);  // 128..2048 leaves
      return;
    }
    case Shape::kIrregularTree: {
      auto rec = [&](auto&& self, int depth) -> void {
        leaf();
        if (depth == 0) return;
        const std::uint64_t kids = 1 + rng.next_below(3);
        SpawnGroup g;
        for (std::uint64_t k = 0; k < kids; ++k) {
          g.spawn([&self, depth] { self(self, depth - 1); });
        }
        g.sync();
      };
      rec(rec, sc.depth);
      return;
    }
    case Shape::kNestedLoops:
      parallel_for(0, sc.n / 48 + 1, 2, [&](std::int64_t) {
        parallel_for(0, 48, 8, [&](std::int64_t) { leaf(); });
      });
      return;
  }
}

// ------------------------------------------------------------------ monoids

/// Fold one DPRNG draw into a view (or the serial accumulator) under monoid
/// M. The per-strand update composes with M's reduce exactly as the same
/// update sequence would in serial order, so the serial accumulator IS the
/// expected value.
template <typename M>
void apply_draw(typename M::value_type& view, std::uint64_t draw) {
  if constexpr (std::is_same_v<M, op_add<std::uint64_t>>) {
    view += draw;
  } else if constexpr (std::is_same_v<M, op_xor<std::uint64_t>>) {
    view ^= draw;
  } else if constexpr (std::is_same_v<M, op_min<std::uint64_t>>) {
    view = std::min(view, draw);
  } else if constexpr (std::is_same_v<M, op_max<std::uint64_t>>) {
    view = std::max(view, draw);
  } else if constexpr (std::is_same_v<M, string_concat>) {
    view.push_back(static_cast<char>('a' + draw % 26));
  } else if constexpr (std::is_same_v<M, vector_concat<std::uint64_t>>) {
    view.push_back(draw);
  } else {
    static_assert(std::is_same_v<M, FuzzMap>, "unhandled monoid");
    view[draw % 61] += draw >> 32;
  }
}

std::uint64_t digest(std::uint64_t v) { return v; }
std::uint64_t digest(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}
std::uint64_t digest(const std::vector<std::uint64_t>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t x : v) h = (h ^ x) * 1099511628211ULL;
  return h;
}
std::uint64_t digest(const std::unordered_map<std::uint64_t, std::uint64_t>& m) {
  std::uint64_t sum = 0;  // order-independent
  for (const auto& [k, v] : m) {
    std::uint64_t state = k * 0x9e3779b97f4a7c15ULL + v;
    sum += splitmix64(state);
  }
  return sum;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ the composite

template <typename M, typename Policy>
RunResult run_composite(const Scenario& sc, const RunConfig& cfg) {
  using T = typename M::value_type;

  // Serial elision: same shape, same DPRNG, plain accumulator, no scheduler.
  T expect = M{}.identity();
  {
    rt::PedigreeScope scope;
    Dprng rng(sc.seed);
    run_shape(sc, rng, [&] {
      for (int d = 0; d < sc.draws; ++d) apply_draw<M>(expect, rng.next());
    });
  }

  reducer<M, Policy> red;
  Dprng rng(sc.seed);
  RunResult out;
  out.seconds = run_cell(cfg, [&] {
    run_shape(sc, rng, [&] {
      for (int d = 0; d < sc.draws; ++d) apply_draw<M>(red.view(), rng.next());
    });
  });

  const T& got = red.get_value();
  out.verified = got == expect;
  out.detail = out.verified ? "matches its serial elision"
                            : "digest " + hex(digest(got)) + " != serial " +
                                  hex(digest(expect));
  return out;
}

template <typename Policy>
RunResult dispatch_monoid(const Scenario& sc, const RunConfig& cfg) {
  switch (sc.monoid) {
    case MonoidKind::kAdd:
      return run_composite<op_add<std::uint64_t>, Policy>(sc, cfg);
    case MonoidKind::kXor:
      return run_composite<op_xor<std::uint64_t>, Policy>(sc, cfg);
    case MonoidKind::kMin:
      return run_composite<op_min<std::uint64_t>, Policy>(sc, cfg);
    case MonoidKind::kMax:
      return run_composite<op_max<std::uint64_t>, Policy>(sc, cfg);
    case MonoidKind::kString:
      return run_composite<string_concat, Policy>(sc, cfg);
    case MonoidKind::kVector:
      return run_composite<vector_concat<std::uint64_t>, Policy>(sc, cfg);
    case MonoidKind::kMapUnion:
      return run_composite<FuzzMap, Policy>(sc, cfg);
  }
  return {false, 0, "unreachable monoid"};
}

}  // namespace

Cell fuzz_cell(std::uint64_t seed, const DriverOptions& opts) {
  const Scenario sc = draw_scenario(seed, opts);
  char name[64];
  std::snprintf(name, sizeof name, "%-18s %-13s %-14s", hex(sc.seed).c_str(),
                monoid_name(sc.monoid), shape_name(sc.shape));
  return {name, sc.policy, sc.workers, seed, [sc](const RunConfig& cfg) {
            return sc.policy == PolicyKind::kMm
                       ? dispatch_monoid<mm_policy>(sc, cfg)
                       : dispatch_monoid<hypermap_policy>(sc, cfg);
          }};
}

}  // namespace cilkm::workloads
