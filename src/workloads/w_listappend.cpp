// List-append reducer stress (second-wave scenario, cf. the OpenCilk
// reducer_bench list benchmarks): every loop index appends (i, draw) pairs
// to a list_append reducer. The monoid is non-commutative and the draws are
// DotMix-deterministic, so the final list must equal the serial sequence
// ELEMENT FOR ELEMENT — the sharpest end-to-end statement of "serial
// semantics + deterministic randomness" a scenario can make.
#include <cstdint>
#include <list>
#include <string>
#include <utility>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/pedigree.hpp"
#include "util/dprng.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

using Entry = std::pair<std::int64_t, std::uint64_t>;

/// The shared shape: fixed grain so the spawn tree (and every pedigree) is
/// worker-count-independent. Indices divisible by 5 append a second entry,
/// exercising uneven per-strand rank advances.
template <typename Append>
void append_loop(std::int64_t n, Dprng& rng, Append&& append) {
  parallel_for(0, n, 16, [&](std::int64_t i) {
    append({i, rng.next()});
    if (i % 5 == 0) append({~i, rng.next()});
  });
}

template <typename Policy>
struct ListAppend {
  static RunResult run(const RunConfig& cfg) {
    const std::int64_t n = 30'000 * static_cast<std::int64_t>(cfg.scale);

    std::vector<Entry> expect;
    {
      rt::PedigreeScope scope;
      Dprng rng(cfg.seed);
      append_loop(n, rng, [&](Entry e) { expect.push_back(e); });
    }

    list_append_reducer<Entry, Policy> list;
    Dprng rng(cfg.seed);
    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      append_loop(n, rng, [&](Entry e) { list.view().push_back(e); });
    });

    const std::list<Entry>& got = list.get_value();
    bool same = got.size() == expect.size();
    if (same) {
      std::size_t i = 0;
      for (const Entry& e : got) {
        if (e != expect[i++]) {
          same = false;
          break;
        }
      }
    }

    out.verified = same;
    out.detail = same ? std::to_string(expect.size()) +
                            " appends in exact serial order with serial draws"
                      : "list diverges from the serial append sequence";
    return out;
  }
};

}  // namespace

void register_listappend(Registry& r) {
  r.add(make_workload<ListAppend>(
      "listappend",
      "non-commutative list-append stress with DPRNG-drawn payloads"));
}

}  // namespace cilkm::workloads
