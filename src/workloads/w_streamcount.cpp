// Streaming/incremental wordcount (second-wave scenario): models a request
// stream rather than one batch. Requests arrive in waves; each wave is one
// scheduler run over a persistent map-union reducer, with the words of each
// request drawn from a per-wave DotMix stream. After every wave the
// cumulative counts are checkpointed, so the scenario verifies the
// incremental trajectory — not just the final state — against a serial
// replay of the same stream.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/pedigree.hpp"
#include "util/dprng.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

struct AddCounts {
  void operator()(std::uint64_t& into, const std::uint64_t& from) const {
    into += from;
  }
};

using StreamMonoid = map_union<std::string, std::uint64_t, AddCounts>;
using CountMap = std::unordered_map<std::string, std::uint64_t>;

const char* kLexicon[] = {"get",    "put",   "post",  "head",  "query",
                          "batch",  "steal", "merge", "view",  "reduce",
                          "worker", "frame", "park",  "wake",  "join"};

constexpr int kWaves = 6;

std::uint64_t wave_seed(std::uint64_t seed, int wave) {
  std::uint64_t state = seed ^ (0x5741564500000000ULL + static_cast<std::uint64_t>(wave));
  return splitmix64(state);
}

/// Process one wave of `requests` requests: each draws 1–3 words from the
/// wave's DPRNG stream and counts them via `touch`.
template <typename Touch>
void wave_loop(std::int64_t requests, Dprng& rng, Touch&& touch) {
  parallel_for(0, requests, 32, [&](std::int64_t) {
    const std::uint64_t words = 1 + rng.next_below(3);
    for (std::uint64_t w = 0; w < words; ++w) {
      touch(kLexicon[rng.next_below(std::size(kLexicon))]);
    }
  });
}

/// Order-independent checkpoint of a cumulative count map.
std::uint64_t checksum(const CountMap& counts) {
  std::uint64_t sum = 0;
  for (const auto& [word, count] : counts) {
    std::uint64_t state = count;
    for (const char c : word) state ^= static_cast<std::uint64_t>(c) << 17;
    sum += splitmix64(state);
  }
  return sum;
}

template <typename Policy>
struct StreamCount {
  static RunResult run(const RunConfig& cfg) {
    const std::int64_t requests = 2000 * static_cast<std::int64_t>(cfg.scale);

    // Serial replay of the whole stream, checkpointing after each wave.
    CountMap expect;
    std::vector<std::uint64_t> expect_checkpoints;
    for (int wave = 0; wave < kWaves; ++wave) {
      rt::PedigreeScope scope;
      Dprng rng(wave_seed(cfg.seed, wave));
      wave_loop(requests, rng, [&](const char* word) { ++expect[word]; });
      expect_checkpoints.push_back(checksum(expect));
    }

    reducer<StreamMonoid, Policy> counts;
    std::vector<std::uint64_t> checkpoints;
    RunResult out;
    for (int wave = 0; wave < kWaves; ++wave) {
      Dprng rng(wave_seed(cfg.seed, wave));
      out.seconds += run_cell(cfg, [&] {
        wave_loop(requests, rng,
                  [&](const char* word) { ++counts.view()[word]; });
      });
      // Between waves the stream is quiescent: the reducer's leftmost view
      // IS the cumulative state, checkpointable without ending its life.
      checkpoints.push_back(checksum(counts.view()));
    }

    out.verified =
        checkpoints == expect_checkpoints && counts.get_value() == expect;
    out.detail =
        out.verified
            ? std::to_string(kWaves) + " waves, every checkpoint matches"
            : "incremental counts diverge from the serial stream replay";
    return out;
  }
};

}  // namespace

void register_streamcount(Registry& r) {
  r.add(make_workload<StreamCount>(
      "streamcount",
      "incremental wordcount over a request stream of DPRNG-drawn waves"));
}

}  // namespace cilkm::workloads
