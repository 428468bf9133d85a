// Wordcount, registered: a user-defined map-union-with-summed-counts monoid
// plugged into the reducer template, verified against a serial count of the
// same synthetic corpus.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace cilkm::workloads {
namespace {

struct AddCounts {
  void operator()(std::uint64_t& into, const std::uint64_t& from) const {
    into += from;
  }
};

using WordCountMonoid = map_union<std::string, std::uint64_t, AddCounts>;

const char* kLexicon[] = {"cilk",   "reducer", "view",     "steal",
                          "worker", "monoid",  "hypermap", "tlmm",
                          "page",   "spa"};

std::vector<std::string> synth_corpus(int sentences, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::string> corpus;
  corpus.reserve(static_cast<std::size_t>(sentences));
  for (int i = 0; i < sentences; ++i) {
    std::string s;
    const int words = 3 + static_cast<int>(rng.below(10));
    for (int w = 0; w < words; ++w) {
      s += kLexicon[rng.below(std::size(kLexicon))];
      s += ' ';
    }
    corpus.push_back(std::move(s));
  }
  return corpus;
}

void count_words(const std::string& sentence,
                 std::unordered_map<std::string, std::uint64_t>& counts) {
  std::size_t pos = 0;
  while (pos < sentence.size()) {
    const std::size_t space = sentence.find(' ', pos);
    if (space == std::string::npos) break;
    if (space > pos) ++counts[sentence.substr(pos, space - pos)];
    pos = space + 1;
  }
}

template <typename Policy>
struct WordCount {
  static RunResult run(const RunConfig& cfg) {
    const int sentences = 20'000 * static_cast<int>(cfg.scale);
    const auto corpus = synth_corpus(sentences, cfg.seed);

    reducer<WordCountMonoid, Policy> counts;
    RunResult out;
    out.seconds = run_cell(cfg, [&] {
      parallel_for(0, static_cast<std::int64_t>(corpus.size()), 64,
                   [&](std::int64_t i) {
                     count_words(corpus[static_cast<std::size_t>(i)],
                                 counts.view());
                   });
    });

    std::unordered_map<std::string, std::uint64_t> expect;
    for (const auto& s : corpus) count_words(s, expect);

    out.verified = counts.get_value() == expect;
    out.detail = out.verified
                     ? std::to_string(expect.size()) +
                           " distinct words match the serial count"
                     : "word counts differ from serial reference";
    return out;
  }
};

}  // namespace

void register_wordcount(Registry& r) {
  r.add(make_workload<WordCount>(
      "wordcount", "user-defined map-union monoid over a synthetic corpus"));
}

}  // namespace cilkm::workloads
