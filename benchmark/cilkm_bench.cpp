// One process of the repository benchmark (run.py starts several per
// workload). It generates one workload's inputs from --seed, sets up the
// worker pools and reducers, then runs the workload's cells interleaved rep
// by rep, so that drift on the host hits every cell alike. Every measured rep
// is verified. The process prints one JSON object of raw samples and
// counters on stdout; run.py computes every statistic.
//
// The program calls only the cilkm library's public entry points
// (Scheduler::run, parallel_for / fork2join, reducer::view, pbfs::pbfs) and
// reads per-layer counters through obs::capture, obs::Profiler and
// rt::Tracer. It includes nothing from src/workloads/ or bench/, so edits
// there cannot change what this benchmark measures.
//
//   cilkm_bench --build-info
//   cilkm_bench --workload lookup|merge|spawn|pbfs --seed N --procs P
//               [--traced DIR]
//
// An untraced process measures kRepsP reps of each P cell and kReps1 of each
// other cell. --traced DIR runs the traced pass instead: kTracedReps reps of
// only the P and P=1 cells, with obs::Profiler on, one extra mm-at-P rep
// under rt::Tracer exported to DIR/trace_<workload>.json, and the process's
// own spans written to DIR/spans_<workload>.json. run.py mirrors the three
// rep counts to count a crashed process's reps as failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "pbfs/graph.hpp"
#include "pbfs/pbfs.hpp"
#include "reducers/reducers.hpp"
#include "runtime/api.hpp"
#include "runtime/trace.hpp"
#include "topo/topology.hpp"
#include "util/timing.hpp"

namespace {

using cilkm::hypermap_policy;
using cilkm::mm_policy;
using cilkm::StatCounter;
namespace mem = cilkm::mem;
namespace pbfs = cilkm::pbfs;

// The cells of one round, in the order a round runs them. P cells use the
// P-worker pool, the 1 cells and `base` a one-worker pool; `serial` calls
// the same kernel with no scheduler (the serial elision).
enum Cell : unsigned { kMmP, kHypermapP, kMm1, kHypermap1, kSerial, kBase };
constexpr unsigned kNumCells = 6;
constexpr const char* kCellNames[kNumCells] = {
    "mm_P", "hypermap_P", "mm_1", "hypermap_1", "serial", "base"};

// Four processes give the P cells n=100, so their p90 has 10 samples beyond
// it, and the other cells n=32.
constexpr unsigned kRepsP = 25;
constexpr unsigned kReps1 = 8;
constexpr unsigned kTracedReps = 10;

bool is_p_cell(Cell c) { return c == kMmP || c == kHypermapP; }
bool is_hypermap_cell(Cell c) { return c == kHypermapP || c == kHypermap1; }

// splitmix64's output function: the input generator's hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Make the inputs and the expected outputs. Not part of set-up time.
  virtual void generate(std::uint64_t seed) = 0;
  /// Construct the reducers (part of set-up time).
  virtual void construct() {}
  /// Put the state `c` writes back to empty, outside the timed region.
  virtual void reset(Cell) {}
  /// The timed body: called inside Scheduler::run, or directly for kSerial.
  virtual void kernel(Cell c) = 0;
  /// True iff the rep of `c` that just ran produced the expected output.
  virtual bool verify(Cell c) = 0;
  /// Reducer updates (view lookups) one run performs.
  virtual std::uint64_t updates() const = 0;
  /// fork2join calls one run performs, or 0 where the P=1 overhead over the
  /// serial elision is not mostly spawn cost (runtime.spawn_ns is then n/a).
  virtual std::uint64_t fork2joins() const = 0;
};

// A counter alone on its cache line.
struct alignas(64) LineCounter {
  std::uint64_t n = 0;
  LineCounter& operator++() {
    ++n;
    return *this;
  }
  LineCounter& operator+=(const LineCounter& other) {
    n += other.n;
    return *this;
  }
};

std::uint64_t count(std::uint64_t c) { return c; }
std::uint64_t count(const LineCounter& c) { return c.n; }

// lookup and merge: `n` updates spread over `reducers` add-reducers of
// counter type T by a seeded hash, a histogram. The base cell runs the same
// loop on a plain array of T (the paper's add-base-n control).
//
// Each rep of a policy uses the next of `banks` sets of reducers. A
// hypermap's probe lengths depend on its keys, the reducers' heap addresses;
// with few reducers one set fixes one random layout per process, which moves
// hypermap times by a quarter between processes. Rotating sets samples a
// fresh layout per rep instead.
template <typename T>
class Histogram final : public Workload {
 public:
  Histogram(unsigned reducers, unsigned banks, std::int64_t n,
            std::int64_t grain)
      : reducers_(reducers), banks_(banks), n_(n), grain_(grain) {}

  void generate(std::uint64_t seed) override {
    idx_.resize(static_cast<std::size_t>(n_));
    expected_.assign(reducers_, 0);
    for (std::int64_t i = 0; i < n_; ++i) {
      const auto r = static_cast<std::uint16_t>(
          mix(seed + static_cast<std::uint64_t>(i)) % reducers_);
      idx_[static_cast<std::size_t>(i)] = r;
      ++expected_[r];
    }
  }

  void construct() override {
    for (unsigned r = 0; r < reducers_ * banks_; ++r) {
      mm_.push_back(std::make_unique<Add<mm_policy>>());
      hypermap_.push_back(std::make_unique<Add<hypermap_policy>>());
    }
    plain_.assign(reducers_, T{});
  }

  void reset(Cell c) override {
    if (c == kBase) {
      std::fill(plain_.begin(), plain_.end(), T{});
    } else if (is_hypermap_cell(c)) {
      hypermap_bank_ = (hypermap_bank_ + 1) % banks_;
      for (unsigned r = 0; r < reducers_; ++r) {
        hypermap_[hypermap_bank_ * reducers_ + r]->set_value(T{});
      }
    } else {
      mm_bank_ = (mm_bank_ + 1) % banks_;
      for (unsigned r = 0; r < reducers_; ++r) {
        mm_[mm_bank_ * reducers_ + r]->set_value(T{});
      }
    }
  }

  void kernel(Cell c) override {
    const std::uint16_t* idx = idx_.data();
    if (c == kBase) {
      T* plain = plain_.data();
      cilkm::parallel_for(0, n_, grain_,
                          [&](std::int64_t i) { ++plain[idx[i]]; });
    } else if (is_hypermap_cell(c)) {
      add(&hypermap_[hypermap_bank_ * reducers_]);
    } else {
      add(&mm_[mm_bank_ * reducers_]);
    }
  }

  bool verify(Cell c) override {
    for (unsigned r = 0; r < reducers_; ++r) {
      const std::uint64_t got =
          c == kBase ? count(plain_[r])
          : is_hypermap_cell(c)
              ? count(hypermap_[hypermap_bank_ * reducers_ + r]->get_value())
              : count(mm_[mm_bank_ * reducers_ + r]->get_value());
      if (got != expected_[r]) return false;
    }
    return true;
  }

  std::uint64_t updates() const override {
    return static_cast<std::uint64_t>(n_);
  }
  // Few forks and many view lookups: p1 - serial is mostly lookup cost.
  std::uint64_t fork2joins() const override { return 0; }

 private:
  template <typename Policy>
  using Add = cilkm::reducer<cilkm::op_add<T>, Policy>;

  template <typename Reducer>
  void add(const std::unique_ptr<Reducer>* bank) {
    const std::uint16_t* idx = idx_.data();
    cilkm::parallel_for(0, n_, grain_,
                        [&](std::int64_t i) { ++bank[idx[i]]->view(); });
  }

  unsigned reducers_;
  unsigned banks_;
  unsigned mm_bank_ = 0;
  unsigned hypermap_bank_ = 0;
  std::int64_t n_;
  std::int64_t grain_;
  std::vector<std::uint16_t> idx_;
  std::vector<std::uint64_t> expected_;
  std::vector<std::unique_ptr<Add<mm_policy>>> mm_;
  std::vector<std::unique_ptr<Add<hypermap_policy>>> hypermap_;
  std::vector<T> plain_;
};

template <typename Leaf>
std::uint64_t fib(int n, Leaf& leaf) {
  if (n < 2) {
    leaf();
    return static_cast<std::uint64_t>(n);
  }
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  cilkm::fork2join([&] { x = fib(n - 1, leaf); },
                   [&] { y = fib(n - 2, leaf); });
  return x + y;
}

// spawn: fib(32) with no serial cutoff, counting leaves in one add-reducer.
// Its input is fixed; the seed has nothing to vary. The base cell counts
// the leaves in a plain variable.
class Spawn final : public Workload {
 public:
  static constexpr int kN = 32;

  void generate(std::uint64_t) override {}

  void construct() override {
    mm_ = std::make_unique<Leaves<mm_policy>>();
    hypermap_ = std::make_unique<Leaves<hypermap_policy>>();
  }

  void reset(Cell c) override {
    plain_ = 0;
    result_ = 0;
    if (is_hypermap_cell(c)) {
      hypermap_->set_value(0);
    } else {
      mm_->set_value(0);
    }
  }

  void kernel(Cell c) override {
    if (c == kBase) {
      auto leaf = [this] { ++plain_; };
      result_ = fib(kN, leaf);
    } else if (is_hypermap_cell(c)) {
      auto leaf = [this] { ++hypermap_->view(); };
      result_ = fib(kN, leaf);
    } else {
      auto leaf = [this] { ++mm_->view(); };
      result_ = fib(kN, leaf);
    }
  }

  bool verify(Cell c) override {
    const std::uint64_t leaves = c == kBase ? plain_
                                 : is_hypermap_cell(c)
                                     ? hypermap_->get_value()
                                     : mm_->get_value();
    return result_ == fibonacci(kN) && leaves == fibonacci(kN + 1);
  }

  // Every call with n >= 2 forks once and every other call is a leaf:
  // fib(n) makes F(n+1) leaves and F(n+1) - 1 fork2joins.
  std::uint64_t updates() const override { return fibonacci(kN + 1); }
  std::uint64_t fork2joins() const override { return fibonacci(kN + 1) - 1; }

 private:
  template <typename Policy>
  using Leaves = cilkm::reducer_opadd<std::uint64_t, Policy>;

  static std::uint64_t fibonacci(int n) {
    std::uint64_t a = 0;
    std::uint64_t b = 1;
    for (int i = 0; i < n; ++i) a = std::exchange(b, a + b);
    return a;
  }

  std::unique_ptr<Leaves<mm_policy>> mm_;
  std::unique_ptr<Leaves<hypermap_policy>> hypermap_;
  std::uint64_t plain_ = 0;
  std::uint64_t result_ = 0;
};

// pbfs: PBFS over an R-MAT graph from vertex 0, checked against serial_bfs
// computed once from the same graph. The base cell is serial_bfs itself:
// the library has no PBFS over plain storage.
class Pbfs final : public Workload {
 public:
  void generate(std::uint64_t seed) override {
    graph_ = pbfs::rmat(19, 8ULL << 19, 0.45, 0.22, 0.22, seed);
    expected_ = pbfs::serial_bfs(graph_, 0);
  }

  void kernel(Cell c) override {
    if (c == kBase) {
      got_ = pbfs::serial_bfs(graph_, 0);
    } else if (is_hypermap_cell(c)) {
      got_ = pbfs::pbfs<hypermap_policy>(graph_, 0);
    } else {
      got_ = pbfs::pbfs<mm_policy>(graph_, 0);
    }
  }

  bool verify(Cell c) override {
    const bool ok = got_.num_layers == expected_.num_layers &&
                    got_.dist == expected_.dist;
    if (c == kMm1) lookups_ = got_.reducer_lookups;
    got_ = {};
    return ok;
  }

  std::uint64_t updates() const override { return lookups_; }
  // pbfs::pbfs's fork count depends on its internal grain, and its P=1
  // overhead includes the bag reducer's.
  std::uint64_t fork2joins() const override { return 0; }

 private:
  pbfs::Graph graph_;
  pbfs::BfsResult expected_;
  pbfs::BfsResult got_;
  std::uint64_t lookups_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  // lookup: 64 reducers, mostly view lookups and writes (paper Figure 6).
  // Each view has a cache line to itself: 8-byte views share lines across
  // workers, and that false sharing makes P-worker times swing several-fold
  // with the host's inter-core latency (README.md, "Seed finding").
  if (name == "lookup") {
    return std::make_unique<Histogram<LineCounter>>(64, 32, 1 << 24, 1 << 16);
  }
  // merge: 4096 reducers of 8-byte views, so every steal creates, transfers
  // and merges thousands of views (paper Figures 7 and 8).
  if (name == "merge") {
    return std::make_unique<Histogram<std::uint64_t>>(4096, 1, 1 << 23,
                                                      1 << 12);
  }
  if (name == "spawn") return std::make_unique<Spawn>();
  if (name == "pbfs") return std::make_unique<Pbfs>();
  return nullptr;
}

// The benchmark's own spans (traced pass only): kept in memory, written as
// Chrome trace_event JSON at exit. One pid per process; every span carries
// its id and its parent's id.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  unsigned begin(std::string name, unsigned parent) {
    if (!on_) return 0;
    spans_.push_back({std::move(name), parent, cilkm::now_ns(), 0});
    return static_cast<unsigned>(spans_.size());
  }
  void end(unsigned id) {
    if (id != 0) spans_[id - 1].end_ns = cilkm::now_ns();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().begin_ns;
    const long pid = static_cast<long>(getpid());
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": %ld, "
                   "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %u}}",
                   i == 0 ? "" : ",", s.name.c_str(), pid,
                   static_cast<double>(s.begin_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.begin_ns) / 1e3, i + 1,
                   s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    unsigned parent;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };
  bool on_;
  std::vector<Span> spans_;
};

// Per-cell results, summed over measured reps.
struct CellResult {
  std::vector<double> samples;
  cilkm::WorkerStats counters;                       // P cells
  std::array<std::uint64_t, mem::kNumTags> refills{};  // P cells
  cilkm::obs::RunProfile profile;                    // traced pass
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  unsigned procs = 0;
  std::string traced_dir;  // empty: untraced pass
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "cilkm_bench: %s\nusage: cilkm_bench --build-info\n"
               "       cilkm_bench --workload lookup|merge|spawn|pbfs "
               "--seed N --procs P [--traced DIR]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_uint(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = parse_uint(v, "--seed");
    } else if (flag == "--procs") {
      o.procs = static_cast<unsigned>(parse_uint(v, "--procs"));
    } else if (flag == "--traced") {
      o.traced_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (o.procs == 0 || o.procs > 256) usage("--procs must be in 1..256");
  return o;
}

void print_build_info() {
  std::printf(
      "{\"build_type\": \"%s\", \"sanitize\": \"%s\", \"compiler\": \"%s\", "
      "\"topology\": \"%s\", \"hardware_concurrency\": %u}\n",
      CILKM_BENCH_BUILD_TYPE, CILKM_BENCH_SANITIZE, CILKM_BENCH_COMPILER,
      cilkm::topo::Topology::machine().describe().c_str(),
      std::thread::hardware_concurrency());
}

void print_samples(const std::vector<double>& samples) {
  std::printf("[");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", samples[i]);
  }
  std::printf("]");
}

void print_counters(const CellResult& r) {
  const cilkm::WorkerStats& s = r.counters;
  std::printf("{");
  for (unsigned c = 0; c < static_cast<unsigned>(StatCounter::kCount); ++c) {
    const auto counter = static_cast<StatCounter>(c);
    std::printf("\"%s\": %llu, ", std::string(to_string(counter)).c_str(),
                static_cast<unsigned long long>(s[counter]));
  }
  std::uint64_t lat_ns = 0;
  std::uint64_t lat_count = 0;
  for (std::size_t t = 0; t < cilkm::WorkerStats::kStealTiers; ++t) {
    lat_ns += s.steal_lat_ns[t];
    lat_count += s.steal_lat_count[t];
  }
  std::printf("\"steal_lat_ns\": %llu, \"steal_lat_count\": %llu",
              static_cast<unsigned long long>(lat_ns),
              static_cast<unsigned long long>(lat_count));
  for (std::size_t t = 0; t < mem::kNumTags; ++t) {
    std::printf(", \"mem.%s.refills\": %llu",
                mem::to_string(static_cast<mem::AllocTag>(t)),
                static_cast<unsigned long long>(r.refills[t]));
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--build-info") == 0) {
    print_build_info();
    return 0;
  }
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> work = make_workload(opt.workload);
  if (!work) usage(("unknown workload " + opt.workload).c_str());
  const bool traced = !opt.traced_dir.empty();
  auto& profiler = cilkm::obs::Profiler::instance();
  auto& tracer = cilkm::rt::Tracer::instance();

  SpanLog spans(traced);
  const unsigned process_span = spans.begin("process " + opt.workload, 0);

  unsigned span = spans.begin("input generation", process_span);
  work->generate(opt.seed);
  spans.end(span);

  // The traced pass measures only the cells the profiler can see (a serial
  // elision never enters Scheduler::run) with the same reps for P and 1.
  std::array<unsigned, kNumCells> reps{};
  for (unsigned c = 0; c < kNumCells; ++c) {
    if (traced) {
      reps[c] = c == kSerial || c == kBase ? 0 : kTracedReps;
    } else {
      reps[c] = is_p_cell(static_cast<Cell>(c)) ? kRepsP : kReps1;
    }
  }

  span = spans.begin("setup", process_span);
  const std::uint64_t setup_t0 = cilkm::now_ns();
  cilkm::Scheduler pool_p(opt.procs);
  cilkm::Scheduler pool_1(1);
  pool_p.warm_up();
  pool_1.warm_up();
  work->construct();

  std::array<CellResult, kNumCells> cells;
  unsigned attempted = 0;
  unsigned failed = 0;

  // One rep of cell `c`: reset, time, verify. Measured reps also collect
  // the P cells' counters and, in the traced pass, the profile.
  auto run_rep = [&](Cell c, bool measured) {
    const unsigned rep_span =
        measured ? spans.begin(std::string("rep ") + kCellNames[c], process_span)
                 : 0;
    work->reset(c);
    cilkm::Scheduler* pool =
        is_p_cell(c) ? &pool_p : (c == kSerial ? nullptr : &pool_1);
    cilkm::obs::MetricsSnapshot before;
    if (measured && is_p_cell(c)) {
      pool_p.reset_stats();
      before = cilkm::obs::capture(nullptr);
    }
    if (measured && traced) profiler.reset();
    const unsigned run_span = measured ? spans.begin(
        pool != nullptr ? "Scheduler::run" : "serial elision", rep_span) : 0;
    bool threw = false;
    const std::uint64_t t0 = cilkm::now_ns();
    try {
      if (pool != nullptr) {
        pool->run([&] { work->kernel(c); });
      } else {
        work->kernel(c);
      }
    } catch (...) {
      threw = true;
    }
    const std::uint64_t t1 = cilkm::now_ns();
    spans.end(run_span);
    if (!measured) return;
    CellResult& r = cells[c];
    r.samples.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (is_p_cell(c)) {
      const cilkm::obs::MetricsSnapshot after = cilkm::obs::capture(&pool_p);
      r.counters += after.aggregate;
      for (std::size_t t = 0; t < mem::kNumTags; ++t) {
        r.refills[t] += after.mem_tags[t].refills - before.mem_tags[t].refills;
      }
    }
    if (traced) {
      const cilkm::obs::RunProfile p = profiler.totals();
      r.profile.runs += p.runs;
      r.profile.work_ns += p.work_ns;
      r.profile.span_ns += p.span_ns;
      r.profile.burdened_span_ns += p.burdened_span_ns;
    }
    const unsigned verify_span = spans.begin("verify", rep_span);
    ++attempted;
    if (threw || !work->verify(c)) ++failed;
    spans.end(verify_span);
    spans.end(rep_span);
  };

  for (unsigned c = 0; c < kNumCells; ++c) {
    if (reps[c] != 0) run_rep(static_cast<Cell>(c), false);
  }
  const double setup_s = static_cast<double>(cilkm::now_ns() - setup_t0) / 1e9;
  spans.end(span);

  if (traced) profiler.enable();
  const unsigned rounds = *std::max_element(reps.begin(), reps.end());
  for (unsigned round = 0; round < rounds; ++round) {
    for (unsigned c = 0; c < kNumCells; ++c) {
      if (round < reps[c]) run_rep(static_cast<Cell>(c), true);
    }
  }
  profiler.disable();

  bool trace_ok = true;
  if (traced) {
    // One extra mm-at-P rep under the tracer, exported on its own.
    span = spans.begin("rep mm_P traced", process_span);
    work->reset(kMmP);
    pool_p.reset_stats();
    tracer.reset();
    tracer.enable();
    const unsigned run_span = spans.begin("Scheduler::run", span);
    pool_p.run([&] { work->kernel(kMmP); });
    spans.end(run_span);
    tracer.disable();
    const unsigned verify_span = spans.begin("verify", span);
    ++attempted;
    if (!work->verify(kMmP)) ++failed;
    spans.end(verify_span);
    spans.end(span);
    const std::string dir = opt.traced_dir + "/";
    trace_ok = cilkm::obs::export_chrome_trace_file(
        dir + "trace_" + opt.workload + ".json",
        cilkm::obs::capture(&pool_p));
    spans.end(process_span);
    trace_ok = spans.write(dir + "spans_" + opt.workload + ".json") && trace_ok;
  }

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"procs\": %u, "
              "\"trace_written\": %s, ",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.procs, trace_ok ? "true" : "false");
  std::printf("\"setup_s\": %.9g, \"peak_rss_kb\": %ld, \"updates\": %llu, "
              "\"fork2joins\": %llu, \"attempted\": %u, \"failed\": %u, ",
              setup_s, usage_self.ru_maxrss,
              static_cast<unsigned long long>(work->updates()),
              static_cast<unsigned long long>(work->fork2joins()), attempted,
              failed);
  std::printf("\"cells\": {");
  bool first = true;
  for (unsigned c = 0; c < kNumCells; ++c) {
    const CellResult& r = cells[c];
    if (r.samples.empty()) continue;
    std::printf("%s\n  \"%s\": {\"reps\": %zu, \"samples\": ",
                first ? "" : ",", kCellNames[c], r.samples.size());
    first = false;
    print_samples(r.samples);
    if (is_p_cell(static_cast<Cell>(c))) {
      std::printf(", \"counters\": ");
      print_counters(r);
    }
    if (traced) {
      std::printf(", \"profile\": {\"runs\": %llu, \"work_ns\": %llu, "
                  "\"span_ns\": %llu, \"burdened_span_ns\": %llu}",
                  static_cast<unsigned long long>(r.profile.runs),
                  static_cast<unsigned long long>(r.profile.work_ns),
                  static_cast<unsigned long long>(r.profile.span_ns),
                  static_cast<unsigned long long>(r.profile.burdened_span_ns));
    }
    std::printf("}");
  }
  std::printf("\n}}\n");
  return 0;
}
