// The cilkm_run driver CLI and run_matrix behaviour: --help exits cleanly
// without running the matrix, bad numeric values are rejected instead of
// silently defaulted, and no BENCH_*.json is written unless a figure is
// requested.
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "workloads/driver.hpp"

namespace {

using cilkm::workloads::DriverOptions;
using cilkm::workloads::parse_driver_options;
using cilkm::workloads::run_matrix;

bool parse(std::vector<const char*> args, DriverOptions* out) {
  args.insert(args.begin(), "cilkm_run");
  return parse_driver_options(static_cast<int>(args.size()),
                              const_cast<char**>(args.data()), out);
}

/// Files in `dir` whose name starts with BENCH_.
std::vector<std::string> bench_files_in(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (std::strncmp(e->d_name, "BENCH_", 6) == 0) out.emplace_back(e->d_name);
  }
  closedir(d);
  return out;
}

/// Runs `fn` with the working directory switched to a fresh temp dir, then
/// restores it; returns the BENCH_* files the callback left behind.
template <typename Fn>
std::vector<std::string> bench_files_created_by(Fn&& fn) {
  char old_cwd[4096];
  EXPECT_NE(getcwd(old_cwd, sizeof old_cwd), nullptr);
  char tmpl[] = "/tmp/cilkm_driver_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  EXPECT_EQ(chdir(dir), 0);
  fn();
  std::vector<std::string> files = bench_files_in(".");
  for (const std::string& f : files) unlink(f.c_str());
  EXPECT_EQ(chdir(old_cwd), 0);
  rmdir(dir);
  return files;
}

DriverOptions small_matrix() {
  DriverOptions opts;
  opts.workload_names.push_back("sum_loop");
  opts.policies.push_back(cilkm::workloads::PolicyKind::kMm);
  opts.workers.push_back(2);
  return opts;
}

TEST(DriverCli, HelpExitsCleanlyWithoutListing) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--help"}, &opts));
  EXPECT_TRUE(opts.help);
  // The pre-fix driver set list_only, so --help printed usage AND the
  // workload listing; now run_matrix has nothing to do.
  EXPECT_FALSE(opts.list_only);
  EXPECT_EQ(run_matrix(opts), 0);
}

TEST(DriverCli, RejectsNonNumericScale) {
  DriverOptions opts;
  EXPECT_FALSE(parse({"--scale", "abc"}, &opts));
}

TEST(DriverCli, RejectsPartiallyNumericValues) {
  // std::atol would have silently parsed these as 12 / 3.
  DriverOptions opts;
  EXPECT_FALSE(parse({"--scale", "12abc"}, &opts));
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--reps", "3x"}, &opts2));
  DriverOptions opts3;
  EXPECT_FALSE(parse({"--seed", "0xZZ"}, &opts3));
}

TEST(DriverCli, RejectsNegativeSeed) {
  // strtoull would silently wrap "-1" to 2^64-1.
  DriverOptions opts;
  EXPECT_FALSE(parse({"--seed", "-1"}, &opts));
}

TEST(DriverCli, TopologyFlagsParse) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--pin", "--placement", "compact", "--wake-batch", "4",
                     "--steal", "uniform"},
                    &opts));
  EXPECT_TRUE(opts.sched.pin);
  EXPECT_EQ(opts.sched.placement, cilkm::topo::Placement::kCompact);
  EXPECT_EQ(opts.sched.wake_batch, 4u);
  EXPECT_FALSE(opts.sched.locality_steal);

  // Defaults: locality stealing and batched wakes on, no pinning.
  DriverOptions defaults;
  ASSERT_TRUE(parse({}, &defaults));
  EXPECT_FALSE(defaults.sched.pin);
  EXPECT_EQ(defaults.sched.placement, cilkm::topo::Placement::kSpread);
  EXPECT_TRUE(defaults.sched.locality_steal);
  EXPECT_GE(defaults.sched.wake_batch, 2u);
}

TEST(DriverCli, StealBatchFlagParses) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--steal-batch", "1"}, &opts));
  EXPECT_EQ(opts.sched.steal_batch, 1u);
  DriverOptions opts2;
  ASSERT_TRUE(parse({"--steal-batch", "half"}, &opts2));
  EXPECT_EQ(opts2.sched.steal_batch, 0u);  // 0 encodes "half"
  DriverOptions opts3;
  ASSERT_TRUE(parse({"--steal-batch", "64"}, &opts3));
  EXPECT_EQ(opts3.sched.steal_batch, 64u);
  // Default: steal-half on.
  DriverOptions defaults;
  ASSERT_TRUE(parse({}, &defaults));
  EXPECT_EQ(defaults.sched.steal_batch, 0u);
}

TEST(DriverCli, StealBatchFlagRejectsGarbage) {
  DriverOptions opts;
  EXPECT_FALSE(parse({"--steal-batch", "0"}, &opts));  // spell it "half"
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--steal-batch", "65"}, &opts2));  // above the cap
  DriverOptions opts3;
  EXPECT_FALSE(parse({"--steal-batch", "-1"}, &opts3));
  DriverOptions opts4;
  EXPECT_FALSE(parse({"--steal-batch", "2x"}, &opts4));
  DriverOptions opts5;
  EXPECT_FALSE(parse({"--steal-batch", "halfish"}, &opts5));
  DriverOptions opts6;
  EXPECT_FALSE(parse({"--steal-batch"}, &opts6));  // trailing, no value
}

TEST(DriverCli, TopologyFlagsRejectGarbage) {
  DriverOptions opts;
  EXPECT_FALSE(parse({"--placement", "scatter"}, &opts));
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--placement"}, &opts2));  // trailing, no value
  DriverOptions opts3;
  EXPECT_FALSE(parse({"--wake-batch", "0"}, &opts3));
  DriverOptions opts4;
  EXPECT_FALSE(parse({"--wake-batch", "-2"}, &opts4));
  DriverOptions opts5;
  EXPECT_FALSE(parse({"--wake-batch", "3x"}, &opts5));
  DriverOptions opts5b;
  EXPECT_FALSE(parse({"--wake-batch", "17"}, &opts5b));  // above kMaxBatch
  DriverOptions opts6;
  EXPECT_FALSE(parse({"--steal", "sometimes"}, &opts6));
  DriverOptions opts7;
  EXPECT_FALSE(parse({"--wake-batch"}, &opts7));
  DriverOptions opts8;
  EXPECT_FALSE(parse({"--steal"}, &opts8));
}

TEST(DriverCli, PinnedRestrictedMatrixRunsClean) {
  // The taskset-restricted CI job's configuration in miniature: pinning plus
  // locality stealing on whatever (possibly 1-CPU) mask this process has.
  DriverOptions opts = small_matrix();
  opts.sched.pin = true;
  opts.figure.clear();
  EXPECT_EQ(run_matrix(opts), 0);
}

TEST(DriverCli, RejectsTrailingFlagWithNoValue) {
  DriverOptions opts;
  EXPECT_FALSE(parse({"--workers"}, &opts));
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--workload", "fib", "--reps"}, &opts2));
}

TEST(DriverCli, ParsesAValidCommandLine) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--workload", "fib", "--policy", "mm", "--workers",
                     "1,2", "--scale", "2", "--reps", "3", "--figure", "none"},
                    &opts));
  EXPECT_EQ(opts.workload_names, std::vector<std::string>{"fib"});
  ASSERT_EQ(opts.workers.size(), 2u);
  EXPECT_EQ(opts.scale, 2u);
  EXPECT_EQ(opts.reps, 3);
  EXPECT_TRUE(opts.figure.empty());
}

TEST(DriverMatrix, NoJsonWrittenWithoutFigure) {
  const auto files = bench_files_created_by([] {
    DriverOptions opts = small_matrix();
    opts.figure.clear();  // what --figure none produces
    EXPECT_EQ(run_matrix(opts), 0);
  });
  // The pre-fix driver unconditionally constructed JsonReport("unused") and
  // its destructor flushed BENCH_unused.json into the CWD.
  EXPECT_TRUE(files.empty()) << "stray file: " << files.front();
}

TEST(DriverMatrix, JsonWrittenWhenFigureRequested) {
  const auto files = bench_files_created_by([] {
    DriverOptions opts = small_matrix();
    opts.figure = "drvtest";
    EXPECT_EQ(run_matrix(opts), 0);
  });
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files.front(), "BENCH_drvtest.json");
}

TEST(DriverCli, ObservabilityFlagsParse) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--profile", "--trace-out", "t.json"}, &opts));
  EXPECT_TRUE(opts.profile);
  EXPECT_EQ(opts.trace_out, "t.json");

  // Defaults: everything off.
  DriverOptions defaults;
  ASSERT_TRUE(parse({}, &defaults));
  EXPECT_FALSE(defaults.profile);
  EXPECT_TRUE(defaults.trace_out.empty());

  DriverOptions opts2;
  EXPECT_FALSE(parse({"--trace-out"}, &opts2));  // trailing, no value
}

TEST(DriverMatrix, ProfileRowsEmittedInReport) {
  bench_files_created_by([] {
    DriverOptions opts = small_matrix();
    opts.profile = true;
    opts.figure = "proftest";
    EXPECT_EQ(run_matrix(opts), 0);
    std::ifstream in("BENCH_proftest.json");
    ASSERT_TRUE(in.is_open());
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    // One profile row per cell, with the full work/span metric set.
    EXPECT_NE(json.find("profile:sum_loop/mm"), std::string::npos);
    for (const char* key :
         {"\"work_ns\"", "\"span_ns\"", "\"parallelism\"",
          "\"burdened_span_ns\"", "\"burdened_parallelism\"", "\"runs\""}) {
      EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
    }
  });
}

TEST(DriverMatrix, TraceOutWritesChromeTraceJson) {
  bench_files_created_by([] {
    DriverOptions opts = small_matrix();
    opts.figure.clear();
    opts.trace_out = "trace_test.json";
    EXPECT_EQ(run_matrix(opts), 0);

    std::ifstream in("trace_test.json");
    ASSERT_TRUE(in.is_open());
    const std::string json((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"schema\":\"cilkm-trace-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("root_done"), std::string::npos);
    in.close();
    unlink("trace_test.json");
  });
}

TEST(DriverMatrix, ListOnlyWritesNoJson) {
  const auto files = bench_files_created_by([] {
    DriverOptions opts;
    opts.list_only = true;
    EXPECT_EQ(run_matrix(opts), 0);
  });
  EXPECT_TRUE(files.empty());
}

TEST(FlagInt, ReturnsDefaultWhenAbsent) {
  const char* argv[] = {"bench"};
  EXPECT_EQ(bench::flag_int(1, const_cast<char**>(argv), "--reps", 7), 7);
}

TEST(FlagInt, ParsesPresentValue) {
  const char* argv[] = {"bench", "--reps", "12"};
  EXPECT_EQ(bench::flag_int(3, const_cast<char**>(argv), "--reps", 7), 12);
}

TEST(FlagInt, MissingValueIsAHardError) {
  // The pre-fix loop condition (i + 1 < argc) silently skipped a trailing
  // flag and returned the default.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--reps"};
  EXPECT_EXIT(bench::flag_int(2, const_cast<char**>(argv), "--reps", 7),
              ::testing::ExitedWithCode(2), "missing value for --reps");
}

TEST(FlagInt, GarbageValueIsAHardError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--reps", "3x"};
  EXPECT_EXIT(bench::flag_int(3, const_cast<char**>(argv), "--reps", 7),
              ::testing::ExitedWithCode(2), "bad value '3x' for --reps");
}

TEST(FlagInt, NegativeValueIsAHardError) {
  // A negative rep/size count would reach repeat() as a huge size_t (e.g.
  // vector::reserve(size_t(-1))) — reject it at the CLI boundary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--reps", "-1"};
  EXPECT_EXIT(bench::flag_int(3, const_cast<char**>(argv), "--reps", 7),
              ::testing::ExitedWithCode(2), "bad value '-1' for --reps");
}

}  // namespace
