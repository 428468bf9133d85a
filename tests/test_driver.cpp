// The cilkm_run driver CLI and run_matrix behaviour: --help exits cleanly
// without running the matrix, bad numeric values are rejected instead of
// silently defaulted, and a matrix run writes no file. Plus the figure
// benches' flag parser (bench/harness.hpp) and the sample statistics both
// share (util/run_stat.hpp).
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "util/run_stat.hpp"
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

/// Every entry of `dir` but "." and "..".
std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      out.emplace_back(e->d_name);
    }
  }
  closedir(d);
  return out;
}

/// Runs `fn` with the working directory switched to a fresh temp dir, then
/// restores it; returns the files the callback left behind.
template <typename Fn>
std::vector<std::string> files_created_by(Fn&& fn) {
  char old_cwd[4096];
  EXPECT_NE(getcwd(old_cwd, sizeof old_cwd), nullptr);
  char tmpl[] = "/tmp/cilkm_driver_test_XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  EXPECT_EQ(chdir(dir), 0);
  fn();
  std::vector<std::string> files = files_in(".");
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
  ASSERT_TRUE(parse({"--pin"}, &opts));
  EXPECT_TRUE(opts.sched.pin);

  DriverOptions defaults;
  ASSERT_TRUE(parse({}, &defaults));
  EXPECT_FALSE(defaults.sched.pin);
}

TEST(DriverCli, TopologyFlagsRejectGarbage) {
  // The scheduling policy is fixed, so no flag selects a placement, victim
  // order or batch size: each of these is an unknown flag.
  for (const char* flag :
       {"--placement", "--wake-batch", "--steal", "--steal-batch"}) {
    DriverOptions opts;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse({flag, "1"}, &opts)) << flag;
    EXPECT_NE(testing::internal::GetCapturedStderr().find("unknown flag"),
              std::string::npos)
        << flag;
  }
}

TEST(DriverCli, PinnedRestrictedMatrixRunsClean) {
  // The taskset-restricted CI job's configuration in miniature: pinning plus
  // locality stealing on whatever (possibly 1-CPU) mask this process has.
  DriverOptions opts = small_matrix();
  opts.sched.pin = true;
  EXPECT_EQ(run_matrix(opts), 0);
}

TEST(DriverCliDeathTest, FuzzSweepHonoursTheWatchdog) {
  // --watchdog-ms reaches the fuzzer's pools as it reaches the matrix's.
  // At P=1 this composite runs for tens of milliseconds with no scheduling
  // progress after its root launch, far past the 1 ms stall window.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DriverOptions opts;
  ASSERT_TRUE(parse({"--fuzz", "--fuzz-seed", "0x5eed5eed5eed5ef5",
                     "--fuzz-iters", "1", "--workers", "1", "--scale", "200",
                     "--watchdog-ms", "1"},
                    &opts));
  EXPECT_DEATH(run_matrix(opts), "run watchdog");
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
                     "1,2", "--scale", "2", "--reps", "3"},
                    &opts));
  EXPECT_EQ(opts.workload_names, std::vector<std::string>{"fib"});
  ASSERT_EQ(opts.workers.size(), 2u);
  EXPECT_EQ(opts.scale, 2u);
  EXPECT_EQ(opts.reps, 3);
  // The driver writes no JSON report, so the flag that named it is gone.
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--figure", "none"}, &opts2));
}

TEST(DriverMatrix, MatrixRunWritesNoFiles) {
  const auto files = files_created_by([] {
    EXPECT_EQ(run_matrix(small_matrix()), 0);
  });
  EXPECT_TRUE(files.empty()) << "stray file: " << files.front();
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
  DriverOptions opts = small_matrix();
  opts.profile = true;
  testing::internal::CaptureStdout();
  const int failures = run_matrix(opts);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(failures, 0);
  // One profile: line directly under the cell's row, with the full
  // work/span metric set.
  const std::regex cell_then_profile(
      "sum_loop +mm +2 +ok[^\n]*\n"
      "  profile: work [0-9.]+ms span [0-9.]+ms parallelism [0-9.]+ "
      "burdened-span [0-9.]+ms burdened-parallelism [0-9.]+\n");
  EXPECT_TRUE(std::regex_search(out, cell_then_profile)) << out;
}

TEST(DriverMatrix, TraceOutWritesChromeTraceJson) {
  files_created_by([] {
    DriverOptions opts = small_matrix();
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
  const auto files = files_created_by([] {
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

TEST(FlagInt, UnreadFlagIsAHardError) {
  // fig01_overhead reads --iters, so fig06's --lookups used to be ignored
  // and the run took the default 2^25 iterations.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"fig01_overhead", "--lookups", "1000", "--reps", "1"};
  char** args = const_cast<char**>(argv);
  EXPECT_EXIT(
      {
        bench::flag_int(5, args, "--iters", 1 << 25);
        bench::flag_int(5, args, "--reps", 5);
        bench::reject_unknown_flags(5, args);
      },
      ::testing::ExitedWithCode(2),
      "unknown flag '--lookups'; fig01_overhead accepts --iters --reps");
  // After the death statement, so the child's list holds only its reads:
  // a command line of flags that were all read passes.
  const char* ok[] = {"fig01_overhead", "--reps", "1"};
  bench::flag_int(3, const_cast<char**>(ok), "--reps", 5);
  bench::reject_unknown_flags(3, const_cast<char**>(ok));
}

TEST(RunStat, MedianOddEvenEmpty) {
  EXPECT_EQ(cilkm::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(cilkm::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(cilkm::median({7.0}), 7.0);
  EXPECT_EQ(cilkm::median({}), 0.0);
}

TEST(RunStat, RepeatFillsAllFields) {
  const cilkm::RunStat stat = bench::repeat(5, [] {});
  EXPECT_GE(stat.mean_s, 0.0);
  EXPECT_GE(stat.median_s, 0.0);
  EXPECT_GE(stat.stddev_s, 0.0);
}

}  // namespace
