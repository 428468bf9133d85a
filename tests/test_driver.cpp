// The cilkm_run driver CLI and run_matrix behaviour: --help exits cleanly
// without running the matrix, bad or out-of-range numeric values are
// rejected instead of silently defaulted or wrapped, a matrix run writes no
// file, and a fuzz sweep gets the matrix's --profile and --trace-out. Plus
// the figure benches' flag parser (bench/harness.hpp) and the sample
// statistics behind it (util/run_stat.hpp).
#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
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
  EXPECT_FALSE(parse({"--fuzz-iters", "3x"}, &opts2));
  DriverOptions opts3;
  EXPECT_FALSE(parse({"--seed", "0xZZ"}, &opts3));
}

TEST(DriverCli, RejectsNegativeSeed) {
  // strtoull would silently wrap "-1" to 2^64-1.
  DriverOptions opts;
  EXPECT_FALSE(parse({"--seed", "-1"}, &opts));
}

TEST(DriverCli, RejectsOutOfRangeCounts) {
  // A count past its destination's range used to wrap (2^32+1 ran as 1) or
  // saturate (10^20 ran as 2^32-1) instead of being rejected.
  for (const char* flag : {"--scale", "--fuzz-iters", "--watchdog-ms"}) {
    for (const char* value : {"4294967297", "100000000000000000000"}) {
      DriverOptions opts;
      EXPECT_FALSE(parse({flag, value}, &opts)) << flag << " " << value;
    }
  }
}

TEST(DriverCli, RejectsOutOfRangeSeeds) {
  // strtoull saturated these to 2^64-1.
  for (const char* flag : {"--seed", "--chaos-seed"}) {
    for (const char* value : {"0x1ffffffffffffffff", "100000000000000000000"}) {
      DriverOptions opts;
      EXPECT_FALSE(parse({flag, value}, &opts)) << flag << " " << value;
    }
  }
  DriverOptions max;
  ASSERT_TRUE(parse({"--seed", "0xffffffffffffffff"}, &max));
  EXPECT_EQ(max.seed, ~std::uint64_t{0});
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
  // --watchdog-ms reaches the pools a fuzz sweep runs its composites on.
  // At P=1 this composite runs for tens of milliseconds with no scheduling
  // progress after its root launch, far past the 1 ms stall window.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DriverOptions opts;
  ASSERT_TRUE(parse({"--fuzz", "--seed", "0x5eed5eed5eed5ef5",
                     "--fuzz-iters", "1", "--workers", "1", "--scale", "200",
                     "--watchdog-ms", "1"},
                    &opts));
  EXPECT_DEATH(run_matrix(opts), "run watchdog");
}

TEST(DriverCli, RejectsTrailingFlagWithNoValue) {
  DriverOptions opts;
  EXPECT_FALSE(parse({"--workers"}, &opts));
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--workload", "fib", "--seed"}, &opts2));
}

TEST(DriverCli, ParsesAValidCommandLine) {
  DriverOptions opts;
  ASSERT_TRUE(parse({"--workload", "fib", "--policy", "mm", "--workers",
                     "1,2", "--scale", "2"},
                    &opts));
  EXPECT_EQ(opts.workload_names, std::vector<std::string>{"fib"});
  ASSERT_EQ(opts.workers.size(), 2u);
  EXPECT_EQ(opts.scale, 2u);
  // The driver writes no JSON report, so the flag that named it is gone;
  // every cell runs once, and --seed is also the fuzz sweep's base seed.
  for (const char* flag : {"--figure", "--reps", "--fuzz-seed"}) {
    DriverOptions opts2;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(parse({flag, "1"}, &opts2)) << flag;
    EXPECT_NE(testing::internal::GetCapturedStderr().find("unknown flag"),
              std::string::npos)
        << flag;
  }
}

TEST(DriverCli, FuzzRejectsMatrixOnlyFlags) {
  // A sweep draws its own composites, so naming a workload or asking for
  // the list under --fuzz is an error, not silently ignored.
  DriverOptions opts;
  EXPECT_FALSE(parse({"--fuzz", "--workload", "fib"}, &opts));
  DriverOptions opts2;
  EXPECT_FALSE(parse({"--list", "--fuzz"}, &opts2));
  DriverOptions opts3;
  ASSERT_TRUE(parse({"--fuzz", "--seed", "7", "--fuzz-iters", "3"}, &opts3));
  EXPECT_TRUE(opts3.fuzz);
  EXPECT_EQ(opts3.seed, 7u);
  EXPECT_EQ(opts3.fuzz_iters, 3);
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

  // A fuzz sweep takes the same path: a profile: line under every
  // composite's row.
  DriverOptions fuzz;
  ASSERT_TRUE(parse({"--fuzz", "--fuzz-iters", "3", "--profile"}, &fuzz));
  testing::internal::CaptureStdout();
  EXPECT_EQ(run_matrix(fuzz), 0);
  const std::string fuzz_out = testing::internal::GetCapturedStdout();
  const std::regex composite_then_profile(
      "0x[0-9a-f]+ +[a-z_]+ +[a-z-]+ +(mm|hypermap) +[124] +ok[^\n]*\n"
      "  profile: work [0-9.]+ms span [0-9.]+ms parallelism [0-9.]+ "
      "burdened-span [0-9.]+ms burdened-parallelism [0-9.]+\n");
  const auto rows = std::distance(
      std::sregex_iterator(fuzz_out.begin(), fuzz_out.end(),
                           composite_then_profile),
      std::sregex_iterator());
  EXPECT_EQ(rows, 3) << fuzz_out;
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

    // Under --fuzz the trace covers the last composite.
    DriverOptions fuzz;
    ASSERT_TRUE(parse({"--fuzz", "--fuzz-iters", "2", "--workers", "2",
                       "--trace-out", "trace_fuzz.json"},
                      &fuzz));
    EXPECT_EQ(run_matrix(fuzz), 0);
    std::ifstream fuzz_in("trace_fuzz.json");
    ASSERT_TRUE(fuzz_in.is_open());
    const std::string fuzz_json((std::istreambuf_iterator<char>(fuzz_in)),
                                std::istreambuf_iterator<char>());
    EXPECT_NE(fuzz_json.find("\"schema\":\"cilkm-trace-v1\""),
              std::string::npos);
    EXPECT_NE(fuzz_json.find("root_done"), std::string::npos);
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

TEST(FlagInt, OutOfRangeValueIsAHardError) {
  // Past the destination's range: 2^32+1 used to wrap to one rep, and 10^20
  // to saturate.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* wraps[] = {"bench", "--reps", "4294967297"};
  EXPECT_EXIT(bench::flag_int(3, const_cast<char**>(wraps), "--reps", 5, 1),
              ::testing::ExitedWithCode(2),
              "bad value '4294967297' for --reps");
  const char* saturates[] = {"bench", "--lookups", "100000000000000000000"};
  EXPECT_EXIT(bench::flag_int<std::uint64_t>(
                  3, const_cast<char**>(saturates), "--lookups", 1 << 24),
              ::testing::ExitedWithCode(2),
              "bad value '100000000000000000000' for --lookups");
}

TEST(FlagInt, ZeroRepsIsAHardError) {
  // fig09_speedup --reps 0 printed tables of -nan and exited 0.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const char* argv[] = {"bench", "--reps", "0"};
  EXPECT_EXIT(bench::flag_int(3, const_cast<char**>(argv), "--reps", 3, 1),
              ::testing::ExitedWithCode(2),
              "bad value '0' for --reps \\(want an integer in \\[1, ");
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
