// Death tests for the hard aborts that remain AFTER the graceful-degradation
// paths: the run watchdog (a stalled epoch dumps diagnostics and aborts
// instead of hanging) and the assert-context hook (aborts carry the worker
// id and the failing strand's pedigree). Deque overflow degrades instead of
// aborting (see test_chaos.cpp). The HyperMap duplicate-insert death test
// lives with the other hypermap tests (test_hypermap.cpp). Each EXPECT_DEATH
// body runs in a forked child, so aborting a process-wide singleton there
// leaves this process untouched.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/api.hpp"
#include "runtime/worker.hpp"
#include "util/assert.hpp"

// Death tests fork; under TSan the forked child of a threaded parent is not
// reliably instrumentable (and the watchdog's mid-run metrics snapshot is a
// deliberate best-effort race), so skip the whole file there.
#if defined(__SANITIZE_THREAD__)
#define CILKM_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CILKM_TEST_TSAN 1
#endif
#endif

namespace {

#ifdef CILKM_TEST_TSAN
#define CILKM_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "death tests are skipped under ThreadSanitizer"
#else
#define CILKM_SKIP_UNDER_TSAN() (void)0
#endif

TEST(WatchdogDeathTest, StalledRunDumpsAndAborts) {
  CILKM_SKIP_UNDER_TSAN();
  // The child creates worker threads, so the fork-based default style is
  // unsafe; threadsafe re-executes the test binary instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cilkm::SchedulerOptions so;
        so.watchdog_ms = 100;
        cilkm::Scheduler sched(1, so);
        // A root strand that blocks without spawning makes no scheduling
        // progress: the watchdog must dump state and abort rather than let
        // run() wait forever.
        sched.run([] {
          std::this_thread::sleep_for(std::chrono::seconds(30));
        });
      },
      "run watchdog: no scheduling progress");
}

TEST(AssertContextDeathTest, WorkerAbortCarriesIdAndPedigree) {
  CILKM_SKIP_UNDER_TSAN();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cilkm::Scheduler sched(2);
        sched.run([] {
          cilkm::fork2join(
              [] {
                cilkm::fork2join([] { CILKM_CHECK(false, "forced failure"); },
                                 [] {});
              },
              [] {});
        });
      },
      "on worker [0-9]+, pedigree \\(root->leaf\\):");
}

TEST(AssertContextDeathTest, ExternalThreadAbortSaysSo) {
  CILKM_SKIP_UNDER_TSAN();
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        cilkm::rt::install_assert_context();
        CILKM_CHECK(false, "forced failure outside any worker");
      },
      "on an external thread \\(no worker\\)");
}

}  // namespace
