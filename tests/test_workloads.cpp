// The scenario matrix as the regression suite: every registered workload ×
// every view-store policy (mm/spa, hypermap) × P ∈ {1, 2,
// hardware_concurrency}, each cell self-verifying against its serial
// reference. The parameter list is generated from the workload registry, so
// registering a new workload automatically grows this sweep (and CTest,
// via gtest_discover_tests). Cells run on one shared persistent Scheduler
// per worker count (see shared_pool), mirroring cilkm_run's pool reuse.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/scheduler.hpp"
#include "test_support.hpp"
#include "workloads/driver.hpp"
#include "workloads/workload.hpp"

namespace {

using cilkm::workloads::PolicyKind;
using cilkm::workloads::Registry;
using cilkm::workloads::RunConfig;
using cilkm::workloads::RunResult;
using cilkm::workloads::Workload;

// gtest prints a Cell byte by byte after each case's name, and CTest names
// include that printout, so a cell holds its workload's registry index, not
// its address: the names are then the same in every listing.
struct Cell {
  std::size_t workload_index;
  PolicyKind policy;
  unsigned workers;

  const Workload& workload() const {
    return Registry::instance().all()[workload_index];
  }
};
static_assert(std::has_unique_object_representations_v<Cell>);

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return info.param.workload().name + "_" +
         cilkm::workloads::policy_name(info.param.policy) + "_P" +
         std::to_string(info.param.workers);
}

std::vector<Cell> matrix() {
  std::vector<Cell> cells;
  const std::size_t num_workloads = Registry::instance().all().size();
  for (std::size_t w = 0; w < num_workloads; ++w) {
    for (const PolicyKind policy : cilkm::workloads::kAllPolicies) {
      for (const unsigned p : cilkm::workloads::default_worker_counts()) {
        cells.push_back({w, policy, p});
      }
    }
  }
  return cells;
}

/// One persistent Scheduler per worker count, shared by every cell in this
/// process — the same pool-reuse discipline cilkm_run's run_matrix uses, so
/// the sweep exercises warm workers instead of rebuilding a thread pool per
/// cell. Intentionally leaked: the pools must outlive every test, and a
/// static destructor joining threads during process teardown buys nothing.
cilkm::rt::Scheduler* shared_pool(unsigned workers) {
  static auto* pools =
      new std::map<unsigned, std::unique_ptr<cilkm::rt::Scheduler>>;
  auto& pool = (*pools)[workers];
  if (pool == nullptr) pool = std::make_unique<cilkm::rt::Scheduler>(workers);
  return pool.get();
}

class WorkloadMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(WorkloadMatrix, CellVerifiesAgainstSerialReference) {
  SCOPED_TRACE(cilkm::test::seed_trace());
  const Cell& cell = GetParam();
  RunConfig cfg;
  cfg.scale = 1;
  cfg.seed = cilkm::test::base_seed();
  cfg.scheduler = shared_pool(cell.workers);
  const RunResult result = cell.workload().run_policy(cell.policy, cfg);
  EXPECT_TRUE(result.verified)
      << cell.workload().name << " under "
      << cilkm::workloads::policy_name(cell.policy) << " with P="
      << cell.workers << ": " << result.detail;
  EXPECT_GT(result.seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllCells, WorkloadMatrix,
                         ::testing::ValuesIn(matrix()), cell_name);

// The registry itself: the acceptance floor of nine workloads, uniqueness,
// and a populated run table for every policy.
TEST(WorkloadRegistry, AtLeastNineWorkloadsAllComplete) {
  const auto& all = Registry::instance().all();
  EXPECT_GE(all.size(), 9u);
  for (const Workload& w : all) {
    EXPECT_FALSE(w.name.empty());
    EXPECT_FALSE(w.summary.empty());
    for (int p = 0; p < cilkm::workloads::kNumPolicies; ++p) {
      EXPECT_NE(w.run[p], nullptr) << w.name;
    }
    EXPECT_EQ(Registry::instance().find(w.name), &w);
  }
}

TEST(WorkloadRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(Registry::instance().find("no_such_workload"), nullptr);
}

// Driver plumbing: flag parsing and policy names round-trip.
TEST(WorkloadDriver, ParsesFlagsAndRejectsGarbage) {
  using cilkm::workloads::DriverOptions;
  const char* argv_ok[] = {"cilkm_run", "--workload", "pbfs",    "--policy",
                           "hypermap",  "--workers",  "1,2,4",   "--scale",
                           "2",         "--seed",     "0x12345"};
  DriverOptions opts;
  ASSERT_TRUE(cilkm::workloads::parse_driver_options(
      static_cast<int>(std::size(argv_ok)), const_cast<char**>(argv_ok),
      &opts));
  EXPECT_EQ(opts.workload_names, std::vector<std::string>{"pbfs"});
  ASSERT_EQ(opts.policies.size(), 1u);
  EXPECT_EQ(opts.policies[0], PolicyKind::kHypermap);
  EXPECT_EQ(opts.workers, (std::vector<unsigned>{1, 2, 4}));
  EXPECT_EQ(opts.scale, 2u);
  EXPECT_EQ(opts.seed, 0x12345u);

  const char* argv_bad[] = {"cilkm_run", "--policy", "spaghetti"};
  DriverOptions bad;
  EXPECT_FALSE(cilkm::workloads::parse_driver_options(
      3, const_cast<char**>(argv_bad), &bad));

  const char* argv_bad2[] = {"cilkm_run", "--workers", "0"};
  DriverOptions bad2;
  EXPECT_FALSE(cilkm::workloads::parse_driver_options(
      3, const_cast<char**>(argv_bad2), &bad2));
}

TEST(WorkloadDriver, PolicyNamesRoundTrip) {
  for (const PolicyKind kind : cilkm::workloads::kAllPolicies) {
    PolicyKind parsed;
    ASSERT_TRUE(cilkm::workloads::parse_policy(
        cilkm::workloads::policy_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  PolicyKind ignored;
  EXPECT_FALSE(cilkm::workloads::parse_policy("spa_map", &ignored));
}

}  // namespace
