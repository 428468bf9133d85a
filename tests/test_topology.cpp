// The topo/ subsystem: sysfs discovery against canned golden trees (SMT
// on/off, multi-package, NUMA, cpuset-restricted masks, missing sysfs →
// flat fallback), spread placement, thread pinning, the ParkingLot's
// batched/LIFO targeted wake-ups, and the scheduler's locality-aware
// victim ordering (including the dedup-within-a-round regression fix).
#include <gtest/gtest.h>

#include <sched.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/parking.hpp"
#include "test_support.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"

namespace {

namespace fs = std::filesystem;
using cilkm::StatCounter;
using cilkm::rt::ParkingLot;
using cilkm::topo::CpuInfo;
using cilkm::topo::Topology;

using Proximity = Topology::Proximity;

// ---------------------------------------------------------------------------
// Canned sysfs trees. A SysfsTree owns a temp directory mimicking
// /sys/devices/system with cpu/ (and optionally node/) subtrees.
// ---------------------------------------------------------------------------

class SysfsTree {
 public:
  SysfsTree() {
    static std::atomic<unsigned> counter{0};
    root_ = fs::temp_directory_path() /
            ("cilkm_topo_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(root_ / "cpu");
  }
  ~SysfsTree() {
    if (root_.empty()) return;  // moved-from
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  // Movable (factories return by value and NRVO is not guaranteed for named
  // returns); never copyable — two owners would remove_all the same tree.
  SysfsTree(SysfsTree&& other) noexcept : root_(std::move(other.root_)) {
    other.root_.clear();
  }
  SysfsTree& operator=(SysfsTree&&) = delete;
  SysfsTree(const SysfsTree&) = delete;
  SysfsTree& operator=(const SysfsTree&) = delete;

  std::string path() const { return root_.string(); }

  void set_online(const std::string& cpulist) {
    write(root_ / "cpu" / "online", cpulist);
  }

  void add_cpu(unsigned cpu, long package, long core) {
    const fs::path topo = root_ / "cpu" / ("cpu" + std::to_string(cpu)) /
                          "topology";
    fs::create_directories(topo);
    write(topo / "physical_package_id", std::to_string(package));
    write(topo / "core_id", std::to_string(core));
  }

  void add_node(unsigned node, const std::string& cpulist) {
    const fs::path dir = root_ / "node" / ("node" + std::to_string(node));
    fs::create_directories(dir);
    write(dir / "cpulist", cpulist);
  }

 private:
  static void write(const fs::path& file, const std::string& content) {
    std::ofstream out(file);
    out << content << "\n";
  }
  fs::path root_;
};

/// The reference machine of most tests: 2 packages × 2 cores × 2 SMT
/// threads, siblings adjacent (cpu0/1 share pkg0-core0, …), NUMA node per
/// package.
SysfsTree make_two_package_smt_tree() {
  SysfsTree tree;
  tree.set_online("0-7");
  for (unsigned cpu = 0; cpu < 8; ++cpu) {
    tree.add_cpu(cpu, /*package=*/cpu / 4, /*core=*/(cpu % 4) / 2);
  }
  tree.add_node(0, "0-3");
  tree.add_node(1, "4-7");
  return tree;
}

// ---------------------------------------------------------------------------
// cpulist parsing
// ---------------------------------------------------------------------------

TEST(CpuList, ParsesRangesSinglesAndMixes) {
  EXPECT_EQ(cilkm::topo::parse_cpulist("0-3"),
            (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_EQ(cilkm::topo::parse_cpulist("5"), (std::vector<unsigned>{5}));
  EXPECT_EQ(cilkm::topo::parse_cpulist("0-2,8,10-11"),
            (std::vector<unsigned>{0, 1, 2, 8, 10, 11}));
  EXPECT_EQ(cilkm::topo::parse_cpulist(""), (std::vector<unsigned>{}));
  // Longest valid prefix on garbage; inverted ranges stop the parse.
  EXPECT_EQ(cilkm::topo::parse_cpulist("0-1,zzz"),
            (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(cilkm::topo::parse_cpulist("3-1"), (std::vector<unsigned>{}));
}

// ---------------------------------------------------------------------------
// Golden-tree discovery
// ---------------------------------------------------------------------------

TEST(TopologyDiscovery, SmtTreeGroupsSiblingsCoresPackagesAndNodes) {
  SysfsTree tree = make_two_package_smt_tree();
  const Topology topo = Topology::discover_at(tree.path());
  EXPECT_TRUE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 8u);
  EXPECT_EQ(topo.num_cores(), 4u);
  EXPECT_EQ(topo.num_packages(), 2u);
  EXPECT_EQ(topo.num_nodes(), 2u);

  EXPECT_EQ(topo.proximity(0, 1), Proximity::kSameCore);   // SMT siblings
  EXPECT_EQ(topo.proximity(0, 2), Proximity::kSamePackage);
  EXPECT_EQ(topo.proximity(0, 4), Proximity::kRemote);     // cross package
  EXPECT_EQ(topo.proximity(0, 0), Proximity::kSameCore);
  EXPECT_EQ(topo.proximity(6, 7), Proximity::kSameCore);

  const CpuInfo* cpu5 = topo.find(5);
  ASSERT_NE(cpu5, nullptr);
  EXPECT_EQ(cpu5->package, 1u);
  EXPECT_EQ(cpu5->node, 1u);
  EXPECT_EQ(topo.find(12), nullptr);
}

TEST(TopologyDiscovery, SmtOffTreeHasOneCpuPerCore) {
  SysfsTree tree;
  tree.set_online("0-3");
  for (unsigned cpu = 0; cpu < 4; ++cpu) {
    tree.add_cpu(cpu, /*package=*/0, /*core=*/cpu);
  }
  const Topology topo = Topology::discover_at(tree.path());
  EXPECT_TRUE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.num_cores(), 4u);
  EXPECT_EQ(topo.num_packages(), 1u);
  EXPECT_EQ(topo.proximity(0, 1), Proximity::kSamePackage);
  EXPECT_EQ(topo.proximity(0, 3), Proximity::kSamePackage);
}

TEST(TopologyDiscovery, CpusetRestrictedMaskIntersectsOnline) {
  SysfsTree tree = make_two_package_smt_tree();
  const std::vector<unsigned> mask{0, 2, 5};
  const Topology topo = Topology::discover_at(tree.path(), &mask);
  EXPECT_TRUE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 3u);
  EXPECT_EQ(topo.num_packages(), 2u);
  EXPECT_EQ(topo.proximity(0, 2), Proximity::kSamePackage);
  EXPECT_EQ(topo.proximity(0, 5), Proximity::kRemote);
  EXPECT_EQ(topo.find(1), nullptr);  // masked out
}

TEST(TopologyDiscovery, OnlineListWithHolesSkipsOfflineCpus) {
  SysfsTree tree = make_two_package_smt_tree();
  tree.set_online("0-2,4");  // cpu3 and cpus 5-7 offline
  const Topology topo = Topology::discover_at(tree.path());
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.find(3), nullptr);
  EXPECT_NE(topo.find(4), nullptr);
}

TEST(TopologyDiscovery, MissingSysfsFallsBackFlatOverMask) {
  const std::vector<unsigned> mask{0, 1};
  const Topology topo =
      Topology::discover_at("/nonexistent/cilkm/sysfs", &mask);
  EXPECT_FALSE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 2u);
  EXPECT_EQ(topo.num_packages(), 1u);
  // Flat: no false SMT siblings, everything one package.
  EXPECT_EQ(topo.proximity(0, 1), Proximity::kSamePackage);
}

TEST(TopologyDiscovery, MaskOutsideOnlineListFallsBackFlat) {
  SysfsTree tree = make_two_package_smt_tree();
  const std::vector<unsigned> mask{32, 33};
  const Topology topo = Topology::discover_at(tree.path(), &mask);
  EXPECT_FALSE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 2u);
  EXPECT_NE(topo.find(32), nullptr);
}

TEST(TopologyDiscovery, OnlineWithoutPerCpuTopologyFallsBackFlat) {
  SysfsTree tree;
  tree.set_online("0-3");  // no cpuN/topology directories at all
  const Topology topo = Topology::discover_at(tree.path());
  EXPECT_FALSE(topo.from_sysfs());
  EXPECT_EQ(topo.num_cpus(), 4u);
  EXPECT_EQ(topo.num_cores(), 4u);
}

TEST(TopologyDiscovery, NodelessTreeMirrorsPackagesAsNodes) {
  SysfsTree tree;
  tree.set_online("0-3");
  for (unsigned cpu = 0; cpu < 4; ++cpu) {
    tree.add_cpu(cpu, /*package=*/cpu / 2, /*core=*/cpu % 2);
  }
  const Topology topo = Topology::discover_at(tree.path());
  EXPECT_TRUE(topo.from_sysfs());
  EXPECT_EQ(topo.num_nodes(), topo.num_packages());
  ASSERT_NE(topo.find(3), nullptr);
  EXPECT_EQ(topo.find(3)->node, 1u);
}

TEST(TopologyDiscovery, NonContiguousNodeIdsAreDiscovered) {
  // Node ids with a hole (node1 offlined/hotplugged away): discovery must
  // enumerate the node directories, not count from zero and stop at a gap.
  SysfsTree holes;
  holes.set_online("0-7");
  for (unsigned cpu = 0; cpu < 8; ++cpu) {
    holes.add_cpu(cpu, /*package=*/cpu / 4, /*core=*/(cpu % 4) / 2);
  }
  holes.add_node(0, "0-3");
  holes.add_node(2, "4-7");
  const Topology topo = Topology::discover_at(holes.path());
  EXPECT_EQ(topo.num_nodes(), 2u);
  ASSERT_NE(topo.find(5), nullptr);
  EXPECT_EQ(topo.find(5)->node, 2u);
  EXPECT_EQ(topo.proximity(0, 5), Proximity::kRemote);
}

TEST(TopologyDiscovery, LiveMachineDiscoveryIsSane) {
  const Topology& topo = Topology::machine();
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_GE(topo.num_cores(), 1u);
  EXPECT_GE(topo.num_packages(), 1u);
  EXPECT_FALSE(topo.describe().empty());
  // Every usable CPU classifies against itself as same-core.
  for (const CpuInfo& info : topo.cpus()) {
    EXPECT_EQ(topo.proximity(info.cpu, info.cpu), Proximity::kSameCore);
  }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(Placement, SpreadUsesDistinctCoresAcrossPackagesFirst) {
  SysfsTree tree = make_two_package_smt_tree();
  const Topology topo = Topology::discover_at(tree.path());
  const std::vector<unsigned> cpus =
      cilkm::topo::assign_cpus(topo, 4);
  ASSERT_EQ(cpus.size(), 4u);
  // Four workers on four distinct cores, alternating packages.
  std::set<unsigned> cores, packages;
  for (const unsigned cpu : cpus) {
    ASSERT_NE(topo.find(cpu), nullptr);
    cores.insert(topo.find(cpu)->core);
    packages.insert(topo.find(cpu)->package);
  }
  EXPECT_EQ(cores.size(), 4u);
  EXPECT_EQ(packages.size(), 2u);
  EXPECT_NE(topo.find(cpus[0])->package, topo.find(cpus[1])->package);
}

TEST(Placement, OversubscriptionWrapsModuloTheCpuOrder) {
  SysfsTree tree = make_two_package_smt_tree();
  const Topology topo = Topology::discover_at(tree.path());
  const std::vector<unsigned> cpus = cilkm::topo::assign_cpus(topo, 19);
  ASSERT_EQ(cpus.size(), 19u);
  for (const unsigned cpu : cpus) EXPECT_NE(topo.find(cpu), nullptr);
  EXPECT_EQ(cpus[8], cpus[0]);  // wrapped
}

TEST(Placement, PinCurrentThreadRestrictsAffinity) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  unsigned first = 0;
  while (first < CPU_SETSIZE && !CPU_ISSET(first, &original)) ++first;
  ASSERT_LT(first, static_cast<unsigned>(CPU_SETSIZE));

  EXPECT_TRUE(cilkm::topo::pin_current_thread(first));
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  ASSERT_EQ(sched_getaffinity(0, sizeof pinned, &pinned), 0);
  EXPECT_EQ(CPU_COUNT(&pinned), 1);
  EXPECT_TRUE(CPU_ISSET(first, &pinned));

  // Restore so later tests see the original mask.
  ASSERT_EQ(sched_setaffinity(0, sizeof original, &original), 0);
}

// ---------------------------------------------------------------------------
// ParkingLot: batched and targeted wake-ups
// ---------------------------------------------------------------------------

/// Park `who` on `lot` in a thread; records the order in which sleepers
/// wake.
struct Sleepers {
  explicit Sleepers(ParkingLot& lot) : lot(&lot) {}

  void park_one(unsigned who) {
    ready.emplace_back(false);
    auto& flag = ready.back();
    threads.emplace_back([this, who, &flag] {
      const std::uint32_t ticket = lot->prepare_park(who);
      flag.store(true, std::memory_order_release);
      lot->park(who, ticket, std::chrono::milliseconds(10000));
      // Claim a slot, fill it, and only then publish the count: a reader
      // that sees woken_count reach the k sleepers it woke finds k written
      // slots.
      const std::size_t slot = next_slot.fetch_add(1);
      woken_order[slot].store(static_cast<int>(who), std::memory_order_relaxed);
      woken_count.fetch_add(1, std::memory_order_release);
    });
    // The sleeper must be REGISTERED before the test proceeds (parked_count
    // includes it); the block itself may lag but targeted wakes only need
    // registration.
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
  }

  void join_all() {
    for (auto& t : threads) t.join();
    threads.clear();
  }

  ParkingLot* lot;
  std::deque<std::atomic<bool>> ready;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> next_slot{0};
  std::atomic<std::size_t> woken_count{0};
  std::array<std::atomic<int>, 16> woken_order{};
};

TEST(ParkingLot, WakeRousesUpToKSleepersMostRecentFirst) {
  ParkingLot lot(4);
  Sleepers sleepers(lot);
  for (unsigned who : {0u, 1u, 2u}) sleepers.park_one(who);
  while (lot.parked_count() != 3) std::this_thread::yield();

  // Batch of 2, no proximity ranking: LIFO, so workers 2 and 1 wake.
  EXPECT_EQ(lot.wake(2, nullptr), 2u);
  while (sleepers.woken_count.load() != 2) std::this_thread::yield();
  std::set<int> woken{sleepers.woken_order[0].load(),
                      sleepers.woken_order[1].load()};
  EXPECT_EQ(woken, (std::set<int>{1, 2}));
  EXPECT_EQ(lot.parked_count(), 1u);

  EXPECT_EQ(lot.wake_all(), 1u);
  sleepers.join_all();
  EXPECT_EQ(sleepers.woken_order[2].load(), 0);
}

TEST(ParkingLot, WakePrefersNearestTierOverRecency) {
  ParkingLot lot(4);
  Sleepers sleepers(lot);
  for (unsigned who : {1u, 2u, 3u}) sleepers.park_one(who);
  while (lot.parked_count() != 3) std::this_thread::yield();

  // From worker 0's perspective: worker 1 is same-core, 2 same-package,
  // 3 remote. A single wake must pick worker 1 even though 3 parked last.
  const std::uint8_t tiers[4] = {0, 0, 1, 2};
  EXPECT_EQ(lot.wake(1, tiers), 1u);
  while (sleepers.woken_count.load() != 1) std::this_thread::yield();
  EXPECT_EQ(sleepers.woken_order[0].load(), 1);

  lot.wake_all();
  sleepers.join_all();
}

TEST(ParkingLot, CancelAfterTargetedWakeForwardsTheCredit) {
  ParkingLot lot(2);
  Sleepers sleepers(lot);
  sleepers.park_one(0);  // worker 0 fully parked
  while (lot.parked_count() != 1) std::this_thread::yield();

  // Worker 1 registers but never blocks (its re-check "found work"). A
  // producer targets worker 1 (top of the LIFO stack); the cancel must
  // forward the wake to worker 0 rather than swallow it.
  const std::uint32_t ticket = lot.prepare_park(1);
  (void)ticket;
  EXPECT_EQ(lot.wake(1, nullptr), 1u);   // pops worker 1
  EXPECT_EQ(lot.cancel_park(1), 1u);     // forwards to worker 0
  sleepers.join_all();
  EXPECT_EQ(sleepers.woken_order[0].load(), 0);
}

TEST(ParkingLot, CancelOfStillRegisteredWorkerForwardsNothing) {
  ParkingLot lot(2);
  const std::uint32_t ticket = lot.prepare_park(0);
  (void)ticket;
  EXPECT_EQ(lot.parked_count(), 1u);
  EXPECT_EQ(lot.cancel_park(0), 0u);
  EXPECT_EQ(lot.parked_count(), 0u);
  EXPECT_EQ(lot.wake(1, nullptr), 0u);  // nobody left to wake
}

TEST(ParkingLot, BackstopExpiryDeregisters) {
  ParkingLot lot(1);
  const std::uint32_t ticket = lot.prepare_park(0);
  const auto t0 = std::chrono::steady_clock::now();
  lot.park(0, ticket, std::chrono::milliseconds(5));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(4));
  EXPECT_EQ(lot.parked_count(), 0u);
}

TEST(ParkingLot, WakeBeforeParkCommitsIsNotLost) {
  // The Dekker handshake: once prepare_park returns, a producer's wake (it
  // pops us and bumps our epoch past the ticket) must make the subsequent
  // park() fall through instead of sleeping to the backstop.
  ParkingLot lot(1);
  const std::uint32_t ticket = lot.prepare_park(0);
  EXPECT_EQ(lot.wake(1, nullptr), 1u);
  const auto t0 = std::chrono::steady_clock::now();
  lot.park(0, ticket, std::chrono::milliseconds(10000));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

// ---------------------------------------------------------------------------
// Scheduler integration: victim ordering, steal classification, pinning
// ---------------------------------------------------------------------------

TEST(LocalitySteal, VictimOrderIsAPermutationSortedByTier) {
  cilkm::Scheduler sched(6);
  for (unsigned thief = 0; thief < 6; ++thief) {
    const std::vector<unsigned>& order = sched.victim_order(thief);
    ASSERT_EQ(order.size(), 5u);
    std::set<unsigned> seen(order.begin(), order.end());
    EXPECT_EQ(seen.size(), 5u);                 // no duplicates
    EXPECT_EQ(seen.count(thief), 0u);           // never self
    for (std::size_t i = 1; i < order.size(); ++i) {
      EXPECT_LE(sched.victim_tier(thief, order[i - 1]),
                sched.victim_tier(thief, order[i]));
    }
  }
}

TEST(LocalitySteal, StealRoundProbesEachVictimAtMostOnce) {
  // Regression for the sample-with-replacement steal loop: one round could
  // probe the same victim repeatedly (inflating kStealAttempts without
  // widening coverage). A built round must be a permutation.
  cilkm::Scheduler sched(5);
  std::vector<unsigned> round;
  for (unsigned thief = 0; thief < 5; ++thief) {
    for (int rep = 0; rep < 32; ++rep) {
      sched.build_victim_round(thief, &round);
      ASSERT_EQ(round.size(), 4u);
      const std::set<unsigned> seen(round.begin(), round.end());
      EXPECT_EQ(seen.size(), 4u) << "duplicate victim in a round";
      EXPECT_EQ(seen.count(thief), 0u);
    }
  }
}

TEST(LocalitySteal, RoundsVaryButRespectTiersModuloEscapeHatch) {
  cilkm::Scheduler sched(8);
  std::vector<unsigned> first, round;
  sched.build_victim_round(0, &first);
  bool varied = false;
  for (int rep = 0; rep < 64 && !varied; ++rep) {
    sched.build_victim_round(0, &round);
    varied = round != first;
  }
  EXPECT_TRUE(varied) << "64 rounds identical: shuffle is not happening";
}

TEST(LocalitySteal, StealsClassifyAsLocalPlusRemote) {
  cilkm::Scheduler sched(4);
  sched.reset_stats();
  sched.run([] {
    cilkm::parallel_for(0, 20000, 16, [](std::int64_t i) {
      if (i % 512 == 0) std::this_thread::yield();
    });
  });
  const auto stats = sched.aggregate_stats();
  EXPECT_EQ(stats[StatCounter::kLocalSteals] + stats[StatCounter::kRemoteSteals],
            stats[StatCounter::kSteals]);
}

TEST(LocalitySteal, PinnedPoolRunsAndAssignsCpusFromTheMachine) {
  cilkm::rt::SchedulerOptions options;
  options.pin = true;
  cilkm::Scheduler sched(4, options);
  const Topology& topo = Topology::machine();
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_NE(topo.find(sched.worker_cpu(w)), nullptr);
  }
  std::atomic<long> sum{0};
  for (int round = 0; round < 3; ++round) {
    sum.store(0);
    sched.run([&] {
      cilkm::parallel_for(0, 2000, 8, [&](std::int64_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(sum.load(), 1999L * 2000 / 2);
  }
}

}  // namespace
