// Ablation: the tagged internal allocator against raw operator new on a
// Figure 8-style view-creation load — view-sized blocks churned through a
// small live window (view creation is the dominant reduce overhead the
// paper's Figure 8 breaks down), plus a cross-thread handoff phase (the
// hypermerge frees the right-hand views wherever the join happens to land,
// so cross-worker frees are part of the steady state, not a corner case).
// Series:
//
//   pooled/pin     — InternalAlloc magazines, threads pinned
//   pooled/nopin   — InternalAlloc magazines, OS placement
//   malloc/pin     — operator new/delete, threads pinned
//   malloc/nopin   — operator new/delete, OS placement
//
// T is the thread count (1 and --workers). Pooled rows also report the
// magazine refill/flush traffic so the batch-exchange rate is visible.
//
//   ./abl_alloc [--reps R] [--workers P] [--iters N]
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mem/internal_alloc.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"

namespace {

constexpr std::size_t kViewBytes = 48;  // a typical reducer view
constexpr std::size_t kWindow = 64;     // live blocks per thread (churn depth)

struct Mode {
  const char* series;
  bool pooled;
  bool pin;
};

/// One thread's slice: local churn through a ring of kWindow live blocks,
/// then produce a handoff batch that a *different* thread frees.
void thread_body(const Mode& mode, unsigned tid, unsigned threads, long iters,
                 std::vector<std::vector<void*>>& handoff,
                 std::atomic<unsigned>& phase_barrier) {
  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  if (mode.pin && topo.num_cpus() > 0) {
    cilkm::topo::pin_current_thread(topo.cpus()[tid % topo.num_cpus()].cpu);
  }
  cilkm::mem::InternalAlloc& pool = cilkm::mem::InternalAlloc::instance();
  const auto tag = cilkm::mem::AllocTag::kViews;
  auto alloc = [&]() -> void* {
    return mode.pooled ? pool.allocate(kViewBytes, tag)
                       : ::operator new(kViewBytes);
  };
  auto dealloc = [&](void* p) {
    if (mode.pooled) {
      pool.deallocate(p, kViewBytes, tag);
    } else {
      ::operator delete(p);
    }
  };

  // Phase A: windowed churn (identity-create / collapse-destroy traffic).
  void* ring[kWindow] = {};
  for (long i = 0; i < iters; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i) % kWindow;
    if (ring[slot] != nullptr) dealloc(ring[slot]);
    void* p = alloc();
    std::memset(p, 0x5a, 8);  // touch: first-touch page placement
    ring[slot] = p;
  }
  for (void*& p : ring) {
    if (p != nullptr) dealloc(p);
    p = nullptr;
  }

  // Phase B: cross-thread frees. Produce a batch, wait for everyone, then
  // free the neighbour's batch (alloc on W_i, free on W_i+1).
  std::vector<void*>& mine = handoff[tid];
  mine.reserve(static_cast<std::size_t>(iters) / 8);
  for (long i = 0; i < iters / 8; ++i) mine.push_back(alloc());
  phase_barrier.fetch_add(1, std::memory_order_acq_rel);
  while (phase_barrier.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  for (void* p : handoff[(tid + 1) % threads]) dealloc(p);
}

void run_mode(const Mode& mode, unsigned threads, int reps, long iters) {
  const auto before = cilkm::mem::InternalAlloc::instance().tag_stats(
      cilkm::mem::AllocTag::kViews);
  const cilkm::RunStat stat = bench::repeat(reps, [&] {
    std::vector<std::vector<void*>> handoff(threads);
    std::atomic<unsigned> phase_barrier{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        thread_body(mode, t, threads, iters, handoff, phase_barrier);
      });
    }
    for (auto& th : pool) th.join();
  });
  const auto after = cilkm::mem::InternalAlloc::instance().tag_stats(
      cilkm::mem::AllocTag::kViews);
  const double ops = static_cast<double>(threads) *
                     (static_cast<double>(iters) +
                      static_cast<double>(iters) / 8) *
                     reps;
  const double mops =
      stat.median_s > 0 ? ops / reps / stat.median_s / 1e6 : 0.0;
  std::printf("%-14s %4u %12.6f %10.2f %10llu %10llu\n", mode.series, threads,
              stat.median_s, mops,
              static_cast<unsigned long long>(after.refills - before.refills),
              static_cast<unsigned long long>(after.flushes - before.flushes));
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = bench::flag_int(argc, argv, "--reps", 5, 1);
  const auto workers = bench::flag_int<unsigned>(argc, argv, "--workers", 4);
  const long iters = bench::flag_int<long>(argc, argv, "--iters", 200000);
  bench::reject_unknown_flags(argc, argv);

  const cilkm::topo::Topology& topo = cilkm::topo::Topology::machine();
  std::printf("# Ablation: pooled (tagged magazines) vs malloc view churn\n");
  std::printf("# machine: %s\n", topo.describe().c_str());
  std::printf("%-14s %4s %12s %10s %10s %10s\n", "series", "T", "median_s",
              "Mops/s", "refills", "flushes");

  const Mode modes[] = {
      {"pooled/pin", true, true},
      {"pooled/nopin", true, false},
      {"malloc/pin", false, true},
      {"malloc/nopin", false, false},
  };
  std::vector<unsigned> thread_counts{1};
  if (workers > 1) thread_counts.push_back(workers);
  for (const unsigned threads : thread_counts) {
    for (const Mode& mode : modes) {
      run_mode(mode, threads, reps, iters);
    }
  }
  return 0;
}
