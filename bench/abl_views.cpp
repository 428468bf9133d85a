// Ablation: pooled view allocation (the internal allocator's kViews tag with
// per-worker magazines, what the runtime uses) vs plain heap new/delete for
// view-sized objects. View creation dominates Cilk-M's reduce overhead (paper
// Figure 8), so this is the allocation path the runtime optimises. Also
// measures the end-to-end effect: reduce overhead of add-n with many steals,
// which stresses view creation/destruction.
//
//   ./abl_views [--reps R]
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "mem/internal_alloc.hpp"
#include "util/stats.hpp"

namespace {

void keep(void* p) { asm volatile("" : : "g"(p) : "memory"); }

double time_alloc_cycle(int iters, bool pooled, std::size_t bytes) {
  auto& pool = cilkm::mem::InternalAlloc::instance();
  constexpr auto kTag = cilkm::mem::AllocTag::kViews;
  std::vector<void*> held(64, nullptr);
  const auto t0 = cilkm::now_ns();
  for (int i = 0; i < iters; ++i) {
    const std::size_t k = static_cast<std::size_t>(i) & 63;
    if (held[k] != nullptr) {
      if (pooled) {
        pool.deallocate(held[k], bytes, kTag);
      } else {
        ::operator delete(held[k]);
      }
    }
    held[k] = pooled ? pool.allocate(bytes, kTag) : ::operator new(bytes);
    keep(held[k]);
  }
  for (auto& p : held) {
    if (p != nullptr) {
      if (pooled) {
        pool.deallocate(p, bytes, kTag);
      } else {
        ::operator delete(p);
      }
      p = nullptr;
    }
  }
  const auto t1 = cilkm::now_ns();
  return static_cast<double>(t1 - t0) / iters;
}

template <typename Policy>
void end_to_end(cilkm::Scheduler& sched, int reps, bench::JsonReport& report) {
  const char* name = cilkm::policy_traits<Policy>::name;
  double total_s = 0, create_us = 0, insert_us = 0;
  std::uint64_t views = 0;
  for (int r = 0; r < reps; ++r) {
    sched.reset_stats();
    const auto t0 = cilkm::now_ns();
    sched.run([&] {
      bench::MicroBench<Policy>::add_n(256, 1 << 20, 1024, 2048);
    });
    const auto t1 = cilkm::now_ns();
    total_s += static_cast<double>(t1 - t0) / 1e9;
    const auto stats = sched.aggregate_stats();
    create_us +=
        static_cast<double>(stats[cilkm::StatCounter::kViewCreateNs]) / 1e3;
    insert_us +=
        static_cast<double>(stats[cilkm::StatCounter::kViewInsertNs]) / 1e3;
    views += stats[cilkm::StatCounter::kViewsCreated];
  }
  total_s /= reps;
  create_us /= reps;
  insert_us /= reps;
  views /= static_cast<std::uint64_t>(reps);
  std::printf("%-10s %12.4f %12.1f %12.1f %10llu\n", name, total_s, create_us,
              insert_us, static_cast<unsigned long long>(views));
  report.add(std::string("e2e:") + name, 256,
             {{"time_s", total_s},
              {"view_create_us", create_us},
              {"view_insert_us", insert_us},
              {"views", static_cast<double>(views)}});
}

}  // namespace

int main(int argc, char** argv) {
  const int reps = static_cast<int>(bench::flag_int(argc, argv, "--reps", 5));
  const int iters = 200000;
  bench::JsonReport report("abl_views");

  std::printf("# Ablation: view allocation, Hoard-style pool vs heap "
              "(ns per alloc/free cycle, %d iterations)\n",
              iters);
  std::printf("%-10s %12s %12s %10s\n", "view-bytes", "pool (ns)", "heap (ns)",
              "speedup");
  for (const std::size_t bytes : {16ul, 32ul, 64ul, 128ul, 256ul}) {
    double pool_ns = 0, heap_ns = 0;
    for (int r = 0; r < reps; ++r) {
      pool_ns += time_alloc_cycle(iters, /*pooled=*/true, bytes);
      heap_ns += time_alloc_cycle(iters, /*pooled=*/false, bytes);
    }
    std::printf("%-10zu %12.1f %12.1f %9.2fx\n", bytes, pool_ns / reps,
                heap_ns / reps, heap_ns / pool_ns);
    report.add("alloc:pool", static_cast<double>(bytes),
               {{"ns_per_cycle", pool_ns / reps}});
    report.add("alloc:heap", static_cast<double>(bytes),
               {{"ns_per_cycle", heap_ns / reps}});
  }

  // End-to-end: reduce overhead (which includes view creation) under a
  // steal-heavy add-256 run, for each view-store policy.
  std::printf("\n# End-to-end: steal-heavy add-256 run (16 workers), per "
              "view-store policy\n");
  std::printf("%-10s %12s %12s %12s %10s\n", "policy", "time (s)",
              "create (us)", "insert (us)", "views");
  cilkm::Scheduler sched(16);
  end_to_end<cilkm::mm_policy>(sched, reps, report);
  end_to_end<cilkm::hypermap_policy>(sched, reps, report);
  return 0;
}
