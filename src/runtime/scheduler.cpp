#include "runtime/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <utility>

#include "obs/metrics.hpp"
#include "runtime/trace.hpp"
#include "tlmm/region.hpp"
#include "topo/placement.hpp"
#include "topo/topology.hpp"
#include "util/assert.hpp"

namespace cilkm::rt {

Scheduler::Scheduler(unsigned num_workers, SchedulerOptions options)
    : options_(options), parking_(num_workers) {
  CILKM_CHECK(num_workers >= 1, "need at least one worker");
  // Every runtime-linked binary gets worker/pedigree context on aborts.
  install_assert_context();
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }

  // Placement and proximity structure. The topology is discovered once per
  // process; placement wraps modulo the CPU count when the pool is
  // oversubscribed, so proximity stays meaningful (several workers "share"
  // one CPU's position).
  const topo::Topology& topology = topo::Topology::machine();
  worker_cpu_ = topo::assign_cpus(topology, num_workers);

  victim_tier_.assign(num_workers, std::vector<std::uint8_t>(num_workers, 0));
  victim_order_.assign(num_workers, {});
  for (unsigned thief = 0; thief < num_workers; ++thief) {
    for (unsigned victim = 0; victim < num_workers; ++victim) {
      victim_tier_[thief][victim] = static_cast<std::uint8_t>(
          topology.proximity(worker_cpu_[thief], worker_cpu_[victim]));
    }
    // Proximity-ordered permutation of every other worker; ties keep id
    // order (the per-round shuffle randomizes within tiers).
    std::vector<unsigned>& order = victim_order_[thief];
    order.reserve(num_workers - 1);
    for (unsigned victim = 0; victim < num_workers; ++victim) {
      if (victim != thief) order.push_back(victim);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](unsigned a, unsigned b) {
                       return victim_tier_[thief][a] < victim_tier_[thief][b];
                     });
  }

  for (auto& worker : workers_) {
    worker->deque().attach_wake_gate(
        &parking_, victim_tier_[worker->id()].data(),
        &worker->stats()[StatCounter::kWakes],
        &worker->stats()[StatCounter::kBatchWakes]);
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    CILKM_CHECK(!running_, "Scheduler destroyed while a run is in flight");
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void Scheduler::build_victim_round(unsigned thief, std::vector<unsigned>* out) {
  const std::vector<unsigned>& order = victim_order_[thief];
  out->assign(order.begin(), order.end());
  if (out->size() <= 1) return;
  Xoshiro256& rng = workers_[thief]->rng_;
  const std::vector<std::uint8_t>& tier = victim_tier_[thief];
  // A round probes at most kMaxStealProbes victims, so only that prefix
  // needs randomizing: partial (front-loaded) Fisher–Yates draws each
  // prefix slot uniformly from the remaining candidates without paying for
  // a full shuffle of a wide pool's tail.
  const std::size_t cap =
      std::min<std::size_t>(out->size(), kMaxStealProbes);
  // Partial Fisher–Yates within each proximity tier: nearest victims still
  // come first, but the P thieves of one package don't all hammer the same
  // neighbour in the same order.
  std::size_t lo = 0;
  while (lo < cap) {
    std::size_t hi = lo + 1;
    while (hi < out->size() && tier[(*out)[hi]] == tier[(*out)[lo]]) ++hi;
    for (std::size_t i = lo; i < std::min(hi - 1, cap); ++i) {
      std::swap((*out)[i], (*out)[i + static_cast<std::size_t>(
                                          rng.below(hi - i))]);
    }
    lo = hi;
  }
  // Escape hatch: one round in eight leads with a uniformly random victim,
  // so a loaded remote package is still discovered promptly and the
  // whole-machine balance of uniform stealing is preserved.
  if (rng.below(8) == 0) {
    std::swap((*out)[0],
              (*out)[static_cast<std::size_t>(rng.below(out->size()))]);
  }
}

bool Scheduler::work_available() const noexcept {
  for (const auto& worker : workers_) {
    if (!worker->deque_.empty()) return true;
  }
  return false;
}

void Scheduler::start_threads_locked() {
  if (!threads_.empty()) return;
  threads_.reserve(workers_.size());
  for (auto& worker : workers_) {
    threads_.emplace_back([this, w = worker.get()] { worker_thread(w); });
  }
}

void Scheduler::warm_up() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  start_threads_locked();
}

/// Persistent body of one pool thread: TLS is installed once for the life of
/// the thread; between runs the thread sleeps on start_cv_ until run() opens
/// a new epoch (or the destructor shuts the pool down).
void Scheduler::worker_thread(Worker* w) {
  if (options_.pin) {
    topo::pin_current_thread(worker_cpu_[w->id()]);  // best-effort
  }
  tls_worker = w;
  tlmm::tls_region_base = w->region_base();
  std::uint64_t seen_epoch = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(lifecycle_mu_);
      start_cv_.wait(lock,
                     [&] { return shutdown_ || run_epoch_ != seen_epoch; });
      if (shutdown_) break;
      seen_epoch = run_epoch_;
    }
    w->scheduler_loop();
    CILKM_DCHECK(w->ambient_empty(), "worker exits with live ambient views");
    {
      std::lock_guard<std::mutex> lock(lifecycle_mu_);
      if (--active_workers_ == 0) quiesce_cv_.notify_all();
    }
  }
  tls_worker = nullptr;
  tlmm::tls_region_base = nullptr;
}

void Scheduler::run(std::function<void()> root) {
  CILKM_CHECK(Worker::current() == nullptr,
              "Scheduler::run may not be called from inside a run");
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    CILKM_CHECK(!running_, "Scheduler::run is not reentrant");
    running_ = true;
    // Publish the run's inputs before the epoch opens: workers only read
    // them after observing the new epoch under this mutex.
    root_fn_ = std::move(root);
    root_eptr_ = nullptr;
    done_.store(false, std::memory_order_release);
    start_threads_locked();
    active_workers_ = num_workers();
    ++run_epoch_;
  }
  start_cv_.notify_all();
  std::exception_ptr eptr;
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    const auto quiesced = [&] { return active_workers_ == 0; };
    if (options_.watchdog_ms == 0) {
      quiesce_cv_.wait(lock, quiesced);
    } else {
      // Watchdog: while the run is in flight, a full window in which no
      // worker's progress tick advanced is a stalled epoch — dump the
      // observable state and abort rather than hang forever. progress_sum()
      // reads only atomics, so taking it while holding lifecycle_mu_ is
      // safe (workers never touch that mutex mid-run).
      std::uint64_t last = progress_sum();
      while (!quiesce_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.watchdog_ms), quiesced)) {
        const std::uint64_t now = progress_sum();
        if (now == last) {
          dump_stall_diagnostics();
          CILKM_CHECK(false,
                      "run watchdog: no scheduling progress within the stall "
                      "window");
        }
        last = now;
      }
    }
    running_ = false;
    root_fn_ = nullptr;
    // Take the exception out under the lock: once running_ drops, another
    // external thread may legally begin the next run.
    eptr = std::exchange(root_eptr_, nullptr);
  }
  if (eptr != nullptr) std::rethrow_exception(eptr);
}

std::uint64_t Scheduler::progress_sum() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& worker : workers_) sum += worker->progress();
  return sum;
}

void Scheduler::dump_stall_diagnostics() {
  std::fprintf(stderr,
               "cilkm: run watchdog fired (no scheduling progress for %u ms); "
               "dumping state\n",
               options_.watchdog_ms);
  // The pool is NOT quiesced here, so the snapshot's values are racy
  // best-effort reads — acceptable for a post-mortem that precedes abort.
  const obs::MetricsSnapshot snap = obs::capture(this);
  for (const obs::Metric& m : snap.flatten()) {
    std::fprintf(stderr, "  %s = %.17g\n", m.name.c_str(), m.value);
  }
  if (Tracer::instance().enabled()) {
    std::fprintf(stderr, "-- tracer rings --\n");
    Tracer::instance().dump_csv(std::cerr);
  }
  std::fflush(stderr);
}

WorkerStats Scheduler::aggregate_stats() const {
  WorkerStats total;
  for (const auto& worker : workers_) total += worker->stats();
  return total;
}

void Scheduler::reset_stats() {
  for (auto& worker : workers_) worker->stats().reset();
}

std::uint64_t Scheduler::total_steals() const {
  return aggregate_stats()[StatCounter::kSteals];
}

}  // namespace cilkm::rt
