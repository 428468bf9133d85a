#include "workloads/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <thread>

#include "chaos/chaos.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_export.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "util/rng.hpp"
#include "util/run_stat.hpp"
#include "workloads/fuzzer.hpp"

namespace cilkm::workloads {

namespace {

constexpr const char* kUsage =
    "usage: cilkm_run [--list] [--workload NAME|all]... [--policy mm|hypermap|all]...\n"
    "                 [--workers N[,N...]] [--scale S] [--seed X] [--reps R]\n"
    "                 [--pin] [--profile] [--trace-out FILE]\n"
    "                 [--fuzz] [--fuzz-seed X] [--fuzz-iters N]\n"
    "                 [--chaos P] [--chaos-seed X] [--chaos-sites LIST]\n"
    "                 [--watchdog-ms N]\n"
    "\n"
    "Runs registered workload cells (workload x policy x workers); every cell\n"
    "verifies itself against a serial reference. Exits nonzero if any cell\n"
    "fails verification.\n"
    "\n"
    "Observability: --profile turns on the work/span profiler and prints a\n"
    "profile: line under each cell (work, span, parallelism, burdened span,\n"
    "burdened parallelism). --trace-out writes the LAST cell's scheduler\n"
    "events and metrics snapshot as Chrome/Perfetto trace JSON.\n"
    "\n"
    "--fuzz runs the seed-replayable scenario fuzzer instead: --fuzz-iters\n"
    "composites (random monoid x shape x policy x workers) are drawn from\n"
    "base seed --fuzz-seed and checked against their serial elisions; a\n"
    "failure prints (and records in FUZZ_failing_seeds.txt) the exact\n"
    "--fuzz-seed that replays it alone. --policy/--workers/--scale restrict\n"
    "the composite space; --pin and --watchdog-ms apply to its pools.\n"
    "\n"
    "--chaos P arms deterministic fault injection (src/chaos/): each fail\n"
    "point consults a pedigree-keyed DPRNG at probability P, so the same\n"
    "--chaos-seed (default: derived from --seed / --fuzz-seed) injects the\n"
    "same faults at the same strands across worker counts, policies, and\n"
    "steal schedules. --chaos-sites restricts injection to a comma list of\n"
    "alloc,fiber,push,steal,install,merge,deposit (groups: faults, delays,\n"
    "all). Reps aborted by an injected allocator OOM are annotated, not\n"
    "failed. --watchdog-ms N makes a run with no scheduling progress for N\n"
    "ms dump its metrics/trace state and abort instead of hanging.\n"
    "\n"
    "Topology: placement (spread), victim order (nearest tier first) and\n"
    "batch sizes are fixed; --pin binds each worker to its assigned CPU.\n";

bool parse_double_strict(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_u64_strict(const char* text, std::uint64_t* out) {
  // strtoull silently wraps negative input ("-1" → 2^64-1); reject it.
  if (std::strchr(text, '-') != nullptr) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_workers_list(const char* text, std::vector<unsigned>* out) {
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(p, &end, 10);
    if (end == p || v == 0 || v > 4096) return false;
    out->push_back(static_cast<unsigned>(v));
    p = end;
    if (*p == ',') ++p;
    else if (*p != '\0') return false;
  }
  return !out->empty();
}

}  // namespace

std::vector<unsigned> default_worker_counts() {
  std::vector<unsigned> out{1, 2, std::max(1u, std::thread::hardware_concurrency())};
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool parse_driver_options(int argc, char** argv, DriverOptions* out) {
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n%s", argv[i], kUsage);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      out->list_only = true;
    } else if (std::strcmp(arg, "--workload") == 0) {
      if (!need_value(i)) return false;
      const std::string name = argv[++i];
      if (name != "all") out->workload_names.push_back(name);
    } else if (std::strcmp(arg, "--policy") == 0) {
      if (!need_value(i)) return false;
      const std::string name = argv[++i];
      if (name == "all") continue;
      PolicyKind kind;
      if (!parse_policy(name, &kind)) {
        std::fprintf(stderr, "unknown policy '%s'\n%s", name.c_str(), kUsage);
        return false;
      }
      out->policies.push_back(kind);
    } else if (std::strcmp(arg, "--workers") == 0) {
      if (!need_value(i)) return false;
      if (!parse_workers_list(argv[++i], &out->workers)) {
        std::fprintf(stderr, "bad --workers list '%s'\n%s", argv[i], kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--scale") == 0) {
      if (!need_value(i)) return false;
      long v = 0;
      if (!parse_long_strict(argv[++i], &v) || v < 1) {
        std::fprintf(stderr, "bad --scale '%s' (want an integer >= 1)\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->scale = static_cast<unsigned>(v);
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!need_value(i)) return false;
      if (!parse_u64_strict(argv[++i], &out->seed)) {
        std::fprintf(stderr, "bad --seed '%s' (want an integer)\n%s", argv[i],
                     kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--reps") == 0) {
      if (!need_value(i)) return false;
      long v = 0;
      if (!parse_long_strict(argv[++i], &v) || v < 1) {
        std::fprintf(stderr, "bad --reps '%s' (want an integer >= 1)\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->reps = static_cast<int>(v);
    } else if (std::strcmp(arg, "--pin") == 0) {
      out->sched.pin = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      out->profile = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if (!need_value(i)) return false;
      out->trace_out = argv[++i];
    } else if (std::strcmp(arg, "--fuzz") == 0) {
      out->fuzz = true;
    } else if (std::strcmp(arg, "--fuzz-seed") == 0) {
      if (!need_value(i)) return false;
      if (!parse_u64_strict(argv[++i], &out->fuzz_seed)) {
        std::fprintf(stderr, "bad --fuzz-seed '%s' (want an integer)\n%s",
                     argv[i], kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--fuzz-iters") == 0) {
      if (!need_value(i)) return false;
      long v = 0;
      if (!parse_long_strict(argv[++i], &v) || v < 1) {
        std::fprintf(stderr, "bad --fuzz-iters '%s' (want an integer >= 1)\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->fuzz_iters = static_cast<int>(v);
    } else if (std::strcmp(arg, "--chaos") == 0) {
      if (!need_value(i)) return false;
      double p = 0.0;
      if (!parse_double_strict(argv[++i], &p) || p <= 0.0 || p > 1.0) {
        std::fprintf(stderr, "bad --chaos '%s' (want a probability in (0,1])\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->chaos = true;
      out->chaos_p = p;
    } else if (std::strcmp(arg, "--chaos-seed") == 0) {
      if (!need_value(i)) return false;
      if (!parse_u64_strict(argv[++i], &out->chaos_seed)) {
        std::fprintf(stderr, "bad --chaos-seed '%s' (want an integer)\n%s",
                     argv[i], kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--chaos-sites") == 0) {
      if (!need_value(i)) return false;
      if (!chaos::parse_sites(argv[++i], &out->chaos_sites)) {
        std::fprintf(stderr,
                     "bad --chaos-sites '%s' (want a comma list of "
                     "alloc,fiber,push,steal,install,merge,deposit or "
                     "faults/delays/all)\n%s",
                     argv[i], kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--watchdog-ms") == 0) {
      if (!need_value(i)) return false;
      long v = 0;
      if (!parse_long_strict(argv[++i], &v) || v < 1) {
        std::fprintf(stderr,
                     "bad --watchdog-ms '%s' (want an integer >= 1)\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->sched.watchdog_ms = static_cast<unsigned>(v);
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      out->help = true;
      return true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n%s", arg, kUsage);
      return false;
    }
  }
  return true;
}

int run_matrix(const DriverOptions& opts) {
  Registry& registry = Registry::instance();

  if (opts.help) return 0;
  if (opts.fuzz) {
    FuzzOptions fuzz;
    fuzz.seed = opts.fuzz_seed;
    fuzz.iters = opts.fuzz_iters;
    fuzz.scale = opts.scale;
    fuzz.policies = opts.policies;
    fuzz.workers = opts.workers;
    fuzz.sched = opts.sched;
    fuzz.chaos = opts.chaos;
    if (opts.chaos) {
      fuzz.chaos_p = opts.chaos_p;
      fuzz.chaos_seed = opts.chaos_seed;
      fuzz.chaos_sites = opts.chaos_sites;
    }
    return run_fuzz(fuzz);
  }
  if (opts.list_only) {
    for (const Workload& w : registry.all()) {
      std::printf("%-12s %s\n", w.name.c_str(), w.summary.c_str());
    }
    return 0;
  }

  std::vector<const Workload*> selected;
  if (opts.workload_names.empty()) {
    for (const Workload& w : registry.all()) selected.push_back(&w);
  } else {
    for (const std::string& name : opts.workload_names) {
      const Workload* w = registry.find(name);
      if (w == nullptr) {
        std::fprintf(stderr, "unknown workload '%s' (try --list)\n",
                     name.c_str());
        return 1;
      }
      selected.push_back(w);
    }
  }

  std::vector<PolicyKind> policies(opts.policies);
  if (policies.empty()) {
    policies.assign(std::begin(kAllPolicies), std::end(kAllPolicies));
  }
  std::vector<unsigned> workers =
      opts.workers.empty() ? default_worker_counts() : opts.workers;

  // Self-describing output: print the effective seed so the console table
  // can be reproduced without the invoking command line.
  std::printf("# seed: 0x%llx\n",
              static_cast<unsigned long long>(opts.seed));

  // One persistent pool per worker count, shared across every workload,
  // policy, and rep: cells time the computation on warm workers, not
  // per-invocation thread creation.
  std::map<unsigned, std::unique_ptr<rt::Scheduler>> pools;
  for (const unsigned p : workers) {
    auto& pool = pools[p];
    if (pool == nullptr) pool = std::make_unique<rt::Scheduler>(p, opts.sched);
  }

  // Fault injection covers the whole matrix with one armed configuration:
  // the pedigree-keyed decisions make the injected fault set a function of
  // (chaos seed, workload), not of which cell or rep is running.
  if (opts.chaos) {
    chaos::Config ccfg;
    ccfg.p = opts.chaos_p;
    ccfg.seed = opts.chaos_seed;
    if (ccfg.seed == 0) {
      std::uint64_t s = opts.seed;  // deterministic default: --seed decides
      ccfg.seed = splitmix64(s);
    }
    if (opts.chaos_sites != 0) ccfg.sites = opts.chaos_sites;
    chaos::arm(ccfg);
    std::printf("# chaos: armed p=%g seed=0x%llx sites=0x%x\n", ccfg.p,
                static_cast<unsigned long long>(ccfg.seed), ccfg.sites);
  }

  // Observability toggles for the whole sweep. Tracing is per cell (rings
  // reset before each cell), so the exported artifact covers the LAST cell
  // — run a single-cell matrix when the timeline itself is the point.
  const bool tracing = !opts.trace_out.empty();
  auto& tracer = rt::Tracer::instance();
  auto& profiler = obs::Profiler::instance();
  if (tracing) tracer.enable();
  if (opts.profile) profiler.enable();

  std::printf("%-12s %-9s %3s %6s %12s %12s  %s\n", "workload", "policy", "P",
              "verify", "median_s", "stddev_s", "detail");
  int failures = 0;
  obs::MetricsSnapshot last_cell;  // rides into the trace exporter's otherData
  for (const Workload* w : selected) {
    for (const PolicyKind policy : policies) {
      for (const unsigned p : workers) {
        RunConfig cfg;
        cfg.workers = p;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;
        cfg.scheduler = pools[p].get();

        std::vector<double> samples;
        // On failure, report the FIRST failing rep's detail — later passing
        // reps must not overwrite the diagnostic.
        RunResult shown;
        bool verified = true;
        // Per-cell accounting: counters, rings, and profile totals all
        // accumulate on shared process state, so reset here and snapshot
        // once after the rep loop.
        pools[p]->reset_stats();
        if (tracing) tracer.reset();
        if (opts.profile) profiler.reset();
        int oom_reps = 0;
        for (int rep = 0; rep < opts.reps; ++rep) {
          RunResult result;
          try {
            result = w->run_policy(policy, cfg);
          } catch (const std::bad_alloc&) {
            // Injected allocator OOM (chaos kAllocRefill): the run aborted
            // cleanly and the pool is reusable. The rep produced no sample
            // or verdict — annotate rather than fail the cell.
            if (!opts.chaos) throw;
            ++oom_reps;
            continue;
          }
          samples.push_back(result.seconds);
          if (verified) shown = std::move(result);
          verified = verified && shown.verified;
        }
        if (samples.empty()) samples.push_back(0.0);
        if (oom_reps > 0) {
          if (!shown.detail.empty()) shown.detail += "; ";
          shown.detail += std::to_string(oom_reps) +
                          " rep(s) chaos-oom (injected allocator failure)";
        }
        last_cell = obs::capture(pools[p].get());
        const RunStat stat = stats_of(std::move(samples));
        if (!verified) ++failures;

        std::printf("%-12s %-9s %3u %6s %12.6f %12.6f  %s\n", w->name.c_str(),
                    policy_name(policy), p, verified ? "ok" : "FAIL",
                    stat.median_s, stat.stddev_s, shown.detail.c_str());
        if (opts.profile) {
          const obs::RunProfile prof = profiler.totals();
          // Per-run means: the totals sum over reps, and each rep is one
          // scheduler run recorded by the root-done hook.
          const double runs = prof.runs == 0 ? 1.0
                                             : static_cast<double>(prof.runs);
          const double work_ns = static_cast<double>(prof.work_ns) / runs;
          const double span_ns = static_cast<double>(prof.span_ns) / runs;
          const double burdened_ns =
              static_cast<double>(prof.burdened_span_ns) / runs;
          std::printf("  profile: work %.3fms span %.3fms parallelism %.2f "
                      "burdened-span %.3fms burdened-parallelism %.2f\n",
                      work_ns / 1e6, span_ns / 1e6, prof.parallelism(),
                      burdened_ns / 1e6, prof.burdened_parallelism());
        }
      }
    }
  }
  if (opts.chaos) {
    // Per-site injection totals for the sweep. The digest is the
    // order-independent fingerprint of the injected fault set.
    for (unsigned s = 0; s < chaos::kNumSites; ++s) {
      const auto site = static_cast<chaos::Site>(s);
      const chaos::SiteStats st = chaos::site_stats(site);
      if (st.consults != 0) {
        std::printf("# chaos: %-8s consults=%llu injected=%llu digest=0x%llx\n",
                    chaos::to_string(site),
                    static_cast<unsigned long long>(st.consults),
                    static_cast<unsigned long long>(st.injected),
                    static_cast<unsigned long long>(st.digest));
      }
    }
    chaos::disarm();
  }

  if (tracing) {
    tracer.disable();
    if (tracer.dropped() > 0) {
      std::fprintf(stderr,
                   "warning: tracer dropped %llu event(s) (worker id beyond "
                   "its %u rings)\n",
                   static_cast<unsigned long long>(tracer.dropped()),
                   rt::Tracer::kMaxWorkers);
    }
    if (!opts.trace_out.empty()) {
      if (obs::export_chrome_trace_file(opts.trace_out, last_cell)) {
        std::printf("# trace: wrote %s (load in Perfetto / chrome://tracing)\n",
                    opts.trace_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     opts.trace_out.c_str());
        return failures == 0 ? 1 : failures;
      }
    }
  }
  if (opts.profile) profiler.disable();

  if (failures != 0) {
    std::fprintf(stderr, "%d cell(s) FAILED verification\n", failures);
  }
  return failures;
}

}  // namespace cilkm::workloads
