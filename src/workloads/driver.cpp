#include "workloads/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <string_view>
#include <thread>
#include <type_traits>

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
    "                 [--workers N[,N...]] [--scale S] [--seed X]\n"
    "                 [--pin] [--profile] [--trace-out FILE]\n"
    "                 [--fuzz] [--fuzz-iters N]\n"
    "                 [--chaos P] [--chaos-seed X] [--chaos-sites LIST]\n"
    "                 [--watchdog-ms N]\n"
    "\n"
    "Runs registered workload cells (workload x policy x workers), one row\n"
    "each with the seconds its parallel sections took; every cell verifies\n"
    "itself against a serial reference. Exits nonzero if any cell fails\n"
    "verification. --scale multiplies input sizes, --seed feeds every input\n"
    "generator.\n"
    "\n"
    "--fuzz runs the seed-replayable scenario fuzzer instead: --fuzz-iters\n"
    "composites (random monoid x shape x policy x workers), composite i drawn\n"
    "from seed --seed + i, each checked against its serial elision. A\n"
    "failure records in FUZZ_failing_seeds.txt the command that replays it\n"
    "alone. --policy/--workers/--scale restrict the composite space;\n"
    "--workload and --list do not apply.\n"
    "\n"
    "Observability, in both modes: --profile turns on the work/span profiler\n"
    "and prints a profile: line under each cell (work, span, parallelism,\n"
    "burdened span, burdened parallelism). --trace-out writes the LAST\n"
    "cell's scheduler events and metrics snapshot as Chrome/Perfetto trace\n"
    "JSON.\n"
    "\n"
    "--chaos P arms deterministic fault injection (src/chaos/): each fail\n"
    "point consults a pedigree-keyed DPRNG at probability P, so the same\n"
    "--chaos-seed (default: derived from --seed) injects the same faults at\n"
    "the same strands across worker counts, policies, and steal schedules.\n"
    "--chaos-sites restricts injection to a comma list of\n"
    "alloc,fiber,push,steal,install,merge,deposit (groups: faults, delays,\n"
    "all). Cells aborted by an injected allocator OOM are annotated, not\n"
    "failed. --watchdog-ms N makes a run with no scheduling progress for N\n"
    "ms dump its metrics/trace state and abort instead of hanging.\n"
    "\n"
    "Topology: placement (spread), victim order (nearest tier first) and\n"
    "batch sizes are fixed; --pin binds each worker to its assigned CPU.\n";

/// Appends to the fuzzer's failure list the command that reruns the failed
/// composite alone. Its own policy and worker count, as one-entry lists,
/// pin the draw to the composite whatever lists the sweep drew from: each
/// draw consumes one value whatever its bound.
void write_replay(std::FILE* out, const Cell& cell, const RunResult& result,
                  unsigned scale, const chaos::Config* chaos_cfg) {
  std::fprintf(out,
               "cilkm_run --fuzz --seed 0x%llx --fuzz-iters 1 --policy %s "
               "--workers %u --scale %u",
               static_cast<unsigned long long>(cell.seed),
               policy_name(cell.policy), cell.workers, scale);
  if (chaos_cfg != nullptr) {
    std::fprintf(out, " --chaos %g --chaos-seed 0x%llx", chaos_cfg->p,
                 static_cast<unsigned long long>(chaos_cfg->seed));
    const char* sep = " --chaos-sites ";
    for (unsigned s = 0; s < chaos::kNumSites; ++s) {
      const auto site = static_cast<chaos::Site>(s);
      if (chaos_cfg->sites == chaos::kAllSites ||
          (chaos_cfg->sites & chaos::site_bit(site)) == 0) {
        continue;
      }
      std::fprintf(out, "%s%s", sep, chaos::to_string(site));
      sep = ",";
    }
  }
  std::fprintf(out, "  # %s: %s\n", cell.name.c_str(), result.detail.c_str());
}

bool parse_double_strict(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_workers_list(std::string_view text, std::vector<unsigned>* out) {
  while (true) {
    const std::size_t comma = std::min(text.find(','), text.size());
    unsigned v = 0;
    if (!parse_int(text.substr(0, comma), &v) || v == 0 || v > 4096) {
      return false;
    }
    out->push_back(v);
    if (comma == text.size()) return true;
    text.remove_prefix(comma + 1);
  }
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
  // The value of the flag at argv[i], parsed into *dest; advances i past it.
  // A count is at least 1, a seed any value; both at most what *dest holds.
  auto number = [&](int& i, auto* dest, bool is_count) {
    using T = std::remove_pointer_t<decltype(dest)>;
    if (!need_value(i)) return false;
    const char* flag = argv[i++];
    if (parse_int(argv[i], dest) && (!is_count || *dest >= 1)) return true;
    std::fprintf(stderr, "bad %s '%s' (want an integer in [%d, %llu])\n%s",
                 flag, argv[i], is_count ? 1 : 0,
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()),
                 kUsage);
    return false;
  };
  const char* matrix_only = nullptr;  // --workload or --list: not for --fuzz
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      out->list_only = true;
      matrix_only = arg;
    } else if (std::strcmp(arg, "--workload") == 0) {
      if (!need_value(i)) return false;
      matrix_only = arg;
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
      if (!number(i, &out->scale, true)) return false;
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (!number(i, &out->seed, false)) return false;
    } else if (std::strcmp(arg, "--pin") == 0) {
      out->sched.pin = true;
    } else if (std::strcmp(arg, "--profile") == 0) {
      out->profile = true;
    } else if (std::strcmp(arg, "--trace-out") == 0) {
      if (!need_value(i)) return false;
      out->trace_out = argv[++i];
    } else if (std::strcmp(arg, "--fuzz") == 0) {
      out->fuzz = true;
    } else if (std::strcmp(arg, "--fuzz-iters") == 0) {
      if (!number(i, &out->fuzz_iters, true)) return false;
    } else if (std::strcmp(arg, "--chaos") == 0) {
      if (!need_value(i)) return false;
      double p = 0.0;
      if (!parse_double_strict(argv[++i], &p) || !(p > 0.0 && p <= 1.0)) {
        std::fprintf(stderr, "bad --chaos '%s' (want a probability in (0,1])\n%s",
                     argv[i], kUsage);
        return false;
      }
      out->chaos.p = p;
    } else if (std::strcmp(arg, "--chaos-seed") == 0) {
      if (!number(i, &out->chaos.seed, false)) return false;
    } else if (std::strcmp(arg, "--chaos-sites") == 0) {
      if (!need_value(i)) return false;
      if (!chaos::parse_sites(argv[++i], &out->chaos.sites)) {
        std::fprintf(stderr,
                     "bad --chaos-sites '%s' (want a comma list of "
                     "alloc,fiber,push,steal,install,merge,deposit or "
                     "faults/delays/all)\n%s",
                     argv[i], kUsage);
        return false;
      }
    } else if (std::strcmp(arg, "--watchdog-ms") == 0) {
      if (!number(i, &out->sched.watchdog_ms, true)) return false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      std::fputs(kUsage, stdout);
      out->help = true;
      return true;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n%s", arg, kUsage);
      return false;
    }
  }
  if (out->fuzz && matrix_only != nullptr) {
    std::fprintf(stderr, "%s does not apply under --fuzz\n%s", matrix_only,
                 kUsage);
    return false;
  }
  return true;
}

int run_matrix(const DriverOptions& opts) {
  if (opts.help) return 0;
  Registry& registry = Registry::instance();
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

  // Self-describing output: print the effective seed so the console table
  // can be reproduced without the invoking command line.
  std::printf("# seed: 0x%llx\n",
              static_cast<unsigned long long>(opts.seed));

  // Fault injection covers the whole run with one armed configuration: the
  // pedigree-keyed decisions make the injected fault set a function of
  // (chaos seed, cell), not of the order cells run in.
  const bool chaos_armed = opts.chaos.p > 0;
  chaos::Config chaos_cfg = opts.chaos;
  if (chaos_armed) {
    if (chaos_cfg.seed == 0) {
      std::uint64_t s = opts.seed;  // deterministic default: --seed decides
      chaos_cfg.seed = splitmix64(s);
    }
    chaos::arm(chaos_cfg);
    std::printf("# chaos: armed p=%g seed=0x%llx sites=0x%x\n", chaos_cfg.p,
                static_cast<unsigned long long>(chaos_cfg.seed),
                chaos_cfg.sites);
  }

  // Observability toggles for the whole run. Tracing is per cell (rings
  // reset before each cell), so the exported artifact covers the LAST cell
  // — run a single cell when the timeline itself is the point.
  const bool tracing = !opts.trace_out.empty();
  auto& tracer = rt::Tracer::instance();
  auto& profiler = obs::Profiler::instance();
  if (tracing) tracer.enable();
  if (opts.profile) profiler.enable();

  // One persistent pool per worker count, shared by every cell: cells time
  // the computation on warm workers, not per-invocation thread creation.
  std::map<unsigned, std::unique_ptr<rt::Scheduler>> pools;
  int name_width = 0;  // set by the first row, which prints the header
  int failures = 0;
  std::FILE* replays = nullptr;  // the fuzzer's list of failing composites
  obs::MetricsSnapshot last_cell;  // rides into the trace exporter's otherData
  auto run_one = [&](const Cell& cell) {
    auto& pool = pools[cell.workers];
    if (pool == nullptr) {
      pool = std::make_unique<rt::Scheduler>(cell.workers, opts.sched);
    }
    const RunConfig cfg{opts.scale, cell.seed, pool.get()};
    // Per-cell accounting: counters, rings, and profile totals all
    // accumulate on shared process state, so reset them here.
    pool->reset_stats();
    if (tracing) tracer.reset();
    if (opts.profile) profiler.reset();
    RunResult result;
    try {
      result = cell.run(cfg);
    } catch (const std::bad_alloc&) {
      // Injected allocator OOM (chaos kAllocRefill): the run aborted
      // cleanly through the join protocol and the pool is reusable. It
      // produced no verdict — annotate rather than fail the cell.
      if (!chaos_armed) throw;
      result.verified = true;
      result.detail = "chaos-oom (injected allocator failure; verify skipped)";
    }
    last_cell = obs::capture(pool.get());

    if (name_width == 0) {
      name_width = std::max(12, static_cast<int>(cell.name.size()));
      std::printf("%-*s %-9s %3s %6s %10s  %s\n", name_width,
                  opts.fuzz ? "composite" : "workload", "policy", "P",
                  "verify", "seconds", "detail");
    }
    std::printf("%-*s %-9s %3u %6s %10.6f  %s\n", name_width,
                cell.name.c_str(), policy_name(cell.policy), cell.workers,
                result.verified ? "ok" : "FAIL", result.seconds,
                result.detail.c_str());
    if (opts.profile) {
      const obs::RunProfile prof = profiler.totals();
      // Per-run means: the totals sum over the cell's scheduler runs (one
      // per run_cell call), each recorded by the root-done hook.
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

    if (result.verified) return;
    ++failures;
    if (opts.fuzz && replays == nullptr) {
      replays = std::fopen(kFuzzFailureArtifact, "w");
    }
    if (replays != nullptr) {
      write_replay(replays, cell, result, opts.scale,
                   chaos_armed ? &chaos_cfg : nullptr);
    }
  };

  if (opts.fuzz) {
    for (int i = 0; i < opts.fuzz_iters; ++i) {
      run_one(fuzz_cell(opts.seed + static_cast<std::uint64_t>(i), opts));
    }
  } else {
    std::vector<PolicyKind> policies(opts.policies);
    if (policies.empty()) {
      policies.assign(std::begin(kAllPolicies), std::end(kAllPolicies));
    }
    const std::vector<unsigned> workers =
        opts.workers.empty() ? default_worker_counts() : opts.workers;
    for (const Workload* w : selected) {
      for (const PolicyKind policy : policies) {
        for (const unsigned p : workers) {
          run_one({w->name, policy, p, opts.seed,
                   [w, policy](const RunConfig& cfg) {
                     return w->run_policy(policy, cfg);
                   }});
        }
      }
    }
  }
  if (replays != nullptr) {
    std::fclose(replays);
    std::fprintf(stderr, "replay commands written to %s\n",
                 kFuzzFailureArtifact);
  }

  if (chaos_armed) {
    // Per-site injection totals for the run. The digest is the
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
    if (obs::export_chrome_trace_file(opts.trace_out, last_cell)) {
      std::printf("# trace: wrote %s (load in Perfetto / chrome://tracing)\n",
                  opts.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n",
                   opts.trace_out.c_str());
      return failures == 0 ? 1 : failures;
    }
  }
  if (opts.profile) profiler.disable();

  if (failures != 0) {
    std::fprintf(stderr, "%d cell(s) FAILED verification\n", failures);
  }
  return failures;
}

}  // namespace cilkm::workloads
