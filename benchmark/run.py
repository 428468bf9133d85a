#!/usr/bin/env python3
"""One-command benchmark of the cilkm reducer runtime (see README.md).

Builds benchmark/CMakeLists.txt (Release), runs each workload in several
fresh cilkm_bench processes, verifies every rep, and prints every end-to-end
and per-layer metric by name with its unit.

  python3 benchmark/run.py [--traced] [--seed N] [--out PATH]
      All four workloads; writes benchmark/results/latest.json (or PATH).
      --traced adds the traced pass: profiler on, one exported scheduler
      trace and the benchmark's own spans per workload in
      benchmark/results/.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      One workload, measured for at least S seconds. The last line of
      stdout is one JSON object: correct, attempted, failed, metrics (the
      end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
      ones with --trace 1).

  python3 benchmark/run.py --check OLD.json NEW.json
      Compare two result files against BENCHMARK.json; exit 1 if NEW lacks
      or failed a workload it lists, or if any end-to-end metric of NEW is
      worse than OLD by more than its bound.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = HERE / "build"
RESULTS_DIR = HERE / "results"
BINARY = BUILD_DIR / "cilkm_bench"
TRACE_CHECK = ROOT / "tools" / "trace_check.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("lookup", "merge", "spawn", "pbfs")
MAX_P = 4
MIN_PROCESSES = 4
# cilkm_bench's kRepsP, kReps1 and kTracedReps: the reps a crashed process
# would have attempted.
REPS_P = 25
REPS_1 = 8
TRACED_REPS = 10
P_CELLS = ("mm_P", "hypermap_P")
ONE_CELLS = ("mm_1", "hypermap_1", "serial", "base")
PROCESS_TIMEOUT_S = 60.0
# A --workload run must end within 180 s; stop starting processes well before.
RUN_DEADLINE_S = 150.0
MIN_TAIL = 10  # samples that must lie beyond a reported tail percentile


class BenchError(Exception):
    """The benchmark could not be built or run; no result is printed."""


# ---------------------------------------------------------------- statistics


def tail_percentile(samples, q):
    """Nearest-rank q-quantile of `samples`, or None unless at least
    MIN_TAIL samples lie beyond it."""
    s = sorted(samples)
    rank = math.ceil(q * len(s))
    if rank < 1 or len(s) - rank < MIN_TAIL:
        return None
    return s[rank - 1]


def planned_reps(traced):
    """Measured reps one process runs per cell."""
    if traced:
        return {c: TRACED_REPS for c in P_CELLS + ("mm_1", "hypermap_1")}
    reps = {c: REPS_P for c in P_CELLS}
    reps.update({c: REPS_1 for c in ONE_CELLS})
    return reps


def planned_attempts(traced):
    """Verified reps one process runs (the traced pass adds the traced rep)."""
    return sum(planned_reps(traced).values()) + (1 if traced else 0)


def fail_frac(attempted, failed):
    return failed / attempted if attempted else 1.0


def _per_run(counters, key, runs):
    return counters.get(key, 0) / runs if runs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def pooled(outputs, cell):
    return [x for o in outputs for x in o["cells"].get(cell, {}).get("samples", [])]


def summed_counters(outputs, cell):
    total, runs = {}, 0
    for o in outputs:
        c = o["cells"].get(cell)
        if c is None:
            continue
        runs += c["reps"]
        for k, v in c["counters"].items():
            total[k] = total.get(k, 0) + v
    return total, runs


def end_to_end(outputs):
    """The end-to-end metrics of one workload's untraced processes."""
    med = {c: statistics.median(pooled(outputs, c)) for c in P_CELLS + ONE_CELLS}
    wall = med["mm_P"]
    return {
        "wall_s": (wall, "s"),
        "wall_p90_s": (tail_percentile(pooled(outputs, "mm_P"), 0.9), "s"),
        "wall_hypermap_s": (med["hypermap_P"], "s"),
        "p1_s": (med["mm_1"], "s"),
        "p1_hypermap_s": (med["hypermap_1"], "s"),
        "serial_s": (med["serial"], "s"),
        "speedup": (med["serial"] / wall, "ratio"),
        "setup_s": (statistics.median(o["setup_s"] for o in outputs), "s"),
        "peak_rss_mb": (statistics.median(o["peak_rss_kb"] for o in outputs) / 1024, "MB"),
    }


def per_layer(outputs, procs, traced_output=None):
    """The per-layer metrics of one workload: counters of the untraced
    processes' P cells (per run), plus the traced process's profile."""
    med = {c: statistics.median(pooled(outputs, c)) for c in P_CELLS + ONE_CELLS}
    updates = outputs[0]["updates"]
    fork2joins = outputs[0]["fork2joins"]
    m = {}
    for policy, p_cell, one_cell in (("mm", "mm_P", "mm_1"),
                                     ("hypermap", "hypermap_P", "hypermap_1")):
        c, runs = summed_counters(outputs, p_cell)
        ns = {k: _per_run(c, k, runs) for k in (
            "view_create_ns", "view_insert_ns", "view_transfer_ns", "hypermerge_ns")}
        m[f"views.lookup_ns.{policy}"] = (
            _ratio(med[one_cell] - med["base"], updates) * 1e9, "ns")
        m[f"views.created.{policy}"] = (_per_run(c, "views_created", runs), "count")
        m[f"views.create_ns.{policy}"] = (ns["view_create_ns"], "ns")
        m[f"views.insert_ns.{policy}"] = (ns["view_insert_ns"], "ns")
        m[f"views.transferred.{policy}"] = (_per_run(c, "views_transferred", runs), "count")
        m[f"views.transfer_ns.{policy}"] = (ns["view_transfer_ns"], "ns")
        m[f"views.merges.{policy}"] = (_per_run(c, "hypermerges", runs), "count")
        m[f"views.merge_ns.{policy}"] = (ns["hypermerge_ns"], "ns")
        m[f"views.reduce_frac.{policy}"] = (
            _ratio(sum(ns.values()), med[p_cell] * 1e9 * procs), "ratio")
        m[f"mem.views.refills.{policy}"] = (_per_run(c, "mem.views.refills", runs), "count")
        if policy == "mm":
            m["mem.spa_pages.refills"] = (_per_run(c, "mem.spa_pages.refills", runs), "count")
            m["mem.frames.refills"] = (_per_run(c, "mem.frames.refills", runs), "count")
        else:
            m["mem.hypermap_nodes.refills"] = (
                _per_run(c, "mem.hypermap_nodes.refills", runs), "count")

    # The runtime layer does not depend on the view-store policy: mm cell.
    c, runs = summed_counters(outputs, "mm_P")
    m["runtime.steals"] = (_per_run(c, "steals", runs), "count")
    m["runtime.steal_attempts"] = (_per_run(c, "steal_attempts", runs), "count")
    m["runtime.steal_success"] = (_ratio(c["steals"], c["steal_attempts"]), "ratio")
    m["runtime.frames_per_steal"] = (_ratio(c["stolen_frames"], c["steals"]), "count")
    m["runtime.steal_wait_ns"] = (_ratio(c["steal_lat_ns"], c["steal_lat_count"]), "ns")
    m["runtime.joining_steals"] = (_per_run(c, "joining_steals", runs), "count")
    m["runtime.parks"] = (_per_run(c, "parks", runs), "count")
    m["runtime.wakes"] = (_per_run(c, "wakes", runs), "count")
    m["runtime.spawn_ns"] = (
        (med["mm_1"] - med["serial"]) / fork2joins * 1e9 if fork2joins else None, "ns")
    m["runtime.fibers_allocated"] = (_per_run(c, "fibers_allocated", runs), "count")
    m["runtime.degrades"] = (
        _per_run(c, "serial_degrades", runs) + _per_run(c, "fiber_fallbacks", runs), "count")

    if traced_output is not None:
        prof = {cell: traced_output["cells"][cell]["profile"] for cell in ("mm_P", "mm_1")}
        work = {cell: _ratio(p["work_ns"], p["runs"]) for cell, p in prof.items()}
        span = _ratio(prof["mm_P"]["span_ns"], prof["mm_P"]["runs"])
        burdened = _ratio(prof["mm_P"]["burdened_span_ns"], prof["mm_P"]["runs"])
        m["profile.work_ms"] = (work["mm_P"] / 1e6, "ms")
        m["profile.span_ms"] = (span / 1e6, "ms")
        m["profile.parallelism"] = (_ratio(work["mm_P"], span), "ratio")
        m["profile.burdened_parallelism"] = (_ratio(work["mm_P"], burdened), "ratio")
        m["profile.work_inflation"] = (_ratio(work["mm_P"], work["mm_1"]), "ratio")
        traced_wall = statistics.median(traced_output["cells"]["mm_P"]["samples"])
        m["trace.overhead_frac"] = (traced_wall / med["mm_P"] - 1, "ratio")
    return m


def sample_counts(outputs):
    return {c: len(pooled(outputs, c)) for c in P_CELLS + ONE_CELLS}


# ------------------------------------------------------------ build and run


def build():
    """Configure and build cilkm_bench in Release; refuse any other build."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(BUILD_DIR), "--target", "cilkm_bench",
             "-j", str(min(4, os.cpu_count() or 1))],
        ]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if r.returncode != 0:
                raise BenchError(f"{' '.join(cmd)} failed:\n{r.stdout[-4000:]}")
    info = json.loads(subprocess.run([str(BINARY), "--build-info"], check=True,
                                     stdout=subprocess.PIPE, text=True).stdout)
    if info["build_type"] != "Release":
        raise BenchError(f"refusing to measure a {info['build_type'] or 'untyped'} build; "
                         f"reconfigure {BUILD_DIR} with -DCMAKE_BUILD_TYPE=Release")
    if info["sanitize"]:
        raise BenchError(f"refusing to measure a -fsanitize={info['sanitize']} build; "
                         f"reconfigure {BUILD_DIR} with -DCILKM_SANITIZE=")
    return info


def worker_count():
    nproc = len(os.sched_getaffinity(0))
    procs = min(MAX_P, nproc)
    if procs < MAX_P:
        print(f"# P capped at nproc: P = {procs} (wanted {MAX_P})", file=sys.stderr)
    return procs


def run_process(workload, seed, procs, timeout, traced_dir=None):
    """One cilkm_bench process: its parsed output, or None and a reason."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--procs", str(procs)]
    if traced_dir is not None:
        cmd += ["--traced", str(traced_dir)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if r.returncode != 0:
        return None, f"exit code {r.returncode}: {r.stderr.strip()[-500:]}"
    try:
        return json.loads(r.stdout), None
    except ValueError:
        return None, f"unreadable output: {r.stdout[-500:]!r}"


def trace_check(path):
    r = subprocess.run([sys.executable, str(TRACE_CHECK), str(path)],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    print(f"# {r.stdout.strip()}")
    return r.returncode == 0


def run_workload(workload, seed, procs, seconds, traced, deadline):
    """Run one workload: at least MIN_PROCESSES untraced processes, more
    while the measured time stays under `seconds`, then (traced) the traced
    process. Returns the workload's result record."""
    outputs, errors = [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        now = time.monotonic()
        n = len(outputs) + len(errors)
        if n >= MIN_PROCESSES:
            mean_s = (now - start) / n
            if now - start + mean_s > seconds or now + mean_s > deadline:
                break
        timeout = min(PROCESS_TIMEOUT_S, deadline - now)
        if timeout <= 0:
            break
        out, err = run_process(workload, seed, procs, timeout)
        if out is None:
            errors.append(err)
            attempted += planned_attempts(False)
            failed += planned_attempts(False)
            print(f"# {workload}: process failed: {err}", file=sys.stderr)
            continue
        outputs.append(out)
        attempted += out["attempted"]
        failed += out["failed"]

    traced_output, trace_ok = None, True
    if traced:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        timeout = min(PROCESS_TIMEOUT_S, deadline - time.monotonic())
        traced_output, err = run_process(workload, seed, procs, timeout, RESULTS_DIR)
        if traced_output is None:
            print(f"# {workload}: traced process failed: {err}", file=sys.stderr)
            attempted += planned_attempts(True)
            failed += planned_attempts(True)
            trace_ok = False
        else:
            attempted += traced_output["attempted"]
            failed += traced_output["failed"]
            trace_ok = traced_output["trace_written"] and trace_check(
                RESULTS_DIR / f"trace_{workload}.json")

    record = {"processes": len(outputs), "process_errors": errors,
              "attempted": attempted, "failed": failed,
              "fail_frac": fail_frac(attempted, failed), "trace_ok": trace_ok}
    if outputs:
        record["samples"] = sample_counts(outputs)
        record["end_to_end"] = end_to_end(outputs)
        record["per_layer"] = per_layer(outputs, procs, traced_output)
    record["correct"] = bool(outputs) and failed == 0 and not errors and trace_ok
    return record


# ----------------------------------------------------------------- reporting


def print_record(workload, rec):
    print(f"== {workload}: {rec['processes']} processes, samples "
          + ", ".join(f"{c}={n}" for c, n in rec.get("samples", {}).items()))
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit) in rec.get(section, {}).items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<32} {shown:>14} {unit}")
    print(f"  {'fail_frac':<32} {rec['fail_frac']:>14.6g} ratio"
          f"   ({rec['failed']} failed of {rec['attempted']} attempted)")


def as_values(metrics):
    return {k: v for k, (v, _unit) in metrics.items()}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def machine_block(info, procs, seed):
    return {"nproc": len(os.sched_getaffinity(0)), "P": procs, "cpu_model": cpu_model(),
            "topology": info["topology"], "compiler": info["compiler"],
            "build_type": info["build_type"], "git_commit": git_commit(), "seed": seed}


# --------------------------------------------------------------- comparison


def check(old, new, spec):
    """Problems of `new` against `old`: one message per BENCHMARK.json
    workload that `new` lacks or did not verify, and one per (end-to-end
    metric, workload) pair worse by more than the metric's bound."""
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        rec = new["workloads"].get(workload)
        if rec is None:
            problems.append(f"{workload}: no result")
        elif not rec["correct"] or rec["fail_frac"] > 0:
            problems.append(f"{workload}: not correct ({rec['failed']} of {rec['attempted']} "
                            f"reps failed, process errors {rec['process_errors']})")
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in (w["name"] for w in spec["workloads"]):
            before = old["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            after = new["workloads"].get(workload, {}).get("end_to_end", {}).get(name)
            if before is None or after is None:
                continue
            worse = after / before - 1 if better == "lower" else before / after - 1
            if worse > bound:
                problems.append(f"{workload} {name}: {before:.6g} -> {after:.6g} "
                                f"({worse:+.1%} worse, bound {bound:.0%})")
    return problems


# --------------------------------------------------------------------- main


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure each workload at least this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true", help="add the traced pass")
    ap.add_argument("--out", type=Path, default=RESULTS_DIR / "latest.json")
    ap.add_argument("--check", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)

    if args.check:
        spec = json.loads(BENCHMARK_JSON.read_text())
        old, new = (json.loads(p.read_text()) for p in args.check)
        problems = check(old, new, spec)
        for p in problems:
            print(p)
        print(f"{len(problems)} problem(s) against the bounds in {BENCHMARK_JSON.name}")
        return 1 if problems else 0

    info = build()
    procs = worker_count()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if args.workload:
        traced = args.trace == 1
        rec = run_workload(args.workload, args.seed, procs, args.seconds, traced, deadline)
        print_record(args.workload, rec)
        # The metrics BENCHMARK.json lists, each a number on every workload
        # it lists; runtime.spawn_ns (spawn only) is left out.
        section = "per_layer" if traced else "end_to_end"
        listed = {m["name"] for m in json.loads(BENCHMARK_JSON.read_text())[section]}
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec.get(section, {}).items()
                   if k in listed}
        print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": metrics}))
        return 0 if rec["correct"] else 1

    results = {"schema": "cilkm-benchmark-v1", "machine": machine_block(info, procs, args.seed),
               "plan": {"min_processes": MIN_PROCESSES, "reps": planned_reps(False),
                        "traced_reps": planned_reps(True) if args.traced else None},
               "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        t0 = time.monotonic()
        rec = run_workload(workload, args.seed, procs, args.seconds, args.traced,
                           time.monotonic() + RUN_DEADLINE_S)
        print_record(workload, rec)
        print(f"  ({time.monotonic() - t0:.1f} s)")
        ok = ok and rec["correct"]
        for section in ("end_to_end", "per_layer"):
            if section in rec:
                rec[section] = as_values(rec[section])
        results["workloads"][workload] = rec
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"# wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(2)
