#!/usr/bin/env python3
"""RecSSD repository benchmark: simulator cost plus modelled serving tails.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (the recssd library from ../src plus the driver) in
Release, then runs the named workload of perfbench/workloads.json as a
series of iterations, one driver process each, for about S seconds.

Iteration i serves sub-run i % M with sub-seed derived from N, where M
is the workload's fixed "subruns" count. The simulated (sim_*) metrics
pool the M distinct sub-runs; host metrics are medians over every
iteration. Sub-run 0 always runs twice and every repeat must match its
first run byte for byte (sim and count metrics): a mismatch is a
nondeterminism bug and fails the run.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced iterations (the driver records its own spans and replays
the trace and load generators) and prints the per-layer metrics,
including the tracing overhead. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exit code 1
means a correctness or determinism check failed, including a driver
that died (the library aborts when a query is lost); 2 a usage or
build error. Each iteration's host times go to stderr.
"""

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# End-to-end metrics, printed with --trace 0: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "sim_p50_ms": "sim_ms",
    "sim_p95_ms": "sim_ms",
    "sim_slo_attainment": "fraction",
    "sim_qps": "q/sim_s",
    "ok_frac": "fraction",
}

# Per-layer metrics, printed with --trace 1. Counts come from the
# driver's "count" block of sub-run 0; host times are span self times
# (driver "self_s" block, median over traced iterations).
PER_LAYER_COUNTS = {
    "common.events": "count",
    "common.events_per_query": "count",
    "trace.ids_drawn": "count",
    "load.arrivals": "count",
    "reco.fused_batches": "count",
    "reco.avg_batch_samples": "count",
    "reco.max_sched_depth": "count",
    "reco.queue_wait_sim_ms": "sim_ms",
    "reco.service_sim_ms": "sim_ms",
    "cache.host_served_frac": "fraction",
    "ndp.sls_requests": "count",
    "ndp.flash_pages_read": "count",
    "ndp.embed_cache_hits": "count",
    "ndp.embed_cache_hit_frac": "fraction",
    "shard.scattered_ops": "count",
    "shard.subop_p95_sim_ms_max": "sim_ms",
    "shard.subop_p95_sim_ms_min": "sim_ms",
    "host.cores_busy_sim_ms": "sim_ms",
    "host.driver_commands": "count",
    "nvme.commands": "count",
    "nvme.pcie_bytes": "bytes",
    "nvme.pcie_busy_sim_ms": "sim_ms",
    "ftl.cpu_busy_sim_ms": "sim_ms",
    "ftl.host_writes": "count",
    "ftl.write_amp": "ratio",
    "ftl.gc_runs": "count",
    "flash.page_reads": "count",
    "flash.page_writes": "count",
    "flash.reads_per_query": "count",
    "qos.victim.reservation_grants": "count",
    "qos.victim.weight_grants": "count",
    "qos.victim.queue_sim_ms": "sim_ms",
    "qos.antagonist.limit_deferrals": "count",
    "qos.update_deferrals": "count",
    "update.submitted": "count",
    "update.applied": "count",
    "update.flushes": "count",
    "obs.spans": "count",
    "obs.blame_requests": "count",
}
# Per-layer host times: metric -> span whose self time it is.
PER_LAYER_SPANS = {
    "core.system_build_s": "system_build",
    "reco.runner_build_s": "runner_build",
    "reco.serve_host_s": "serve",
    "trace.host_s": "trace_replay",
    "load.host_s": "load_replay",
    "obs.blame_host_s": "blame",
    "bench.check_s": "check",
}
# Derived: common.host_ns_per_event (serve self time / events) and
# obs.trace_overhead_s (traced minus untraced setup_s + wall_s).


def fail_usage(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the driver; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_usage("recssd sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail_usage("cmake not found")
    # Build output goes under $CARGO_TARGET_DIR when the caller sets one
    # (a common build-directory convention), else .bench_build.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_driver"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                           stderr=sys.stderr)
        if r.returncode != 0:
            fail_usage("build failed: " + " ".join(cmd))
    return bdir


def driver_flags(config):
    """workloads.json "config" -> driver flags (true = bare flag)."""
    flags = []
    for key, value in config.items():
        if value is True:
            flags.append("--" + key)
        elif value is not False:
            flags += ["--" + key, str(value)]
    return flags


def sub_seed(seed, i):
    return (seed * 1000 + i) % 2**64


def parse_driver(returncode, stdout):
    """The driver's JSON result, or None when it died without one (a
    signal, or the library's abort on a lost query): a failed check.
    Exit 2 is a usage error and stops the benchmark."""
    if returncode == 2:
        fail_usage("driver usage error")
    lines = stdout.strip().splitlines()
    if returncode < 0 or not lines:
        return None
    doc = json.loads(lines[-1])
    if returncode != 0:
        doc["correct"] = False
    return doc


def run_iteration(bdir, name, wl, seed, i, traced):
    cmd = [os.path.join(bdir, "perfbench_driver"), "--workload", name,
           "--seed", str(sub_seed(seed, i))] + driver_flags(wl["config"])
    if traced:
        cmd.append("--spans")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=170)
    if r.stderr:
        sys.stderr.write(r.stderr)
    doc = parse_driver(r.returncode, r.stdout)
    if doc is None:
        print("perfbench: driver died (exit %d): %s"
              % (r.returncode, " ".join(cmd)), file=sys.stderr)
        return None
    doc["sub"] = i
    doc["traced"] = traced
    print("perfbench: iteration sub-run %d%s setup_s %.6f wall_s %.6f"
          % (i, " traced" if traced else "", doc["host"]["setup_s"],
             doc["host"]["wall_s"]), file=sys.stderr)
    return doc


def deterministic_part(doc):
    """What must repeat exactly across runs of one sub-seed."""
    count = {k: v for k, v in doc["count"].items() if k != "trace.ids_drawn"}
    return {"sim": doc["sim"], "pool": doc["pool"], "count": count,
            "check": doc["check"]}


def check_determinism(docs):
    """Every run of a sub-seed must equal its first run exactly."""
    first = {}
    ok = True
    for d in docs:
        part = deterministic_part(d)
        if d["sub"] not in first:
            first[d["sub"]] = part
        elif part != first[d["sub"]]:
            ok = False
            print("perfbench: nondeterminism in sub-run %d of %s"
                  % (d["sub"], d["workload"]), file=sys.stderr)
    return ok


def plan(wl, trace):
    """Yield (sub-run, traced) pairs, cycling over the sub-runs; with
    trace, each sub-run runs untraced then traced. The caller stops on
    time."""
    for i in itertools.count():
        yield i % wl["subruns"], False
        if trace:
            yield i % wl["subruns"], True


def mandatory(wl, trace):
    """Iterations that run whatever the time budget: every sub-run plus
    one repeat of sub-run 0 (untraced); one pair (traced)."""
    return 2 if trace else wl["subruns"] + 1


def end_to_end(docs):
    distinct = {}
    for d in docs:
        distinct.setdefault(d["sub"], d)
    runs = list(distinct.values())
    pool = lambda k: sum(d["pool"][k] for d in runs)
    med = lambda block, k, ds: statistics.median(d[block][k] for d in ds)
    attempted = int(pool("attempted"))
    failed = int(pool("failed"))
    return {
        "setup_s": med("host", "setup_s", docs),
        "wall_s": med("host", "wall_s", docs),
        "peak_rss_mb": med("host", "peak_rss_mb", docs),
        "sim_p50_ms": med("sim", "sim_p50_ms", runs),
        "sim_p95_ms": med("sim", "sim_p95_ms", runs),
        "sim_slo_attainment": pool("met") / pool("issued"),
        "sim_qps": pool("qps_queries") / pool("qps_span_s"),
        "ok_frac": 1.0 - failed / attempted,
    }, attempted, failed


def per_layer(docs):
    traced = [d for d in docs if d["traced"]]
    plain = [d for d in docs if not d["traced"]]
    base = next(d for d in traced if d["sub"] == 0)
    out = {k: base["count"][k] for k in PER_LAYER_COUNTS}
    for metric, span in PER_LAYER_SPANS.items():
        out[metric] = statistics.median(d["self_s"].get(span, 0.0)
                                        for d in traced)
    events = base["count"]["common.events"]
    out["common.host_ns_per_event"] = (
        out["reco.serve_host_s"] * 1e9 / events if events else 0.0)
    cost = lambda d: d["host"]["setup_s"] + d["host"]["wall_s"]
    out["obs.trace_overhead_s"] = (statistics.median(map(cost, traced)) -
                                   statistics.median(map(cost, plain)))
    return out


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name in PER_LAYER_COUNTS:
        return PER_LAYER_COUNTS[name]
    return "ns" if name == "common.host_ns_per_event" else "s"


def self_test():
    bdir = build()
    r = subprocess.run(["cmake", "--build", bdir, "--target",
                        "perfbench_tests"], cwd=ROOT, stdout=sys.stderr)
    if r.returncode != 0:
        fail_usage("building perfbench_tests failed (needs GTest)")
    cpp = subprocess.run([os.path.join(bdir, "perfbench_tests")])
    py = subprocess.run([sys.executable, "-B",
                         os.path.join(HERE, "test_run.py")])
    return cpp.returncode or py.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the metric-code unit tests")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.seed < 0:
        fail_usage("--seed must be >= 0")

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    wl = spec["workloads"].get(args.workload)
    if wl is None:
        fail_usage("unknown workload %r (have: %s)" % (
            args.workload, ", ".join(spec["workloads"])))
    bdir = build()

    docs = []
    start = time.monotonic()
    need = mandatory(wl, args.trace)
    for i, traced in plan(wl, args.trace):
        elapsed = time.monotonic() - start
        if len(docs) >= need:
            per_iter = elapsed / len(docs)
            if elapsed + per_iter > args.seconds:
                break
        doc = run_iteration(bdir, args.workload, wl, args.seed, i, traced)
        if doc is None:
            print(json.dumps({"correct": False, "attempted": 1,
                              "failed": 1, "metrics": {}}))
            sys.exit(1)
        docs.append(doc)

    correct = all(d["correct"] for d in docs)
    correct = check_determinism(docs) and correct
    if args.trace:
        metrics = per_layer(docs)
        _, attempted, failed = end_to_end(docs)
    else:
        metrics, attempted, failed = end_to_end(docs)

    b = docs[0]["build"]
    print("provenance: build %s, compiler %s, nproc %d, %d iterations "
          "in %.1f s, %d sub-runs, seed %d" % (
              b["build_type"], b["compiler"], b["nproc"], len(docs),
              time.monotonic() - start, wl["subruns"], args.seed))
    for name, value in metrics.items():
        print("%-34s %16.6f %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
