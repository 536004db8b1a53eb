#!/usr/bin/env python3
"""The repository benchmark: simulator throughput and simulated service
quality of dual-quorum (DQVL) replication, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script builds perfbench/dqbench from
the repository's sources with CMake (into $CARGO_TARGET_DIR, default
.bench_build), then runs whole trials of the workload -- one process per
trial, so each starts from the same process state -- for about S wall
seconds.  Every trial is checked (regular semantics, every issued operation
accounted for, identical virtual results for one seed).  The last line of
stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(alternating untraced and traced trials, plus the stack ladder and the
single-layer probes).  perfbench/README.md defines every metric.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ol-read-hit", "ol-write-mix", "cl-faults")
# Sources the build needs from the rest of the checkout.
REQUIRED_INPUTS = ("src/workload/experiment.h", "src/sim/world.h",
                   "src/workload/wiring.cpp", "bench/bench_util.h")
DEADLINE_S = 170.0  # the whole run, build excluded, ends well within 180 s
MAX_TRIALS = 64


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def check_inputs():
    missing = [p for p in REQUIRED_INPUTS
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        die("missing input(s) " + ", ".join(missing) + " under " + ROOT +
            "; run from the root of a full checkout of the repository")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            die(f"'{tool}' not found on PATH; the benchmark builds from source")


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                die(f"build failed ({' '.join(cmd)}); log {log_path}:\n{tail}")
    exe = os.path.join(build_dir, "dqbench")
    if not os.path.isfile(exe):
        die(f"build produced no {exe}")
    return exe, build_dir


class Runner:
    """Runs dqbench trials against one overall deadline."""

    def __init__(self, exe, workload, seed, out_dir):
        self.exe, self.workload, self.seed = exe, workload, seed
        self.out_dir = out_dir
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def trial(self, mode, ladder=False):
        cmd = [self.exe, "--workload", self.workload, "--seed",
               str(self.seed), "--mode", mode]
        if ladder:
            cmd += ["--ladder", "--spans", os.path.join(
                self.out_dir, f"{self.workload}-seed{self.seed}-spans.json")]
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            die("out of time before a trial could start")
        try:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=remaining, cwd=ROOT)
        except subprocess.TimeoutExpired:
            die(f"trial timed out: {' '.join(cmd)}")
        if p.returncode != 0:
            die(f"trial failed ({p.returncode}): {' '.join(cmd)}\n"
                f"{p.stderr[-2000:]}")
        lines = p.stdout.strip().splitlines()
        if not lines:
            die(f"trial printed nothing: {' '.join(cmd)}")
        return json.loads(lines[-1])


def median(xs):
    return statistics.median(list(xs))


def ratio(num, den):
    return num / den if den else 0.0


def run_trials(runner, seconds, traced):
    """Whole trials until the next one would overrun `seconds`: at least
    three untraced ones (for a median of three), or one untraced/traced
    pair in a traced run."""
    plain, tr = [], []
    while True:
        plain.append(runner.trial("plain"))
        if traced:
            tr.append(runner.trial("traced", ladder=not tr))
        elapsed = runner.elapsed()
        per_round = elapsed / len(plain)
        enough = traced or len(plain) >= 3
        if enough and elapsed + per_round > seconds:
            break
        if len(plain) >= MAX_TRIALS or elapsed + per_round > DEADLINE_S - 20:
            break
    return plain, tr


def checks(trials):
    v = trials[0]["virtual"]
    deterministic = all(t["virtual"] == v for t in trials)
    accounted = all(t["virtual"]["history_ops"] == t["virtual"]["issued_ops"]
                    for t in trials)
    regular = all(t["virtual"]["violations"] == 0 for t in trials)
    traced = [t["trace"] for t in trials if "trace" in t]
    recheck = all(tr["check_regular_violations"] == v["violations"] and
                  tr["condition_c_stable"] for tr in traced)
    return {
        "deterministic_across_trials": deterministic,
        "every_issued_op_recorded": accounted,
        "regular_semantics": regular,
        "probes_agree": recheck,
        "measured_ops_nonzero": v["offered"] > 0 and v["ok"] > 0,
    }


def end_to_end(plain):
    v = plain[0]["virtual"]
    wall = [t["wall"] for t in plain]
    return {
        "req_per_wall_s": ("req/s", median(v["ok"] / w["measured_s"]
                                           for w in wall)),
        "setup_s": ("s", median(w["setup_s"] for w in wall)),
        "peak_rss_mb": ("MB", median(w["peak_rss_mb"] for w in wall)),
        "read_p50_ms": ("virtual_ms", v["read_p50_ms"]),
        "read_p999_ms": ("virtual_ms", v["read_p999_ms"]),
        "op_ok_frac": ("ratio", ratio(v["ok"], v["offered"])),
        "msgs_per_req": ("msgs", ratio(v["msgs"], v["offered"])),
    }


def per_layer(plain, traced):
    v = plain[0]["virtual"]
    first = traced[0]
    tr = first["trace"]
    reg = tr["registry"]
    n = v["offered"]

    def c(name):
        return reg["counters"].get(name, 0)

    def hist_mean(name):  # exact mean (sum / count), never a bucket edge
        h = reg["histograms"].get(name, {"count": 0, "sum": 0.0})
        return ratio(h["sum"], h["count"])

    def med_wall(key):
        return median(t["wall"][key] for t in plain)

    full_s = med_wall("measured_s")
    ladder = first["ladder"]
    has_ladder = ladder["sink_s"] > 0
    sink_ns = ladder["sink_s"] * 1e9 / n if has_ladder else 0.0
    stub_ns = ladder["stub_s"] * 1e9 / n if has_ladder else 0.0
    full_ns = full_s * 1e9 / n
    plain_rate = median(v["ok"] / t["wall"]["measured_s"] for t in plain)
    traced_rate = median(v["ok"] / t["wall"]["measured_s"] for t in traced)
    calls = c("qrpc.calls")
    hits, misses = c("oqs.read.hits"), c("oqs.read.misses")
    return {
        "sim.sched_events_per_s": ("events/s",
                                   first["probes"]["sched_events_per_s"]),
        "sim.events_per_req": ("events", ratio(v["events"], n)),
        "sim.ns_per_event": ("ns", ratio(full_s * 1e9, v["events"])),
        "sim.emit_ns_per_req": ("ns", sink_ns),
        "net.bytes_per_req": ("bytes", ratio(c("net.bytes"), n)),
        "net.s2s_msgs_per_req": ("msgs", ratio(c("net.msgs.server_server"),
                                               n)),
        "net.dropped_frac": ("ratio", ratio(c("net.dropped"), c("net.sent"))),
        "workload.deploy_s": ("s", med_wall("deploy_s")),
        "workload.warmup_s": ("s", med_wall("warmup_s")),
        "workload.fe_ns_per_req": ("ns", stub_ns - sink_ns),
        "workload.collect_s": ("s", med_wall("collect_s")),
        "workload.check_regular_s": ("s", median(
            t["trace"]["check_regular_s"] for t in traced)),
        "workload.to_json_s": ("s", med_wall("to_json_s")),
        "workload.finish_s": ("s", med_wall("finish_s")),
        "workload.write_p50_ms": ("virtual_ms", v["write_p50_ms"]),
        "workload.write_p99_ms": ("virtual_ms", v["write_p99_ms"]),
        "workload.op_fail_frac": ("ratio", 1.0 - ratio(v["ok"], n)),
        "core.dqvl_hit_ns_per_req": ("ns", full_ns - stub_ns
                                     if has_ladder else 0.0),
        "core.condition_c_ns": ("ns", median(
            t["trace"]["condition_c_ns"] for t in traced)),
        "core.oqs_hit_frac": ("ratio", ratio(hits, hits + misses)),
        "core.oqs_pending_max": ("reads", tr["pending_max"]),
        "core.oqs_pending_mean": ("reads", tr["pending_mean"]),
        "core.warmup_pending_max": ("reads", tr["warmup_pending_max"]),
        "core.read_miss_ms_mean": ("virtual_ms",
                                   hist_mean("dqvl.read.miss_ms")),
        "core.iqs_renewals_per_req": ("count", ratio(c("iqs.renewals"), n)),
        "core.write_invalidate_ms_mean": (
            "virtual_ms", hist_mean("dqvl.write.invalidate_ms")),
        "core.write_lease_wait_ms_mean": (
            "virtual_ms", hist_mean("dqvl.write.lease_wait_ms")),
        "core.write_suppressed_frac": ("ratio", ratio(
            c("iqs.writes_suppressed"), c("iqs.writes"))),
        "core.iqs_delayed_queue_max": (
            "count", reg["gauge_max"].get("iqs.delayed_queue.depth", 0)),
        "core.recoveries": ("count", c("iqs.recoveries") +
                            c("oqs.recoveries")),
        "rpc.calls_per_req": ("calls", ratio(calls, n)),
        "rpc.rounds_per_call": ("rounds", ratio(c("qrpc.rounds"), calls)),
        "rpc.retries_per_call": ("retries", ratio(c("qrpc.retries"), calls)),
        "rpc.timeouts": ("count", c("qrpc.timeouts")),
        "rpc.inflight_max": ("calls", reg["gauge_max"].get("qrpc.inflight",
                                                           0)),
        "obs.observe_ns": ("ns", first["probes"]["observe_ns"]),
        "obs.snapshot_s": ("s", median(t["trace"]["snapshot_s"]
                                       for t in traced)),
        "store.wal_syncs_per_write": ("syncs", ratio(c("wal.syncs"),
                                                     v["writes"])),
        "store.wal_commit_ms_mean": ("virtual_ms", hist_mean("wal.commit_ms")),
        "trace.req_per_wall_s": ("req/s", traced_rate),
        "trace.overhead_frac": ("ratio", 1.0 - ratio(traced_rate,
                                                     plain_rate)),
    }


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    check_inputs()
    exe, build_dir = build()
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    runner = Runner(exe, args.workload, args.seed, out_dir)
    plain, traced = run_trials(runner, args.seconds, args.trace == 1)
    trials = plain + traced
    ok = checks(trials)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)

    declared = declared_metrics(args.trace == 1)
    got = [(name, unit) for name, (unit, _) in metrics.items()]
    if declared is not None and sorted(declared) != sorted(got):
        die("metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(got))}, extra "
            f"{sorted(set(got) - set(declared))}")

    v = plain[0]["virtual"]
    correct = all(ok.values()) and all(math.isfinite(val)
                                       for _, val in metrics.values())
    attempted = sum(t["virtual"]["offered"] for t in trials)
    failed = sum(t["virtual"]["violations"] +
                 abs(t["virtual"]["history_ops"] - t["virtual"]["issued_ops"])
                 for t in trials)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (unit, val) in metrics.items()},
    }

    summary = {
        "schema": "dq.perfbench.v1",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **plain[0]["description"],
        "samples": {"measured_ops": v["offered"], "ok_ops": v["ok"],
                    "read_latency_samples": v["reads"],
                    "write_latency_samples": v["writes"]},
        "virtual": v,
        "checks": ok,
        "trials": [{"mode": t["mode"], **t["wall"]} for t in trials],
        "result": result,
    }
    if traced:
        first = traced[0]
        summary["traced"] = {
            "ladder_s": first["ladder"],
            "cold_hot_pairs_after_warmup": first["trace"]["cold_hot_pairs"],
            "pending_samples": first["trace"]["pending_samples"],
            "spans": first["trace"]["spans"],
        }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w") as f:
        json.dump({**summary, "raw_trials": trials}, f, indent=1)
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced "
          f"trial(s), {v['offered']} measured ops ({v['ok']} ok); quantiles "
          f"over {v['reads']} reads and {v['writes']} writes; checks "
          f"{'passed' if correct else 'FAILED: ' + str(ok)}; "
          f"details in {stem}.json")
    print(json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
