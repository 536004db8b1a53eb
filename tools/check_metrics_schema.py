#!/usr/bin/env python3
"""Validate dq.report.v1 / dq.bench.v1 / dq.lint.v1 JSON documents.

Usage:
  check_metrics_schema.py FILE [FILE...]      validate existing JSON files
                                              (schema is auto-detected)
  check_metrics_schema.py --dqsim PATH [ROOT] run `PATH --protocol=dqvl
                                              --metrics-json=<tmp>` and
                                              validate the output (also checks
                                              the DQVL-specific sections:
                                              write_phases and iqs_load); with
                                              ROOT, also validate the goldens
                                              (ROOT/tests/golden/*.json) and
                                              every checked-in BENCH_*.json
  check_metrics_schema.py --rerun BENCH BASELINE OUT
                                              run `BENCH --json=OUT`, validate
                                              OUT, and require its runs array
                                              to equal BASELINE's (the host
                                              block may differ)
  check_metrics_schema.py --dqlint PATH       run `PATH --root=<repo>
                                              --json=<tmp>`, validate the
                                              dq.lint.v1 output, and require
                                              a clean run (no unsuppressed
                                              diagnostics, every suppression
                                              justified)

Exit status 0 iff every document validates.  Uses only the standard library.
"""

import json
import os
import subprocess
import sys
import tempfile

from check_bench_baselines import whitelisted

SUMMARY_KEYS = {"count", "mean", "min", "max", "p50", "p95", "p99"}
REPORT_KEYS = {
    "schema", "protocol", "config", "requests", "availability", "latency_ms",
    "messages", "write_phases", "iqs_load", "metrics", "sim_duration_ms",
    "violations",
}
CONFIG_KEYS = {
    "iqs", "oqs_read_quorum", "servers", "clients", "requests_per_client",
    "write_ratio", "seed",
}
METRICS_KEYS = {"counters", "gauges", "histograms"}
STALENESS_KEYS = {"reads", "stale_reads", "read_age_ms"}
OPEN_LOOP_KEYS = {
    "sites", "clients_per_site", "logical_clients", "objects", "zipf_s",
    "site_rate_hz", "horizon_ms", "offered", "completed", "failed",
    "batches", "load_skew", "per_site",
}
HOST_KEYS = {"cpu_model", "hardware_threads", "baseline_comparable"}
LINT_KEYS = {
    "schema", "root", "files_scanned", "clean", "rules", "diagnostics",
    "suppressions", "suppression_summary",
}


class SchemaError(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def check_summary(obj, where):
    expect(isinstance(obj, dict), f"{where}: expected object")
    missing = SUMMARY_KEYS - obj.keys()
    expect(not missing, f"{where}: missing keys {sorted(missing)}")
    for k in SUMMARY_KEYS:
        expect(isinstance(obj[k], (int, float)), f"{where}.{k}: not a number")
    expect(obj["count"] >= 0, f"{where}.count: negative")
    if obj["count"] > 0:
        order = ("min", "p50", "p95", "p99", "max")
        expect(all(obj[a] <= obj[b] + 1e-9 for a, b in zip(order, order[1:])),
               f"{where}: quantiles not ordered (" +
               " ".join(f"{k}={obj[k]}" for k in order) + ")")


def check_report(doc, where, *, dqvl=False):
    expect(isinstance(doc, dict), f"{where}: expected object")
    expect(doc.get("schema") == "dq.report.v1",
           f"{where}.schema: {doc.get('schema')!r} != 'dq.report.v1'")
    missing = REPORT_KEYS - doc.keys()
    expect(not missing, f"{where}: missing keys {sorted(missing)}")

    expect(isinstance(doc["protocol"], str) and doc["protocol"],
           f"{where}.protocol: not a non-empty string")

    cfg = doc["config"]
    expect(isinstance(cfg, dict), f"{where}.config: expected object")
    missing = CONFIG_KEYS - cfg.keys()
    expect(not missing, f"{where}.config: missing keys {sorted(missing)}")
    expect(isinstance(cfg["iqs"], str) and
           cfg["iqs"].split(":")[0] in ("majority", "grid", "read-one"),
           f"{where}.config.iqs: {cfg['iqs']!r} is not a QuorumSpec string")

    req = doc["requests"]
    for k in ("completed_reads", "completed_writes", "rejected_reads",
              "rejected_writes", "total"):
        expect(isinstance(req.get(k), int), f"{where}.requests.{k}: not an int")
    expect(req["total"] == req["completed_reads"] + req["completed_writes"] +
           req["rejected_reads"] + req["rejected_writes"],
           f"{where}.requests: total != completed + rejected")

    lat = doc["latency_ms"]
    for k in ("read", "write", "all"):
        check_summary(lat.get(k), f"{where}.latency_ms.{k}")

    msgs = doc["messages"]
    for k in ("total", "bytes"):
        expect(isinstance(msgs.get(k), int), f"{where}.messages.{k}: not an int")
    for k in ("per_request", "bytes_per_request"):
        expect(isinstance(msgs.get(k), (int, float)),
               f"{where}.messages.{k}: not a number")
    expect(isinstance(msgs.get("by_type"), dict),
           f"{where}.messages.by_type: expected object")

    expect(isinstance(doc["write_phases"], dict),
           f"{where}.write_phases: expected object")
    for name, hist in doc["write_phases"].items():
        check_summary(hist, f"{where}.write_phases.{name}")
    expect(isinstance(doc["iqs_load"], dict),
           f"{where}.iqs_load: expected object")
    for node, load in doc["iqs_load"].items():
        expect(isinstance(load, int), f"{where}.iqs_load.{node}: not an int")

    met = doc["metrics"]
    expect(isinstance(met, dict), f"{where}.metrics: expected object")
    missing = METRICS_KEYS - met.keys()
    expect(not missing, f"{where}.metrics: missing keys {sorted(missing)}")
    for k in METRICS_KEYS:
        expect(isinstance(met[k], dict), f"{where}.metrics.{k}: expected object")
    for name, hist in met["histograms"].items():
        check_summary(hist, f"{where}.metrics.histograms.{name}")

    expect(isinstance(doc["sim_duration_ms"], (int, float)),
           f"{where}.sim_duration_ms: not a number")
    expect(isinstance(doc["violations"], int) and doc["violations"] >= 0,
           f"{where}.violations: expected a non-negative count")

    # Optional staleness section (--staleness runs): per-read age histogram
    # plus read/stale-read counts, which must agree with each other.
    if "staleness" in doc:
        st = doc["staleness"]
        expect(isinstance(st, dict), f"{where}.staleness: expected object")
        missing = STALENESS_KEYS - st.keys()
        expect(not missing, f"{where}.staleness: missing keys "
               f"{sorted(missing)}")
        for k in ("reads", "stale_reads"):
            expect(isinstance(st[k], int) and st[k] >= 0,
                   f"{where}.staleness.{k}: not a non-negative int")
        expect(st["stale_reads"] <= st["reads"],
               f"{where}.staleness: stale_reads > reads")
        check_summary(st["read_age_ms"], f"{where}.staleness.read_age_ms")
        expect(st["read_age_ms"]["count"] == st["reads"],
               f"{where}.staleness.read_age_ms.count != reads")
        hists = doc["metrics"]["histograms"]
        expect("staleness.read_age_ms" in hists,
               f"{where}.metrics.histograms: staleness.read_age_ms missing "
               "despite staleness section")

    # Optional open_loop section (--open-loop runs): offered-load accounting
    # plus per-site counters, which must agree with each other.
    if "open_loop" in doc:
        ol = doc["open_loop"]
        expect(isinstance(ol, dict), f"{where}.open_loop: expected object")
        missing = OPEN_LOOP_KEYS - ol.keys()
        expect(not missing, f"{where}.open_loop: missing keys "
               f"{sorted(missing)}")
        for k in ("sites", "clients_per_site", "logical_clients", "objects",
                  "offered", "completed", "failed", "batches"):
            expect(isinstance(ol[k], int) and ol[k] >= 0,
                   f"{where}.open_loop.{k}: not a non-negative int")
        for k in ("zipf_s", "site_rate_hz", "horizon_ms", "load_skew"):
            expect(isinstance(ol[k], (int, float)),
                   f"{where}.open_loop.{k}: not a number")
        expect(ol["logical_clients"] == ol["sites"] * ol["clients_per_site"],
               f"{where}.open_loop: logical_clients != sites * "
               "clients_per_site")
        expect(ol["offered"] == ol["completed"] + ol["failed"],
               f"{where}.open_loop: offered != completed + failed")
        per_site = ol["per_site"]
        expect(isinstance(per_site, dict) and
               len(per_site) == ol["sites"],
               f"{where}.open_loop.per_site: expected one entry per site")
        site_offered = 0
        for name, site in per_site.items():
            w = f"{where}.open_loop.per_site.{name}"
            expect(name.startswith("s"), f"{w}: bad site key")
            expect(isinstance(site, dict), f"{w}: expected object")
            for k in ("offered", "completed"):
                expect(isinstance(site.get(k), int) and site[k] >= 0,
                       f"{w}.{k}: not a non-negative int")
            if "latency_ms" in site:
                check_summary(site["latency_ms"], f"{w}.latency_ms")
            site_offered += site["offered"]
        expect(site_offered == ol["offered"],
               f"{where}.open_loop: per-site offered does not sum to "
               "offered")

    if dqvl:
        # The acceptance bar: per-phase write-latency histograms and
        # per-node IQS load counters must actually be populated.
        phases = doc["write_phases"]
        expect(set(phases) == {"suppress", "invalidate", "lease_wait"},
               f"{where}.write_phases: got {sorted(phases)}")
        total = sum(h["count"] for h in phases.values())
        expect(total > 0, f"{where}.write_phases: no writes classified")
        expect(doc["iqs_load"],
               f"{where}.iqs_load: empty (no per-node IQS counters)")


def check_lint(doc, where, *, require_clean=False):
    expect(isinstance(doc, dict), f"{where}: expected object")
    expect(doc.get("schema") == "dq.lint.v1",
           f"{where}.schema: {doc.get('schema')!r} != 'dq.lint.v1'")
    missing = LINT_KEYS - doc.keys()
    expect(not missing, f"{where}: missing keys {sorted(missing)}")
    expect(isinstance(doc["root"], str), f"{where}.root: not a string")
    expect(isinstance(doc["files_scanned"], int) and doc["files_scanned"] >= 0,
           f"{where}.files_scanned: not a non-negative int")
    expect(isinstance(doc["clean"], bool), f"{where}.clean: not a bool")

    rules = doc["rules"]
    expect(isinstance(rules, list) and rules, f"{where}.rules: empty or not "
           "an array")
    ids = set()
    for i, r in enumerate(rules):
        w = f"{where}.rules[{i}]"
        for k in ("id", "description"):
            expect(isinstance(r.get(k), str) and r[k], f"{w}.{k}: not a "
                   "non-empty string")
        expect(isinstance(r.get("scopes"), list), f"{w}.scopes: not an array")
        expect(r["id"] not in ids, f"{w}.id: duplicate {r['id']!r}")
        ids.add(r["id"])

    for i, d in enumerate(doc["diagnostics"]):
        w = f"{where}.diagnostics[{i}]"
        for k in ("file", "rule", "message"):
            expect(isinstance(d.get(k), str) and d[k], f"{w}.{k}: not a "
                   "non-empty string")
        expect(isinstance(d.get("line"), int) and d["line"] >= 1,
               f"{w}.line: not a positive int")
        expect(d["rule"] in ids, f"{w}.rule: {d['rule']!r} not in rule table")
    for i, s in enumerate(doc["suppressions"]):
        w = f"{where}.suppressions[{i}]"
        for k in ("file", "rule", "justification"):
            expect(isinstance(s.get(k), str) and s[k], f"{w}.{k}: not a "
                   "non-empty string")
        expect(isinstance(s.get("line"), int) and s["line"] >= 1,
               f"{w}.line: not a positive int")
        expect(s["rule"] in ids, f"{w}.rule: {s['rule']!r} not in rule table")

    # The per-rule rollup must agree exactly with the suppressions array.
    actual = {}
    for s in doc["suppressions"]:
        actual[s["rule"]] = actual.get(s["rule"], 0) + 1
    summary = doc["suppression_summary"]
    expect(isinstance(summary, list),
           f"{where}.suppression_summary: expected array")
    rolled = {}
    for i, e in enumerate(summary):
        w = f"{where}.suppression_summary[{i}]"
        expect(isinstance(e, dict), f"{w}: expected object")
        expect(isinstance(e.get("rule"), str) and e["rule"] in ids,
               f"{w}.rule: {e.get('rule')!r} not in rule table")
        expect(isinstance(e.get("count"), int) and e["count"] >= 1,
               f"{w}.count: not a positive int")
        expect(e["rule"] not in rolled, f"{w}.rule: duplicate {e['rule']!r}")
        rolled[e["rule"]] = e["count"]
    expect(rolled == actual,
           f"{where}.suppression_summary: disagrees with suppressions array "
           f"(summary={rolled} actual={actual})")

    expect(doc["clean"] == (len(doc["diagnostics"]) == 0),
           f"{where}.clean: inconsistent with diagnostics array")
    if require_clean:
        diags = "; ".join(f"{d['file']}:{d['line']}: {d['rule']}"
                          for d in doc["diagnostics"][:5])
        expect(doc["clean"], f"{where}: lint not clean ({diags} ...)")


def check_document(doc, where):
    """Validate a single report, a dq.bench.v1 envelope, or a dq.lint.v1
    run."""
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema == "dq.lint.v1":
        check_lint(doc, where)
        return 1
    if schema == "dq.bench.v1":
        expect(isinstance(doc.get("bench"), str) and doc["bench"],
               f"{where}.bench: not a non-empty string")
        # Optional hardware-provenance block: which machine produced the
        # numbers and whether the baseline it replaced was comparable.
        if "host" in doc:
            host = doc["host"]
            expect(isinstance(host, dict), f"{where}.host: expected object")
            missing = HOST_KEYS - host.keys()
            expect(not missing, f"{where}.host: missing keys "
                   f"{sorted(missing)}")
            expect(isinstance(host["cpu_model"], str) and host["cpu_model"],
                   f"{where}.host.cpu_model: not a non-empty string")
            expect(isinstance(host["hardware_threads"], int) and
                   host["hardware_threads"] > 0,
                   f"{where}.host.hardware_threads: not a positive int")
            expect(isinstance(host["baseline_comparable"], bool),
                   f"{where}.host.baseline_comparable: not a bool")
        runs = doc.get("runs")
        expect(isinstance(runs, list), f"{where}.runs: expected array")
        for i, run in enumerate(runs):
            check_report(run, f"{where}.runs[{i}]")
        return len(runs)
    check_report(doc, where, dqvl=doc.get("protocol") == "dqvl")
    return 1


def validate_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return check_document(doc, os.path.basename(path))


def checked_in_documents(root):
    """The goldens, plus each checked-in BENCH_*.json: whitelisted in
    .gitignore and present in the tree."""
    golden = os.path.join(root, "tests", "golden")
    paths = [os.path.join(golden, n) for n in sorted(os.listdir(golden))
             if n.endswith(".json")]
    paths += [os.path.join(root, n) for n in sorted(whitelisted(root))
              if os.path.isfile(os.path.join(root, n))]
    return paths


def rerun_matches(bench, baseline, out):
    """Run `bench --json=out`; its runs must equal the baseline's."""
    proc = subprocess.run([bench, f"--json={out}"], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
        print(f"FAIL: {bench} exited {proc.returncode}", file=sys.stderr)
        return False
    try:
        validate_file(out)
        with open(out, "r", encoding="utf-8") as fh:
            fresh = json.load(fh)["runs"]
        with open(baseline, "r", encoding="utf-8") as fh:
            kept = json.load(fh)["runs"]
    except (SchemaError, json.JSONDecodeError, OSError, KeyError) as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return False
    if fresh != kept:
        diff = next((i for i, (a, b) in enumerate(zip(fresh, kept))
                     if a != b), min(len(fresh), len(kept)))
        print(f"FAIL: {out} runs differ from {baseline} (first at "
              f"runs[{diff}]); regenerate the baseline with `{bench} "
              f"--json={baseline}`", file=sys.stderr)
        return False
    print(f"OK: {bench} reproduces the runs of {baseline}")
    return True


def main(argv):
    if len(argv) >= 2 and argv[1] == "--rerun":
        if len(argv) != 5:
            print("usage: check_metrics_schema.py --rerun BENCH BASELINE OUT",
                  file=sys.stderr)
            return 2
        return 0 if rerun_matches(*argv[2:]) else 1

    if len(argv) >= 2 and argv[1] == "--dqsim":
        if len(argv) not in (3, 4):
            print("usage: check_metrics_schema.py --dqsim PATH [ROOT]",
                  file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "report.json")
            cmd = [argv[2], "--protocol=dqvl", f"--metrics-json={out}"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                print(proc.stdout, file=sys.stderr)
                print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            try:
                validate_file(out)
            except (SchemaError, json.JSONDecodeError) as e:
                print(f"FAIL: {out}: {e}", file=sys.stderr)
                return 1
        print("OK: dqsim --metrics-json output matches dq.report.v1")
        if len(argv) == 4:
            return main([argv[0]] + checked_in_documents(argv[3]))
        return 0

    if len(argv) >= 2 and argv[1] == "--dqlint":
        if len(argv) not in (3, 4):
            print("usage: check_metrics_schema.py --dqlint PATH [ROOT]",
                  file=sys.stderr)
            return 2
        root = argv[3] if len(argv) == 4 else "."
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "lint.json")
            cmd = [argv[2], f"--root={root}", f"--json={out}"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            # Exit 1 just means diagnostics exist; check_lint reports them.
            if proc.returncode not in (0, 1):
                print(proc.stdout, file=sys.stderr)
                print(f"FAIL: {' '.join(cmd)} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            try:
                with open(out, "r", encoding="utf-8") as fh:
                    check_lint(json.load(fh), "lint.json", require_clean=True)
            except (SchemaError, json.JSONDecodeError, OSError) as e:
                print(f"FAIL: {out}: {e}", file=sys.stderr)
                return 1
        print("OK: dqlint --json output matches dq.lint.v1 and is clean")
        return 0

    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            n = validate_file(path)
            print(f"OK: {path} ({n} report{'s' if n != 1 else ''})")
        except (SchemaError, json.JSONDecodeError, OSError) as e:
            print(f"FAIL: {path}: {e}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
