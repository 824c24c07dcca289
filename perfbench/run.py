#!/usr/bin/env python3
"""End-to-end benchmark of the c64fft library as users call it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --compare <record or dir> <record or dir>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library from ../src together with the benchmark (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR (default .bench_build). --seconds defaults to
BENCHMARK.json's run_seconds. setup_s is the median, over SETUP_PROCESSES
fresh processes (the measured one included), of the CPU time each spends
from its start to the warmed workload. Every run prints each metric
by name with its unit, the host fingerprint, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer metrics. The full record (fingerprint, notes, every metric) is
kept under <build>/perfbench/records; --compare refuses records whose host
fingerprints differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_open", "large_transform")
RUN_TIMEOUT_S = 130
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 10
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    """A run that cannot produce a result (exit status 2, no result line)."""


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found at the repository root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configure (first time) and build the benchmark; returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fft", "executor.hpp")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if proc.returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                raise BenchError(f"build failed (see {log_path}):\n{tail}")
    return out


def run_binary(bin_dir, args, timeout):
    try:
        proc = subprocess.run([os.path.join(bin_dir, "perfbench")] + args,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench {' '.join(args)} timed out after {timeout} s")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"perfbench printed nothing (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        raise BenchError(f"perfbench output is not JSON: {lines[-1][:200]}")


def wanted_metrics(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(record, names):
    """The contract's last line: exactly correct/attempted/failed/metrics.
    A metric the record lacks makes the run incorrect."""
    metrics = {}
    missing = []
    for name in names:
        m = record.get("metrics", {}).get(name)
        if m is None or m.get("value") is None:
            missing.append(name)
        else:
            metrics[name] = {"value": m["value"], "unit": m["unit"]}
    attempted = int(record.get("attempted", 0))
    correct = bool(record.get("correct")) and not missing and attempted >= 1
    return {"correct": correct, "attempted": attempted,
            "failed": int(record.get("failed", 0)), "metrics": metrics}, missing


def fingerprint_key(fp):
    return (fp.get("cpus"), fp.get("isa"), fp.get("l1d_bytes"),
            fp.get("l2_bytes"), fp.get("llc_bytes"))


def load_records(path):
    paths = ([os.path.join(path, p) for p in sorted(os.listdir(path))
              if p.endswith(".json")] if os.path.isdir(path) else [path])
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def compare(side_a, side_b):
    """Per (workload, trace, metric): medians of both sides and their ratio.
    Raises BenchError when any two records' fingerprints differ."""
    records = side_a + side_b
    if not side_a or not side_b:
        raise BenchError("both sides need at least one record")
    keys = {fingerprint_key(r.get("fingerprint", {})) for r in records}
    if len(keys) != 1:
        raise BenchError("refusing to compare runs from different hosts: "
                         + "; ".join(str(k) for k in sorted(keys, key=str)))
    rows = []
    groups = sorted({(r["workload"], r["trace"]) for r in records})
    for workload, trace in groups:
        a = [r for r in side_a if (r["workload"], r["trace"]) == (workload, trace)]
        b = [r for r in side_b if (r["workload"], r["trace"]) == (workload, trace)]
        if not a or not b:
            continue
        for name in sorted(set(a[0]["metrics"]) & set(b[0]["metrics"])):
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            rows.append((workload, trace, name, a[0]["metrics"][name]["unit"], ma, mb,
                         mb / ma if ma else float("nan")))
    return rows


def print_report(record, spec, trace):
    fp = record.get("fingerprint", {})
    print(f"workload {record['workload']}  seed {record['seed']}  trace {trace}")
    print("host fingerprint: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"operations: attempted {record['attempted']}  failed {record['failed']}"
          f"  (rejected {record.get('rejected', 0)}, errors {record.get('errors', 0)},"
          f" check failures {record.get('check_failures', 0)})")
    for msg in record.get("failures", []):
        print(f"FAILED: {msg}")
    listed = set(wanted_metrics(spec, trace))
    for name, m in record["metrics"].items():
        mark = "" if name in listed else "  (not in BENCHMARK.json)"
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{mark}")
    for key, value in record.get("notes", {}).items():
        if not key.startswith("reference_err"):
            print(f"  note {key}: {value}")


def cmd_run(args):
    spec = load_spec()
    bin_dir = build()
    rc, fp = run_binary(bin_dir, ["--fingerprint"], 30)
    if rc != 0:
        raise BenchError("perfbench --fingerprint failed")
    out_dir = os.path.join(build_dir(), "records")
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
                "--out-dir", trace_dir]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(run_binary(bin_dir, run_args + ["--setup-only"],
                                     SETUP_TIMEOUT_S))
    rc, record = run_binary(bin_dir, run_args, RUN_TIMEOUT_S)
    if fingerprint_key(record.get("fingerprint", {})) != fingerprint_key(fp):
        raise BenchError("host fingerprint changed during the run")
    if setups:
        rc = merge_setups(record, setups) or rc
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    print_report(record, spec, args.trace)
    line, missing = result_line(record, wanted_metrics(spec, args.trace))
    for name in missing:
        print(f"FAILED: metric {name} missing from the run")
    print(json.dumps(line))
    return 0 if line["correct"] and rc == 0 else 1


def merge_setups(record, setups):
    """Fold the set-up-only processes into the measured run's record:
    setup_s becomes the median of every process's set-up, and a failed
    set-up fails the run. Returns a non-zero status when one failed."""
    samples = []
    status = 0
    for rc, r in setups:
        if rc != 0 or not r.get("correct"):
            status = 1
            record["correct"] = False
            record.setdefault("failures", []).extend(
                "set-up process: " + f for f in r.get("failures", ["failed"]))
        m = r.get("metrics", {}).get("setup_s")
        if m is not None:
            samples.append(m["value"])
    main = record.get("metrics", {}).get("setup_s")
    if main is not None:
        samples.append(main["value"])
        main["value"] = statistics.median(samples)
        record.setdefault("notes", {})["setup_s_samples"] = samples
    return status


def cmd_compare(paths):
    rows = compare(load_records(paths[0]), load_records(paths[1]))
    print(f"{'workload':16s} {'t':1s} {'metric':40s} {'A':>12s} {'B':>12s} {'B/A':>7s} unit")
    for workload, trace, name, unit, ma, mb, ratio in rows:
        print(f"{workload:16s} {trace:d} {name:40s} {ma:12.6g} {mb:12.6g} {ratio:7.3f} {unit}")
    return 0


def cmd_self_test():
    bin_dir = build()
    proc = subprocess.run([os.path.join(bin_dir, "perfbench_selftest")], timeout=120)
    py = subprocess.run([sys.executable, "-B", "-m", "unittest", "-v", "test_run"],
                        cwd=HERE, timeout=120)
    return 0 if proc.returncode == 0 and py.returncode == 0 else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", nargs=2, metavar="RECORDS")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_test:
            return cmd_self_test()
        if args.compare:
            return cmd_compare(args.compare)
        if not args.workload:
            p.error("--workload is required")
        return cmd_run(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2 if "different hosts" not in str(e) else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
