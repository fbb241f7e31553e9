#!/usr/bin/env python3
"""Performance ledger of walb: builds perfbench from the checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tree-seed N]
    python3 perfbench/run.py --selftest

Run from the repository root. The program is built under $CARGO_TARGET_DIR
(default .bench_build) with CMake. The last line printed is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The line
before it carries the host fingerprint and workload facts of the run.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 175

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchError(Exception):
    pass


def validate_spec(spec):
    """Checks the metric lists of a BENCHMARK.json object; returns {mode: {name: unit}}."""
    seen = set()
    expected = {}
    for key, mode in (("end_to_end", 0), ("per_layer", 1)):
        entries = spec.get(key)
        if not isinstance(entries, list) or not entries:
            raise BenchError(f"BENCHMARK.json: '{key}' must be a non-empty list")
        expected[mode] = {}
        for m in entries:
            name, unit = m.get("name"), m.get("unit")
            if not isinstance(name, str) or not NAME_RE.match(name):
                raise BenchError(f"BENCHMARK.json: invalid metric name {name!r}")
            if not isinstance(unit, str) or not UNIT_RE.match(unit):
                raise BenchError(f"BENCHMARK.json: invalid unit {unit!r} of {name}")
            if m.get("better") not in ("higher", "lower"):
                raise BenchError(f"BENCHMARK.json: 'better' of {name} must be higher or lower")
            if name in seen:
                raise BenchError(f"BENCHMARK.json: metric name {name} used twice")
            seen.add(name)
            expected[mode][name] = unit
    return expected


def validate_metrics(metrics, expected):
    """Checks a run's metrics against the expected {name: unit} map."""
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        if m.get("unit") != expected[name]:
            raise BenchError(f"{name}: unit {m.get('unit')!r}, expected {expected[name]!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError(f"{name}: value {v!r} is not a finite number")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "DistributedSimulation.h")):
        raise BenchError(f"walb sources not found under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return out


def run_checked(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{os.path.basename(cmd[0])} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    return stdout


def run_workload(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        expected = validate_spec(json.load(f))[args.trace]
    out = build()
    started = time.monotonic()
    scratch = os.path.join(out, f"scratch-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scratch", scratch]
    if args.tree_seed is not None:
        cmd += ["--tree-seed", str(args.tree_seed)]
    try:
        stdout = run_checked(cmd, RUN_LIMIT_S - (time.monotonic() - started))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise BenchError("perfbench printed no result")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    validate_metrics(result["metrics"], expected)
    for err in result.get("errors", []):
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps(context))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def selftest():
    out = build()
    print(run_checked([os.path.join(out, "perfbench_tests")], RUN_LIMIT_S), file=sys.stderr)
    cmd = [sys.executable, "-m", "unittest", "-q", "test_run"]
    if subprocess.run(cmd, cwd=HERE).returncode != 0:
        raise BenchError("run.py unit tests failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tree-seed", type=int)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            selftest()
        elif not args.workload:
            p.error("--workload is required")
        else:
            run_workload(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
