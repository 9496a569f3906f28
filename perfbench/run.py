#!/usr/bin/env python3
"""Runs the adrecd benchmark for one workload.

    python3 perfbench/run.py --workload feed_hot --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the library, adrecd and the load
generator from source (into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), then runs the generator, which starts adrecd. The
last line of stdout is the JSON result; build output goes to stderr. The exit code is non-zero when an
output check failed or a metric listed in BENCHMARK.json is missing.
`--workload all` runs every workload in turn. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads of src/gen.h's kWorkloads, which also holds their rates.
WORKLOADS = ("feed_hot", "feed_cold", "ingest_churn")


def build(build_dir):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "adrecd", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except OSError:
        return None
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def code_id(build_dir):
    """Hash of the adrecd and perfbench binaries: exact counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for name in ("adrecd", "perfbench"):
        with open(os.path.join(build_dir, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(name, args, base, build_dir):
    """Runs one workload; returns (exit code, stdout)."""
    run_dir = os.path.join(base, "runs", f"{name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", name,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--run-dir", run_dir,
           "--counts-dir", os.path.join(base, "counts", code_id(build_dir))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
        rc, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as e:
        rc, out = 3, ""
        print(f"benchmark timed out: {e}", file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.splitlines()
    if rc != 0 or not lines:
        return rc or 1, out
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    if want is not None and set(result["metrics"]) != want:
        print(f"{name}: metrics differ from BENCHMARK.json: "
              f"missing {sorted(want - set(result['metrics']))}, "
              f"extra {sorted(set(result['metrics']) - want)}", file=sys.stderr)
        return 1, "\n".join(lines[:-1]) + "\n"
    return (0 if result["correct"] else 1), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(base, "perfbench")
    if not build(build_dir):
        print("build failed", file=sys.stderr)
        return 1

    status = 0
    for name in names:
        rc, out = run_workload(name, args, base, build_dir)
        if len(names) > 1:
            print(f"== {name}")
        sys.stdout.write(out)
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
