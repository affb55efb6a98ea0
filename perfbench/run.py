#!/usr/bin/env python3
"""Builds and runs the Heron benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload <tpcc|kv-fast|kv-crash> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark (and the Heron libraries it links) under .bench_build/; later
runs only rebuild what changed. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics": {name: {value,
unit}}}, with the end-to-end metrics of BENCHMARK.json for --trace 0 and
its per-layer metrics for --trace 1. Traced runs also leave a Chrome trace
and a per-layer table in .bench_build/artifacts/. Any build failure,
failed output check or metric mismatch exits non-zero without a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc", "kv-fast", "kv-crash")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "3"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def metric_units(trace):
    """name -> unit for the metrics this mode must report."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def write_layer_table(path, metrics):
    with open(path, "w") as f:
        json.dump(metrics, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    units = metric_units(args.trace)
    out_root = os.path.join(ROOT, ".bench_build")
    artifacts = os.path.join(out_root, "artifacts")
    os.makedirs(artifacts, exist_ok=True)
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--artifacts", artifacts]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if proc.returncode != 0:
        log(f"perfbench: benchmark failed (exit {proc.returncode})")
        return 1
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    raw = result.get("metrics", {})
    if set(raw) != set(units):
        log(f"perfbench: metric set mismatch: got {sorted(raw)}, "
            f"want {sorted(units)}")
        return 1
    result["metrics"] = {name: {"value": raw[name], "unit": units[name]}
                         for name in units}
    if args.trace:
        table = os.path.join(
            artifacts, f"{args.workload}-seed{args.seed}.layers.json")
        write_layer_table(table, result["metrics"])
        log(f"per-layer table -> {table}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
