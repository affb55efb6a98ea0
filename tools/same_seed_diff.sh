#!/usr/bin/env bash
# Same-seed report diff: the reports of a fixed seed must not change
# unless a change means them to. Builds <base-rev> and the working tree,
# runs `QUICK=1 SEED=<seed> bench/run_all.sh` on each, and compares every
# BENCH_*.json after dropping the wall-clock keys (wall_secs,
# events_per_wall_sec), which differ from run to run. It also runs
# `perfbench/run.py --trace 0 --seconds 0.5` on each side for seeds 1-4
# and 42 on every workload, and compares their simulated metrics (sim_*,
# rejoin_us) and outcome counts (correct, attempted, failed) as
# BENCH_perfbench_<workload>_seed<n>.json.
#
# Usage: tools/same_seed_diff.sh <base-rev> [work_dir]
#   base-rev   commit to compare against (e.g. the merge base of a PR)
#   work_dir   scratch directory for both builds and their reports
#              (default: a fresh mktemp -d; kept for inspection)
# Env:
#   SEED=<n>   seed passed to every run_all.sh benchmark (default 7)
#   JOBS=<n>   build parallelism (default: nproc)
#
# Exit status: 0 when every report is identical, 1 when any differs (each
# difference is printed as a unified diff of the normalized JSON), 2 on
# usage errors.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,22p' "$0" >&2
  exit 2
fi
base_rev="$1"
repo="$(git rev-parse --show-toplevel)"
work="${2:-$(mktemp -d)}"
seed="${SEED:-7}"
jobs="${JOBS:-$(nproc)}"
base_sha="$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")"

echo "same-seed diff: base $base_sha vs working tree, seed $seed, in $work"
# Builds are incremental across reruns with the same work_dir; the base
# tree and both report sets are always fresh.
rm -rf "$work/base/src" "$work/base/out" "$work/head/out"
mkdir -p "$work/base/src" "$work/head"

# The base revision is exported as a plain tree (no worktree metadata left
# behind in the repository if the run is interrupted).
git -C "$repo" archive --format=tar "$base_sha" | tar -x -C "$work/base/src"

# Builds the benchmarks a run_all.sh runs into <side>/build (compiler
# output goes to <side>/build.log, shown only on failure).
build() {  # build <source dir> <side dir>
  local targets
  targets=$(grep -o 'build_dir/bench/[A-Za-z0-9_]*' "$1/bench/run_all.sh" |
    sed 's|.*/||' | sort -u)
  cmake -S "$1" -B "$2/build" -DCMAKE_BUILD_TYPE=Release >"$2/build.log"
  if ! cmake --build "$2/build" -j"$jobs" --target $targets \
      >>"$2/build.log" 2>&1; then
    tail -50 "$2/build.log" >&2
    exit 1
  fi
}
echo "== building base =="
build "$work/base/src" "$work/base"
echo "== building working tree =="
build "$repo" "$work/head"

echo "== base reports =="
QUICK=1 SEED="$seed" "$work/base/src/bench/run_all.sh" "$work/base/build" \
  "$work/base/out"
echo "== working-tree reports =="
QUICK=1 SEED="$seed" "$repo/bench/run_all.sh" "$work/head/build" \
  "$work/head/out"

# perfbench builds into .bench_build/ of its own checkout. Only the
# metrics that are a function of the seed are kept.
perfbench() {  # perfbench <source dir> <report dir>
  local workload seed
  for workload in tpcc kv-fast kv-crash; do
    for seed in 1 2 3 4 42; do
      echo "perfbench $workload seed $seed"
      python3 "$1/perfbench/run.py" --workload "$workload" --seed "$seed" \
          --seconds 0.5 --trace 0 2>>"$2/perfbench.log" | tail -1 |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
m = {k: v for k, v in r["metrics"].items()
     if k.startswith("sim_") or k == "rejoin_us"}
print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                  "failed": r["failed"], "metrics": m}, sort_keys=True))' \
        >"$2/BENCH_perfbench_${workload}_seed${seed}.json"
    done
  done
}
echo "== base perfbench =="
perfbench "$work/base/src" "$work/base/out"
echo "== working-tree perfbench =="
perfbench "$repo" "$work/head/out"

echo "== comparing =="
python3 - "$work/base/out" "$work/head/out" <<'EOF'
import difflib
import json
import pathlib
import sys

WALL_KEYS = {"wall_secs", "events_per_wall_sec"}


def strip(node):
    if isinstance(node, dict):
        return {k: strip(v) for k, v in node.items() if k not in WALL_KEYS}
    if isinstance(node, list):
        return [strip(v) for v in node]
    return node


def normalized(path):
    doc = strip(json.loads(path.read_text()))
    return json.dumps(doc, indent=1, sort_keys=True).splitlines(keepends=True)


base, head = (pathlib.Path(p) for p in sys.argv[1:3])
names = sorted({p.name for p in base.glob("BENCH_*.json")} |
               {p.name for p in head.glob("BENCH_*.json")})
differing = []
for name in names:
    a, b = base / name, head / name
    if not a.exists() or not b.exists():
        print(f"{name}: only in {'working tree' if b.exists() else 'base'}")
        differing.append(name)
        continue
    diff = list(difflib.unified_diff(normalized(a), normalized(b),
                                     f"base/{name}", f"head/{name}"))
    if diff:
        sys.stdout.writelines(diff)
        differing.append(name)
    else:
        print(f"{name}: identical")
if differing:
    print(f"{len(differing)} of {len(names)} reports differ: "
          + ", ".join(differing))
    sys.exit(1)
print(f"all {len(names)} reports identical")
EOF
