#!/usr/bin/env bash
# Runs the figure benchmarks that emit machine-readable reports and
# collects BENCH_*.json (+ a Chrome trace) into an output directory.
#
# Usage: bench/run_all.sh [build_dir] [out_dir]
#   build_dir  cmake build tree holding bench/ binaries (default: build)
#   out_dir    where to put the artifacts (default: .)
# Env:
#   QUICK=1    smoke mode (short windows, fewer cells) where supported
#   SEED=<n>   pass --seed <n> to every benchmark (reproducible reports)
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-.}"
mkdir -p "$out_dir"

if [[ ! -x "$build_dir/bench/fig4_throughput" ]]; then
  echo "error: $build_dir/bench/fig4_throughput not found; build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

quick_flags=()
[[ "${QUICK:-0}" == "1" ]] && quick_flags+=(--quick)
seed_flags=()
[[ -n "${SEED:-}" ]] && seed_flags+=(--seed "$SEED")

echo "== fig4_throughput =="
"$build_dir/bench/fig4_throughput" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_fig4_throughput.json" \
  --trace "$out_dir/BENCH_fig4.trace.json"

echo "== batch_sweep =="
"$build_dir/bench/batch_sweep" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_batch.json"

echo "== fig5_vs_dynastar =="
"$build_dir/bench/fig5_vs_dynastar" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_fig5_vs_dynastar.json"

echo "== fig6_latency_breakdown =="
"$build_dir/bench/fig6_latency_breakdown" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_fig6_latency_breakdown.json"

echo "== fig7_txn_latency =="
"$build_dir/bench/fig7_txn_latency" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_fig7_txn_latency.json"

echo "== fig8_state_transfer =="
"$build_dir/bench/fig8_state_transfer" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_fig8_state_transfer.json"

echo "== table1_wait_for_all =="
"$build_dir/bench/table1_wait_for_all" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_table1_wait_for_all.json"

echo "== chaos_explorer =="
"$build_dir/bench/chaos_explorer" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_chaos.json"

# Batching smoke: re-run the crash/failover plans with leader-side
# batching enabled; the atomic-multicast, convergence, and exactly-once
# oracles must stay green with max_batch > 1.
echo "== chaos_explorer (max_batch=8) =="
"$build_dir/bench/chaos_explorer" --quick "${seed_flags[@]}" \
  --max-batch 8 --batch-timeout-us 20 \
  --json "$out_dir/BENCH_chaos_batch.json"

echo "== overload_bench =="
"$build_dir/bench/overload_bench" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_overload.json"

echo "== read_sweep =="
"$build_dir/bench/read_sweep" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_reads.json"

# Fast-read chaos smoke: leader crash + restart during an open lease;
# the linearizability, exactly-once and convergence oracles gate the run.
echo "== read_sweep (--chaos) =="
"$build_dir/bench/read_sweep" --chaos "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_reads_chaos.json"

# Write sweep: leased one-sided fast writes vs the ordered stream; the
# >= 2x throughput gate at >= 50% writes and the 10us fast p50 gate
# fail the run on regression.
echo "== write_sweep =="
"$build_dir/bench/write_sweep" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_writes.json"

# Fast-write chaos smoke: leader crash + restart while one-sided writes
# are in flight; linearizability, exactly-once, convergence and the
# no-stranded-invalidation sweep gate the run.
echo "== write_sweep (--chaos) =="
"$build_dir/bench/write_sweep" --chaos "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_writes_chaos.json"

echo "== recovery_bench =="
"$build_dir/bench/recovery_bench" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_recovery.json"

# Durable chaos smoke: crash a replica mid-checkpoint (plus a torn-write
# variant) under retrying load; the oracle suite gates the run.
echo "== recovery_bench (--chaos) =="
"$build_dir/bench/recovery_bench" --chaos "${quick_flags[@]}" \
  "${seed_flags[@]}" --json "$out_dir/BENCH_recovery_chaos.json"

# Congestion sweep: leader incast over an oversubscribed ToR uplink;
# the adaptive-vs-fixed admission goodput gate and the full oracle suite
# (including tail latency) gate the run.
echo "== congestion_bench =="
"$build_dir/bench/congestion_bench" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_congestion.json"

echo "== reconfig_bench =="
"$build_dir/bench/reconfig_bench" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_reconfig.json"

# Million-client open-loop scale sweep: Poisson/MMPP arrivals x key skew
# over a pooled-session harness. The uniform-cell SLO gate and arrival
# accounting gate it.
echo "== scale_sweep =="
"$build_dir/bench/scale_sweep" "${quick_flags[@]}" "${seed_flags[@]}" \
  --json "$out_dir/BENCH_scale.json"

# Repartitioning chaos smoke: a live range move with a source-leader
# crash right after PREPARE plus a torn-copy-chunk cell; the no-lost/
# no-duplicated-object and exactly-once-across-split oracles gate it.
echo "== reconfig_bench (--chaos) =="
"$build_dir/bench/reconfig_bench" --chaos "${quick_flags[@]}" \
  "${seed_flags[@]}" --json "$out_dir/BENCH_reconfig_chaos.json"

echo
echo "artifacts:"
ls -l "$out_dir"/BENCH_*.json
