// Write-path sweep: Hermes-style leased one-sided fast writes vs the
// ordered stream.
//
// Closed-loop mixed clients on a 2x3 bank deployment issue blind
// single-object writes (kSet) through Client::write, swept over
// write ratio x {fast_writes off, fast_writes on}. Leases are on in both
// arms so the contrast isolates the write path: with the flag off every
// write falls back to the ordered stream (reason kFastWriteDisabled);
// with it on a warm client commits with one-sided
// INVALIDATE -> install -> VERIFY -> VALIDATE rounds and only falls back
// on conflicts, cold caches or lease trouble. The run fails (non-zero
// exit) if a write-heavy fast cell (>= 50% writes) is not at least 2x
// the matching ordered cell's throughput, if the fast-write p50 exceeds
// 10us, or if any client hangs.
//
// --chaos runs a single fast cell with a leader crash + restart mid-run
// and checks the full oracle suite (amcast properties, exactly-once,
// store convergence, mixed read/write linearizability, no stranded odd
// seqlock); violations fail the run.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/linear.hpp"
#include "faultlab/plan.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"

using namespace heron;

namespace {

struct Options {
  bool quick = false;
  bool chaos = false;
  std::uint64_t seed = 211;
  std::string json_path;
};

struct CellResult {
  std::uint64_t ops_done = 0;  // completed submits + fast-read hits
  std::uint64_t fast_hits = 0;
  std::uint64_t fw_commits = 0;
  std::uint64_t fw_conflicts = 0;
  std::uint64_t fw_fallbacks = 0;
  std::uint64_t fw_lease_rejects = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t hung = 0;
  std::uint64_t odd_seqlocks = 0;
  sim::Nanos elapsed = 0;  // virtual time until the last loop finished
  sim::Nanos write_fast_p50 = 0;
  sim::Nanos write_ordered_p50 = 0;
  std::size_t violations = 0;
  double ops_per_sec = 0.0;
};

constexpr int kPartitions = 2;
constexpr int kReplicas = 3;
constexpr std::uint64_t kAccounts = 12;

struct LoopState {
  int remaining = 0;
  sim::Nanos finish = 0;
  sim::LatencyRecorder fast_writes;
  sim::LatencyRecorder ordered_writes;
};

/// Closed-loop mixed client: blind single-object writes at `write_ratio`
/// into the client's own key slice (single-writer objects — the regime
/// the leased write path targets; contended keys CAS-abort to the
/// ordered stream, which the --chaos arm covers), fast reads across the
/// whole key space. Every write goes through Client::write, so the two
/// arms run the same op stream and differ only in which path commits it.
sim::Task<void> mixed_loop(core::System& sys, core::Client& client,
                           faultlab::LinearChecker* lin, LoopState& state,
                           std::uint64_t seed, int ops, double write_ratio,
                           std::uint64_t slice_start, std::uint64_t slice_size) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  const auto partitions = static_cast<std::uint64_t>(sys.partitions());
  const auto total = partitions * kAccounts;
  // Warm the slice's address cache: a leased client holds the slot
  // addresses of the objects it writes (one seeding read each). Both
  // arms pay the same warmup, so the contrast stays apples-to-apples.
  for (std::uint64_t i = 0; i < slice_size; ++i) {
    const core::Oid oid = slice_start + i;
    (void)co_await client.read(static_cast<amcast::GroupId>(oid % partitions),
                               oid);
  }
  for (int k = 0; k < ops; ++k) {
    if (rng.chance(write_ratio)) {
      const core::Oid oid = slice_start + rng.bounded(slice_size);
      const auto home = static_cast<amcast::GroupId>(oid % partitions);
      const auto bal = static_cast<std::int64_t>(rng.bounded(100000));
      const faultlab::Account value{bal};
      const faultlab::DepositReq ordered{oid, bal};
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.write(
          home, oid, std::as_bytes(std::span(&value, 1)), faultlab::kSet,
          std::as_bytes(std::span(&ordered, 1)));
      (res.fast ? state.fast_writes : state.ordered_writes).record(res.latency);
      if (lin != nullptr) {
        if (res.fast) {
          lin->note_fast_write(oid, res.tmp, res.base_tmp, t0, sim.now());
        } else {
          lin->note_write(oid, client.id(), res.session_seq, t0, sim.now(),
                          res.status);
        }
      }
    } else {
      const core::Oid oid = rng.bounded(total);
      const auto home = static_cast<amcast::GroupId>(oid % partitions);
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.read(home, oid);
      if (lin != nullptr && res.submit_status == core::SubmitStatus::kOk &&
          res.status == 0) {
        lin->note_read(oid, res.tmp, t0, sim.now(), res.fast);
      }
    }
  }
  if (--state.remaining == 0) state.finish = sim.now();
}

CellResult run_cell(double write_ratio, bool fast_writes, const Options& opt,
                    const std::string& plan_text = "") {
  const int clients = opt.quick ? 3 : 6;
  const int ops = opt.quick ? 30 : 80;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.lease_duration = sim::ms(1);
  cfg.fast_writes = fast_writes;
  // Retries ride out the fault window in --chaos; in fault-free cells the
  // timeout never fires.
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 12;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_retry_backoff_max = sim::us(500);
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] { return std::make_unique<faultlab::BankApp>(kPartitions, kAccounts); },
      cfg);
  faultlab::HistoryRecorder history;
  faultlab::LinearChecker lin;
  const bool chaos = !plan_text.empty();
  if (chaos) history.attach(sys);
  sys.start();

  LoopState state;
  state.remaining = clients;
  // Sweep cells give each client a disjoint write slice (single-writer
  // objects); the chaos cell deliberately overlaps every client on the
  // full key space so CAS conflicts and fallback wipes get exercised
  // under the fault plan too.
  const auto total = static_cast<std::uint64_t>(kPartitions) * kAccounts;
  const std::uint64_t slice =
      chaos ? total : total / static_cast<std::uint64_t>(clients);
  for (int c = 0; c < clients; ++c) {
    const std::uint64_t start = chaos ? 0 : slice * static_cast<std::uint64_t>(c);
    sim.spawn(mixed_loop(sys, sys.add_client(), chaos ? &lin : nullptr, state,
                         opt.seed * 1000 + static_cast<std::uint64_t>(c), ops,
                         write_ratio, start, slice));
  }
  faultlab::Injector injector(sys);
  if (chaos) {
    injector.run(faultlab::FaultPlan::parse("write_sweep", plan_text));
  }
  sim.run_for(sim::ms(500));

  CellResult out;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ops_done += cl.completed() + cl.fastread_hits();
    out.fast_hits += cl.fastread_hits();
    out.fw_commits += cl.fastwrite_commits();
    out.fw_conflicts += cl.fastwrite_conflicts();
    out.fw_fallbacks += cl.fastwrite_fallbacks();
    out.fw_lease_rejects += cl.fastwrite_lease_rejects();
    out.timeouts += cl.timeouts();
    if (cl.in_flight()) ++out.hung;
  }
  // No cell may end with a stranded invalidation: every live replica's
  // slots must carry even seqlocks once the workload drains.
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      if (!sys.replica(g, r).node().alive()) continue;
      sys.replica(g, r).store().for_each_oid([&](core::Oid oid) {
        if (sys.replica(g, r).store().seqlock(oid) & 1) ++out.odd_seqlocks;
      });
    }
  }
  out.elapsed = state.remaining == 0 ? state.finish : sim.now();
  out.write_fast_p50 = state.fast_writes.percentile(50);
  out.write_ordered_p50 = state.ordered_writes.percentile(50);
  if (out.elapsed > 0) {
    out.ops_per_sec = static_cast<double>(out.ops_done) * 1e9 /
                      static_cast<double>(out.elapsed);
  }
  if (chaos) {
    auto v = faultlab::check_amcast_properties(history, sys,
                                               injector.ever_crashed());
    faultlab::check_exactly_once(history, v);
    faultlab::check_store_convergence(sys, v);
    for (auto& lv : lin.check(history)) v.push_back(std::move(lv));
    out.violations = v.size();
    bench::print_violations(v);
  }
  return out;
}

void emit_cell(telemetry::JsonWriter& w, double write_ratio, bool fast,
               const CellResult& r, const Options& opt, char* argv0,
               const std::string& plan_text) {
  w.begin_object();
  w.kv("write_ratio", write_ratio);
  w.kv("fast_writes", fast);
  w.kv("ops_done", r.ops_done);
  w.kv("ops_per_sec", r.ops_per_sec);
  w.kv("elapsed_ns", r.elapsed);
  w.kv("fast_read_hits", r.fast_hits);
  w.kv("fw_commits", r.fw_commits);
  w.kv("fw_conflicts", r.fw_conflicts);
  w.kv("fw_fallbacks", r.fw_fallbacks);
  w.kv("fw_lease_rejects", r.fw_lease_rejects);
  w.kv("timeouts", r.timeouts);
  w.kv("hung_clients", r.hung);
  w.kv("odd_seqlocks", r.odd_seqlocks);
  w.kv("write_fast_p50_ns", r.write_fast_p50);
  w.kv("write_ordered_p50_ns", r.write_ordered_p50);
  if (!plan_text.empty()) {
    w.kv("plan", plan_text);
    w.kv("violations", static_cast<std::uint64_t>(r.violations));
  }
  w.kv("repro", std::string(argv0) + " --seed " + std::to_string(opt.seed) +
                    (opt.quick ? " --quick" : "") +
                    (opt.chaos ? " --chaos" : ""));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--quick", opt.quick, "fewer clients and ops per cell (CI smoke)")
      .flag("--chaos", opt.chaos,
            "one fast-write cell under a leader crash + restart, gated by "
            "the oracle suite")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (default BENCH_writes.json; with --chaos "
            "BENCH_writes_chaos.json)")
      .parse(argc, argv);
  if (opt.json_path.empty()) {
    opt.json_path = opt.chaos ? "BENCH_writes_chaos.json" : "BENCH_writes.json";
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "write_sweep");
  w.kv("quick", opt.quick);
  w.kv("chaos", opt.chaos);
  w.kv("seed", opt.seed);
  w.key("cells").begin_array();

  int exit_code = 0;
  double min_speedup = 0.0;

  if (opt.chaos) {
    // One fast cell with a partition-0 leader crash mid-run while fast
    // writes are in flight, then a restart; the oracle suite gates the
    // exit code.
    const std::string plan = "crash g0.r0 @ 500us; restart g0.r0 @ 5ms";
    std::printf("Write chaos smoke: 2x3 bank, 60%% writes, fast on, %s\n\n",
                plan.c_str());
    const CellResult r = run_cell(0.6, true, opt, plan);
    emit_cell(w, 0.6, true, r, opt, argv[0], plan);
    std::printf(
        "ops=%llu fw_commits=%llu fallback=%llu timeouts=%llu odd_locks=%llu "
        "violations=%zu%s\n",
        static_cast<unsigned long long>(r.ops_done),
        static_cast<unsigned long long>(r.fw_commits),
        static_cast<unsigned long long>(r.fw_fallbacks),
        static_cast<unsigned long long>(r.timeouts),
        static_cast<unsigned long long>(r.odd_seqlocks), r.violations,
        r.hung != 0 ? "  HUNG CLIENTS" : "");
    if (r.violations != 0 || r.hung != 0 || r.odd_seqlocks != 0) exit_code = 1;
  } else {
    std::printf("Write sweep: 2x3 bank, mixed closed-loop clients\n\n");
    std::printf("%-8s %-6s %10s %12s %10s %8s %10s %12s\n", "writes", "fast",
                "ops", "ops/s", "commits", "fallback", "fast_p50",
                "ordered_p50");

    const std::vector<double> ratios = {0.5, 0.9};
    std::uint64_t total_hung = 0;
    std::uint64_t total_odd = 0;
    sim::Nanos worst_fast_p50 = 0;
    min_speedup = 1e9;
    for (const double ratio : ratios) {
      double ordered_tput = 0.0;
      for (const bool fast : {false, true}) {
        const CellResult r = run_cell(ratio, fast, opt);
        total_hung += r.hung;
        total_odd += r.odd_seqlocks;
        if (fast) {
          if (ordered_tput > 0 && r.ops_per_sec / ordered_tput < min_speedup) {
            min_speedup = r.ops_per_sec / ordered_tput;
          }
          if (r.fw_commits > 0 && r.write_fast_p50 > worst_fast_p50) {
            worst_fast_p50 = r.write_fast_p50;
          }
        } else {
          ordered_tput = r.ops_per_sec;
        }
        emit_cell(w, ratio, fast, r, opt, argv[0], "");
        std::printf(
            "%-8.2f %-6s %10llu %12.0f %10llu %8llu %9.1fus %11.1fus%s\n",
            ratio, fast ? "on" : "off",
            static_cast<unsigned long long>(r.ops_done), r.ops_per_sec,
            static_cast<unsigned long long>(r.fw_commits),
            static_cast<unsigned long long>(r.fw_fallbacks),
            sim::to_us(r.write_fast_p50), sim::to_us(r.write_ordered_p50),
            r.hung != 0 ? "  HUNG CLIENTS" : "");
      }
    }

    std::printf("\nworst fast/ordered speedup across cells: %.2fx\n",
                min_speedup);
    std::printf("worst fast-write p50: %.1fus\n", sim::to_us(worst_fast_p50));
    // Both swept cells are >= 50% writes, so the 2x gate applies to every
    // fast/ordered pair; --quick runs too few ops per client to amortise
    // the cold-cache seeding fallbacks.
    if (!opt.quick && min_speedup < 2.0) {
      std::fprintf(stderr, "FAIL: expected >= 2x fast/ordered (got %.2fx)\n",
                   min_speedup);
      exit_code = 1;
    }
    if (worst_fast_p50 > sim::us(10)) {
      std::fprintf(stderr, "FAIL: fast-write p50 %.1fus exceeds 10us\n",
                   sim::to_us(worst_fast_p50));
      exit_code = 1;
    }
    if (total_hung != 0 || total_odd != 0) {
      std::fprintf(stderr, "FAIL: hung=%llu odd_seqlocks=%llu\n",
                   static_cast<unsigned long long>(total_hung),
                   static_cast<unsigned long long>(total_odd));
      exit_code = 1;
    }
  }

  w.end_array();
  if (!opt.chaos) w.kv("min_speedup", min_speedup);
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;
  return exit_code;
}
