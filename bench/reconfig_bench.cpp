// Elastic repartitioning under load: throughput dip and recovery around
// a live range move (heron::reconfig).
//
// Closed-loop RangeKv clients hammer a 2x3 deployment for a fixed window
// of virtual time; halfway through, the controller moves half of g0's
// range to g1 (PREPARE -> background copy -> FLIP -> seal). Completions
// are sampled into fixed windows, so the report shows the baseline
// throughput, the worst window during the move, and the recovered level
// after the seal — the "bounded dip" claim, plus the migration milestone
// durations and copy-machine counters (chunks, throttle deferrals,
// pulls). Every cell runs the full oracle stack (amcast properties,
// exactly-once — including across the split —, store convergence, object
// placement, sum conservation); any violation fails the run.
//
// --chaos replaces the sweep with two adversarial cells: a source-rank
// crash right after PREPARE (recovery through pulls against flipped
// survivors), and torn copy chunks (CRC-detected, pull-repaired).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/plan.hpp"
#include "faultlab/rangekv.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"

using namespace heron;

namespace {

constexpr int kPartitions = 2;
constexpr int kReplicas = 3;
constexpr std::uint64_t kKeys = 64;

struct Options {
  bool quick = false;
  bool chaos = false;
  std::uint64_t seed = 99;
  std::string json_path;
};

struct CellResult {
  std::uint64_t ops_done = 0;
  std::uint64_t executed = 0;
  std::uint64_t wrong_epoch_replies = 0;
  std::uint64_t wrong_epoch_retries = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_corrupt = 0;
  std::uint64_t copy_deferred = 0;
  std::uint64_t pulls = 0;
  std::uint64_t migrated_out = 0;
  std::uint64_t migrated_in = 0;
  std::uint64_t quiesce_deferred = 0;
  std::uint64_t hung = 0;
  std::uint64_t final_epoch = 0;
  sim::Nanos prepare = 0;
  sim::Nanos flip = 0;
  sim::Nanos sealed = 0;
  bool migrated = false;   // cell scheduled a move
  bool seal_ok = true;     // move sealed (or no move scheduled)
  double baseline_ops_per_win = 0.0;  // mean window before PREPARE
  double dip_ops_per_win = 0.0;       // worst window in [PREPARE, seal]
  double recovered_ops_per_win = 0.0; // mean window after the seal
  std::vector<std::uint64_t> windows;
  std::size_t violations = 0;
};

struct LoopCtl {
  bool stop = false;
};

sim::Task<void> kv_loop(core::System& sys, core::Client& client,
                        std::uint64_t seed, LoopCtl& ctl) {
  sim::Rng rng(seed);
  const auto partitions = static_cast<std::uint64_t>(sys.partitions());
  while (!ctl.stop) {
    const core::Oid key = rng.bounded(kKeys);
    faultlab::KvAddReq req{key, 1};
    const auto fallback = static_cast<core::GroupId>(key % partitions);
    co_await client.submit_routed(key, fallback, faultlab::kKvAdd,
                                  std::as_bytes(std::span(&req, 1)));
  }
}

/// Samples the sum of client completions every `window` of virtual time.
sim::Task<void> throughput_monitor(core::System& sys, sim::Nanos window,
                                   std::vector<std::uint64_t>& out,
                                   LoopCtl& ctl) {
  std::uint64_t last = 0;
  while (!ctl.stop) {
    co_await sys.simulator().sleep(window);
    std::uint64_t total = 0;
    for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
      total += sys.client(c).completed();
    }
    out.push_back(total - last);
    last = total;
  }
}

CellResult run_cell(const Options& opt, bool migrate, double corrupt_rate,
                    const std::string& plan_text) {
  const int clients = opt.quick ? 4 : 6;
  const sim::Nanos run = opt.quick ? sim::ms(8) : sim::ms(20);
  const sim::Nanos window = sim::us(250);
  const sim::Nanos move_at = run * 2 / 5;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.reconfig_keys = kKeys;
  cfg.reconfig.chunk_corrupt_rate = corrupt_rate;
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 16;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_retry_backoff_max = sim::us(500);
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] { return std::make_unique<faultlab::RangeKv>(kKeys); }, cfg);
  faultlab::HistoryRecorder history;
  history.attach(sys);
  faultlab::ExecTracker tracker;
  tracker.attach(sys);
  sys.start();

  LoopCtl ctl;
  CellResult out;
  for (int c = 0; c < clients; ++c) {
    sim.spawn(kv_loop(sys, sys.add_client(),
                      opt.seed * 1000 + static_cast<std::uint64_t>(c), ctl));
  }
  sim.spawn(throughput_monitor(sys, window, out.windows, ctl));
  if (migrate) {
    sys.schedule_migration(
        reconfig::Plan{move_at, /*lo=*/0, /*hi=*/16, /*from=*/0, /*to=*/1});
  }
  faultlab::Injector injector(sys);
  if (!plan_text.empty()) {
    injector.run(faultlab::FaultPlan::parse("reconfig_bench", plan_text));
  }

  sim.run_for(run);
  ctl.stop = true;
  // Drain in-flight requests and let the copy/pull tails finish.
  auto settled = [&sys, migrate] {
    if (migrate && (sys.migration_times().empty() ||
                    sys.migration_times().front().sealed == 0)) {
      return false;
    }
    for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
      if (sys.client(c).in_flight()) return false;
    }
    return true;
  };
  for (int i = 0; i < 200 && !settled(); ++i) sim.run_for(sim::ms(1));
  sim.run_for(sim::ms(5));

  out.migrated = migrate;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ops_done += cl.completed();
    out.wrong_epoch_retries += cl.wrong_epoch_retries();
    if (cl.in_flight()) ++out.hung;
  }
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      auto& rep = sys.replica(g, r);
      out.wrong_epoch_replies += rep.wrong_epoch_replies();
      out.chunks_sent += rep.copy_chunks_sent();
      out.chunks_corrupt += rep.copy_chunks_corrupt();
      out.copy_deferred += rep.copy_deferred();
      out.pulls += rep.copy_pulls();
      out.migrated_out += rep.migrated_out();
      out.migrated_in += rep.migrated_in();
      out.quiesce_deferred += rep.quiesce_deferred();
    }
  }
  out.executed = tracker.distinct_executed();
  out.final_epoch = sys.cluster_layout().epoch;
  if (migrate) {
    out.seal_ok = false;
    if (!sys.migration_times().empty()) {
      const auto& mt = sys.migration_times().front();
      out.prepare = mt.prepare;
      out.flip = mt.flip;
      out.sealed = mt.sealed;
      out.seal_ok = mt.sealed != 0;
    }
  }

  // Windowed dip: mean before PREPARE, worst during [PREPARE, seal],
  // mean after the seal (only full windows inside the measured run).
  const auto win_count = static_cast<std::uint64_t>(run / window);
  double before_sum = 0.0, after_sum = 0.0;
  std::uint64_t before_n = 0, after_n = 0;
  std::uint64_t dip = ~0ull;
  for (std::size_t i = 0; i < out.windows.size() && i < win_count; ++i) {
    const sim::Nanos end = static_cast<sim::Nanos>(i + 1) * window;
    if (!migrate || out.prepare == 0 || end <= out.prepare) {
      before_sum += static_cast<double>(out.windows[i]);
      ++before_n;
    } else if (out.sealed != 0 && end > out.sealed + window) {
      after_sum += static_cast<double>(out.windows[i]);
      ++after_n;
    } else {
      dip = std::min(dip, out.windows[i]);
    }
  }
  if (before_n > 0) out.baseline_ops_per_win = before_sum / before_n;
  if (after_n > 0) out.recovered_ops_per_win = after_sum / after_n;
  if (dip != ~0ull) out.dip_ops_per_win = static_cast<double>(dip);

  auto v = faultlab::check_amcast_properties(history, sys,
                                             injector.ever_crashed());
  faultlab::check_exactly_once(history, v);
  faultlab::check_store_convergence(sys, v);
  tracker.check(v);
  faultlab::check_kv_placement(sys, /*rank=*/0, kKeys, sys.cluster_layout(),
                               v);
  faultlab::check_kv_sum(sys, /*rank=*/0, kKeys, /*delta=*/1, out.executed,
                         v);
  out.violations = v.size();
  bench::print_violations(v);
  return out;
}

void emit_cell(telemetry::JsonWriter& w, const char* name,
               const CellResult& r, const Options& opt, char* argv0,
               const std::string& plan_text) {
  w.begin_object();
  w.kv("cell", name);
  w.kv("ops_done", r.ops_done);
  w.kv("executed_commands", r.executed);
  w.kv("final_epoch", r.final_epoch);
  w.kv("baseline_ops_per_win", r.baseline_ops_per_win);
  w.kv("dip_ops_per_win", r.dip_ops_per_win);
  w.kv("recovered_ops_per_win", r.recovered_ops_per_win);
  if (r.migrated) {
    w.kv("prepare_ns", r.prepare);
    w.kv("flip_ns", r.flip);
    w.kv("sealed_ns", r.sealed);
    w.kv("sealed", r.seal_ok);
  }
  w.kv("wrong_epoch_replies", r.wrong_epoch_replies);
  w.kv("wrong_epoch_retries", r.wrong_epoch_retries);
  w.kv("copy_chunks_sent", r.chunks_sent);
  w.kv("copy_chunks_corrupt", r.chunks_corrupt);
  w.kv("copy_deferred", r.copy_deferred);
  w.kv("copy_pulls", r.pulls);
  w.kv("migrated_out", r.migrated_out);
  w.kv("migrated_in", r.migrated_in);
  w.kv("quiesce_deferred", r.quiesce_deferred);
  w.kv("hung_clients", r.hung);
  w.kv("violations", static_cast<std::uint64_t>(r.violations));
  if (!plan_text.empty()) w.kv("plan", plan_text);
  w.key("windows").begin_array();
  for (const auto win : r.windows) w.value(win);
  w.end_array();
  w.kv("repro", std::string(argv0) + " --seed " + std::to_string(opt.seed) +
                    (opt.quick ? " --quick" : "") +
                    (opt.chaos ? " --chaos" : ""));
  w.end_object();
}

int gate(const CellResult& r, const char* name) {
  int rc = 0;
  if (r.violations != 0) {
    std::fprintf(stderr, "FAIL(%s): %zu oracle violations\n", name,
                 r.violations);
    rc = 1;
  }
  if (r.hung != 0) {
    std::fprintf(stderr, "FAIL(%s): %llu hung clients\n", name,
                 static_cast<unsigned long long>(r.hung));
    rc = 1;
  }
  if (!r.seal_ok) {
    std::fprintf(stderr, "FAIL(%s): migration never sealed\n", name);
    rc = 1;
  }
  return rc;
}

void print_cell(const char* name, const CellResult& r) {
  std::printf(
      "%-14s ops=%-7llu epoch=%llu base/win=%-6.1f dip/win=%-6.1f "
      "rec/win=%-6.1f chunks=%llu defer=%llu pulls=%llu viol=%zu\n",
      name, static_cast<unsigned long long>(r.ops_done),
      static_cast<unsigned long long>(r.final_epoch), r.baseline_ops_per_win,
      r.dip_ops_per_win, r.recovered_ops_per_win,
      static_cast<unsigned long long>(r.chunks_sent),
      static_cast<unsigned long long>(r.copy_deferred),
      static_cast<unsigned long long>(r.pulls), r.violations);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--quick", opt.quick, "fewer clients, shorter run (CI smoke)")
      .flag("--chaos", opt.chaos,
            "source-leader crash after PREPARE and torn copy chunks instead "
            "of the sweep")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (default BENCH_reconfig.json; with "
            "--chaos BENCH_reconfig_chaos.json)")
      .parse(argc, argv);
  if (opt.json_path.empty()) {
    opt.json_path =
        opt.chaos ? "BENCH_reconfig_chaos.json" : "BENCH_reconfig.json";
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "reconfig_bench");
  w.kv("quick", opt.quick);
  w.kv("chaos", opt.chaos);
  w.kv("seed", opt.seed);
  w.key("cells").begin_array();

  int exit_code = 0;
  if (opt.chaos) {
    std::printf(
        "Reconfig chaos: 2x3 RangeKv, split under load + faults\n\n");
    // Source rank 0 dies right after PREPARE; its pair destination must
    // recover the copy stream by pulling from flipped survivors.
    const sim::Nanos move_at =
        (opt.quick ? sim::ms(8) : sim::ms(20)) * 2 / 5;
    const std::string crash_plan =
        "crash g0.r0 @ " + std::to_string((move_at + sim::us(50)) / 1000) +
        "us; restart g0.r0 @ " + std::to_string((move_at + sim::ms(5)) / 1000) +
        "us";
    const CellResult a = run_cell(opt, true, 0.0, crash_plan);
    print_cell("leader-crash", a);
    emit_cell(w, "leader_crash_mid_migration", a, opt, argv[0], crash_plan);
    exit_code |= gate(a, "leader_crash_mid_migration");

    // Torn copy chunks: CRC must catch every corruption and the dest
    // pull path must still seal the move.
    const CellResult b = run_cell(opt, true, 0.5, "");
    print_cell("torn-chunks", b);
    emit_cell(w, "torn_copy_chunks", b, opt, argv[0], "");
    exit_code |= gate(b, "torn_copy_chunks");
    if (b.chunks_corrupt == 0) {
      std::fprintf(stderr, "FAIL(torn_copy_chunks): nothing was corrupted\n");
      exit_code = 1;
    }
  } else {
    std::printf("Reconfig bench: 2x3 RangeKv, move [0,16) g0 -> g1 mid-run\n\n");
    const CellResult base = run_cell(opt, false, 0.0, "");
    print_cell("baseline", base);
    emit_cell(w, "baseline", base, opt, argv[0], "");
    exit_code |= gate(base, "baseline");

    const CellResult split = run_cell(opt, true, 0.0, "");
    print_cell("split", split);
    emit_cell(w, "split_under_load", split, opt, argv[0], "");
    exit_code |= gate(split, "split_under_load");
    if (split.seal_ok) {
      std::printf(
          "\nmilestones: prepare=%.1fus flip=+%.1fus sealed=+%.1fus\n",
          sim::to_us(split.prepare), sim::to_us(split.flip - split.prepare),
          sim::to_us(split.sealed - split.flip));
      // Bounded-dip gate: the move may slow the system but must not
      // stall it, and throughput must come back after the seal.
      if (split.baseline_ops_per_win > 0 &&
          split.recovered_ops_per_win < 0.5 * split.baseline_ops_per_win) {
        std::fprintf(stderr,
                     "FAIL: throughput did not recover after the seal "
                     "(%.1f vs baseline %.1f per window)\n",
                     split.recovered_ops_per_win, split.baseline_ops_per_win);
        exit_code = 1;
      }
      if (split.dip_ops_per_win <= 0.0) {
        std::fprintf(stderr, "FAIL: a migration window stalled completely\n");
        exit_code = 1;
      }
    }
  }

  w.end_array();
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;
  return exit_code;
}
