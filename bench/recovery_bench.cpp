// Recovery benchmark: restart latency with checkpoints vs full state
// transfer, plus a crash-mid-checkpoint chaos smoke.
//
// Default mode sweeps replica state size on a 1x3 deployment of
// non-serialized 16 KB objects. For each size it measures the virtual
// time from restart_replica() until the rejoined replica has caught up
// with the survivors, under two arms:
//   * baseline    — durable subsystem off, volatile restart: the rejoin
//                   loses all watermarks and pulls everything over the
//                   network (donor serialize + wire + deserialize);
//   * checkpoint  — background checkpointing on; the rejoin restores the
//                   paged checkpoint from the local device and fetches
//                   only the O(delta) tail from a peer.
// The run fails (non-zero exit) if the checkpoint arm is not at least 5x
// faster at the largest swept size.
//
// --chaos runs two fault cells instead: a replica is crashed the moment
// the page device shows checkpoint writes in flight (and, in the second
// cell, with the next page write torn), then restarted mid-workload. The
// full oracle suite gates the run: atomic-multicast properties,
// exactly-once execution, store convergence and session convergence.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "common/state_app.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "harness/report.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"

using namespace heron;

namespace {

struct Options {
  bool quick = false;
  bool chaos = false;
  std::uint64_t seed = 11;
  std::string json_path;
};

struct RecoveryResult {
  double restart_us = 0.0;
  bool restored_from_checkpoint = false;
  std::uint64_t catchup_bytes = 0;      // applied during the rejoin
  std::uint64_t applied_full_bytes = 0; // full-transfer chunk bytes (total)
  std::uint64_t applied_delta_bytes = 0;
  std::uint64_t checkpoints = 0;
  bool hung = false;
};

/// One restart measurement of `total_bytes` of replica state.
RecoveryResult run_recovery(const Options& opt, std::uint64_t total_bytes,
                            bool checkpoints) {
  constexpr std::uint32_t kObjSize = 16u << 10;
  const std::uint64_t count = total_bytes / kObjSize;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  // Large transfers outlast the default handler-suspicion timeout; keep
  // backup candidates from starting duplicate transfers.
  cfg.statesync_timeout = sim::sec(2);
  cfg.object_region_bytes =
      static_cast<std::size_t>(count + 2) * (2 * kObjSize + 64) + (1u << 20);
  if (checkpoints) {
    cfg.durable.checkpoint_interval = sim::ms(10);
  } else {
    // Level the field: the baseline arm also loses its volatile watermarks
    // on restart, it just has no checkpoint to restore from.
    cfg.durable.volatile_restart = true;
  }
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [count, size = kObjSize] {
        return std::make_unique<bench::StateApp>(count, size,
                                                 /*serialized=*/false);
      },
      cfg);
  sys.start();
  auto& client = sys.add_client();

  RecoveryResult out;
  bool done = false;
  sim.spawn([](sim::Simulator& s, core::System& system, core::Client& cl,
               bool use_ckpt, RecoveryResult& res,
               bool& done_flag) -> sim::Task<void> {
    // Populate the state: several touch rounds so the update log and (in
    // the checkpoint arm) the incremental checkpoints see real churn.
    for (int round = 0; round < 3; ++round) {
      co_await cl.submit(amcast::dst_of(0), 1u, {});
      co_await s.sleep(sim::ms(1));
    }

    auto& victim = system.replica(0, 2);
    auto& survivor = system.replica(0, 0);
    if (use_ckpt) {
      // Let the background writer catch up to the applied watermark; the
      // device charges real (virtual) write time, so this can take a
      // while at the larger sizes.
      for (int i = 0; i < 60000 &&
                      victim.checkpoint_watermark() < survivor.last_executed();
           ++i) {
        co_await s.sleep(sim::ms(1));
      }
    }

    system.amcast().endpoint(0, 2).node().crash();
    co_await s.sleep(sim::ms(2));

    const core::Tmp target = survivor.last_executed();
    const sim::Nanos t0 = s.now();
    system.restart_replica(0, 2);
    int spins = 0;
    while ((victim.rejoining() || victim.last_executed() < target) &&
           ++spins < 4000000) {
      co_await s.sleep(sim::us(50));
    }
    res.hung = victim.rejoining() || victim.last_executed() < target;
    res.restart_us = static_cast<double>(s.now() - t0) / 1000.0;
    res.restored_from_checkpoint = victim.restored_from_checkpoint();
    res.catchup_bytes = victim.restart_catchup_bytes();
    res.applied_full_bytes = victim.xfer_applied_full_bytes();
    res.applied_delta_bytes = victim.xfer_applied_delta_bytes();
    res.checkpoints = victim.checkpoints_completed();
    done_flag = true;
  }(sim, sys, client, checkpoints, out, done));
  // Heartbeat loops run forever; advance time until the script finishes.
  while (!done) sim.run_for(sim::ms(20));
  return out;
}

// ---------------------------------------------------------------------
// Chaos mode: crash a replica mid-checkpoint under a retrying workload.
// ---------------------------------------------------------------------

struct ChaosResult {
  std::uint64_t ops_done = 0;
  std::uint64_t retries = 0;
  std::uint64_t stale_replies = 0;
  std::uint64_t pages_written = 0;
  std::uint64_t crc_failures = 0;
  bool crashed_mid_checkpoint = false;
  bool restored_from_checkpoint = false;
  std::uint64_t hung = 0;
  std::size_t violations = 0;
};

struct ChaosState {
  int remaining = 0;
  bool crashed = false;
};

sim::Task<void> deposit_loop(core::System& sys, core::Client& client,
                             ChaosState& state, std::uint64_t seed, int ops) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  for (int k = 0; k < ops; ++k) {
    faultlab::DepositReq req{rng.bounded(16), 5};
    co_await client.submit(amcast::dst_of(0), faultlab::kDeposit,
                           std::as_bytes(std::span(&req, 1)));
    co_await sim.sleep(sim::us(rng.bounded(30)));
  }
  --state.remaining;
}

/// Waits for checkpoint page writes to start on g0.r2, then crashes it
/// (optionally tearing the next page write first) and restarts it 2 ms
/// later.
sim::Task<void> crash_mid_checkpoint(core::System& sys, ChaosState& state,
                                     bool torn, ChaosResult& out) {
  auto& sim = sys.simulator();
  auto& victim = sys.replica(0, 2);
  auto* store = victim.durable_store();
  const std::uint64_t pw0 = store->device().pages_written();
  if (torn) store->device().tear_next_write();
  int spins = 0;
  while (store->device().pages_written() == pw0 && ++spins < 500000) {
    co_await sim.sleep(sim::us(20));
  }
  out.crashed_mid_checkpoint = store->device().pages_written() > pw0;
  sys.amcast().endpoint(0, 2).node().crash();
  state.crashed = true;
  co_await sim.sleep(sim::ms(2));
  sys.restart_replica(0, 2);
}

ChaosResult run_chaos(const Options& opt, bool torn) {
  const int clients = opt.quick ? 3 : 5;
  const int ops = opt.quick ? 40 : 120;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  // Retries ride out the crash window; replicas dedup via sessions.
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 12;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_retry_backoff_max = sim::us(500);
  // Aggressive cadence so a checkpoint is in flight while load runs.
  cfg.durable.checkpoint_interval = sim::us(500);
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<faultlab::BankApp>(1, 16); }, cfg);
  faultlab::HistoryRecorder history;
  history.attach(sys);
  sys.start();

  ChaosResult out;
  ChaosState state;
  state.remaining = clients;
  for (int c = 0; c < clients; ++c) {
    sim.spawn(deposit_loop(sys, sys.add_client(), state,
                           opt.seed * 1000 + static_cast<std::uint64_t>(c),
                           ops));
  }
  sim.spawn(crash_mid_checkpoint(sys, state, torn, out));
  sim.run_for(sim::ms(400));
  // Let the restarted replica finish catching up before the digests.
  for (int i = 0; i < 2000 && (sys.replica(0, 2).rejoining() ||
                               sys.replica(0, 2).last_executed() <
                                   sys.replica(0, 0).last_executed());
       ++i) {
    sim.run_for(sim::us(100));
  }
  sim.run_for(sim::ms(5));

  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ops_done += cl.completed();
    out.retries += cl.retries();
    if (cl.in_flight()) ++out.hung;
  }
  auto& victim = sys.replica(0, 2);
  out.pages_written = victim.durable_store()->device().pages_written();
  out.crc_failures = victim.durable_store()->device().crc_failures();
  out.restored_from_checkpoint = victim.restored_from_checkpoint();
  for (int r = 0; r < 3; ++r) {
    out.stale_replies += sys.replica(0, r).stale_session_replies();
  }

  faultlab::CrashSet crashed;
  crashed.insert({0, 2});
  auto v = faultlab::check_amcast_properties(history, sys, crashed);
  faultlab::check_exactly_once(history, v);
  faultlab::check_store_convergence(sys, v);
  faultlab::check_session_convergence(sys, v);
  out.violations = v.size();
  bench::print_violations(v);
  out.hung += static_cast<std::uint64_t>(state.remaining);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--quick", opt.quick, "smaller states and workloads (CI smoke)")
      .flag("--chaos", opt.chaos,
            "crash a replica mid-checkpoint instead of the restart sweep")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>", "machine-readable report")
      .parse(argc, argv);
  harness::ReportWriter report(opt.chaos ? "recovery_bench_chaos"
                                         : "recovery_bench");
  int exit_code = 0;

  if (opt.chaos) {
    std::printf("recovery chaos: crash g0.r2 mid-checkpoint under retrying "
                "load, restart, full oracle suite\n\n");
    const char* names[] = {"crash-mid-checkpoint", "crash-torn-write"};
    for (int cell = 0; cell < 2; ++cell) {
      const ChaosResult r = run_chaos(opt, /*torn=*/cell == 1);
      std::printf(
          "%-22s ops=%llu retries=%llu pages=%llu crc_fail=%llu "
          "mid_ckpt=%d restored=%d hung=%llu violations=%zu\n",
          names[cell], static_cast<unsigned long long>(r.ops_done),
          static_cast<unsigned long long>(r.retries),
          static_cast<unsigned long long>(r.pages_written),
          static_cast<unsigned long long>(r.crc_failures),
          r.crashed_mid_checkpoint ? 1 : 0, r.restored_from_checkpoint ? 1 : 0,
          static_cast<unsigned long long>(r.hung), r.violations);
      if (r.violations != 0 || r.hung != 0) exit_code = 1;
      harness::RunResult row;
      row.completed = r.ops_done;
      report.row(names[cell], row, [&](telemetry::JsonWriter& w) {
        w.kv("retries", r.retries);
        w.kv("stale_replies", r.stale_replies);
        w.kv("pages_written", r.pages_written);
        w.kv("crc_failures", r.crc_failures);
        w.kv("crashed_mid_checkpoint", r.crashed_mid_checkpoint);
        w.kv("restored_from_checkpoint", r.restored_from_checkpoint);
        w.kv("hung", r.hung);
        w.kv("violations", static_cast<std::uint64_t>(r.violations));
        w.kv("seed", opt.seed);
        w.kv("quick", opt.quick);
      });
    }
  } else {
    std::printf(
        "recovery: restart latency, checkpoint restore + O(delta) catch-up "
        "vs full network transfer (16KB non-serialized objects, 1x3)\n\n");
    std::printf("%-8s %14s %14s %9s\n", "state", "baseline", "checkpoint",
                "speedup");

    std::vector<std::uint64_t> sizes;
    if (opt.quick) {
      sizes = {1u << 20, 4u << 20};
    } else {
      sizes = {4u << 20, 16u << 20, 64u << 20};
    }
    double last_speedup = 0.0;
    bool any_hung = false;
    for (const std::uint64_t bytes : sizes) {
      const RecoveryResult base = run_recovery(opt, bytes, false);
      const RecoveryResult ckpt = run_recovery(opt, bytes, true);
      const double speedup =
          ckpt.restart_us > 0.0 ? base.restart_us / ckpt.restart_us : 0.0;
      last_speedup = speedup;
      any_hung = any_hung || base.hung || ckpt.hung;
      const std::string label = std::to_string(bytes >> 20) + "MB";
      std::printf("%-8s %11.1f us %11.1f us %8.1fx%s%s\n", label.c_str(),
                  base.restart_us, ckpt.restart_us, speedup,
                  ckpt.restored_from_checkpoint ? "" : "  [no checkpoint!]",
                  (base.hung || ckpt.hung) ? "  [HUNG]" : "");
      auto add_row = [&](const char* arm, const RecoveryResult& r,
                         double sp) {
        harness::RunResult row;
        row.completed = 1;
        report.row(label + "/" + arm, row, [&](telemetry::JsonWriter& w) {
          w.kv("bytes", bytes);
          w.kv("restart_us", r.restart_us);
          w.kv("restored_from_checkpoint", r.restored_from_checkpoint);
          w.kv("catchup_bytes", r.catchup_bytes);
          w.kv("applied_full_bytes", r.applied_full_bytes);
          w.kv("applied_delta_bytes", r.applied_delta_bytes);
          w.kv("checkpoints", r.checkpoints);
          w.kv("speedup", sp);
          w.kv("hung", r.hung);
          w.kv("seed", opt.seed);
          w.kv("quick", opt.quick);
        });
      };
      add_row("baseline", base, 0.0);
      add_row("checkpoint", ckpt, speedup);
    }
    // Acceptance gate: checkpoints must beat a full transfer by >= 5x at
    // the largest swept size (the paper's O(delta) restart claim).
    if (last_speedup < 5.0 || any_hung) {
      std::fprintf(stderr,
                   "FAIL: speedup %.1fx < 5x at largest size (or hang)\n",
                   last_speedup);
      exit_code = 1;
    }
  }

  if (!bench::write_report(opt.json_path, report.finish())) return 1;
  return exit_code;
}
