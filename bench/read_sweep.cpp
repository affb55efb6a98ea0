// Read-path sweep: lease-based one-sided fast reads vs the ordered path.
//
// Closed-loop mixed read/deposit clients on a 2x3 bank deployment, swept
// over read ratio x {leases off, leases on}. With leases off every read
// rides the multicast stream; with leases on a warm client answers reads
// with two one-sided READs (lease word, then object slot) and only falls
// back on torn slots, expired leases or remote failure. The run fails
// (non-zero exit) if the leased cell at 90% reads is not at least 2x the
// ordered cell's throughput, or if any client hangs.
//
// --chaos runs a single leased cell with a leader crash + restart mid-run
// and checks the full oracle suite (amcast properties, exactly-once,
// store convergence, read linearizability); violations fail the run.
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
  std::uint64_t seed = 99;
  std::string json_path;
};

struct CellResult {
  std::uint64_t ops_done = 0;  // completed submits + fast-read hits
  std::uint64_t fast_hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t torn_retries = 0;
  std::uint64_t lease_rejects = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t gate_waits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t hung = 0;
  sim::Nanos elapsed = 0;  // virtual time until the last loop finished
  sim::Nanos read_fast_p50 = 0;
  sim::Nanos read_ordered_p50 = 0;
  std::size_t violations = 0;
  double ops_per_sec = 0.0;
};

constexpr int kPartitions = 2;
constexpr int kReplicas = 3;
constexpr std::uint64_t kAccounts = 8;

struct LoopState {
  int remaining = 0;
  sim::Nanos finish = 0;
  sim::LatencyRecorder fast_reads;
  sim::LatencyRecorder ordered_reads;
};

sim::Task<void> mixed_loop(core::System& sys, core::Client& client,
                           faultlab::LinearChecker* lin, LoopState& state,
                           std::uint64_t seed, int ops, double read_ratio) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  const auto partitions = static_cast<std::uint64_t>(sys.partitions());
  const auto total = partitions * kAccounts;
  for (int k = 0; k < ops; ++k) {
    const core::Oid oid = rng.bounded(total);
    const auto home = static_cast<amcast::GroupId>(oid % partitions);
    if (rng.chance(read_ratio)) {
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.read(home, oid);
      if (res.submit_status == core::SubmitStatus::kOk && res.status == 0) {
        (res.fast ? state.fast_reads : state.ordered_reads).record(res.latency);
        if (lin != nullptr) {
          lin->note_read(oid, res.tmp, t0, sim.now(), res.fast);
        }
      }
    } else {
      faultlab::DepositReq req{oid, 5};
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.submit(
          amcast::dst_of(home), faultlab::kDeposit,
          std::as_bytes(std::span(&req, 1)));
      if (lin != nullptr) {
        lin->note_write(oid, client.id(), res.session_seq, t0, sim.now(),
                        res.status);
      }
    }
  }
  if (--state.remaining == 0) state.finish = sim.now();
}

CellResult run_cell(double read_ratio, sim::Nanos lease_duration,
                    const Options& opt, const std::string& plan_text = "") {
  const int clients = opt.quick ? 3 : 6;
  const int ops = opt.quick ? 30 : 80;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.lease_duration = lease_duration;
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
  for (int c = 0; c < clients; ++c) {
    sim.spawn(mixed_loop(sys, sys.add_client(), chaos ? &lin : nullptr, state,
                         opt.seed * 1000 + static_cast<std::uint64_t>(c), ops,
                         read_ratio));
  }
  faultlab::Injector injector(sys);
  if (chaos) {
    injector.run(faultlab::FaultPlan::parse("read_sweep", plan_text));
  }
  sim.run_for(sim::ms(500));

  CellResult out;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ops_done += cl.completed() + cl.fastread_hits();
    out.fast_hits += cl.fastread_hits();
    out.fallbacks += cl.fastread_fallbacks();
    out.torn_retries += cl.fastread_torn_retries();
    out.lease_rejects += cl.fastread_lease_rejects();
    out.timeouts += cl.timeouts();
    if (cl.in_flight()) ++out.hung;
  }
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.lease_grants += sys.replica(g, r).lease_grants();
      out.gate_waits += sys.replica(g, r).gate_waits();
    }
  }
  out.elapsed = state.remaining == 0 ? state.finish : sim.now();
  out.read_fast_p50 = state.fast_reads.percentile(50);
  out.read_ordered_p50 = state.ordered_reads.percentile(50);
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

void emit_cell(telemetry::JsonWriter& w, double read_ratio, bool leases,
               const CellResult& r, const std::string& repro,
               const std::string& plan_text) {
  w.begin_object();
  w.kv("read_ratio", read_ratio);
  w.kv("leases", leases);
  w.kv("ops_done", r.ops_done);
  w.kv("ops_per_sec", r.ops_per_sec);
  w.kv("elapsed_ns", r.elapsed);
  w.kv("fast_hits", r.fast_hits);
  w.kv("fallbacks", r.fallbacks);
  w.kv("torn_retries", r.torn_retries);
  w.kv("lease_rejects", r.lease_rejects);
  w.kv("lease_grants", r.lease_grants);
  w.kv("gate_waits", r.gate_waits);
  w.kv("timeouts", r.timeouts);
  w.kv("hung_clients", r.hung);
  w.kv("read_fast_p50_ns", r.read_fast_p50);
  w.kv("read_ordered_p50_ns", r.read_ordered_p50);
  if (!plan_text.empty()) {
    w.kv("plan", plan_text);
    w.kv("violations", static_cast<std::uint64_t>(r.violations));
  }
  w.kv("repro", repro);
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli cli;
  cli.flag("--quick", opt.quick, "fewer clients and ops per cell (CI smoke)")
      .flag("--chaos", opt.chaos,
            "one leased cell under a leader crash + restart, gated by the "
            "oracle suite")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (default BENCH_reads.json; with --chaos "
            "BENCH_reads_chaos.json)")
      .parse(argc, argv);
  const std::string repro = cli.repro(argv[0]);
  if (opt.json_path.empty()) {
    opt.json_path = opt.chaos ? "BENCH_reads_chaos.json" : "BENCH_reads.json";
  }

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "read_sweep");
  w.kv("quick", opt.quick);
  w.kv("chaos", opt.chaos);
  w.kv("seed", opt.seed);
  w.key("cells").begin_array();

  int exit_code = 0;
  double speedup = 0.0;

  if (opt.chaos) {
    // One leased cell with a partition-0 leader crash mid-run while the
    // group holds an open lease, then a restart; the oracle suite gates
    // the exit code.
    const std::string plan = "crash g0.r0 @ 500us; restart g0.r0 @ 5ms";
    std::printf("Read chaos smoke: 2x3 bank, 90%% reads, leases on, %s\n\n",
                plan.c_str());
    const CellResult r = run_cell(0.9, sim::ms(1), opt, plan);
    emit_cell(w, 0.9, true, r, repro, plan);
    std::printf(
        "ops=%llu fast=%llu fallback=%llu timeouts=%llu violations=%zu%s\n",
        static_cast<unsigned long long>(r.ops_done),
        static_cast<unsigned long long>(r.fast_hits),
        static_cast<unsigned long long>(r.fallbacks),
        static_cast<unsigned long long>(r.timeouts), r.violations,
        r.hung != 0 ? "  HUNG CLIENTS" : "");
    if (r.violations != 0 || r.hung != 0) exit_code = 1;
  } else {
    std::printf("Read sweep: 2x3 bank, mixed closed-loop clients\n\n");
    std::printf("%-8s %-8s %10s %12s %8s %8s %10s %12s\n", "reads", "leases",
                "ops", "ops/s", "fast", "fallback", "fast_p50", "ordered_p50");

    const std::vector<double> ratios = {0.5, 0.9};
    double ordered_90 = 0.0;
    double leased_90 = 0.0;
    std::uint64_t total_hung = 0;
    for (const double ratio : ratios) {
      for (const bool leases : {false, true}) {
        const CellResult r =
            run_cell(ratio, leases ? sim::ms(1) : sim::Nanos{0}, opt);
        total_hung += r.hung;
        if (ratio == 0.9) (leases ? leased_90 : ordered_90) = r.ops_per_sec;
        emit_cell(w, ratio, leases, r, repro, "");
        std::printf("%-8.2f %-8s %10llu %12.0f %8llu %8llu %9.1fus %11.1fus%s\n",
                    ratio, leases ? "on" : "off",
                    static_cast<unsigned long long>(r.ops_done), r.ops_per_sec,
                    static_cast<unsigned long long>(r.fast_hits),
                    static_cast<unsigned long long>(r.fallbacks),
                    sim::to_us(r.read_fast_p50), sim::to_us(r.read_ordered_p50),
                    r.hung != 0 ? "  HUNG CLIENTS" : "");
      }
    }

    speedup = ordered_90 > 0 ? leased_90 / ordered_90 : 0.0;
    std::printf("\n90%%-read speedup (leases on / off): %.2fx\n", speedup);
    // The 2x gate applies to the full sweep; --quick runs too few ops
    // per client to amortise the cold-cache seeding reads.
    if ((!opt.quick && speedup < 2.0) || total_hung != 0) {
      std::fprintf(stderr,
                   "FAIL: expected >= 2x at 90%% reads (got %.2fx, hung=%llu)\n",
                   speedup, static_cast<unsigned long long>(total_hung));
      exit_code = 1;
    }
  }

  w.end_array();
  if (!opt.chaos) w.kv("speedup_at_90_reads", speedup);
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;
  return exit_code;
}
