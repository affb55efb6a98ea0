// Congestion benchmark: ToR backpressure and graceful degradation.
//
// A 1x3 bank deployment whose three replicas fill one rack (rack_size =
// 3), with every client in a foreign rack, so all request/reply traffic
// crosses the leader rack's oversubscribed uplink. A faultlab incast
// storm floods that uplink mid-run. Clients pace successful work with
// think time but replace a timed-out attempt immediately, so the system
// is bistable: once sojourn time at the leader crosses the attempt
// timeout, the offered rate exceeds execution capacity and every
// admitted command is abandoned before it completes — sustained zero
// goodput. The storm pushes both arms into the timeout regime; what
// differs is the exit. The fixed admission window (64 deep = 3.2ms of
// queued execution, far past the timeout) keeps the leader in the bad
// equilibrium; the adaptive window is still tightened to its floor when
// the uplink drains (the backlog signal holds through the drain), sheds
// the abandoned-work burst as early BUSY, and re-enters the good
// equilibrium immediately, recovering with hysteresis afterwards.
//
// The sweep crosses oversubscription ratio x credit window x adaptive
// admission on/off. Goodput is the count of commands that completed OK
// within the p99 latency target during the measurement window. Gates
// (non-zero exit on failure):
//   * correctness: amcast properties, exactly-once, store convergence
//     and the tail-latency oracle (bounded p99, zero hung clients) hold
//     in every cell;
//   * degradation: in every congested pair (oversub >= 2) with credit
//     flow control on, the adaptive arm sustains at least 2x the in-SLO
//     goodput of the fixed arm.
//
// The credit_window = 0 rows are the no-flow-control ablation and are
// deliberately outside the gate: with open-loop injection the incast
// drives the uplink FIFO tens of milliseconds deep, every abandoned
// attempt is still delivered (in one burst at the drain horizon), and
// the timeout-synchronized client retries alone exceed exec capacity —
// classic congestion collapse that no admission policy at the leader
// can undo, because the wasted work (delivering requests whose clients
// gave up) already happened in the network. Credit windows prevent
// exactly that: senders self-clock to the uplink's service rate, the
// backlog pins at credits x message size, and abandoned attempts never
// monopolize the fabric.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"

using namespace heron;

namespace {

struct Options {
  bool quick = false;
  std::uint64_t seed = 19;
  std::string json_path = "BENCH_congestion.json";
};

struct CellResult {
  std::uint64_t ok = 0;
  std::uint64_t in_slo = 0;  // ok completions within the p99 target
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t shed_replies = 0;
  std::uint64_t hung = 0;
  std::uint64_t injected_ops = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t uplink_queued = 0;
  std::uint64_t priority_ops = 0;
  std::uint64_t admission_tightened = 0;
  sim::Nanos p50 = 0;
  sim::Nanos p99 = 0;
  std::vector<faultlab::Violation> violations;
};

constexpr int kReplicas = 3;
constexpr std::uint64_t kAccounts = 8;
constexpr sim::Nanos kSloP99 = sim::ms(2);

/// Deposit stream until `until`, one fresh command per attempt (no
/// retries). Completed work paces itself (think time); a failed attempt
/// is replaced immediately — the upstream treats a timeout as work
/// still owed. That asymmetry is what makes the system bistable: at
/// baseline the offered load is think-limited and well under exec
/// capacity, but once sojourn time crosses the attempt timeout the
/// offered rate jumps to clients/timeout, which exceeds capacity — and
/// whether the leader escapes that regime is decided purely by how much
/// already-abandoned work its admission window lets in.
sim::Task<void> timed_loop(core::System& sys, core::Client& client,
                           std::uint64_t seed, sim::Nanos start,
                           sim::Nanos until) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  // Staggered start: a synchronized burst of 16 first attempts would
  // already exceed the attempt timeout and seed the collapse regime
  // before any fault fires.
  co_await sim.sleep(start);
  while (sim.now() < until) {
    faultlab::DepositReq req{rng.bounded(kAccounts), 1};
    const auto res = co_await client.submit(
        amcast::dst_of(0), faultlab::kDeposit, std::as_bytes(std::span(&req, 1)));
    if (res.status == core::SubmitStatus::kOk) {
      co_await sim.sleep(sim::us(1000));
    }
  }
}

CellResult run_cell(double oversub, std::uint32_t credits, bool adaptive,
                    const Options& opt) {
  // 16 clients with 1ms think offer ~13/ms against 20/ms exec capacity:
  // stable and timeout-free at baseline. In the timeout regime the same
  // clients offer 16 / 500us = 32/ms — over capacity — so a leader that
  // lets sojourn time cross the attempt timeout collapses and stays
  // collapsed.
  const int clients = 16;
  const sim::Nanos storm_len = opt.quick ? sim::ms(10) : sim::ms(25);

  sim::Simulator sim;
  rdma::LatencyModel model;
  model.rack_size = kReplicas;
  model.oversub_ratio = oversub;
  model.credit_window = credits;

  // Size the measurement window from the fabric math: the storm's excess
  // bytes take storm * (demand - capacity) / capacity to drain out of
  // the uplink FIFO after the phantoms stop (nothing crosses the uplink
  // until then, in either arm). The 12ms after that is the recovery
  // allowance the arms compete over: the adaptive leader (window
  // tightened while the drain keeps the backlog signal high) sheds the
  // zombie burst and serves fresh commands immediately; the fixed
  // leader re-fills its 64-deep queue with abandoned work and spends
  // the allowance executing it.
  const double demand = 8.0 * 16384.0 / 20000.0;  // incast f8 b16384 p20us
  const double capacity = model.uplink_bytes_per_ns();
  const double excess = demand > capacity ? (demand - capacity) / capacity : 0;
  const auto drain = static_cast<sim::Nanos>(
      static_cast<double>(storm_len) * excess);
  const sim::Nanos measure_end = sim::ms(5) + storm_len + drain + sim::ms(12);

  rdma::Fabric fabric(sim, model, opt.seed);

  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  // Heavyweight application op: makes the cost of executing zombie
  // requests (vs shedding them at admission) visible in the tail.
  cfg.exec_dispatch_proc = sim::us(50);
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 0;
  amcast::Config acfg;
  // Both arms share the same configured ceiling; only adaptivity
  // differs. 64 is a reasonable static choice for this exec cost (it
  // never binds at steady state) but admits 3.2ms of zombie execution
  // per refill once clients start abandoning attempts.
  acfg.admission_window = 64;
  acfg.adaptive_admission = adaptive;
  acfg.admission_min_window = 2;
  acfg.max_batch = 8;
  core::System sys(
      fabric, /*partitions=*/1, kReplicas,
      [] { return std::make_unique<faultlab::BankApp>(1, kAccounts); }, cfg,
      acfg);
  faultlab::HistoryRecorder history;
  history.attach(sys);
  sys.start();

  for (int c = 0; c < clients; ++c) {
    sim.spawn(timed_loop(sys, sys.add_client(),
                         opt.seed * 1000 + static_cast<std::uint64_t>(c),
                         sim::us(60) * static_cast<sim::Nanos>(c + 1),
                         measure_end));
  }
  faultlab::Injector injector(sys);
  injector.run(faultlab::FaultPlan::parse(
      "incast", "incast g0.r0 f8 b16384 p20us @ 5ms for " +
                    std::to_string(sim::to_us(storm_len)) + "us"));
  sim.run_for(measure_end + sim::ms(20));

  CellResult out;
  sim::LatencyRecorder lat;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ok += cl.completed();
    out.overloaded += cl.overloaded();
    out.timeouts += cl.timeouts();
    if (cl.in_flight()) ++out.hung;
    for (const sim::Nanos v : cl.latencies().samples()) lat.record(v);
  }
  for (int r = 0; r < kReplicas; ++r) {
    out.shed_replies += sys.replica(0, r).shed_replies();
  }
  for (const sim::Nanos v : faultlab::command_latencies(history)) {
    if (v <= kSloP99) ++out.in_slo;
  }
  out.injected_ops = fabric.stats().injected_ops;
  out.credit_stalls = fabric.stats().credit_stalls;
  out.uplink_queued = fabric.stats().uplink_queued;
  out.priority_ops = fabric.stats().priority_ops;
  out.admission_tightened = static_cast<std::uint64_t>(
      fabric.telemetry().metrics.counter("amcast", "admission_tightened",
                                         "g0.r0")
          .value());
  out.p50 = lat.percentile(50);
  out.p99 = lat.percentile(99);

  out.violations =
      faultlab::check_amcast_properties(history, sys, injector.ever_crashed());
  faultlab::check_exactly_once(history, out.violations);
  faultlab::check_store_convergence(sys, out.violations);
  // Generous bound: even the fixed arm must not strand a completed
  // command past the post-storm drain; hung clients are a validity
  // violation already.
  faultlab::check_tail_latency(history, /*p99_bound=*/sim::ms(80),
                               out.violations);
  if (out.hung != 0) {
    out.violations.push_back(
        faultlab::Violation{"tail-latency", "clients still in flight"});
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--quick", opt.quick,
            "one oversubscription ratio and a shorter storm (CI smoke)")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>", "machine-readable report")
      .parse(argc, argv);

  const std::vector<double> oversubs =
      opt.quick ? std::vector<double>{2.0} : std::vector<double>{1.0, 2.0, 4.0};
  const std::vector<std::uint32_t> credit_windows =
      opt.quick ? std::vector<std::uint32_t>{16}
                : std::vector<std::uint32_t>{0, 16};

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "congestion_bench");
  w.kv("quick", opt.quick);
  w.kv("seed", opt.seed);
  w.kv("slo_p99_ns", kSloP99);
  w.key("cells").begin_array();

  std::printf(
      "Congestion: 1x3 bank in one rack, leader incast via faultlab;\n"
      "goodput = ok completions within p99 target %.1fms\n\n",
      sim::to_us(kSloP99) / 1000.0);
  std::printf("%-8s %-8s %-9s %8s %8s %8s %8s %8s %10s %10s\n", "oversub",
              "credits", "adaptive", "ok", "in_slo", "busy", "timeout",
              "tighten", "p50_us", "p99_us");

  // (oversub, credits) -> in-SLO goodput of the fixed / adaptive arm.
  std::map<std::pair<double, std::uint32_t>,
           std::pair<std::uint64_t, std::uint64_t>>
      goodput;
  std::uint64_t total_violations = 0;

  for (const double oversub : oversubs) {
    for (const std::uint32_t credits : credit_windows) {
      for (const bool adaptive : {false, true}) {
        const CellResult r = run_cell(oversub, credits, adaptive, opt);
        total_violations += r.violations.size();
        if (adaptive) {
          goodput[{oversub, credits}].second = r.in_slo;
        } else {
          goodput[{oversub, credits}].first = r.in_slo;
        }

        w.begin_object();
        w.kv("oversub_ratio", oversub);
        w.kv("credit_window", static_cast<std::uint64_t>(credits));
        w.kv("adaptive", adaptive);
        w.kv("ok", r.ok);
        w.kv("in_slo", r.in_slo);
        w.kv("overloaded", r.overloaded);
        w.kv("timeouts", r.timeouts);
        w.kv("shed_replies", r.shed_replies);
        w.kv("hung_clients", r.hung);
        w.kv("injected_ops", r.injected_ops);
        w.kv("credit_stalls", r.credit_stalls);
        w.kv("uplink_queued", r.uplink_queued);
        w.kv("priority_ops", r.priority_ops);
        w.kv("admission_tightened", r.admission_tightened);
        w.kv("p50_ns", r.p50);
        w.kv("p99_ns", r.p99);
        w.kv("violations", static_cast<std::uint64_t>(r.violations.size()));
        w.kv("repro", std::string(argv[0]) + " --seed " +
                          std::to_string(opt.seed) +
                          (opt.quick ? " --quick" : ""));
        w.end_object();

        std::printf("%-8.1f %-8u %-9s %8llu %8llu %8llu %8llu %8llu %10.1f "
                    "%10.1f\n",
                    oversub, credits, adaptive ? "on" : "off",
                    static_cast<unsigned long long>(r.ok),
                    static_cast<unsigned long long>(r.in_slo),
                    static_cast<unsigned long long>(r.overloaded),
                    static_cast<unsigned long long>(r.timeouts),
                    static_cast<unsigned long long>(r.admission_tightened),
                    sim::to_us(r.p50), sim::to_us(r.p99));
        bench::print_violations(r.violations);
      }
    }
  }

  // Degradation gate: adaptive >= 2x fixed in-SLO goodput whenever the
  // uplink is genuinely oversubscribed and credit flow control is on.
  // credit_window = 0 cells are the no-flow-control ablation (see the
  // header comment): both arms collapse there by design, which is the
  // point of the ablation, not a gate failure.
  bool gate_ok = true;
  w.end_array();
  w.key("gates").begin_array();
  for (const auto& [key, arms] : goodput) {
    if (key.first < 2.0 || key.second == 0) continue;
    const auto [fixed, adaptive] = arms;
    const bool ok = adaptive >= 2 * fixed && adaptive > 0;
    gate_ok = gate_ok && ok;
    w.begin_object();
    w.kv("oversub_ratio", key.first);
    w.kv("credit_window", static_cast<std::uint64_t>(key.second));
    w.kv("fixed_in_slo", fixed);
    w.kv("adaptive_in_slo", adaptive);
    w.kv("pass", ok);
    w.end_object();
    std::printf("gate oversub=%.1f credits=%u: adaptive %llu vs fixed %llu "
                "-> %s\n",
                key.first, key.second,
                static_cast<unsigned long long>(adaptive),
                static_cast<unsigned long long>(fixed),
                ok ? "PASS" : "FAIL");
  }
  w.end_array();
  w.kv("total_violations", total_violations);
  w.kv("gate_ok", gate_ok);
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;

  if (total_violations != 0) {
    std::fprintf(stderr, "FAIL: %llu oracle violations\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: adaptive admission did not reach 2x fixed goodput\n");
    return 1;
  }
  return 0;
}
