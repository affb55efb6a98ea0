// Chaos explorer: fans out over seeds x cluster shapes x fault plans,
// runs the bank and TPC-C workloads under fault injection, checks the
// recorded histories against the atomic multicast + SMR oracles
// (src/faultlab/history.hpp) and emits a machine-readable report naming
// the exact (seed, plan) needed to reproduce any violation.
//
// Clients run the robust retry lifecycle (fresh-uid retries, session
// dedup at the replicas) with the timeouts below. The fabric flags select
// the congestion-capable topology (two-level ToR with per-QP credit
// windows) instead of the default flat fabric. Every flag that differs
// from its default is echoed in each cell's repro command, so a violating
// cell replays under identical behaviour.
//
// Exit code is non-zero when any oracle reported a violation.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/plan.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"
#include "tpcc/app.hpp"
#include "tpcc/gen.hpp"

using namespace heron;

namespace {

struct NamedPlan {
  const char* name;
  const char* text;
};

// Every plan targets g0 so it is valid for all shapes. The partition blip
// stays below the heartbeat suspicion window (4 x 50us) on purpose: cuts
// long enough to trigger a takeover are exercised by crash plans instead.
constexpr NamedPlan kPlans[] = {
    {"none", ""},
    {"crash-follower", "crash g0.r2 @ 2ms; restart g0.r2 @ 8ms"},
    {"crash-leader", "crash g0.r0 @ 2ms; restart g0.r0 @ 12ms"},
    {"latency-spike", "latency x8 @ 2ms for 3ms"},
    {"bandwidth-drop", "bandwidth x0.2 @ 2ms for 3ms"},
    {"partition-blip", "partition g0.r2 @ 2ms for 150us"},
    {"jitter-burst", "jitter p0.4 40us @ 2ms for 4ms"},
    {"double-fault",
     "crash g0.r1 @ 2ms; latency x4 @ 3ms for 2ms; restart g0.r1 @ 12ms"},
};

struct Shape {
  int partitions;
  int replicas;
};

struct Options {
  bool quick = false;
  std::uint64_t seed = 0;  // 0 = sweep the default seed list
  std::string plan;        // empty = all plans
  std::string json_path = "BENCH_chaos.json";
  // Client retry lifecycle (see core::HeronConfig). Defaults keep every
  // plan terminating well inside the per-cell sim budget.
  std::uint64_t timeout_us = 2000;    // per-attempt timeout
  int retries = 10;                   // max retries (attempts - 1)
  std::uint64_t backoff_us = 50;      // initial backoff
  std::uint64_t deadline_us = 120000; // overall per-request deadline
  // Leader-side batching knobs (see amcast::Config). The CI smoke run
  // re-executes the sweep with --max-batch 8 so the oracles also cover
  // batched proposals under faults.
  std::uint32_t max_batch = 1;
  std::uint64_t batch_timeout_us = 0;
  // Fabric congestion knobs (see rdma::LatencyModel). rack_size 0 keeps
  // the default flat fabric; > 0 builds the two-level ToR topology.
  int rack_size = 0;
  double oversub = 1.0;
  std::uint32_t credit_window = 0;
  bool priority_lanes = true;
  bool adaptive_admission = false;
};

rdma::LatencyModel fabric_model(const Options& opt) {
  rdma::LatencyModel m;
  m.rack_size = opt.rack_size;
  m.oversub_ratio = opt.oversub;
  m.credit_window = opt.credit_window;
  m.priority_lanes = opt.priority_lanes;
  return m;
}

amcast::Config amcast_knobs(const Options& opt) {
  amcast::Config acfg;
  acfg.max_batch = opt.max_batch;
  acfg.batch_timeout = sim::us(static_cast<double>(opt.batch_timeout_us));
  acfg.adaptive_admission = opt.adaptive_admission;
  return acfg;
}

void apply_client_knobs(core::HeronConfig& cfg, const Options& opt) {
  cfg.client_attempt_timeout = sim::us(static_cast<double>(opt.timeout_us));
  cfg.client_max_retries = opt.retries;
  cfg.client_retry_backoff = sim::us(static_cast<double>(opt.backoff_us));
  cfg.client_deadline = sim::us(static_cast<double>(opt.deadline_us));
}

struct CellOutcome {
  std::uint64_t completed = 0;
  std::uint64_t expected = 0;
  std::uint64_t deliveries = 0;
  std::vector<faultlab::Violation> violations;
};

/// One bank cell: finite closed-loop transfer clients under the plan,
/// then the full oracle suite (history captured via system observers).
CellOutcome run_bank_cell(Shape shape, const faultlab::FaultPlan& plan,
                          std::uint64_t seed, const Options& opt) {
  constexpr std::uint64_t kAccounts = 8;
  constexpr int kClients = 3;
  constexpr int kOps = 40;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, fabric_model(opt), seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  apply_client_knobs(cfg, opt);
  core::System sys(
      fabric, shape.partitions, shape.replicas,
      [shape, accounts = kAccounts] {
        return std::make_unique<faultlab::BankApp>(shape.partitions, accounts);
      },
      cfg, amcast_knobs(opt));
  faultlab::HistoryRecorder history;
  history.attach(sys);
  sys.start();

  for (int c = 0; c < kClients; ++c) {
    sim.spawn(faultlab::bank_client_loop(
        sys, sys.add_client(),
        seed * 1000 + static_cast<std::uint64_t>(c), kOps, kAccounts));
  }
  faultlab::Injector injector(sys);
  injector.run(plan);

  // Generous cap: the workload quiesces long before this, leaving the
  // grace the followers need to finish their delivery tails.
  sim.run_for(sim::ms(500));

  CellOutcome out;
  out.expected = static_cast<std::uint64_t>(kClients) * kOps;
  out.completed = sys.total_completed();
  out.deliveries = history.deliveries().size();
  out.violations =
      check_amcast_properties(history, sys, injector.ever_crashed());
  faultlab::check_exactly_once(history, out.violations);
  faultlab::check_store_convergence(sys, out.violations);

  // Application-level oracle: transfers conserve the total balance.
  const std::int64_t want = static_cast<std::int64_t>(shape.partitions) *
                            static_cast<std::int64_t>(kAccounts) * 1000;
  for (int r = 0; r < shape.replicas; ++r) {
    if (!sys.replica(0, r).node().alive()) continue;
    const std::int64_t got = faultlab::bank_total(sys, r, kAccounts);
    if (got != want) {
      out.violations.push_back(faultlab::Violation{
          "conservation", "rank " + std::to_string(r) + " total " +
                              std::to_string(got) + " != " +
                              std::to_string(want)});
    }
  }
  return out;
}

sim::Task<void> tpcc_client_loop(core::Client& client,
                                 std::unique_ptr<tpcc::WorkloadGen> gen,
                                 int ops) {
  for (int k = 0; k < ops; ++k) {
    tpcc::GeneratedRequest req = gen->next();
    co_await client.submit(req.dst, req.kind, req.payload);
  }
}

/// One TPC-C cell: a small scale factor, one finite client per partition.
CellOutcome run_tpcc_cell(Shape shape, const faultlab::FaultPlan& plan,
                          std::uint64_t seed, const Options& opt) {
  constexpr int kOps = 25;
  const tpcc::TpccScale scale{.factor = 0.01, .initial_orders_per_district = 6};

  sim::Simulator sim;
  rdma::Fabric fabric(sim, fabric_model(opt), seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = scale.region_bytes(1.4) + (8u << 20);
  apply_client_knobs(cfg, opt);
  core::System sys(
      fabric, shape.partitions, shape.replicas,
      [shape, scale, seed] {
        return std::make_unique<tpcc::TpccApp>(shape.partitions, scale, seed);
      },
      cfg, amcast_knobs(opt));
  faultlab::HistoryRecorder history;
  history.attach(sys);
  sys.start();

  for (int p = 0; p < shape.partitions; ++p) {
    tpcc::WorkloadConfig wl;
    wl.partitions = shape.partitions;
    wl.scale = scale;
    auto gen = std::make_unique<tpcc::WorkloadGen>(
        wl, static_cast<std::uint32_t>(p),
        seed * 7919 + static_cast<std::uint64_t>(p) + 1);
    sim.spawn(tpcc_client_loop(sys.add_client(), std::move(gen), kOps));
  }
  faultlab::Injector injector(sys);
  injector.run(plan);

  sim.run_for(sim::ms(500));

  CellOutcome out;
  out.expected =
      static_cast<std::uint64_t>(shape.partitions) * kOps;
  out.completed = sys.total_completed();
  out.deliveries = history.deliveries().size();
  out.violations =
      check_amcast_properties(history, sys, injector.ever_crashed());
  faultlab::check_exactly_once(history, out.violations);
  faultlab::check_store_convergence(sys, out.violations);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli cli;
  cli.flag("--quick", opt.quick, "fewer seeds, shapes and TPC-C cells")
      .flag("--seed", opt.seed, "<s>",
            "run only this seed; 0 sweeps the default seed list")
      .flag("--plan", opt.plan, "<name>", "run only this fault plan")
      .flag("--json", opt.json_path, "<path>", "machine-readable report")
      .flag("--timeout-us", opt.timeout_us, "<t>", "per-attempt timeout")
      .flag("--retries", opt.retries, "<n>", "max retries (attempts - 1)")
      .flag("--backoff-us", opt.backoff_us, "<b>", "initial retry backoff")
      .flag("--deadline-us", opt.deadline_us, "<d>",
            "overall per-request deadline")
      .flag("--max-batch", opt.max_batch, "<n>", "amcast leader batch size")
      .flag("--batch-timeout-us", opt.batch_timeout_us, "<t>",
            "hold a partial batch this long for stragglers")
      .flag("--rack-size", opt.rack_size, "<n>",
            "nodes per rack; 0 keeps the flat fabric")
      .flag("--oversub", opt.oversub, "<x>", "ToR uplink oversubscription")
      .flag("--credit-window", opt.credit_window, "<n>",
            "per-QP credit window; 0 = no flow control")
      .flag("--no-priority-lanes", opt.priority_lanes,
            "control verbs queue behind data (no QoS separation)")
      .flag("--adaptive-admission", opt.adaptive_admission,
            "leaders shrink their admission window under backpressure")
      .parse(argc, argv);

  std::vector<std::uint64_t> seeds =
      opt.quick ? std::vector<std::uint64_t>{1, 2}
                : std::vector<std::uint64_t>{1, 2, 3};
  if (opt.seed != 0) seeds = {opt.seed};
  const std::vector<Shape> shapes =
      opt.quick ? std::vector<Shape>{{2, 3}}
                : std::vector<Shape>{{1, 3}, {2, 3}, {3, 3}};

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "chaos_explorer");
  w.kv("quick", opt.quick);
  w.key("cells").begin_array();

  std::uint64_t total_violations = 0;
  int cells = 0;
  for (const auto& named : kPlans) {
    if (!opt.plan.empty() && opt.plan != named.name) continue;
    const auto plan = faultlab::FaultPlan::parse(named.name, named.text);
    for (const Shape shape : shapes) {
      for (const std::uint64_t seed : seeds) {
        for (const char* workload : {"bank", "tpcc"}) {
          // TPC-C is the heavier half; in quick mode only run it against
          // the plans that exercise the restart machinery.
          const bool tpcc_cell = std::string(workload) == "tpcc";
          if (tpcc_cell && opt.quick && opt.plan.empty() &&
              std::string(named.name) != "none" &&
              std::string(named.name) != "crash-follower") {
            continue;
          }
          const CellOutcome out =
              tpcc_cell ? run_tpcc_cell(shape, plan, seed, opt)
                        : run_bank_cell(shape, plan, seed, opt);
          ++cells;
          total_violations += out.violations.size();

          w.begin_object();
          w.kv("workload", workload);
          w.kv("partitions", shape.partitions);
          w.kv("replicas", shape.replicas);
          w.kv("plan", named.name);
          w.kv("plan_text", named.text);
          w.kv("seed", seed);
          w.kv("completed", out.completed);
          w.kv("expected", out.expected);
          w.kv("deliveries", out.deliveries);
          w.key("violations").begin_array();
          for (const auto& v : out.violations) {
            w.begin_object();
            w.kv("oracle", v.oracle);
            w.kv("detail", v.detail);
            w.end_object();
          }
          w.end_array();
          w.kv("repro", cli.repro(argv[0], {{"--seed", std::to_string(seed)},
                                            {"--plan", named.name}}));
          w.end_object();

          std::printf("%-5s p=%d r=%d seed=%llu plan=%-15s %llu/%llu%s\n",
                      workload, shape.partitions, shape.replicas,
                      static_cast<unsigned long long>(seed), named.name,
                      static_cast<unsigned long long>(out.completed),
                      static_cast<unsigned long long>(out.expected),
                      out.violations.empty() ? "" : "  VIOLATIONS");
          bench::print_violations(out.violations);
        }
      }
    }
  }

  w.end_array();
  w.kv("cell_count", cells);
  w.kv("total_violations", total_violations);
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;

  std::printf("%d cells, %llu violations\n", cells,
              static_cast<unsigned long long>(total_violations));
  return total_violations == 0 ? 0 : 1;
}
