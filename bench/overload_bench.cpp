// Overload benchmark: graceful degradation under admission control.
//
// Sweeps offered load (client count) against the per-replica admission
// window on a 2x3 bank deployment with the robust client lifecycle
// enabled. With the window disabled (0) excess load queues inside the
// protocol and latency balloons; with a bounded window leaders shed the
// excess as BUSY, clients back off, and the latency of the admitted
// requests stays controlled. Every request terminates: ok, overloaded or
// timeout — hung clients would be a bug, and the run fails if any client
// is still in flight at the end.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/bank.hpp"
#include "rdma/fabric.hpp"
#include "telemetry/json.hpp"

using namespace heron;

namespace {

struct Options {
  bool quick = false;
  std::uint64_t seed = 17;
  std::string json_path = "BENCH_overload.json";
};

struct CellResult {
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t shed_replies = 0;   // summed over replicas
  std::uint64_t dedup_hits = 0;     // summed over replicas
  std::uint64_t hung = 0;           // clients still in flight at the end
  sim::Nanos p50 = 0;
  sim::Nanos p99 = 0;
};

constexpr int kPartitions = 2;
constexpr int kReplicas = 3;
constexpr std::uint64_t kAccounts = 8;

CellResult run_cell(int clients, std::uint32_t window, const Options& opt) {
  const int ops = opt.quick ? 20 : 60;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.client_attempt_timeout = sim::ms(2);
  cfg.client_max_retries = 10;
  cfg.client_retry_backoff = sim::us(50);
  cfg.client_deadline = sim::ms(120);
  amcast::Config acfg;
  acfg.admission_window = window;
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] { return std::make_unique<faultlab::BankApp>(kPartitions, kAccounts); },
      cfg, acfg);
  sys.start();

  for (int c = 0; c < clients; ++c) {
    sim.spawn(faultlab::bank_client_loop(
        sys, sys.add_client(),
        opt.seed * 1000 + static_cast<std::uint64_t>(c), ops, kAccounts));
  }
  sim.run_for(sim::ms(500));

  CellResult out;
  sim::LatencyRecorder lat;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.ok += cl.completed();
    out.overloaded += cl.overloaded();
    out.timeouts += cl.timeouts();
    out.retries += cl.retries();
    out.busy_replies += cl.busy_replies();
    if (cl.in_flight()) ++out.hung;
    for (const sim::Nanos v : cl.latencies().samples()) lat.record(v);
  }
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.shed_replies += sys.replica(g, r).shed_replies();
      out.dedup_hits += sys.replica(g, r).dedup_hits();
    }
  }
  out.p50 = lat.percentile(50);
  out.p99 = lat.percentile(99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli cli;
  cli.flag("--quick", opt.quick, "fewer clients and ops per cell (CI smoke)")
      .flag("--seed", opt.seed, "<s>", "fabric/client seed")
      .flag("--json", opt.json_path, "<path>", "machine-readable report")
      .parse(argc, argv);

  std::vector<int> client_counts = opt.quick ? std::vector<int>{4, 12}
                                             : std::vector<int>{4, 12, 24, 48};
  const std::vector<std::uint32_t> windows = {0, 8};

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "overload_bench");
  w.kv("quick", opt.quick);
  w.kv("seed", opt.seed);
  w.key("cells").begin_array();

  std::printf(
      "Overload: 2x3 bank, robust clients; admission window 0 = unbounded\n\n");
  std::printf("%-8s %-8s %8s %8s %8s %8s %8s %10s %10s\n", "clients", "window",
              "ok", "busy", "timeout", "retries", "shed", "p50_us", "p99_us");

  std::uint64_t total_hung = 0;
  for (const std::uint32_t window : windows) {
    for (const int clients : client_counts) {
      const CellResult r = run_cell(clients, window, opt);
      total_hung += r.hung;

      w.begin_object();
      w.kv("clients", clients);
      w.kv("admission_window", static_cast<std::uint64_t>(window));
      w.kv("ok", r.ok);
      w.kv("overloaded", r.overloaded);
      w.kv("timeouts", r.timeouts);
      w.kv("retries", r.retries);
      w.kv("busy_replies", r.busy_replies);
      w.kv("shed_replies", r.shed_replies);
      w.kv("dedup_hits", r.dedup_hits);
      w.kv("hung_clients", r.hung);
      w.kv("p50_ns", r.p50);
      w.kv("p99_ns", r.p99);
      w.kv("repro", cli.repro(argv[0]));
      w.end_object();

      std::printf("%-8d %-8u %8llu %8llu %8llu %8llu %8llu %10.1f %10.1f%s\n",
                  clients, window, static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.overloaded),
                  static_cast<unsigned long long>(r.timeouts),
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.shed_replies),
                  sim::to_us(r.p50), sim::to_us(r.p99),
                  r.hung != 0 ? "  HUNG CLIENTS" : "");
    }
  }

  w.end_array();
  w.kv("total_hung", total_hung);
  w.end_object();

  if (!bench::write_report(opt.json_path, w.str())) return 1;

  // Termination is part of the contract: a client still in flight after
  // the run window means the lifecycle failed to bound a request.
  return total_hung == 0 ? 0 : 1;
}
