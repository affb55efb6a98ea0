// Figure 4: maximum throughput of (a) RamCast ordering only, (b) Heron
// with null requests, (c) Heron TPCC, (d) local-only TPCC, for 1..16
// warehouses (one warehouse per partition, 3 replicas each).
//
// Paper shape: RamCast scales close to linearly; null requests and TPCC
// hold flat from 1WH to 2WH (coordination appears), then scale by
// ~1.5x/3x/5x (null) and ~1.5x/2.7x/4x (TPCC) at 4/8/16 WH; local TPCC
// scales linearly.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

using namespace heron;

namespace {

struct Options {
  std::string json_path;
  std::string trace_path;
  bool quick = false;
  std::uint64_t seed = 99;
  std::uint32_t max_batch = 1;
  std::uint64_t batch_timeout_us = 0;
};

harness::RunResult run_config(core::Mode mode, bool local_only, int partitions,
                              int clients_per_partition, const Options& opt) {
  const bool quick = opt.quick;
  const std::uint64_t seed = opt.seed;
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  cfg.mode = mode;
  amcast::Config acfg;
  acfg.max_batch = opt.max_batch;
  acfg.batch_timeout = sim::us(static_cast<double>(opt.batch_timeout_us));
  // Model the paper's testbed (§V-C1): 40-node pods behind an
  // oversubscribed ToR switch. Replicas take the lowest node ids, so
  // replica traffic crosses it only at 16WH, where the step softens.
  rdma::LatencyModel fabric;
  fabric.rack_size = 40;
  fabric.oversub_ratio = 4.0;
  harness::TpccCluster cluster(partitions, 3, scale, cfg, acfg, seed, fabric);

  tpcc::WorkloadConfig workload;
  workload.local_only = local_only;
  cluster.add_clients(clients_per_partition, workload);

  return quick ? cluster.run(sim::ms(3), sim::ms(10))
               : cluster.run(sim::ms(15), sim::ms(60));
}

/// Dedicated traced run: a small TPCC cluster with full telemetry on, so
/// the exported trace stays readable (and the big throughput cells above
/// run uninstrumented, at full speed).
bool export_trace(const std::string& path) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  cfg.mode = core::Mode::kApp;
  harness::TpccCluster cluster(/*partitions=*/2, /*replicas=*/3, scale, cfg);

  cluster.telemetry().enable_all();
  cluster.telemetry().capture_logs();
  cluster.add_clients(2, tpcc::WorkloadConfig{});
  cluster.run(sim::ms(2), sim::ms(5));
  return bench::write_trace(path, cluster.telemetry().tracer);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "write a machine-readable report (throughput and per-kind "
            "latency summaries for every cell)")
      .flag("--trace", opt.trace_path, "<path>",
            "also run a small instrumented TPCC cluster and export a Chrome "
            "trace_event file (chrome://tracing or ui.perfetto.dev)")
      .flag("--quick", opt.quick, "short windows and fewer cells (CI smoke)")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .flag("--max-batch", opt.max_batch, "<n>",
            "amcast leader batch size (amcast::Config::max_batch)")
      .flag("--batch-timeout-us", opt.batch_timeout_us, "<n>",
            "hold a partial batch this long for stragglers")
      .parse(argc, argv);

  std::vector<int> warehouses = {1, 2, 4, 8, 16};
  if (opt.quick) warehouses = {1, 2};

  struct Set {
    const char* label;
    core::Mode mode;
    bool local_only;
    int clients;
  };
  const Set sets[] = {
      {"ramcast", core::Mode::kOrderOnly, false, 10},
      {"heron-null", core::Mode::kNull, false, 10},
      {"tpcc", core::Mode::kApp, false, 8},
      {"tpcc-local", core::Mode::kApp, true, 8},
  };

  harness::ReportWriter report("fig4_throughput");

  std::printf(
      "Figure 4: max throughput (tps) vs warehouses "
      "(1 warehouse/partition, 3 replicas)\n\n");
  std::printf("%-12s", "set");
  for (int wh : warehouses) std::printf(" %10dWH", wh);
  if (!opt.quick) std::printf("   scaling(4/8/16 vs 2WH)");
  std::printf("\n");

  for (const auto& set : sets) {
    std::vector<double> tput;
    for (int wh : warehouses) {
      harness::RunResult result =
          run_config(set.mode, set.local_only, wh, set.clients, opt);
      tput.push_back(result.throughput_tps);
      report.row(std::string(set.label) + "/" + std::to_string(wh) + "wh",
                 result, [&](telemetry::JsonWriter& w) {
                   w.kv("set", set.label);
                   w.kv("warehouses", wh);
                   w.kv("seed", opt.seed);
                   w.kv("max_batch", static_cast<std::uint64_t>(opt.max_batch));
                 });
    }
    std::printf("%-12s", set.label);
    for (double t : tput) std::printf(" %12.0f", t);
    if (!opt.quick) {
      std::printf("   %.2fx %.2fx %.2fx", tput[2] / tput[1], tput[3] / tput[1],
                  tput[4] / tput[1]);
    }
    std::printf("\n");
  }
  if (!opt.quick) {
    std::printf(
        "\npaper: null requests flat 1WH->2WH then 1.57x/2.98x/4.80x; "
        "TPCC flat then 1.52x/2.65x/3.98x; local TPCC ~linear\n");
  }

  if (!bench::write_report(opt.json_path, report.finish())) return 1;
  if (!opt.trace_path.empty() && !export_trace(opt.trace_path)) return 1;
  return 0;
}
