// Batch sweep: Heron-null throughput and latency vs Config::max_batch at
// saturation, plus the unloaded single-client latency check. This is the
// harness behind the batching acceptance numbers:
//   - at max_batch >= 8 the saturated heron-null throughput must improve
//     >= 25% over max_batch = 1 (the amortized leader/follower/deliver
//     software costs are the whole effect);
//   - with one client the latency must stay flat (batch_timeout = 0 never
//     holds a lonely request back).
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
  bool quick = false;
  std::uint64_t seed = 99;
};

harness::RunResult run_cell(std::uint32_t max_batch, int clients_per_partition,
                            const Options& opt) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  cfg.mode = core::Mode::kNull;  // isolate the ordering path
  amcast::Config acfg;
  acfg.max_batch = max_batch;
  harness::TpccCluster cluster(/*partitions=*/4, /*replicas=*/3, scale, cfg,
                               acfg, opt.seed);
  cluster.add_clients(clients_per_partition, tpcc::WorkloadConfig{});
  return opt.quick ? cluster.run(sim::ms(3), sim::ms(10))
                   : cluster.run(sim::ms(10), sim::ms(40));
}

harness::RunResult run_single_client(std::uint32_t max_batch,
                                     const Options& opt) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  cfg.mode = core::Mode::kNull;
  amcast::Config acfg;
  acfg.max_batch = max_batch;
  harness::TpccCluster cluster(/*partitions=*/4, /*replicas=*/3, scale, cfg,
                               acfg, opt.seed);
  cluster.add_client_at(0, tpcc::WorkloadConfig{});
  return opt.quick ? cluster.run(sim::ms(3), sim::ms(10))
                   : cluster.run(sim::ms(10), sim::ms(40));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (BENCH_batch.json in CI)")
      .flag("--quick", opt.quick,
            "fewer batch sizes and short windows (CI smoke)")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .parse(argc, argv);

  std::vector<std::uint32_t> batches = {1, 2, 4, 8, 16};
  if (opt.quick) batches = {1, 8};
  const int clients = 10;  // saturating: same load as fig4's heron-null set

  harness::ReportWriter report("batch_sweep");

  std::printf(
      "Batch sweep: heron-null, 4 partitions x 3 replicas, %d clients per "
      "partition (saturated)\n\n",
      clients);
  std::printf("%-10s %14s %12s %12s %10s\n", "max_batch", "tput(tps)",
              "mean(us)", "p99(us)", "vs b=1");

  double base_tput = 0.0;
  double knee_gain = 0.0;
  std::uint32_t knee = 1;
  for (std::uint32_t b : batches) {
    harness::RunResult r = run_cell(b, clients, opt);
    if (b == 1) base_tput = r.throughput_tps;
    const double gain = base_tput > 0 ? r.throughput_tps / base_tput : 0.0;
    // Knee: the smallest batch size capturing most of the available gain;
    // report the last size that still improved >= 5% over its predecessor.
    if (gain > knee_gain * 1.05) {
      knee = b;
      knee_gain = gain;
    }
    std::printf("%-10u %14.0f %12.2f %12.2f %9.2fx\n", b, r.throughput_tps,
                r.latency.mean() / 1000.0,
                static_cast<double>(r.latency.percentile(99)) / 1000.0, gain);
    report.row("saturated/b" + std::to_string(b), r,
               [&](telemetry::JsonWriter& w) {
                 w.kv("max_batch", static_cast<std::uint64_t>(b));
                 w.kv("clients_per_partition", clients);
                 w.kv("seed", opt.seed);
               });
  }
  std::printf("\nknee: max_batch=%u (%.2fx over max_batch=1)\n", knee,
              knee_gain);

  // Unloaded path: one closed-loop client must not pay for batching.
  std::printf("\nsingle client (unloaded, batch_timeout=0):\n");
  std::printf("%-10s %12s %12s\n", "max_batch", "mean(us)", "p99(us)");
  for (std::uint32_t b : {1u, 8u}) {
    harness::RunResult r = run_single_client(b, opt);
    std::printf("%-10u %12.2f %12.2f\n", b, r.latency.mean() / 1000.0,
                static_cast<double>(r.latency.percentile(99)) / 1000.0);
    report.row("single-client/b" + std::to_string(b), r,
               [&](telemetry::JsonWriter& w) {
                 w.kv("max_batch", static_cast<std::uint64_t>(b));
                 w.kv("clients_per_partition", 0);
                 w.kv("seed", opt.seed);
               });
  }

  return bench::write_report(opt.json_path, report.finish()) ? 0 : 1;
}
