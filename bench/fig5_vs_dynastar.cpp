// Figure 5: Heron vs DynaStar on TPC-C — peak throughput and average
// latency at peak, for 1..16 warehouses.
//
// Paper shape: Heron outperforms DynaStar by 17x (1WH) up to 27x (16WH)
// in throughput, and DynaStar's latency is 44x-72x higher.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "dynastar/system.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

using namespace heron;

namespace {

const tpcc::TpccScale kScale{.factor = 0.02, .initial_orders_per_district = 10};

struct Options {
  std::string json_path;
  bool quick = false;
  std::uint64_t seed = 99;
};

harness::RunResult run_heron(int partitions, const Options& opt) {
  harness::TpccCluster cluster(partitions, 3, kScale, {}, {}, opt.seed);
  tpcc::WorkloadConfig workload;
  cluster.add_clients(/*per_partition=*/8, workload);
  return opt.quick ? cluster.run(sim::ms(3), sim::ms(12))
                   : cluster.run(sim::ms(15), sim::ms(60));
}

harness::RunResult run_dynastar(int partitions, const Options& opt) {
  sim::Simulator sim;
  dynastar::Config cfg;
  cfg.store_bytes = kScale.region_bytes(1.4) + (32u << 20);
  dynastar::DynastarSystem sys(
      sim, partitions, 3,
      [partitions, seed = opt.seed] {
        return std::make_unique<tpcc::TpccApp>(partitions, kScale, seed);
      },
      cfg);
  sys.start();

  tpcc::WorkloadConfig workload;
  workload.partitions = partitions;
  workload.scale = kScale;
  // Same client pressure as Heron's runs.
  std::vector<std::unique_ptr<tpcc::WorkloadGen>> gens;
  for (int p = 0; p < partitions; ++p) {
    for (int c = 0; c < 8; ++c) {
      auto& client = sys.add_client();
      auto gen = std::make_unique<tpcc::WorkloadGen>(
          workload, static_cast<std::uint32_t>(p),
          opt.seed * 100 + static_cast<std::uint64_t>(p * 100 + c) + 1);
      sim.spawn([](dynastar::Client& cl, tpcc::WorkloadGen* g)
                    -> sim::Task<void> {
        while (true) {
          auto req = g->next();
          co_await cl.submit(req.dst, req.kind, req.payload);
        }
      }(client, gen.get()));
      gens.push_back(std::move(gen));
    }
  }

  sim.run_for(opt.quick ? sim::ms(20) : sim::ms(100));  // warmup
  sys.reset_stats();
  const sim::Nanos window = opt.quick ? sim::ms(80) : sim::ms(400);
  sim.run_for(window);

  harness::RunResult result;
  result.window = window;
  result.completed = sys.total_completed();
  result.throughput_tps =
      static_cast<double>(sys.total_completed()) / sim::to_sec(window);
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(partitions * 8);
       ++i) {
    for (auto v : sys.client(i).latencies().samples()) {
      result.latency.record(v);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (one row per system x WH)")
      .flag("--quick", opt.quick,
            "fewer warehouses, shorter windows (CI smoke)")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .parse(argc, argv);
  harness::ReportWriter report("fig5_vs_dynastar");

  std::printf(
      "Figure 5: Heron vs DynaStar, TPC-C (3 replicas/partition, 8 "
      "clients/partition)\n\n");
  std::printf("%4s %14s %14s %8s %16s %16s %9s\n", "WH", "heron(tps)",
              "dynastar(tps)", "speedup", "heron lat(us)", "dynastar lat(us)",
              "lat ratio");
  std::vector<int> warehouses = {1, 2, 4, 8, 16};
  if (opt.quick) warehouses = {1, 2};
  for (int wh : warehouses) {
    const auto h = run_heron(wh, opt);
    const auto d = run_dynastar(wh, opt);
    const double h_lat = h.latency.mean() / 1000.0;
    const double d_lat = d.latency.empty() ? 0.0 : d.latency.mean() / 1000.0;
    std::printf("%4d %14.0f %14.0f %7.1fx %16.1f %16.1f %8.1fx\n", wh,
                h.throughput_tps, d.throughput_tps,
                h.throughput_tps / d.throughput_tps, h_lat, d_lat,
                h_lat > 0 ? d_lat / h_lat : 0.0);
    for (const auto* cell : {&h, &d}) {
      const char* system = cell == &h ? "heron" : "dynastar";
      report.row(std::string(system) + "/" + std::to_string(wh) + "wh", *cell,
                 [&](telemetry::JsonWriter& w) {
                   w.kv("system", system);
                   w.kv("warehouses", wh);
                   w.kv("seed", opt.seed);
                 });
    }
  }
  if (!opt.quick) {
    std::printf(
        "\npaper: Heron outperforms DynaStar 17x (1WH) to 27x (16WH); "
        "DynaStar latency 43.9x-72.0x higher\n");
  }

  return bench::write_report(opt.json_path, report.finish()) ? 0 : 1;
}
