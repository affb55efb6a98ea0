// Table I: the cost of tentatively waiting for coordination messages from
// ALL replicas (not just a majority) during Phase 4, per partition id —
// 2 and 4 partitions, 3 and 5 replicas per partition.
//
// Paper shape: few transactions are delayed (<= 8%); the delayed fraction
// increases with the partition id while the average delay decreases
// (consequence of the coordination-write order: smallest partition id
// first, then replica id).
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"

using namespace heron;

namespace {

struct Options {
  std::string json_path;
  std::uint64_t seed = 99;
};

void run_config(int partitions, int replicas, harness::ReportWriter& report,
                const Options& opt) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  cfg.coord_extra_delay = sim::us(30);  // generous cutoff: measure the wait
  harness::TpccCluster cluster(partitions, replicas, scale, cfg, {}, opt.seed);

  tpcc::WorkloadConfig workload;
  // All-NewOrder spanning every partition, the worst case for
  // coordination (like the paper's multi-partition stress).
  workload.force_partitions = partitions;
  cluster.add_clients(/*per_partition=*/1, workload);

  auto result = cluster.run(sim::ms(15), sim::ms(80));

  std::printf("\n%d partitions, %d replicas per partition\n", partitions,
              replicas);
  std::printf("  max throughput: %.0f tps, average latency: %.1f us\n",
              result.throughput_tps, result.latency.mean() / 1000.0);
  std::printf("  %-12s %20s %15s\n", "partition id", "delayed transactions",
              "average delay");
  struct PartStat {
    double delayed_pct;
    double avg_delay_us;
  };
  std::vector<PartStat> stats;
  for (int p = 0; p < partitions; ++p) {
    // Aggregate the wait-for-all statistics over the partition's replicas.
    std::uint64_t total = 0, delayed = 0;
    sim::Nanos delay_sum = 0;
    for (int r = 0; r < replicas; ++r) {
      const auto& s = cluster.system().replica(p, r).coord_stats();
      total += s.multi_partition;
      delayed += s.delayed;
      delay_sum += s.delay_sum;
    }
    const double frac =
        total ? 100.0 * static_cast<double>(delayed) / static_cast<double>(total)
              : 0.0;
    const double avg_us =
        delayed ? sim::to_us(delay_sum) / static_cast<double>(delayed) : 0.0;
    std::printf("  #%-11d %19.1f%% %12.1f us\n", p + 1, frac, avg_us);
    stats.push_back({frac, avg_us});
  }

  report.row("p" + std::to_string(partitions) + "r" + std::to_string(replicas),
             result, [&](telemetry::JsonWriter& w) {
               w.kv("partitions", partitions);
               w.kv("replicas", replicas);
               w.kv("seed", opt.seed);
               w.key("per_partition").begin_array();
               for (const auto& s : stats) {
                 w.begin_object();
                 w.kv("delayed_pct", s.delayed_pct);
                 w.kv("avg_delay_us", s.avg_delay_us);
                 w.end_object();
               }
               w.end_array();
             });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (one row per configuration, with the "
            "per-partition delay stats inlined)")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .parse(argc, argv);
  harness::ReportWriter report("table1_wait_for_all");

  std::printf(
      "Table I: transaction delay when waiting for all (vs majority) "
      "replicas in Phase 4\n"
      "paper shape: delayed%% rises with partition id, average delay "
      "falls; worst case 8%% delayed; delays are a fraction of request "
      "latency\n");
  run_config(2, 3, report, opt);
  run_config(2, 5, report, opt);
  run_config(4, 3, report, opt);
  run_config(4, 5, report, opt);

  return bench::write_report(opt.json_path, report.finish()) ? 0 : 1;
}
