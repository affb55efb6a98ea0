// Ablation (not a paper figure): the lagger-avoidance heuristic.
//
// §III-A: after coordinating with a majority, replicas tentatively wait a
// small extra delay for the remaining replicas so slow ones don't become
// laggers. This sweep varies the cutoff and reports lagger activity
// (state transfers + skipped requests) and the throughput cost.
#include <cstdio>

#include "common/cli.hpp"
#include "harness/runner.hpp"

using namespace heron;

int main(int argc, char** argv) {
  std::uint64_t seed = 99;
  bench::Cli()
      .flag("--seed", seed, "<n>", "fabric/workload seed")
      .parse(argc, argv);
  std::printf(
      "Ablation: Phase-4 wait-for-all cutoff vs lagger rate "
      "(4 partitions, 3 replicas, all-multi-partition NewOrder, 1%% 150us stalls)\n\n");
  std::printf("%12s %12s %14s %16s %12s\n", "cutoff(us)", "tput(tps)",
              "latency(us)", "state transfers", "skipped");

  for (double cutoff_us : {0.0, 3.0, 10.0, 50.0, 150.0, 400.0}) {
    tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
    core::HeronConfig cfg;
    cfg.coord_extra_delay = sim::us(cutoff_us);
    // Inject occasional stalls (1% of requests stall 150us) so slow
    // replicas actually fall behind the fast majority.
    cfg.hiccup_prob = 0.01;
    harness::TpccCluster cluster(4, 3, scale, cfg, {}, seed);

    tpcc::WorkloadConfig workload;
    workload.force_partitions = 2;  // every request coordinates
    cluster.add_clients(/*per_partition=*/6, workload);
    auto result = cluster.run(sim::ms(15), sim::ms(80));

    std::uint64_t transfers = 0, skipped = 0;
    for (int p = 0; p < 4; ++p) {
      for (int r = 0; r < 3; ++r) {
        transfers += cluster.system().replica(p, r).state_transfers();
        skipped += cluster.system().replica(p, r).skipped_count();
      }
    }
    std::printf("%12.1f %12.0f %14.1f %16llu %12llu\n", cutoff_us,
                result.throughput_tps, result.latency.mean() / 1000.0,
                static_cast<unsigned long long>(transfers),
                static_cast<unsigned long long>(skipped));
  }
  std::printf(
      "\nexpected shape: a small cutoff (a fraction of request latency) "
      "suppresses laggers at negligible throughput cost\n");
  return 0;
}
