// Figure 7: average latency per TPC-C transaction type, one closed-loop
// client per run; single-partition vs multi-partition split for the types
// that can span partitions (NewOrder, Payment), plus the CDF.
//
// Paper reference points: OrderStatus 16.5 us, Delivery 17.6 us (light
// local transactions); StockLevel expensive (serialized Stock scans);
// NewOrder and Payment pay an extra multi-partition premium.
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

struct KindCase {
  const char* label;
  std::uint32_t kind;
};

void run_kind(const KindCase& kc, harness::ReportWriter& report,
              const Options& opt) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  harness::TpccCluster cluster(/*partitions=*/4, /*replicas=*/3, scale, {}, {},
                               opt.seed);

  tpcc::WorkloadConfig workload;
  workload.partitions = 4;
  workload.scale = scale;
  // Boost the remote probability a little so the multi-partition bar has
  // enough samples in a short run (the paper plots it separately anyway).
  workload.remote_customer_prob = 0.15;

  auto& client = cluster.system().add_client();
  auto gen = std::make_unique<tpcc::WorkloadGen>(workload, 0, opt.seed * 8 + 5);
  struct Loop {
    static sim::Task<void> run(core::Client& c, tpcc::WorkloadGen* g,
                               std::uint32_t kind,
                               sim::LatencyRecorder* single,
                               sim::LatencyRecorder* multi) {
      while (true) {
        tpcc::GeneratedRequest req;
        switch (kind) {
          case tpcc::kNewOrder: req = g->new_order(0); break;
          case tpcc::kPayment: req = g->payment(); break;
          case tpcc::kOrderStatus: req = g->order_status(); break;
          case tpcc::kDelivery: req = g->delivery(); break;
          default: req = g->stock_level(); break;
        }
        const bool is_multi = amcast::dst_count(req.dst) > 1;
        auto result = co_await c.submit(req.dst, req.kind, req.payload);
        (is_multi ? multi : single)->record(result.latency);
      }
    }
  };
  sim::LatencyRecorder single, multi;
  cluster.simulator().spawn(
      Loop::run(client, gen.get(), kc.kind, &single, &multi));
  cluster.simulator().run_for(sim::ms(150));

  std::printf("%-12s %10zu %12.1f %10zu %12.1f %12.1f\n", kc.label,
              single.count(), single.empty() ? 0.0 : single.mean() / 1000.0,
              multi.count(), multi.empty() ? 0.0 : multi.mean() / 1000.0,
              single.empty() ? 0.0
                             : static_cast<double>(single.percentile(99)) / 1000.0);

  // CDF over all samples of this type.
  sim::LatencyRecorder all;
  for (auto v : single.samples()) all.record(v);
  for (auto v : multi.samples()) all.record(v);
  for (auto [ns, frac] : all.cdf(10)) {
    std::printf("cdf %-12s %8.2f us %5.2f\n", kc.label, sim::to_us(ns), frac);
  }

  harness::RunResult result;
  result.window = sim::ms(150);
  result.completed = single.count() + multi.count();
  result.latency = all;
  result.latency_single = single;
  result.latency_multi = multi;
  report.row(kc.label, result, [&](telemetry::JsonWriter& w) {
    w.kv("kind", kc.label);
    w.kv("seed", opt.seed);
  });
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (one row per txn kind)")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .parse(argc, argv);
  harness::ReportWriter report("fig7_txn_latency");

  std::printf(
      "Figure 7: TPC-C per-transaction latency, 1 client, 4 partitions\n"
      "paper: OrderStatus 16.5us, Delivery 17.6us, StockLevel expensive "
      "(serialized scans); NewOrder/Payment pay a multi-partition "
      "premium\n\n");
  std::printf("%-12s %10s %12s %10s %12s %12s\n", "txn", "n(single)",
              "single(us)", "n(multi)", "multi(us)", "p99-single");
  const KindCase cases[] = {
      {"NewOrder", tpcc::kNewOrder},   {"Payment", tpcc::kPayment},
      {"OrderStatus", tpcc::kOrderStatus}, {"Delivery", tpcc::kDelivery},
      {"StockLevel", tpcc::kStockLevel},
  };
  for (const auto& kc : cases) run_kind(kc, report, opt);

  return bench::write_report(opt.json_path, report.finish()) ? 0 : 1;
}
