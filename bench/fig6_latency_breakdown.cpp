// Figure 6: Heron's latency for single- and multi-partition requests
// with one client — breakdown into ordering / coordination / execution
// (left) and latency CDF (right).
//
// Paper reference points: TPCC NewOrder averages 35.4 us total
// (ordering ~18 us, execution ~16 us, coordination ~2 us); requests
// pinned to 1WH have no coordination; coordination never exceeds ~3 us
// even at 4 partitions (§V-D1).
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
  std::string trace_path;
  std::uint64_t seed = 99;
  std::uint32_t max_batch = 1;
  std::uint64_t batch_timeout_us = 0;
};

struct Row {
  const char* label;
  double ordering_us;
  double coord_us;
  double exec_us;
  double client_us;
};

/// Runs one case and adds its report row; `trace_ok` turns false when
/// the case's trace could not be written.
Row run_case(const char* label, bool plain_tpcc, int span,
             harness::ReportWriter& report, const Options& opt,
             bool& trace_ok) {
  const std::string& trace_path = opt.trace_path;
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  amcast::Config acfg;
  acfg.max_batch = opt.max_batch;
  acfg.batch_timeout = sim::us(static_cast<double>(opt.batch_timeout_us));
  harness::TpccCluster cluster(/*partitions=*/4, /*replicas=*/3, scale, {},
                               acfg, opt.seed);

  tpcc::WorkloadConfig workload;
  workload.new_order_only = true;  // the paper's Fig. 6 uses NewOrder streams
  if (!plain_tpcc) {
    workload.force_partitions = span;  // NewOrder pinned to `span` parts
    if (span == 1) workload.local_only = true;
  }
  // Exactly one client, homed at partition 0 (closed loop, §V-B).
  cluster.add_client_at(0, workload);

  const bool traced = !trace_path.empty() && plain_tpcc;
  if (traced) cluster.telemetry().enable_all();

  auto result = cluster.run(sim::ms(10), sim::ms(120));

  if (traced && !bench::write_trace(trace_path, cluster.telemetry().tracer)) {
    trace_ok = false;
  }

  // Replica-side stage means, averaged over partition 0's replicas (the
  // client's home; the paper breaks down the request path end to end).
  auto& rep = cluster.system().replica(0, 0);
  Row row{};
  row.label = label;
  row.ordering_us = rep.ordering_lat().mean() / 1000.0;
  row.coord_us = rep.coord_lat().empty() ? 0.0 : rep.coord_lat().mean() / 1000.0;
  row.exec_us = rep.exec_lat().mean() / 1000.0;
  row.client_us = result.latency.mean() / 1000.0;

  report.row(label, result, [&](telemetry::JsonWriter& w) {
    w.kv("ordering_us", row.ordering_us);
    w.kv("coordination_us", row.coord_us);
    w.kv("execution_us", row.exec_us);
    w.kv("seed", opt.seed);
    w.kv("max_batch", static_cast<std::uint64_t>(opt.max_batch));
  });

  // CDF series (right-hand plot).
  std::printf("# CDF %s\n", label);
  auto& lat = result.latency;
  for (auto [ns, frac] : lat.cdf(20)) {
    std::printf("cdf %-10s %8.2f us  %5.2f\n", label, sim::to_us(ns), frac);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report: per-case latency summaries plus the "
            "stage-mean breakdown")
      .flag("--trace", opt.trace_path, "<path>",
            "trace the plain-TPCC case and export its measurement window "
            "as a Chrome trace")
      .flag("--seed", opt.seed, "<n>",
            "fabric/workload seed, echoed into the report")
      .flag("--max-batch", opt.max_batch, "<n>",
            "amcast leader batch size (amcast::Config::max_batch)")
      .flag("--batch-timeout-us", opt.batch_timeout_us, "<n>",
            "hold a partial batch this long for stragglers")
      .parse(argc, argv);

  harness::ReportWriter report("fig6_latency_breakdown");
  bool trace_ok = true;

  std::printf(
      "Figure 6: latency breakdown with 1 client (4 partitions, 3 replicas)\n"
      "paper: TPCC NewOrder ~35.4us total = ordering ~18 + execution ~16 + "
      "coordination ~2; coordination <= ~3us at 4WH\n\n");

  Row rows[] = {
      run_case("tpcc", true, 0, report, opt, trace_ok),
      run_case("1WH", false, 1, report, opt, trace_ok),
      run_case("2WH", false, 2, report, opt, trace_ok),
      run_case("3WH", false, 3, report, opt, trace_ok),
      run_case("4WH", false, 4, report, opt, trace_ok),
  };

  std::printf("\n%-8s %12s %14s %12s %12s\n", "workload", "ordering(us)",
              "coordination(us)", "execution(us)", "client(us)");
  for (const auto& r : rows) {
    std::printf("%-8s %12.2f %14.2f %12.2f %12.2f\n", r.label, r.ordering_us,
                r.coord_us, r.exec_us, r.client_us);
  }

  if (!bench::write_report(opt.json_path, report.finish())) return 1;
  return trace_ok ? 0 : 1;
}
