// Tests for the telemetry library: JSON writer, metrics registry,
// virtual-time tracer, log capture, and end-to-end determinism of the
// exported artifacts across same-seed cluster runs.
#include <gtest/gtest.h>

#include <string>

#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/kernel.hpp"

namespace heron {
namespace {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

TEST(JsonWriter, NestedContainersAndEscaping) {
  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("s", "a\"b\\c\n\t");
  w.kv("i", std::int64_t{-3});
  w.kv("u", std::uint64_t{18446744073709551615ull});
  w.kv("b", true);
  w.key("arr").begin_array();
  w.value(1);
  w.begin_object().kv("k", "v").end_object();
  w.end_array();
  w.key("ts");
  w.value_fixed(1234.5, 3);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"i\":-3,"
            "\"u\":18446744073709551615,\"b\":true,"
            "\"arr\":[1,{\"k\":\"v\"}],\"ts\":1234.500}");
}

// ---------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------

TEST(MetricsRegistry, DisabledRecordingIsDropped) {
  telemetry::MetricsRegistry m;
  auto& c = m.counter("sub", "ops");
  auto& g = m.gauge("sub", "depth");
  auto& h = m.histogram("sub", "lat");
  c.inc();
  g.set(7);
  h.observe(100);
  // Counters are the home of statistics and count regardless; only
  // gauges and histograms honour the enabled flag.
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);

  m.enable();
  c.inc(3);
  g.set(7);
  g.add(-2);
  h.observe(100);
  h.observe(900);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), 1000);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), 900);
}

TEST(MetricsRegistry, SameKeyReturnsSameHandle) {
  telemetry::MetricsRegistry m;
  auto& a = m.counter("s", "n", "l");
  auto& b = m.counter("s", "n", "l");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &m.counter("s", "n", "other"));
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  telemetry::MetricsRegistry m;
  m.enable();
  auto& h = m.histogram("s", "h", "", {10, 100});
  h.observe(10);    // first bucket (inclusive)
  h.observe(11);    // second bucket
  h.observe(1000);  // +inf bucket
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
}

TEST(MetricsRegistry, ResetValuesKeepsLayout) {
  telemetry::MetricsRegistry m;
  m.enable();
  auto& c = m.counter("s", "c");
  auto& h = m.histogram("s", "h", "", {10});
  c.inc(5);
  h.observe(3);
  m.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  ASSERT_EQ(h.counts().size(), 2u);
  EXPECT_EQ(h.counts()[0], 0u);
  c.inc();  // handle still live and enabled
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistry, JsonSnapshotIsSortedAndComplete) {
  telemetry::MetricsRegistry m;
  m.enable();
  m.counter("z", "last").inc(2);
  m.counter("a", "first").inc(1);
  const std::string json = m.to_json();
  const auto first = json.find("\"first\"");
  const auto last = json.find("\"last\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(last, std::string::npos);
  EXPECT_LT(first, last);  // sorted by (subsystem, name, label)
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

TEST(Tracer, SpansNestAndExportChromeEvents) {
  sim::Simulator sim;
  telemetry::Tracer tracer(sim);
  tracer.enable();
  tracer.set_tid_name(3, "node3");

  {
    auto outer = tracer.span("core", "outer", 3);
    outer.arg("uid", 42);
    sim.run_until(sim::us(1));
    {
      auto inner = tracer.span("core", "inner", 3);
      sim.run_until(sim::us(2));
    }
    sim.run_until(sim::us(3));
  }
  tracer.instant("core", "tick", 3, {{"n", 7}});

  EXPECT_EQ(tracer.event_count(), 3u);
  const std::string json = tracer.chrome_json();
  // Thread-name metadata precedes the events.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"node3\""), std::string::npos);
  // outer: [0us, 3us); inner: [1us, 2us); timestamps in fixed-point us.
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"uid\":42"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(Tracer, DisabledTracerHandsOutInertSpans) {
  sim::Simulator sim;
  telemetry::Tracer tracer(sim);
  auto span = tracer.span("c", "n", 0);
  EXPECT_FALSE(static_cast<bool>(span));
  span.arg("k", 1);
  span.finish();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(Tracer, ClearWithOpenSpanIsSafe) {
  sim::Simulator sim;
  telemetry::Tracer tracer(sim);
  tracer.enable();
  auto span = tracer.span("c", "n", 0);
  tracer.clear();
  auto fresh = tracer.span("c", "fresh", 0);
  // Finishing the stale span must not touch the new buffer (epoch guard).
  span.arg("k", 1);
  span.finish();
  fresh.finish();
  EXPECT_EQ(tracer.event_count(), 1u);
  EXPECT_NE(tracer.chrome_json().find("\"fresh\""), std::string::npos);
}

TEST(Tracer, CapacityCapCountsDropped) {
  sim::Simulator sim;
  telemetry::Tracer tracer(sim);
  tracer.enable();
  tracer.set_capacity(2);
  tracer.instant("c", "a", 0);
  tracer.instant("c", "b", 0);
  tracer.instant("c", "c", 0);
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_EQ(tracer.dropped(), 1u);
}

TEST(Tracer, UnfinishedSpansAreSkippedOnExport) {
  sim::Simulator sim;
  telemetry::Tracer tracer(sim);
  tracer.enable();
  auto open = tracer.span("c", "open", 0);
  tracer.instant("c", "done", 0);
  const std::string json = tracer.chrome_json();
  EXPECT_EQ(json.find("\"open\""), std::string::npos);
  EXPECT_NE(json.find("\"done\""), std::string::npos);
  open.finish();
}

// ---------------------------------------------------------------------
// Log sink (satellite: pluggable sim::log_line sink)
// ---------------------------------------------------------------------

TEST(LogSink, SinkReceivesLinesAndRestores) {
  sim::set_log_level(sim::LogLevel::kInfo);
  std::string got;
  sim::set_log_sink([&](sim::Nanos now, const std::string& msg) {
    got = std::to_string(now) + ":" + msg;
  });
  sim::log_line(1500, "hello");
  EXPECT_EQ(got, "1500:hello");
  sim::set_log_sink({});  // restore default stderr writer
  sim::set_log_level(sim::LogLevel::kNone);
}

TEST(LogSink, HubCapturesLogLinesAsInstants) {
  sim::Simulator sim;
  telemetry::Hub hub(sim);
  hub.enable_all();
  hub.capture_logs();
  sim::set_log_level(sim::LogLevel::kInfo);
  sim::log_line(2000, "captured line");
  sim::set_log_level(sim::LogLevel::kNone);
  hub.release_logs();
  const std::string json = hub.tracer.chrome_json();
  EXPECT_NE(json.find("captured line"), std::string::npos);
}

// ---------------------------------------------------------------------
// LatencyRecorder (satellite regression: record() after percentile())
// ---------------------------------------------------------------------

TEST(LatencyRecorder, RecordAfterPercentileInvalidatesSortCache) {
  sim::LatencyRecorder lat;
  lat.record(300);
  lat.record(100);
  EXPECT_EQ(lat.percentile(100), 300);
  lat.record(50);  // must reset the sorted flag
  EXPECT_EQ(lat.percentile(0), 50);
  EXPECT_EQ(lat.percentile(100), 300);
}

// ---------------------------------------------------------------------
// End-to-end: instrumented cluster runs, deterministic export
// ---------------------------------------------------------------------

struct ClusterArtifacts {
  std::string trace;
  std::string metrics;
  std::string report;
};

ClusterArtifacts run_instrumented_cluster() {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  harness::TpccCluster cluster(/*partitions=*/2, /*replicas=*/3, scale);
  cluster.telemetry().enable_all();
  cluster.add_clients(1, tpcc::WorkloadConfig{});
  auto result = cluster.run(sim::ms(2), sim::ms(4));

  harness::ReportWriter report("test");
  report.row("cell", result);
  return ClusterArtifacts{
      cluster.telemetry().tracer.chrome_json(),
      cluster.telemetry().metrics.to_json(),
      report.finish(&cluster.telemetry().metrics),
  };
}

TEST(TelemetryEndToEnd, ClusterRunProducesAllLayerSpans) {
  const ClusterArtifacts art = run_instrumented_cluster();
  // Spans/metrics from every instrumented layer.
  EXPECT_NE(art.trace.find("\"cat\":\"rdma\""), std::string::npos);
  EXPECT_NE(art.trace.find("\"cat\":\"amcast\""), std::string::npos);
  EXPECT_NE(art.trace.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(art.trace.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(art.metrics.find("\"read_ops\""), std::string::npos);
  EXPECT_NE(art.metrics.find("\"deliveries\""), std::string::npos);
  EXPECT_NE(art.metrics.find("\"executed\""), std::string::npos);
  // The report embeds throughput plus the per-kind latency summary.
  EXPECT_NE(art.report.find("\"throughput_tps\""), std::string::npos);
  EXPECT_NE(art.report.find("\"new_order\""), std::string::npos);
  EXPECT_NE(art.report.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(art.report.find("\"metrics\""), std::string::npos);
}

TEST(TelemetryEndToEnd, SameSeedRunsExportByteIdenticalArtifacts) {
  const ClusterArtifacts a = run_instrumented_cluster();
  const ClusterArtifacts b = run_instrumented_cluster();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.report, b.report);
}

TEST(TelemetryEndToEnd, DisabledTelemetryRecordsNothing) {
  tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  harness::TpccCluster cluster(/*partitions=*/2, /*replicas=*/3, scale);
  cluster.add_clients(1, tpcc::WorkloadConfig{});
  auto result = cluster.run(sim::ms(2), sim::ms(4));
  EXPECT_GT(result.completed, 0u);
  EXPECT_EQ(cluster.telemetry().tracer.event_count(), 0u);
  // Histogram handles exist (registered at construction) but recorded
  // nothing.
  auto& m = cluster.telemetry().metrics;
  EXPECT_EQ(m.histogram("core", "exec_ns", "g0.r0").count(), 0u);
  EXPECT_EQ(m.histogram("rdma", "nic_queue_wait_ns").count(), 0u);
  // Counters still count: they are what the accessors read.
  auto& replica = cluster.system().replica(0, 0);
  EXPECT_GT(replica.executed_count(), 0u);
  EXPECT_EQ(m.counter("core", "executed", "g0.r0").value(),
            replica.executed_count());
  const rdma::FabricStats fs = cluster.fabric().stats();
  EXPECT_GT(fs.writes, 0u);
  EXPECT_EQ(m.counter("rdma", "write_ops").value() +
                m.counter("rdma", "write_async_ops").value(),
            fs.writes);
}

// ---------------------------------------------------------------------
// KernelStats: events/sec + queue-depth sampling of the sim kernel
// ---------------------------------------------------------------------

TEST(KernelStats, SamplesThroughputAndQueueDepth) {
  sim::Simulator sim;
  telemetry::MetricsRegistry metrics;
  metrics.enable();
  telemetry::KernelStats kernel(sim, metrics, sim::us(10));
  kernel.start();

  // A self-rescheduling load: ~1 event per 1us for 1ms.
  sim.spawn([](sim::Simulator& s) -> sim::Task<void> {
    for (int i = 0; i < 1000; ++i) co_await s.sleep(sim::us(1));
  }(sim));
  sim.run_until(sim::ms(1));

  const auto executed = metrics.counter("sim", "events_executed").value();
  EXPECT_GT(executed, 900u);  // sampler saw nearly every event
  EXPECT_GT(metrics.gauge("sim", "events_per_vsec").value(), 0);
  EXPECT_GT(metrics.histogram("sim", "queue_depth").count(), 90u);

  // stop() disarms the timer: the queue drains and sampling ceases.
  kernel.stop();
  sim.run();
  const auto after = metrics.counter("sim", "events_executed").value();
  sim.run_for(sim::ms(1));
  EXPECT_EQ(metrics.counter("sim", "events_executed").value(), after);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace heron
