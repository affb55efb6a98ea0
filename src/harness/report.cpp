#include "harness/report.hpp"

#include "tpcc/requests.hpp"

namespace heron::harness {

namespace {

double us(double ns) { return ns / 1000.0; }
double us(sim::Nanos ns) { return static_cast<double>(ns) / 1000.0; }

void write_latency(telemetry::JsonWriter& w, std::string_view k,
                   const sim::LatencyRecorder& lat) {
  w.key(k).begin_object();
  w.kv("count", static_cast<std::uint64_t>(lat.count()));
  w.kv("mean_us", us(lat.mean()));
  w.kv("min_us", us(lat.min()));
  w.kv("p50_us", us(lat.percentile(50)));
  w.kv("p90_us", us(lat.percentile(90)));
  w.kv("p99_us", us(lat.percentile(99)));
  w.kv("max_us", us(lat.max()));
  w.end_object();
}

}  // namespace

void write_run_result(telemetry::JsonWriter& w, const RunResult& r) {
  w.begin_object();
  w.kv("throughput_tps", r.throughput_tps);
  w.kv("completed", r.completed);
  w.kv("window_ns", static_cast<std::int64_t>(r.window));
  write_latency(w, "latency_us", r.latency);
  write_latency(w, "latency_single_us", r.latency_single);
  write_latency(w, "latency_multi_us", r.latency_multi);
  w.key("by_kind").begin_object();
  for (const auto& [kind, lat] : r.latency_by_kind) {
    write_latency(w, tpcc::kind_name(kind), lat);
  }
  w.end_object();
  w.end_object();
}

ReportWriter::ReportWriter(std::string bench) {
  w_.begin_object();
  w_.kv("bench", bench);
  w_.key("runs").begin_array();
}

void ReportWriter::row(const std::string& name, const RunResult& r,
                       const std::function<void(telemetry::JsonWriter&)>& extra) {
  w_.begin_object();
  w_.kv("name", name);
  if (extra) extra(w_);
  w_.key("result");
  write_run_result(w_, r);
  w_.end_object();
}

std::string ReportWriter::finish(const telemetry::MetricsRegistry* metrics) {
  if (!finished_) {
    w_.end_array();
    if (metrics != nullptr) {
      w_.key("metrics");
      metrics->write_json(w_);
    }
    w_.end_object();
    finished_ = true;
  }
  return w_.str() + "\n";
}

}  // namespace heron::harness
