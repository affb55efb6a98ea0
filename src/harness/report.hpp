// Machine-readable benchmark reports: serializes RunResult (and an
// optional telemetry snapshot) as JSON so plots/dashboards consume the
// bench output directly instead of scraping stdout.
#pragma once

#include <functional>
#include <string>

#include "harness/runner.hpp"
#include "telemetry/json.hpp"
#include "telemetry/registry.hpp"

namespace heron::harness {

/// Writes one RunResult as a JSON object:
///   {"throughput_tps":..., "completed":..., "window_ns":...,
///    "latency_us":{...}, "latency_single_us":{...},
///    "latency_multi_us":{...},
///    "by_kind":{"new_order":{...}, ...}}
/// Latency summaries carry count/mean/min/p50/p90/p99/max in
/// microseconds. Kinds are named via tpcc::kind_name.
void write_run_result(telemetry::JsonWriter& w, const RunResult& r);

/// Full report document for one bench invocation: a named list of runs
/// plus (optionally) the metrics-registry snapshot taken after the last
/// window. Rows are appended via `row`; `finish` closes the document.
class ReportWriter {
 public:
  /// `bench` names the producing benchmark (e.g. "fig4_throughput").
  explicit ReportWriter(std::string bench);

  /// Appends one result row with caller-chosen identifying fields.
  /// `extra` is a callback that writes extra keys into the row object
  /// (may be null).
  void row(const std::string& name, const RunResult& r,
           const std::function<void(telemetry::JsonWriter&)>& extra = {});

  /// Closes the document, optionally embedding a metrics snapshot, and
  /// returns the JSON text.
  std::string finish(const telemetry::MetricsRegistry* metrics = nullptr);

 private:
  telemetry::JsonWriter w_;
  bool finished_ = false;
};

}  // namespace heron::harness
