// The per-fabric telemetry hub: one metrics registry plus one tracer.
//
// Every simulated component reaches its hub through the rdma::Fabric it
// is attached to (all layers already hold a fabric reference), so no
// extra plumbing is needed to instrument a new subsystem. Registry
// counters always count (they are the home of every statistic); gauges,
// histograms and the tracer are disabled by default and cost a single
// branch per call site until enabled.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace heron::telemetry {

class Hub {
 public:
  /// tid used for captured log lines and other fabric-global events.
  static constexpr std::int64_t kGlobalTid = -1;

  explicit Hub(sim::Simulator& sim) : tracer(sim), sim_(&sim) {
    tracer.set_tid_name(kGlobalTid, "global");
  }
  ~Hub() { release_logs(); }
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricsRegistry metrics;
  Tracer tracer;

  void enable_all() {
    metrics.enable();
    tracer.enable();
  }

  /// Routes sim::log_line output into the trace as instant events (one
  /// per line, on the global tid) in addition to normal sink behaviour
  /// being replaced. release_logs() (or destruction) restores the default
  /// sink. Only one hub should capture logs at a time.
  void capture_logs();
  void release_logs();

 private:
  sim::Simulator* sim_;
  bool capturing_ = false;
};

}  // namespace heron::telemetry
