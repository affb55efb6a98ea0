// Simulator-kernel telemetry: periodic samples of event throughput and
// event-queue depth, so scale benches can watch the kernel itself (is the
// queue bloating? how many events per virtual second is this workload?)
// without instrumenting the hot loop. Sampling rides one cancelable
// timer regardless of period, canceled when the sampler stops or dies.
#pragma once

#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace heron::telemetry {

class KernelStats {
 public:
  KernelStats(sim::Simulator& sim, MetricsRegistry& metrics,
              sim::Nanos period = sim::us(100))
      : sim_(&sim),
        period_(period <= 0 ? sim::us(100) : period),
        events_(&metrics.counter("sim", "events_executed")),
        rate_(&metrics.gauge("sim", "events_per_vsec")),
        depth_(&metrics.gauge("sim", "pending_events")),
        depth_hist_(&metrics.histogram("sim", "queue_depth", "",
                                       depth_buckets())) {}

  KernelStats(const KernelStats&) = delete;
  KernelStats& operator=(const KernelStats&) = delete;
  ~KernelStats() { stop(); }

  /// Begins periodic sampling from the current virtual time.
  void start() {
    if (running_) return;
    running_ = true;
    last_events_ = sim_->events_executed();
    arm();
  }

  /// Stops sampling and disarms the pending timer.
  void stop() {
    running_ = false;
    sim_->cancel_timer(timer_);
  }

 private:
  static std::vector<std::int64_t> depth_buckets() {
    // Queue-depth buckets: 1 .. ~1M, quadrupling.
    std::vector<std::int64_t> b;
    for (std::int64_t v = 1; v <= 4'194'304; v *= 4) b.push_back(v);
    return b;
  }

  void arm() {
    timer_ = sim_->schedule_at(sim_->now() + period_, [this] {
      sample();
      if (running_) arm();
    });
  }

  void sample() {
    const std::uint64_t total = sim_->events_executed();
    const std::uint64_t delta = total - last_events_;
    last_events_ = total;
    events_->inc(delta);
    // Events per *virtual* second over the last period.
    rate_->set(static_cast<std::int64_t>(
        static_cast<double>(delta) *
        (static_cast<double>(sim::kNanosPerSec) /
         static_cast<double>(period_))));
    const auto depth = static_cast<std::int64_t>(sim_->pending_events());
    depth_->set(depth);
    depth_hist_->observe(depth);
  }

  sim::Simulator* sim_;
  sim::Nanos period_;
  Counter* events_;
  Gauge* rate_;
  Gauge* depth_;
  Histogram* depth_hist_;
  sim::Simulator::TimerToken timer_{};
  std::uint64_t last_events_ = 0;
  bool running_ = false;
};

}  // namespace heron::telemetry
