// Metrics registry: named counters, gauges and fixed-bucket histograms,
// keyed by (subsystem, name, label) where the label identifies a node,
// partition or replica (e.g. "g0.r1").
//
// Handles are registered once (construction time) and held by pointer at
// the instrumentation site. A counter is the one home of a statistic: it
// always counts, and the owning class's accessor reads it back (no raw
// twin field). The registry-wide enabled flag gates only gauges and
// histograms (and the tracer has its own flag), so disabled telemetry
// costs one branch per gauge/histogram call site. Snapshots serialize
// deterministically (std::map key order).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "telemetry/json.hpp"

namespace heron::telemetry {

class MetricsRegistry;

/// Counts whether or not the registry is enabled.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) {
    if (*enabled_) value_ = v;
  }
  void add(std::int64_t d) {
    if (*enabled_) value_ += d;
  }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// an implicit +inf bucket catches the rest.
class Histogram {
 public:
  void observe(std::int64_t v) {
    if (!*enabled_) return;
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b]) ++b;
    ++counts_[b];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Drops every recorded sample, keeping the bucket bounds. Benches call
  /// this (via Fabric::reset_stats) between warmup and measurement so the
  /// reported distribution covers only the measured window.
  void reset() {
    std::fill(counts_.begin(), counts_.end(), std::uint64_t{0});
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<std::int64_t>::max();
    max_ = std::numeric_limits<std::int64_t>::min();
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const {
    return bounds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  friend class MetricsRegistry;
  Histogram(const bool* enabled, std::vector<std::int64_t> bounds)
      : enabled_(enabled), bounds_(std::move(bounds)) {
    counts_.assign(bounds_.size() + 1, 0);
  }
  const bool* enabled_;
  std::vector<std::int64_t> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (last = +inf)
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Registry key of one entry of a class's statistics enum. A class keeps
/// a table of these in enum order (`stat` is the enum value, so
/// in_enum_order can check the table) and one counter per entry.
struct StatKey {
  int stat;
  const char* subsystem;
  const char* name;
};

template <std::size_t N>
constexpr bool in_enum_order(const std::array<StatKey, N>& keys) {
  for (std::size_t i = 0; i < N; ++i) {
    if (keys[i].stat != static_cast<int>(i)) return false;
  }
  return true;
}

/// Default latency bucket bounds (ns): 0.25us .. ~134ms, doubling.
std::vector<std::int64_t> latency_buckets_ns();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Registers (or finds) a metric. Pointers stay valid for the registry's
  /// lifetime; repeated calls with the same key return the same object.
  Counter& counter(std::string subsystem, std::string name,
                   std::string label = "");
  Gauge& gauge(std::string subsystem, std::string name,
               std::string label = "");
  Histogram& histogram(std::string subsystem, std::string name,
                       std::string label = "",
                       std::vector<std::int64_t> bounds = latency_buckets_ns());
  /// One counter per key of a StatKey table, all under `label`.
  template <std::size_t N>
  std::array<Counter*, N> counters(const std::array<StatKey, N>& keys,
                                   const std::string& label) {
    std::array<Counter*, N> out{};
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = &counter(keys[i].subsystem, keys[i].name, label);
    }
    return out;
  }

  /// Zeroes every counter: the statistics reset (see
  /// rdma::Fabric::reset_stats). Gauges and histograms are untouched.
  void reset_counters();
  /// Zeroes every metric's value (bucket layout is kept). Used at the
  /// start of a measurement window.
  void reset_values();

  /// Deterministic snapshot: {"counters":[...],"gauges":[...],
  /// "histograms":[...]}, each sorted by (subsystem, name, label).
  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;

 private:
  using Key = std::tuple<std::string, std::string, std::string>;

  bool enabled_ = false;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace heron::telemetry
