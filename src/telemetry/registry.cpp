#include "telemetry/registry.hpp"

namespace heron::telemetry {

std::vector<std::int64_t> latency_buckets_ns() {
  std::vector<std::int64_t> out;
  for (std::int64_t b = 250; b <= 250ll << 19; b *= 2) out.push_back(b);
  return out;
}

Counter& MetricsRegistry::counter(std::string subsystem, std::string name,
                                  std::string label) {
  auto& slot = counters_[{std::move(subsystem), std::move(name),
                          std::move(label)}];
  if (!slot) slot.reset(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string subsystem, std::string name,
                              std::string label) {
  auto& slot =
      gauges_[{std::move(subsystem), std::move(name), std::move(label)}];
  if (!slot) slot.reset(new Gauge(&enabled_));
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string subsystem, std::string name,
                                      std::string label,
                                      std::vector<std::int64_t> bounds) {
  auto& slot =
      histograms_[{std::move(subsystem), std::move(name), std::move(label)}];
  if (!slot) slot.reset(new Histogram(&enabled_, std::move(bounds)));
  return *slot;
}

void MetricsRegistry::reset_counters() {
  for (auto& [k, c] : counters_) c->value_ = 0;
}

void MetricsRegistry::reset_values() {
  reset_counters();
  for (auto& [k, g] : gauges_) g->value_ = 0;
  for (auto& [k, h] : histograms_) h->reset();
}

namespace {

void write_key_fields(JsonWriter& w, const MetricsRegistry* /*unused*/,
                      const std::tuple<std::string, std::string, std::string>& k) {
  w.kv("subsystem", std::string_view(std::get<0>(k)));
  w.kv("name", std::string_view(std::get<1>(k)));
  w.kv("label", std::string_view(std::get<2>(k)));
}

}  // namespace

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_array();
  for (const auto& [k, c] : counters_) {
    w.begin_object();
    write_key_fields(w, this, k);
    w.kv("value", c->value());
    w.end_object();
  }
  w.end_array();
  w.key("gauges").begin_array();
  for (const auto& [k, g] : gauges_) {
    w.begin_object();
    write_key_fields(w, this, k);
    w.kv("value", g->value());
    w.end_object();
  }
  w.end_array();
  w.key("histograms").begin_array();
  for (const auto& [k, h] : histograms_) {
    w.begin_object();
    write_key_fields(w, this, k);
    w.kv("count", h->count());
    w.kv("sum", h->sum());
    w.kv("min", h->min());
    w.kv("max", h->max());
    w.kv("mean", h->mean());
    w.key("buckets").begin_array();
    for (std::size_t b = 0; b < h->counts().size(); ++b) {
      w.begin_object();
      if (b < h->bounds().size()) {
        w.kv("le", h->bounds()[b]);
      } else {
        w.kv("le", "inf");
      }
      w.kv("count", h->counts()[b]);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

}  // namespace heron::telemetry
