#include "telemetry/trace.hpp"

namespace heron::telemetry {

void TraceSpan::arg(const char* key, std::uint64_t value) {
  if (!tracer_ || !*alive_ || tracer_->epoch_ != epoch_) return;
  tracer_->events_[index_].args.push_back(Arg{key, value});
}

void TraceSpan::finish() {
  if (!tracer_) return;
  if (*alive_ && tracer_->epoch_ == epoch_) {
    Tracer::Event& ev = tracer_->events_[index_];
    if (ev.end == Tracer::kOpen) ev.end = tracer_->sim_->now();
  }
  tracer_ = nullptr;
}

void TraceSpan::finish_at(sim::Nanos end) {
  if (!tracer_) return;
  if (*alive_ && tracer_->epoch_ == epoch_) {
    Tracer::Event& ev = tracer_->events_[index_];
    if (ev.end == Tracer::kOpen) ev.end = end;
  }
  tracer_ = nullptr;
}

TraceSpan Tracer::span(const char* cat, const char* name, std::int64_t tid) {
  if (!enabled_) return {};
  if (events_.size() >= capacity_) {
    ++dropped_;
    return {};
  }
  events_.push_back(Event{cat, name, tid, sim_->now(), kOpen, {}, {}, {}});
  return TraceSpan{this, alive_, events_.size() - 1, epoch_};
}

void Tracer::instant(const char* cat, const char* name, std::int64_t tid,
                     std::initializer_list<Arg> args) {
  if (!enabled_) return;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(
      Event{cat, name, tid, sim_->now(), kInstant, std::vector<Arg>(args),
            {}, {}});
}

void Tracer::instant_str(const char* cat, const char* name, std::int64_t tid,
                         const char* key, std::string text) {
  if (!enabled_) return;
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{cat, name, tid, sim_->now(), kInstant, {}, key,
                          std::move(text)});
}

void Tracer::clear() {
  events_.clear();
  dropped_ = 0;
  ++epoch_;
}

void Tracer::write_chrome_json(JsonWriter& w) const {
  w.begin_array();
  for (const auto& [tid, name] : tid_names_) {
    w.begin_object();
    w.kv("name", "thread_name");
    w.kv("ph", "M");
    w.kv("pid", 0);
    w.kv("tid", tid);
    w.key("args").begin_object();
    w.kv("name", std::string_view(name));
    w.end_object();
    w.end_object();
  }
  for (const auto& ev : events_) {
    if (ev.end == kOpen) continue;  // span never finished; skip
    w.begin_object();
    w.kv("name", ev.name);
    w.kv("cat", ev.cat);
    if (ev.end == kInstant) {
      w.kv("ph", "i");
      w.kv("s", "t");
    } else {
      w.kv("ph", "X");
    }
    // Chrome expects microseconds; 3 decimals keep full ns precision.
    w.key("ts").value_fixed(static_cast<double>(ev.begin) / 1000.0, 3);
    if (ev.end != kInstant) {
      w.key("dur").value_fixed(static_cast<double>(ev.end - ev.begin) / 1000.0,
                               3);
    }
    w.kv("pid", 0);
    w.kv("tid", ev.tid);
    if (!ev.args.empty() || !ev.str_key.empty()) {
      w.key("args").begin_object();
      for (const Arg& a : ev.args) w.kv(a.key, a.value);
      if (!ev.str_key.empty()) {
        w.kv(std::string_view(ev.str_key), std::string_view(ev.str_value));
      }
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
}

std::string Tracer::chrome_json() const {
  JsonWriter w;
  write_chrome_json(w);
  std::string out = w.take();
  out.push_back('\n');
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  return write_text_file(path, chrome_json());
}

}  // namespace heron::telemetry
