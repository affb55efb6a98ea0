// Minimal streaming JSON writer used by the telemetry exporters.
//
// No external dependencies; emits deterministic output (map-ordered
// callers + fixed float formatting) so that same-seed runs produce
// byte-identical trace and report files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace heron::telemetry {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Object key; must be followed by a value or container opener.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  /// Shortest-round-trip-ish formatting ("%.10g").
  JsonWriter& value(double v);
  /// Fixed-point formatting ("%.<decimals>f"); use where exactness of the
  /// textual form matters (trace timestamps).
  JsonWriter& value_fixed(double v, int decimals);

  template <typename V>
  JsonWriter& kv(std::string_view k, V v) {
    key(k);
    return value(v);
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void pre_value();
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<bool> has_items_;  // per open container
  bool after_key_ = false;
};

/// Writes `text` to `path`, checking both the fwrite and the fclose.
/// Returns false on any I/O error (a full device shows up at fclose).
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text);

}  // namespace heron::telemetry
