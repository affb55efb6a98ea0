#include "telemetry/json.hpp"

#include <cstdio>

namespace heron::telemetry {

void JsonWriter::pre_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    if (has_items_.back()) out_.push_back(',');
    has_items_.back() = true;
  }
}

void JsonWriter::append_escaped(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_.push_back('{');
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  has_items_.pop_back();
  out_.push_back('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_.push_back('[');
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  has_items_.pop_back();
  out_.push_back(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  pre_value();
  append_escaped(k);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  append_escaped(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value_fixed(double v, int decimals) {
  pre_value();
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  out_ += buf;
  return *this;
}

bool write_text_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace heron::telemetry
