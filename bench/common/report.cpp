#include "common/report.hpp"

#include <cstdio>

#include "telemetry/json.hpp"

namespace heron::bench {

bool write_report(const std::string& path, std::string_view text) {
  if (path.empty()) return true;
  if (!telemetry::write_text_file(path, text)) {
    std::fprintf(stderr, "report: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("report -> %s\n", path.c_str());
  return true;
}

bool write_trace(const std::string& path, const telemetry::Tracer& tracer) {
  if (!tracer.write_file(path)) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("trace: %zu events -> %s\n", tracer.event_count(), path.c_str());
  return true;
}

void print_violations(std::span<const faultlab::Violation> violations) {
  std::fflush(stdout);
  for (const faultlab::Violation& v : violations) {
    std::fprintf(stderr, "VIOLATION [%s] %s\n", v.oracle.c_str(),
                 v.detail.c_str());
  }
}

}  // namespace heron::bench
