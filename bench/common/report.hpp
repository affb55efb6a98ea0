// Where a bench's results leave the process: the --json report, the
// --trace Chrome trace and the oracle violations a sweep prints. Every
// write goes through telemetry::write_text_file, which checks the fwrite
// and the fclose; a bench whose report or trace write fails exits 1.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "faultlab/history.hpp"
#include "telemetry/trace.hpp"

namespace heron::bench {

/// Writes the finished report document `text` to `path` and prints
/// "report -> <path>"; does nothing when `path` is empty. Returns false,
/// after saying so on stderr, when the write failed.
[[nodiscard]] bool write_report(const std::string& path,
                                std::string_view text);

/// Writes `tracer`'s Chrome trace to `path` and prints
/// "trace: <n> events -> <path>". Returns false, after saying so on
/// stderr, when the write failed.
[[nodiscard]] bool write_trace(const std::string& path,
                               const telemetry::Tracer& tracer);

/// Prints each violation as "VIOLATION [<oracle>] <detail>" on stderr,
/// after flushing stdout so the lines follow the cell they belong to.
void print_violations(std::span<const faultlab::Violation> violations);

}  // namespace heron::bench
