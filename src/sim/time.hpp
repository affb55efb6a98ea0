// Virtual time for the discrete-event simulator.
//
// All simulated latencies in this repository are expressed in integer
// nanoseconds of *virtual* time. Helper factories (us/ms/sec) keep call
// sites readable and conversion helpers (to_us/...) keep reporting code
// free of magic constants.
#pragma once

#include <cstdint>

namespace heron::sim {

/// Virtual time instant or duration, in nanoseconds.
using Nanos = std::int64_t;

constexpr Nanos kNanosPerMicro = 1'000;
constexpr Nanos kNanosPerMilli = 1'000'000;
constexpr Nanos kNanosPerSec = 1'000'000'000;
/// A virtual time no run reaches: "no deadline".
constexpr Nanos kNever = INT64_MAX;

/// Builds a duration from microseconds.
constexpr Nanos us(double v) { return static_cast<Nanos>(v * kNanosPerMicro); }
/// Builds a duration from milliseconds.
constexpr Nanos ms(double v) { return static_cast<Nanos>(v * kNanosPerMilli); }
/// Builds a duration from seconds.
constexpr Nanos sec(double v) { return static_cast<Nanos>(v * kNanosPerSec); }

/// Converts a duration to (fractional) microseconds for reporting.
constexpr double to_us(Nanos v) {
  return static_cast<double>(v) / static_cast<double>(kNanosPerMicro);
}
/// Converts a duration to (fractional) milliseconds for reporting.
constexpr double to_ms(Nanos v) {
  return static_cast<double>(v) / static_cast<double>(kNanosPerMilli);
}
/// Converts a duration to (fractional) seconds for reporting.
constexpr double to_sec(Nanos v) {
  return static_cast<double>(v) / static_cast<double>(kNanosPerSec);
}

}  // namespace heron::sim
