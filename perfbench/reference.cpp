// Reference work for host-speed normalisation. The benchmark's host is a
// share of a machine whose speed drifts with its neighbours' load (by a
// quarter and more within minutes). A fixed program that uses no Heron
// code is timed right after every measured slice, and the slice's wall
// time is converted into reference seconds; the drift both see cancels.
// A change to Heron cannot change the reference's work.
//
// The work resembles the simulator's: a binary heap of pending event
// timestamps plus random reads and writes into a table. It runs twice,
// once over a table that fits a core's private cache (tracks the core's
// own speed) and once over one far larger than the shared last-level
// cache (tracks memory contention); its time is the geometric mean.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSmallSlots = std::size_t{1} << 16;  // 512 KiB
constexpr std::size_t kLargeSlots = std::size_t{1} << 25;  // 256 MiB
constexpr std::size_t kPending = 4096;

class Loop {
 public:
  explicit Loop(std::size_t slots) : table_(slots, 1) {
    for (std::size_t i = 0; i < kPending; ++i) heap_.push(next() & 0xFFFF);
  }

  /// Runs kReferenceEvents events; returns their wall seconds.
  double run() {
    const std::size_t mask = table_.size() - 1;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kReferenceEvents; ++i) {
      const std::uint64_t t = heap_.top();
      heap_.pop();
      const std::uint64_t r = next();
      table_[r & mask] += t;
      sink_ += table_[(r >> 40) & mask];
      heap_.push(t + (r & 0xFFF) + (sink_ & 1));
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::uint64_t x_ = 0x9E3779B97F4A7C15ull;
  std::vector<std::uint64_t> table_;
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<>>
      heap_;
  std::uint64_t sink_ = 0;
};

}  // namespace

double reference_seconds() {
  static Loop small(kSmallSlots);
  static Loop large(kLargeSlots);
  return std::sqrt(small.run() * large.run());
}

double reference_mib() {
  return static_cast<double>((kSmallSlots + kLargeSlots) *
                             sizeof(std::uint64_t)) /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
