// Shared types of the Heron benchmark (see README.md in this directory).
//
// A *cell* is one complete, seeded simulation of a workload: build the
// cluster, warm up, measure a fixed virtual-time window, then check the
// outputs. Everything a cell reports in virtual time (or as a count) is a
// pure function of (workload, seed); only the wall-clock figures vary.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "sim/stats.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using heron::sim::Nanos;

enum class Workload { kTpcc, kKvFast, kKvCrash };

/// Metric name -> value. std::map keeps every printout in one order.
using Metrics = std::map<std::string, double>;

struct CellConfig {
  Workload workload = Workload::kTpcc;
  std::uint64_t seed = 1;
  /// Telemetry on, history oracles attached, Chrome trace captured.
  bool traced = false;
};

/// One fixed virtual-time slice of the measured window.
struct Slice {
  std::uint64_t ops = 0;  // logical ops completed OK in the slice
  double wall_s = 0.0;    // wall time the slice took
  double ref_s = 0.0;     // wall time of the reference work right after it
};

/// Events each reference loop runs per call (reference.cpp).
constexpr std::size_t kReferenceEvents = 50'000;
/// Runs the fixed reference work once; returns its wall seconds.
double reference_seconds();
/// Resident memory the reference work's tables take.
double reference_mib();
/// A reference second (ref-s) is the time the reference work takes for
/// this many events: about one wall second on the unloaded 4-core Xeon
/// VM the benchmark was tuned on, and longer whenever the host is busy.
constexpr double kRefEventsPerRefSecond = 5e6;
/// Wall seconds of one ref-s, given one reference call's wall time.
inline double ref_second_wall_s(double ref_s) {
  return ref_s * kRefEventsPerRefSecond / static_cast<double>(kReferenceEvents);
}

struct CellResult {
  double build_s = 0.0;        // construction + bootstrap load
  double warmup_s = 0.0;       // warm-up run up to the measured window
  double setup_ref_s = 0.0;    // reference work's time right after warm-up
  double window_wall_s = 0.0;  // wall time of the measured run_until
  std::vector<Slice> slices;   // the window, slice by slice
  std::uint64_t ops = 0;        // logical ops completed OK in the window
  std::uint64_t attempted = 0;  // logical ops that ended in the window
  std::uint64_t failed = 0;     // ... of which timed out / shed / abandoned
  std::uint64_t events = 0;     // simulator events run in the window
  std::size_t fabric_nodes = 0;  // nodes on the cell's fabric
  std::size_t qp_fanout = 0;     // replica targets a client's verbs reach
  /// Deterministic end-to-end values: sim_* and rejoin_us.
  Metrics sim;
  /// Deterministic per-layer values (counts, ratios, virtual times).
  Metrics layers;
  /// Output-check failures; any entry fails the benchmark.
  std::vector<std::string> violations;
  /// Traced cells only: Chrome trace of the cell (telemetry spans plus
  /// the benchmark's own phase spans).
  std::string trace_json;
};

CellResult run_cell(const CellConfig& cfg);

/// Isolation runs (isolation.cpp): each times one layer alone.
/// Wall ns per event of Simulator::schedule/run chains at `depth` pending
/// events.
double kernel_ns_per_event(std::size_t depth, std::uint64_t seed);
/// Wall ns per one-sided verb (read/write/cas mix) over `nodes` fabric
/// nodes, each initiator cycling over `fanout` targets.
double fabric_ns_per_verb(std::size_t nodes, std::size_t fanout,
                          std::uint64_t seed);
/// Wall ns per completed op of the TPC-C cluster in each replica mode
/// (order-only, null, app) plus deliveries per op in order-only mode.
struct Ladder {
  double order_only_ns_per_op = 0.0;
  double null_ns_per_op = 0.0;
  double app_ns_per_op = 0.0;
  double deliveries_per_op = 0.0;
};
Ladder mode_ladder(std::uint64_t seed);

// --- helpers shared by the workloads -----------------------------------

inline double to_us(Nanos ns) { return static_cast<double>(ns) / 1000.0; }

/// Percentile `q` (0..100) of whole-nanosecond latencies, in µs. The
/// nearest-rank value x is refined by interpolating within the samples
/// tied at x, the way Python's statistics.median_grouped treats rounded
/// data: the result stays within half a nanosecond of x but, unlike x,
/// moves with the sample's make-up when thousands of samples tie (a
/// one-sided fast read has exactly the same latency every time).
inline double pct_us(const heron::sim::LatencyRecorder& rec, double q) {
  std::vector<Nanos> v = rec.samples();
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const auto idx = static_cast<std::size_t>(std::llround(q / 100.0 * (n - 1)));
  const Nanos x = v[std::min(idx, v.size() - 1)];
  const auto lo = std::lower_bound(v.begin(), v.end(), x);
  const auto hi = std::upper_bound(lo, v.end(), x);
  const double below = static_cast<double>(lo - v.begin());
  const double tied = static_cast<double>(hi - lo);
  const double frac = std::clamp((q / 100.0 * n - below) / tied, 0.0, 1.0);
  return (static_cast<double>(x) - 0.5 + frac) / 1000.0;
}

/// Per-op outcome log: latency and failures of the measured window, and
/// the outage — the longest interval in which no write due to some
/// partition completed, tracked from the window's start until the load
/// stops (so it also covers a crash right after the window).
class OpLog {
 public:
  explicit OpLog(int partitions)
      : last_write_(static_cast<std::size_t>(partitions), 0),
        max_gap_(static_cast<std::size_t>(partitions), 0) {}

  /// Opens the measured window and the outage tracking.
  void start(Nanos now) {
    recording_ = true;
    tracking_ = true;
    std::fill(last_write_.begin(), last_write_.end(), now);
  }
  /// Closes the measured window.
  void stop() { recording_ = false; }
  /// Closes the outage tracking (the load has stopped).
  void stop_tracking(Nanos now) {
    if (!tracking_) return;
    tracking_ = false;
    for (std::size_t p = 0; p < last_write_.size(); ++p) {
      max_gap_[p] = std::max(max_gap_[p], now - last_write_[p]);
    }
  }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Records one finished logical op touching the partitions in `dst`.
  /// `latency` runs from submit (closed loop) or due time (open loop).
  void done(heron::amcast::DstMask dst, Nanos now, Nanos latency, bool ok,
            bool write) {
    if (tracking_ && ok && write) {
      for (std::size_t p = 0; p < last_write_.size(); ++p) {
        if (!heron::amcast::dst_contains(dst, static_cast<int>(p))) continue;
        max_gap_[p] = std::max(max_gap_[p], now - last_write_[p]);
        last_write_[p] = now;
      }
    }
    if (!recording_) return;
    ++attempted_;
    if (!ok) {
      ++failed_;
      return;
    }
    latency_.record(latency);
  }
  /// Counts an op that failed before reaching the system (abandoned).
  void abandoned() {
    if (!recording_) return;
    ++attempted_;
    ++failed_;
  }

  [[nodiscard]] const heron::sim::LatencyRecorder& latency() const {
    return latency_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] Nanos outage() const {
    Nanos m = 0;
    for (const Nanos g : max_gap_) m = std::max(m, g);
    return m;
  }

 private:
  bool recording_ = false;
  bool tracking_ = false;
  heron::sim::LatencyRecorder latency_;
  std::vector<Nanos> last_write_;
  std::vector<Nanos> max_gap_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
