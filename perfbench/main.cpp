// Benchmark entry point: runs one workload and prints one JSON result line.
//
//   perfbench --workload <tpcc|kv-fast|kv-crash> --seed <n> --seconds <s>
//             --trace <0|1> [--artifacts <dir>]
//
// --trace 0 repeats the same-seed cell until its measured windows add up
// to --seconds of wall time. Virtual-time metrics come from the first
// cell and must repeat bit for bit in every later cell (the determinism
// self-check). The speed and set-up time are medians, expressed in
// reference seconds (see reference.cpp) so that the host's drift cancels.
//
// --trace 1 runs one untraced and one traced cell of the seed (whose
// deterministic values must agree), then the layer isolation runs, and
// reports the per-layer metrics. The Chrome trace lands in --artifacts.
//
// Any failed output check or determinism mismatch exits 1 without a
// result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Add no cell that would likely end past this much wall time, whatever
/// --seconds says.
constexpr double kMaxRunSeconds = 100.0;

/// The per-layer metrics a traced run reports, in BENCHMARK.json order.
constexpr const char* kPerLayer[] = {
    "sim.events_per_op",
    "sim.events_per_wall_s",
    "sim.queue_depth_mean",
    "sim.kernel_ns_per_event",
    "sim.wall_ops_per_s",
    "host.ref_second_s",
    "rdma.verbs_per_op",
    "rdma.bytes_per_op",
    "rdma.nic_queue_wait_p99_us",
    "rdma.completion_errors",
    "rdma.wall_ns_per_verb",
    "amcast.deliveries_per_op",
    "amcast.batch_size_mean",
    "amcast.order_p50_us",
    "amcast.order_p99_us",
    "amcast.shed",
    "amcast.takeovers",
    "amcast.reproposals",
    "amcast.wall_ns_per_delivery",
    "core.coord_p50_us",
    "core.coord_p99_us",
    "core.coord_delayed_frac",
    "core.exec_p50_us",
    "core.remote_reads_per_op",
    "core.addr_cache_hit_frac",
    "core.dedup_hits",
    "core.gate_wait_p99_us",
    "core.wall_ns_per_op",
    "client.latency_samples",
    "client.failed_frac",
    "client.outage_us",
    "client.fastread_hit_frac",
    "client.fastwrite_commit_frac",
    "client.fastread_torn_retries_per_read",
    "client.fast_read_p50_us",
    "client.fast_write_p50_us",
    "client.ordered_p50_us",
    "client.retries_per_op",
    "client.busy_replies",
    "client.session_wait_p99_us",
    "durable.checkpoints",
    "durable.checkpoints_deferred",
    "durable.pages_written",
    "xfer.catchup_bytes",
    "xfer.applied_full_bytes",
    "xfer.applied_delta_bytes",
    "xfer.restored_from_checkpoint",
    "tpcc.neworder_p50_us",
    "tpcc.multi_frac",
    "tpcc.wall_ns_per_op",
    "setup.build_s",
    "setup.warmup_s",
    "telemetry.overhead_frac",
};

struct Options {
  Workload workload = Workload::kTpcc;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artifacts = ".";
  std::string name;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tpcc|kv-fast|kv-crash> --seed <n> "
               "--seconds <s> --trace <0|1> [--artifacts <dir>]\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.name = val;
      have_workload = true;
      if (val == "tpcc") {
        opt.workload = Workload::kTpcc;
      } else if (val == "kv-fast") {
        opt.workload = Workload::kKvFast;
      } else if (val == "kv-crash") {
        opt.workload = Workload::kKvCrash;
      } else {
        usage(argv[0]);
      }
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--artifacts") {
      opt.artifacts = val;
    } else {
      usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0) usage(argv[0]);
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Bit-exact comparison of every deterministic value two same-seed cells
/// both report; returns a description of each mismatch.
std::vector<std::string> determinism_diff(const CellResult& a,
                                          const CellResult& b) {
  std::vector<std::string> out;
  auto cmp = [&](const std::string& name, double x, double y) {
    if (std::memcmp(&x, &y, sizeof x) != 0) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: %.17g vs %.17g", name.c_str(), x, y);
      out.emplace_back(buf);
    }
  };
  cmp("ops", static_cast<double>(a.ops), static_cast<double>(b.ops));
  cmp("attempted", static_cast<double>(a.attempted),
      static_cast<double>(b.attempted));
  cmp("events", static_cast<double>(a.events), static_cast<double>(b.events));
  for (const auto& [k, v] : a.sim) cmp(k, v, b.sim.at(k));
  for (const auto& [k, v] : a.layers) {
    const auto it = b.layers.find(k);
    if (it != b.layers.end()) cmp(k, v, it->second);
  }
  return out;
}

bool report_violations(const CellResult& c) {
  for (const auto& v : c.violations) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", v.c_str());
  }
  return c.violations.empty();
}

void print_result(const CellResult& first, const Metrics& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(first.attempted),
              static_cast<unsigned long long>(first.failed));
  bool comma = false;
  for (const auto& [k, v] : metrics) {
    std::printf("%s\"%s\": %.17g", comma ? ", " : "", k.c_str(), v);
    comma = true;
  }
  std::printf("}}\n");
}

/// Wall seconds of one ref-s while the cell ran: the median over its
/// slices.
double cell_ref_second(const CellResult& c) {
  std::vector<double> v;
  for (const Slice& s : c.slices) v.push_back(ref_second_wall_s(s.ref_s));
  return median(v);
}

/// The measured window's length in ref-s: each slice's wall time divided
/// by the length of a ref-s measured right after it.
double window_ref_seconds(const CellResult& c) {
  double t = 0.0;
  for (const Slice& s : c.slices) t += s.wall_s / ref_second_wall_s(s.ref_s);
  return t;
}

int run_timed(const Options& opt) {
  const CellConfig cfg{opt.workload, opt.seed, false};
  const auto start = Clock::now();
  std::vector<CellResult> cells;
  std::vector<double> setup;
  double measured = 0.0, ops = 0.0, ref_seconds = 0.0;
  for (;;) {
    const auto cell_start = Clock::now();
    cells.push_back(run_cell(cfg));
    const CellResult& c = cells.back();
    if (!report_violations(c)) return 1;
    const auto diff = determinism_diff(cells.front(), c);
    for (const auto& d : diff) {
      std::fprintf(stderr, "DETERMINISM MISMATCH (cell %zu): %s\n",
                   cells.size(), d.c_str());
    }
    if (!diff.empty()) return 1;
    const double window_ref_s = window_ref_seconds(c);
    ops += static_cast<double>(c.ops);
    ref_seconds += window_ref_s;
    const double ref_second = cell_ref_second(c);
    setup.push_back((c.build_s + c.warmup_s) /
                    ref_second_wall_s(c.setup_ref_s));
    std::fprintf(stderr,
                 "cell %zu: build %.3fs warmup %.3fs window %.3fs ops %llu "
                 "(%.0f ops/s), 1 ref-s = %.3fs -> %.0f ops/ref-s, "
                 "p50 %.2fus p99 %.2fus p999 %.2fus\n",
                 cells.size(), c.build_s, c.warmup_s, c.window_wall_s,
                 static_cast<unsigned long long>(c.ops),
                 static_cast<double>(c.ops) / c.window_wall_s, ref_second,
                 static_cast<double>(c.ops) / window_ref_s,
                 c.sim.at("sim_p50_us"), c.sim.at("sim_p99_us"),
                 c.sim.at("sim_p999_us"));
    measured += c.window_wall_s;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double last =
        std::chrono::duration<double>(Clock::now() - cell_start).count();
    if (measured >= opt.seconds || elapsed + last >= kMaxRunSeconds) break;
  }
  Metrics m = cells.front().sim;
  m["norm_ops_per_s"] = ops / ref_seconds;
  m["setup_s"] = median(setup);
  m["peak_rss_mb"] = peak_rss_mib() - reference_mib();
  print_result(cells.front(), m);
  return 0;
}

int run_traced(const Options& opt) {
  const CellResult base = run_cell({opt.workload, opt.seed, false});
  if (!report_violations(base)) return 1;
  const CellResult traced = run_cell({opt.workload, opt.seed, true});
  if (!report_violations(traced)) return 1;
  const auto diff = determinism_diff(base, traced);
  for (const auto& d : diff) {
    std::fprintf(stderr, "DETERMINISM MISMATCH (traced vs untraced): %s\n",
                 d.c_str());
  }
  if (!diff.empty()) return 1;

  Metrics m;
  for (const char* name : kPerLayer) {
    const auto it = traced.layers.find(name);
    m[name] = it == traced.layers.end() ? 0.0 : it->second;
  }
  m["sim.events_per_wall_s"] =
      static_cast<double>(base.events) / base.window_wall_s;
  m["sim.wall_ops_per_s"] =
      static_cast<double>(base.ops) / base.window_wall_s;
  m["host.ref_second_s"] = cell_ref_second(base);
  m["setup.build_s"] = base.build_s;
  m["setup.warmup_s"] = base.warmup_s;
  // Both windows in ref-s, so the host's drift between them cancels.
  m["telemetry.overhead_frac"] =
      1.0 - window_ref_seconds(base) / window_ref_seconds(traced);
  m["sim.kernel_ns_per_event"] = kernel_ns_per_event(
      static_cast<std::size_t>(traced.layers.at("sim.queue_depth_mean") + 0.5),
      opt.seed);
  m["rdma.wall_ns_per_verb"] =
      fabric_ns_per_verb(base.fabric_nodes, base.qp_fanout, opt.seed);
  const Ladder ladder = mode_ladder(opt.seed);
  m["amcast.wall_ns_per_delivery"] =
      ladder.order_only_ns_per_op / ladder.deliveries_per_op;
  m["core.wall_ns_per_op"] = ladder.null_ns_per_op - ladder.order_only_ns_per_op;
  m["tpcc.wall_ns_per_op"] = ladder.app_ns_per_op - ladder.null_ns_per_op;

  const std::string path = opt.artifacts + "/" + opt.name + "-seed" +
                           std::to_string(opt.seed) + ".trace.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  const bool written =
      f != nullptr &&
      std::fwrite(traced.trace_json.data(), 1, traced.trace_json.size(), f) ==
          traced.trace_json.size();
  if (f == nullptr || std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "trace -> %s\n", path.c_str());
  print_result(traced, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  (void)reference_seconds();  // allocate and fault in its table up front
  return opt.trace ? run_traced(opt) : run_timed(opt);
}
