// Figure 8: latency of state transfer (log scale in the paper).
//
//   * "Protocol": a transfer with no data — two RDMA writes (request +
//     completion), the protocol floor.
//   * 64 KB / 640 KB / 6.4 MB: state sync of serialized data (shipped as
//     stored, e.g. the TPC-C Stock table) vs non-serialized data (pays
//     serialize + deserialize, e.g. the Item table). 640 KB and 6.4 MB
//     are 1% and 10% of a default Stock table.
//   * Full warehouse: 137.69 MB (105.3 MB serialized + 32.39 MB
//     non-serialized); the paper recovers it in ~109.4 ms (36.9 ms
//     serialized + 72.5 ms non-serialized).
//
// Data moves in 32 KB RDMA writes (§V-E2). After each case the lagger's
// store is compared object by object with the donor's; any mismatch is
// reported and the bench exits non-zero.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "common/state_app.hpp"
#include "core/system.hpp"
#include "harness/report.hpp"
#include "rdma/fabric.hpp"

using namespace heron;

namespace {

struct Options {
  std::string json_path;
  std::uint64_t seed = 7;
};

struct Measured {
  double avg_us;
  double stddev_us;
  sim::LatencyRecorder lat;
  std::uint64_t mismatched = 0;  // objects differing lagger vs donor
};

/// Objects whose version or bytes differ between replicas (0,0) and (0,2).
std::uint64_t mismatched_objects(core::System& sys, std::uint64_t count) {
  std::uint64_t bad = 0;
  for (core::Oid oid = 1; oid <= count; ++oid) {
    const auto [dt, dv] = sys.replica(0, 0).store().get(oid);
    const auto [lt, lv] = sys.replica(0, 2).store().get(oid);
    if (dt != lt || !std::equal(dv.begin(), dv.end(), lv.begin(), lv.end())) {
      ++bad;
    }
  }
  return bad;
}

/// Measures `runs` state transfers of `total_bytes` (0 = protocol only).
Measured run_case(const Options& opt, std::uint64_t total_bytes,
                  bool serialized, int runs = 5) {
  constexpr std::uint32_t kObjSize = 16u << 10;
  const std::uint64_t count = total_bytes / kObjSize;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, opt.seed);
  core::HeronConfig cfg;
  // Large transfers outlast the default handler-suspicion timeout; keep
  // backup candidates from starting duplicate transfers.
  cfg.statesync_timeout = sim::sec(2);
  cfg.object_region_bytes =
      static_cast<std::size_t>(count + 2) * (2 * kObjSize + 64) + (1u << 20);
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [count, serialized, size = kObjSize] {
        return std::make_unique<bench::StateApp>(count, size, serialized);
      },
      cfg);
  sys.start();
  auto& client = sys.add_client();

  sim::LatencyRecorder lat;
  bool done = false;
  sim.spawn([](sim::Simulator& s, core::System& system, core::Client& cl,
               std::uint64_t n, sim::LatencyRecorder& rec, int reps,
               bool& done_flag) -> sim::Task<void> {
    for (int run = 0; run < reps; ++run) {
      // Touch all objects (or none) so the update log covers them.
      co_await cl.submit(amcast::dst_of(0), n > 0 ? 1u : 0u, {});
      co_await s.sleep(sim::ms(1));  // let all replicas finish applying

      auto& lagger = system.replica(0, 2);
      const core::Tmp from = lagger.last_req();
      const sim::Nanos t0 = s.now();
      co_await lagger.force_state_transfer(from);
      rec.record(s.now() - t0);
      co_await s.sleep(sim::ms(1));
    }
    done_flag = true;
  }(sim, sys, client, count, lat, runs, done));
  // Heartbeat loops run forever; advance time until the script finishes.
  while (!done) sim.run_for(sim::ms(20));

  return {lat.mean() / 1000.0, lat.stddev() / 1000.0, lat,
          mismatched_objects(sys, count)};
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli()
      .flag("--json", opt.json_path, "<path>",
            "machine-readable report (one row per case)")
      .flag("--seed", opt.seed, "<n>", "fabric seed, echoed into the report")
      .parse(argc, argv);
  harness::ReportWriter report("fig8_state_transfer");
  std::uint64_t mismatched = 0;
  auto add_row = [&](const char* name, std::uint64_t bytes, bool serialized,
                     const Measured& m) {
    if (m.mismatched > 0) {
      std::fprintf(stderr, "%s: lagger differs from donor in %llu objects\n",
                   name, static_cast<unsigned long long>(m.mismatched));
      mismatched += m.mismatched;
    }
    harness::RunResult result;
    result.completed = m.lat.count();
    result.latency = m.lat;
    report.row(name, result, [&](telemetry::JsonWriter& w) {
      w.kv("bytes", bytes);
      w.kv("serialized", serialized);
      w.kv("avg_us", m.avg_us);
      w.kv("stddev_us", m.stddev_us);
      w.kv("mismatched_objects", m.mismatched);
      w.kv("seed", opt.seed);
    });
  };

  std::printf(
      "Figure 8: state transfer latency (32KB RDMA write chunks)\n"
      "paper: protocol-only = 2 RDMA writes; 64KB serialized ~26us; "
      "latency proportional to size; (de)serialization degrades the "
      "non-serialized path\n\n");
  std::printf("%-22s %14s %12s\n", "case", "avg latency", "stddev");

  const auto protocol = run_case(opt, 0, true);
  std::printf("%-22s %11.1f us %9.1f us\n", "protocol (no data)",
              protocol.avg_us, protocol.stddev_us);
  add_row("protocol", 0, true, protocol);

  const std::uint64_t sizes[] = {64u << 10, 640u << 10, 6400u << 10};
  const char* labels[] = {"64KB", "640KB", "6.4MB"};
  for (int i = 0; i < 3; ++i) {
    const auto ser = run_case(opt, sizes[i], true);
    std::printf("%-17s ser. %11.1f us %9.1f us\n", labels[i], ser.avg_us,
                ser.stddev_us);
    add_row((std::string(labels[i]) + "/serialized").c_str(), sizes[i], true,
            ser);
    const auto raw = run_case(opt, sizes[i], false);
    std::printf("%-17s non. %11.1f us %9.1f us\n", labels[i], raw.avg_us,
                raw.stddev_us);
    add_row((std::string(labels[i]) + "/non-serialized").c_str(), sizes[i],
            false, raw);
  }

  // Full TPC-C warehouse: 105.3 MB serialized + 32.39 MB non-serialized.
  const auto wh_ser =
      run_case(opt, static_cast<std::uint64_t>(105.3 * (1u << 20)), true, 2);
  const auto wh_raw =
      run_case(opt, static_cast<std::uint64_t>(32.39 * (1u << 20)), false, 2);
  add_row("warehouse/serialized",
          static_cast<std::uint64_t>(105.3 * (1u << 20)), true, wh_ser);
  add_row("warehouse/non-serialized",
          static_cast<std::uint64_t>(32.39 * (1u << 20)), false, wh_raw);
  std::printf("%-22s %11.1f ms\n", "warehouse serialized",
              wh_ser.avg_us / 1000.0);
  std::printf("%-22s %11.1f ms\n", "warehouse non-serial.",
              wh_raw.avg_us / 1000.0);
  std::printf("%-22s %11.1f ms   (paper: 109.4 ms = 36.9 + 72.5)\n",
              "warehouse total", (wh_ser.avg_us + wh_raw.avg_us) / 1000.0);

  if (!bench::write_report(opt.json_path, report.finish())) return 1;
  return mismatched == 0 ? 0 : 1;
}
