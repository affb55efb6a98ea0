// The three benchmark workloads (tpcc, kv-fast, kv-crash) and the output
// checks that run after every measured window. See README.md for why
// each workload exists and which layers it loads.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <span>

#include "bench.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/linear.hpp"
#include "harness/runner.hpp"
#include "rdma/fabric.hpp"
#include "sim/notifier.hpp"
#include "sim/random.hpp"
#include "tpcc/gen.hpp"

namespace perfbench {
namespace {

using namespace heron;
using Clock = std::chrono::steady_clock;

constexpr int kPartitions = 4;
constexpr int kReplicas = 3;
/// Trace lane of the benchmark's own phase spans.
constexpr std::int64_t kBenchTid = -100;
/// Virtual-time step of the measured run_until; the event-queue depth is
/// sampled at every step boundary (no events are added to do so).
constexpr Nanos kSampleStep = sim::us(20);
/// Trace events kept from the start of the measured window.
constexpr std::size_t kTraceCapacity = 200'000;

/// Virtual-time length of the slices the measured window's speed is
/// timed in.
constexpr Nanos kRateSlice = sim::ms(5);

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The benchmark's own spans, on a tracer of the cell's simulator: each
/// span covers the phase's virtual interval and carries its wall time.
class Phases {
 public:
  Phases(sim::Simulator& sim, bool on) : tracer_(sim) {
    tracer_.enable(on);
    tracer_.set_tid_name(kBenchTid, "perfbench");
  }

  /// Runs `body` inside span `name`; returns its wall seconds.
  template <typename F>
  double run(const char* name, F&& body) {
    auto span = tracer_.span("perfbench", name, kBenchTid);
    const auto t0 = Clock::now();
    body();
    const double s = seconds_since(t0);
    span.arg("wall_us", static_cast<std::uint64_t>(s * 1e6));
    return s;
  }
  /// Records a phase that already ran, as a zero-virtual-length span.
  void note(const char* name, double wall_s) {
    auto span = tracer_.span("perfbench", name, kBenchTid);
    span.arg("wall_us", static_cast<std::uint64_t>(wall_s * 1e6));
  }
  telemetry::Tracer& tracer() { return tracer_; }

 private:
  telemetry::Tracer tracer_;
};

/// Crashes replica (g, rank) at virtual time `when`.
sim::Task<void> crash_at(core::System& sys, core::GroupId g, int rank,
                         Nanos when, Phases& phases) {
  auto& sim = sys.simulator();
  co_await sim.sleep(when - sim.now());
  phases.tracer().instant("perfbench", "crash", kBenchTid,
                          {{"group", static_cast<std::uint64_t>(g)},
                           {"rank", static_cast<std::uint64_t>(rank)}});
  sys.amcast().endpoint(g, rank).node().crash();
}

/// Restart of a crashed replica and the time it takes to rejoin: from
/// System::restart_replica until the replica leaves rejoining() and its
/// last_executed() reaches the survivors' value at restart.
struct Rejoin {
  bool finished = false;
  Nanos rejoin_ns = 0;
};

sim::Task<void> restart_and_time(core::System& sys, core::GroupId g, int rank,
                                 Rejoin& out, Phases& phases) {
  auto& sim = sys.simulator();
  core::Tmp target = 0;
  for (int r = 0; r < kReplicas; ++r) {
    if (r != rank) target = std::max(target, sys.replica(g, r).last_executed());
  }
  auto span = phases.tracer().span("perfbench", "restart_replica", kBenchTid);
  const Nanos t0 = sim.now();
  sys.restart_replica(g, rank);
  auto& victim = sys.replica(g, rank);
  while (victim.rejoining() || victim.last_executed() < target) {
    co_await sim.sleep(100);  // ns
  }
  out.rejoin_ns = sim.now() - t0;
  out.finished = true;
}

/// Runs the simulation in small steps until `done()` holds or `limit` of
/// virtual time passes; returns whether `done()` held.
template <typename Pred>
bool run_until_true(sim::Simulator& sim, Nanos limit, Pred done) {
  const Nanos deadline = sim.now() + limit;
  while (!done()) {
    if (sim.now() >= deadline) return false;
    sim.run_for(sim::us(100));
  }
  return true;
}

void merge(sim::LatencyRecorder& into, const sim::LatencyRecorder& from) {
  for (const Nanos v : from.samples()) into.record(v);
}

/// Nearest-rank percentile over a telemetry histogram, reported as the
/// upper bound of the bucket holding it (the histogram's resolution).
double hist_percentile_us(const std::vector<const telemetry::Histogram*>& hs,
                          double p) {
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;
  std::int64_t max = 0;
  const telemetry::Histogram* shape = nullptr;
  for (const auto* h : hs) {
    if (counts.empty()) counts.assign(h->counts().size(), 0);
    for (std::size_t i = 0; i < h->counts().size(); ++i) {
      counts[i] += h->counts()[i];
    }
    total += h->count();
    max = std::max(max, h->max());
    shape = h;
  }
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      const auto& bounds = shape->bounds();
      return to_us(i < bounds.size() ? std::min(bounds[i], max) : max);
    }
  }
  return to_us(max);
}

std::string replica_label(int g, int r) {
  return "g" + std::to_string(g) + ".r" + std::to_string(r);
}

/// Everything one cell shares across workloads: its system, the op log
/// of the measured window, the phase spans and the result being built.
class Cell {
 public:
  Cell(const CellConfig& cfg, sim::Simulator& sim, rdma::Fabric& fabric,
       core::System& sys)
      : log(kPartitions), cfg_(cfg), sim_(sim), fabric_(fabric), sys_(sys),
        phases_(sim, cfg.traced) {
    if (cfg_.traced) {
      fabric_.telemetry().enable_all();
      history_.attach(sys_);
    }
  }

  Phases& phases() { return phases_; }
  faultlab::HistoryRecorder& history() { return history_; }
  CellResult& result() { return out_; }

  /// Warm-up until virtual time `until`.
  void warm_up(Nanos until) {
    out_.warmup_s = phases_.run("warmup", [&] { sim_.run_until(until); });
    std::vector<double> ref(3);
    for (double& r : ref) r = reference_seconds();
    std::sort(ref.begin(), ref.end());
    out_.setup_ref_s = ref[1];
  }

  /// Measures [now, now + window): clears every statistic, runs the window
  /// in kSampleStep steps (sampling the event-queue depth), and records
  /// the window's event count and, per kRateSlice, its ops and wall time.
  /// After each slice the reference work runs once, outside the slice's
  /// timing (the "measure" span's wall_us includes it).
  void measure(Nanos window) {
    sys_.reset_stats();
    fabric_.reset_stats();
    fabric_.telemetry().metrics.reset_values();
    fabric_.telemetry().tracer.clear();
    fabric_.telemetry().tracer.set_capacity(kTraceCapacity);
    pages_at_start_ = pages_written();
    window_start_ = sim_.now();
    window_ = window;
    log.start(window_start_);
    const std::uint64_t ev0 = sim_.events_executed();
    double depth_sum = 0.0;
    std::uint64_t samples = 0;
    phases_.run("measure", [&] {
      const Nanos end = window_start_ + window;
      Nanos slice_end = window_start_ + kRateSlice;
      auto wall0 = Clock::now();
      std::uint64_t ops0 = 0;
      while (sim_.now() < end) {
        sim_.run_until(std::min(sim_.now() + kSampleStep, end));
        depth_sum += static_cast<double>(sim_.pending_events());
        ++samples;
        if (sim_.now() >= slice_end || sim_.now() >= end) {
          Slice s;
          s.wall_s = seconds_since(wall0);
          s.ops = log.latency().count() - ops0;
          ops0 += s.ops;
          s.ref_s = reference_seconds();
          out_.window_wall_s += s.wall_s;
          out_.slices.push_back(s);
          wall0 = Clock::now();
          slice_end += kRateSlice;
        }
      }
    });
    out_.events = sim_.events_executed() - ev0;
    out_.fabric_nodes = fabric_.node_count();
    out_.qp_fanout = kPartitions * kReplicas;
    log.stop();
    out_.layers["sim.queue_depth_mean"] =
        depth_sum / static_cast<double>(samples);
    collect_window();
  }

  /// Window-scoped end-to-end and per-layer values. Called right after
  /// the window, before any post-window phase touches the counters.
  void collect_window() {
    auto& L = out_.layers;
    const auto& lat = log.latency();
    out_.ops = lat.count();
    out_.attempted = log.attempted();
    out_.failed = log.failed();
    const double ops = static_cast<double>(std::max<std::uint64_t>(out_.ops, 1));
    out_.sim["sim_tput_ops"] =
        static_cast<double>(out_.ops) / sim::to_sec(window_);
    out_.sim["sim_p50_us"] = pct_us(lat, 50);
    out_.sim["sim_p99_us"] = pct_us(lat, 99);
    out_.sim["sim_p999_us"] = pct_us(lat, 99.9);
    L["client.latency_samples"] = static_cast<double>(out_.ops);
    L["client.failed_frac"] =
        out_.attempted == 0 ? 0.0
                            : static_cast<double>(out_.failed) /
                                  static_cast<double>(out_.attempted);
    L["sim.events_per_op"] = static_cast<double>(out_.events) / ops;

    const auto& fs = fabric_.stats();
    L["rdma.verbs_per_op"] = static_cast<double>(fs.reads + fs.writes) / ops;
    L["rdma.bytes_per_op"] =
        static_cast<double>(fs.read_bytes + fs.write_bytes) / ops;
    L["rdma.completion_errors"] = static_cast<double>(fs.failures);

    sim::LatencyRecorder order, coord, exec;
    std::uint64_t multi = 0, delayed = 0, dedup = 0, ckpts = 0, deferred = 0;
    for (int g = 0; g < kPartitions; ++g) {
      for (int r = 0; r < kReplicas; ++r) {
        auto& rep = sys_.replica(g, r);
        merge(order, rep.ordering_lat());
        merge(coord, rep.coord_lat());
        merge(exec, rep.exec_lat());
        multi += rep.coord_stats().multi_partition;
        delayed += rep.coord_stats().delayed;
        dedup += rep.dedup_hits();
        ckpts += rep.checkpoints_completed();
        deferred += rep.checkpoints_deferred();
      }
    }
    L["amcast.order_p50_us"] = pct_us(order, 50);
    L["amcast.order_p99_us"] = pct_us(order, 99);
    L["core.coord_p50_us"] = pct_us(coord, 50);
    L["core.coord_p99_us"] = pct_us(coord, 99);
    L["core.coord_delayed_frac"] =
        multi == 0 ? 0.0
                   : static_cast<double>(delayed) / static_cast<double>(multi);
    L["core.exec_p50_us"] = pct_us(exec, 50);
    L["core.dedup_hits"] = static_cast<double>(dedup);
    L["durable.checkpoints"] = static_cast<double>(ckpts);
    L["durable.checkpoints_deferred"] = static_cast<double>(deferred);
    L["durable.pages_written"] =
        static_cast<double>(pages_written() - pages_at_start_);

    std::uint64_t retries = 0, busy = 0, torn = 0;
    for (std::uint32_t c = 0; c < sys_.client_count(); ++c) {
      auto& cl = sys_.client(c);
      retries += cl.retries();
      busy += cl.busy_replies();
      torn += cl.fastread_torn_retries();
    }
    L["client.retries_per_op"] = static_cast<double>(retries) / ops;
    L["client.busy_replies"] = static_cast<double>(busy);
    L["client.fastread_torn_retries_total"] = static_cast<double>(torn);

    if (cfg_.traced) collect_telemetry(ops);
  }

  /// Ends the outage tracking once the load has stopped.
  void load_stopped() {
    log.stop_tracking(sim_.now());
    out_.layers["client.outage_us"] = to_us(log.outage());
  }

  /// State-transfer figures, read once the rejoin under test finished.
  void collect_rejoin(const Rejoin& rj, core::GroupId g, int rank) {
    auto& L = out_.layers;
    out_.sim["rejoin_us"] = to_us(rj.rejoin_ns);
    auto& victim = sys_.replica(g, rank);
    L["xfer.catchup_bytes"] =
        static_cast<double>(victim.restart_catchup_bytes());
    L["xfer.restored_from_checkpoint"] =
        victim.restored_from_checkpoint() ? 1.0 : 0.0;
    std::uint64_t full = 0, delta = 0;
    for (int r = 0; r < kReplicas; ++r) {
      full += sys_.replica(g, r).xfer_applied_full_bytes();
      delta += sys_.replica(g, r).xfer_applied_delta_bytes();
    }
    L["xfer.applied_full_bytes"] = static_cast<double>(full);
    L["xfer.applied_delta_bytes"] = static_cast<double>(delta);
  }

  /// Generic output checks: every group's live replicas converged, no
  /// client hangs, and (traced) the multicast and exactly-once oracles
  /// over the recorded history.
  void check(const faultlab::CrashSet& crashed) {
    phases_.run("checks", [&] {
      std::vector<faultlab::Violation> v;
      faultlab::check_store_convergence(sys_, v);
      if (cfg_.traced) {
        auto props = faultlab::check_amcast_properties(history_, sys_, crashed);
        v.insert(v.end(), props.begin(), props.end());
        faultlab::check_exactly_once(history_, v);
      }
      for (const auto& viol : v) fail(viol.oracle + ": " + viol.detail);
      for (std::uint32_t c = 0; c < sys_.client_count(); ++c) {
        if (sys_.client(c).in_flight()) {
          fail("client " + std::to_string(c) + " hung after quiesce");
        }
      }
    });
  }

  void fail(std::string what) { out_.violations.push_back(std::move(what)); }

  /// Final step of a traced cell: the telemetry trace merged with the
  /// benchmark's own spans into one Chrome trace_event array.
  void finish_trace() {
    if (!cfg_.traced) return;
    std::string a = fabric_.telemetry().tracer.chrome_json();
    std::string b = phases_.tracer().chrome_json();
    while (!a.empty() && a.back() != ']') a.pop_back();
    a.pop_back();  // drop ']'
    out_.trace_json = a + "," + b.substr(b.find('[') + 1);
  }

  OpLog log;

 private:
  std::uint64_t pages_written() {
    std::uint64_t n = 0;
    for (int g = 0; g < kPartitions; ++g) {
      for (int r = 0; r < kReplicas; ++r) {
        if (auto* st = sys_.replica(g, r).durable_store()) {
          n += st->device().pages_written();
        }
      }
    }
    return n;
  }

  /// Per-layer values only the telemetry registry holds (traced cells).
  void collect_telemetry(double ops) {
    auto& L = out_.layers;
    auto& m = fabric_.telemetry().metrics;
    auto sum = [&](const char* sub, const char* name) {
      std::uint64_t n = 0;
      for (int g = 0; g < kPartitions; ++g) {
        for (int r = 0; r < kReplicas; ++r) {
          n += m.counter(sub, name, replica_label(g, r)).value();
        }
      }
      return static_cast<double>(n);
    };
    auto hists = [&](const char* sub, const char* name) {
      std::vector<const telemetry::Histogram*> hs;
      for (int g = 0; g < kPartitions; ++g) {
        for (int r = 0; r < kReplicas; ++r) {
          hs.push_back(&m.histogram(sub, name, replica_label(g, r)));
        }
      }
      return hs;
    };
    L["amcast.deliveries_per_op"] = sum("amcast", "deliveries") / ops;
    double batches = 0.0, batched = 0.0;
    for (const auto* h : hists("amcast", "batch_size")) {
      batches += static_cast<double>(h->count());
      batched += static_cast<double>(h->sum());
    }
    L["amcast.batch_size_mean"] = batches == 0.0 ? 0.0 : batched / batches;
    L["amcast.shed"] = sum("amcast", "shed");
    L["amcast.takeovers"] = sum("amcast", "takeovers");
    L["amcast.reproposals"] = sum("amcast", "reproposals");
    L["core.remote_reads_per_op"] = sum("core", "remote_reads") / ops;
    const double hits = sum("core", "addr_cache_hits");
    const double misses = sum("core", "addr_cache_misses");
    L["core.addr_cache_hit_frac"] =
        hits + misses == 0.0 ? 0.0 : hits / (hits + misses);
    L["core.gate_wait_p99_us"] =
        hist_percentile_us(hists("core", "gate_wait_ns"), 99);
    L["rdma.nic_queue_wait_p99_us"] =
        hist_percentile_us({&m.histogram("rdma", "nic_queue_wait_ns")}, 99);
  }

  CellConfig cfg_;
  sim::Simulator& sim_;
  rdma::Fabric& fabric_;
  core::System& sys_;
  Phases phases_;
  faultlab::HistoryRecorder history_;
  CellResult out_;
  Nanos window_start_ = 0;
  Nanos window_ = 1;
  std::uint64_t pages_at_start_ = 0;
};

/// How long the closed-loop workloads run with a crashed follower.
constexpr Nanos kProbeDown = sim::ms(5);

/// Closed-loop clients stop issuing after `stop`; `running` counts the
/// loops still inside an op.
struct LoopControl {
  bool stop = false;
  int running = 0;
};

/// The rejoin_us probe: restarts the crashed replica (g, rank) and times
/// its rejoin.
void rejoin_probe(Cell& cell, core::System& sys, core::GroupId g, int rank) {
  Rejoin rj;
  sys.simulator().spawn(restart_and_time(sys, g, rank, rj, cell.phases()));
  if (!run_until_true(sys.simulator(), sim::ms(500),
                      [&] { return rj.finished; })) {
    cell.fail("restarted replica did not catch up within 500ms");
  }
  cell.collect_rejoin(rj, g, rank);
}

/// Closing phase of the closed-loop workloads, shaped like kv-crash's:
/// a follower of partition 0 crashes while the clients still run, the
/// clients stop kProbeDown later (the outage tracking covers that time:
/// on kv-fast a dead follower stalls the partition's writes until the
/// fast path falls back and the write gate's lease expires), and once
/// they have quiesced the follower is restarted and its rejoin (catching
/// up on what it missed) is timed. Then the outputs are checked.
///
/// The restart waits for the quiesce on purpose: a replica restarted
/// while its clients keep writing can rejoin with a diverged store (it
/// misses or repeats a few commands at the same last_executed()), which
/// the convergence check then reports. See README.md.
void probe_and_check(Cell& cell, core::System& sys, LoopControl& ctl) {
  auto& sim = sys.simulator();
  constexpr core::GroupId kGroup = 0;
  constexpr int kRank = kReplicas - 1;  // a follower
  sim.spawn(crash_at(sys, kGroup, kRank, sim.now(), cell.phases()));
  sim.run_for(kProbeDown);
  ctl.stop = true;
  cell.load_stopped();
  if (!run_until_true(sim, sim::ms(50), [&] { return ctl.running == 0; })) {
    cell.fail("clients did not quiesce");
  }
  rejoin_probe(cell, sys, kGroup, kRank);
  sim.run_for(sim::ms(1));  // let trailing replication settle
  cell.check({{kGroup, kRank}});
}

// --------------------------------------------------------------------
// tpcc: the paper's headline workload (fig4's TPC-C configuration).
// --------------------------------------------------------------------

constexpr int kTpccClientsPerPartition = 8;
constexpr Nanos kTpccWarmup = sim::ms(5);
/// Long enough that ~40 ops lie beyond sim_p999_us (at 200 ms its spread
/// over ten seeds reached 0.10).
constexpr Nanos kTpccWindow = sim::ms(400);

struct TpccTally {
  sim::LatencyRecorder new_order;
  std::uint64_t multi = 0;
  std::uint64_t all = 0;
};

sim::Task<void> tpcc_client(sim::Simulator& sim, Cell& cell, LoopControl& ctl,
                            TpccTally& tally, core::Client& client,
                            tpcc::WorkloadGen gen) {
  ++ctl.running;
  while (!ctl.stop) {
    const tpcc::GeneratedRequest req = gen.next();
    const Nanos t0 = sim.now();
    const auto res = co_await client.submit(req.dst, req.kind, req.payload);
    const Nanos lat = sim.now() - t0;
    const bool ok = res.status == core::SubmitStatus::kOk;
    if (cell.log.recording()) {
      ++tally.all;
      if (amcast::dst_count(req.dst) > 1) ++tally.multi;
      if (ok && req.kind == tpcc::kNewOrder) tally.new_order.record(lat);
    }
    cell.log.done(req.dst, sim.now(), lat, ok,
                  req.kind != tpcc::kOrderStatus &&
                      req.kind != tpcc::kStockLevel);
  }
  --ctl.running;
}

CellResult run_tpcc(const CellConfig& cfg) {
  const auto t0 = Clock::now();
  const tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  core::HeronConfig hcfg;
  hcfg.mode = core::Mode::kApp;
  harness::TpccCluster cluster(kPartitions, kReplicas, scale, hcfg,
                               amcast::Config{}, cfg.seed, rdma::LatencyModel{});
  auto& sim = cluster.simulator();
  Cell cell(cfg, sim, cluster.fabric(), cluster.system());
  LoopControl ctl;
  TpccTally tally;
  tpcc::WorkloadConfig wcfg;
  wcfg.partitions = kPartitions;
  wcfg.scale = scale;
  std::uint64_t n = 0;
  for (int p = 0; p < kPartitions; ++p) {
    for (int c = 0; c < kTpccClientsPerPartition; ++c) {
      tpcc::WorkloadGen gen(wcfg, static_cast<std::uint32_t>(p),
                            cfg.seed * 7919 + ++n);
      sim.spawn(tpcc_client(sim, cell, ctl, tally,
                            cluster.system().add_client(), gen));
    }
  }
  auto& out = cell.result();
  out.build_s = seconds_since(t0);
  cell.phases().note("build", out.build_s);
  cell.warm_up(kTpccWarmup);
  cell.measure(kTpccWindow);
  out.layers["tpcc.neworder_p50_us"] = pct_us(tally.new_order, 50);
  out.layers["tpcc.multi_frac"] =
      tally.all == 0 ? 0.0
                     : static_cast<double>(tally.multi) /
                           static_cast<double>(tally.all);
  probe_and_check(cell, cluster.system(), ctl);
  cell.finish_trace();
  return std::move(out);
}

// --------------------------------------------------------------------
// kv-fast: leased one-sided reads and writes (fast paths), bank app.
// --------------------------------------------------------------------

constexpr std::uint64_t kKvFastKeysPerPartition = 128;
constexpr int kKvFastClientsPerPartition = 8;
constexpr double kKvFastWriteRatio = 0.10;
constexpr Nanos kKvFastWarmup = sim::ms(60);
constexpr Nanos kKvFastWindow = sim::ms(80);

struct KvFastTally {
  sim::LatencyRecorder fast_read, fast_write, ordered;
  std::uint64_t reads = 0, writes = 0, fast_reads = 0, fast_writes = 0;
  /// Longest fast-write chain committed per key (chain counter of the
  /// newest fast tmp). LinearChecker follows at most 64 chain links, so a
  /// key leaves the check before its chain gets that long.
  std::vector<std::uint64_t> chain =
      std::vector<std::uint64_t>(kKvFastKeysPerPartition * kPartitions, 0);
};

/// Chain counter of a fast tmp (see core::next_fast_tmp).
constexpr std::uint64_t chain_of(core::Tmp tmp) {
  return (tmp & ~core::kFastTmpBit) >> 23;
}
/// Keys stop being checked once their chain reaches these lengths. A
/// checked read can see at most one fast write beyond the longest
/// completed one (each key has a single, closed-loop writer).
constexpr std::uint64_t kCheckReadsBelowChain = 48;
constexpr std::uint64_t kCheckWritesBelowChain = 60;

sim::Task<void> kv_fast_client(sim::Simulator& sim, Cell& cell,
                               LoopControl& ctl, KvFastTally& tally,
                               faultlab::LinearChecker* lin,
                               core::Client& client, std::uint64_t seed,
                               std::uint64_t slice_start,
                               std::uint64_t slice_size) {
  ++ctl.running;
  constexpr auto kTotal = kKvFastKeysPerPartition * kPartitions;
  sim::Rng rng(seed);
  sim::ZipfGen zipf(kTotal, 0.99);
  auto home = [](core::Oid oid) {
    return static_cast<core::GroupId>(oid % kPartitions);
  };
  // Warm-up read pass: one seeding ordered read per key fills the
  // client's address cache, own slice first (write_sweep's method), then
  // the rest of the key space, so the measured mix runs one-sided.
  for (std::uint64_t i = 0; i < kTotal && !ctl.stop; ++i) {
    const core::Oid oid = (slice_start + i) % kTotal;
    (void)co_await client.read(home(oid), oid);
  }
  while (!ctl.stop) {
    const Nanos t0 = sim.now();
    const bool rec = cell.log.recording();
    if (rng.chance(kKvFastWriteRatio)) {
      const core::Oid oid = slice_start + rng.bounded(slice_size);
      const auto bal = static_cast<std::int64_t>(rng.bounded(100000));
      const faultlab::Account value{bal};
      const faultlab::DepositReq ordered{oid, bal};
      const auto res = co_await client.write(
          home(oid), oid, std::as_bytes(std::span(&value, 1)), faultlab::kSet,
          std::as_bytes(std::span(&ordered, 1)));
      const bool ok = res.status == core::SubmitStatus::kOk &&
                      res.reply_status == 0;
      if (rec) {
        ++tally.writes;
        if (res.fast) ++tally.fast_writes;
        (res.fast ? tally.fast_write : tally.ordered).record(sim.now() - t0);
      }
      if (res.fast) {
        auto& chain = tally.chain[oid];
        chain = std::max(chain, chain_of(res.tmp));
      }
      if (lin != nullptr) {
        if (res.fast) {
          if (chain_of(res.tmp) < kCheckWritesBelowChain) {
            lin->note_fast_write(oid, res.tmp, res.base_tmp, t0, sim.now());
          }
        } else {
          lin->note_write(oid, client.id(), res.session_seq, t0, sim.now(),
                          res.status);
        }
      }
      cell.log.done(amcast::dst_of(home(oid)), sim.now(), sim.now() - t0, ok,
                    /*write=*/true);
    } else {
      const core::Oid oid = zipf.next(rng);
      const auto res = co_await client.read(home(oid), oid);
      const bool ok =
          res.submit_status == core::SubmitStatus::kOk && res.status == 0;
      if (rec) {
        ++tally.reads;
        if (res.fast) ++tally.fast_reads;
        (res.fast ? tally.fast_read : tally.ordered).record(sim.now() - t0);
      }
      if (lin != nullptr && ok && tally.chain[oid] < kCheckReadsBelowChain) {
        lin->note_read(oid, res.tmp, t0, sim.now(), res.fast);
      }
      cell.log.done(amcast::dst_of(home(oid)), sim.now(), sim.now() - t0, ok,
                    /*write=*/false);
    }
  }
  --ctl.running;
}

CellResult run_kv_fast(const CellConfig& cfg) {
  const auto t0 = Clock::now();
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, cfg.seed);
  core::HeronConfig hcfg;
  hcfg.object_region_bytes = 4u << 20;
  hcfg.lease_duration = sim::ms(1);
  hcfg.fast_writes = true;
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] {
        return std::make_unique<faultlab::BankApp>(kPartitions,
                                                   kKvFastKeysPerPartition);
      },
      hcfg);
  Cell cell(cfg, sim, fabric, sys);
  sys.start();
  LoopControl ctl;
  KvFastTally tally;
  faultlab::LinearChecker lin;
  constexpr int kClients = kKvFastClientsPerPartition * kPartitions;
  constexpr std::uint64_t kSlice =
      kKvFastKeysPerPartition * kPartitions / kClients;
  for (int c = 0; c < kClients; ++c) {
    sim.spawn(kv_fast_client(
        sim, cell, ctl, tally, cfg.traced ? &lin : nullptr, sys.add_client(),
        cfg.seed * 1000 + static_cast<std::uint64_t>(c),
        kSlice * static_cast<std::uint64_t>(c), kSlice));
  }
  auto& out = cell.result();
  out.build_s = seconds_since(t0);
  cell.phases().note("build", out.build_s);
  cell.warm_up(kKvFastWarmup);
  cell.measure(kKvFastWindow);
  auto& L = out.layers;
  auto frac = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  L["client.fastread_hit_frac"] = frac(tally.fast_reads, tally.reads);
  L["client.fastwrite_commit_frac"] = frac(tally.fast_writes, tally.writes);
  L["client.fastread_torn_retries_per_read"] =
      L["client.fastread_torn_retries_total"] /
      static_cast<double>(std::max<std::uint64_t>(tally.reads, 1));
  L["client.fast_read_p50_us"] = pct_us(tally.fast_read, 50);
  L["client.fast_write_p50_us"] = pct_us(tally.fast_write, 50);
  L["client.ordered_p50_us"] = pct_us(tally.ordered, 50);
  probe_and_check(cell, sys, ctl);
  if (cfg.traced) {
    for (auto& v : lin.check(cell.history())) {
      cell.fail("linearizability: " + v.detail);
    }
  }
  // No slot may stay invalidated (odd seqlock) once the workload drained.
  for (int g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      auto& store = sys.replica(g, r).store();
      store.for_each_oid([&](core::Oid oid) {
        if (store.seqlock(oid) & 1) {
          cell.fail("odd seqlock on oid " + std::to_string(oid));
        }
      });
    }
  }
  cell.finish_trace();
  return std::move(out);
}

// --------------------------------------------------------------------
// kv-crash: open-loop bank over pooled sessions with a leader crash.
// --------------------------------------------------------------------

constexpr std::uint64_t kCrashKeysPerPartition = 65536;
constexpr std::uint32_t kSessions = 1024;
constexpr double kCrashMeanGapNs = 5000.0;  // 200k arrivals per second
constexpr double kTransferShare = 0.10;
constexpr Nanos kPatience = sim::ms(50);
constexpr Nanos kCrashWarmup = sim::ms(15);
constexpr Nanos kCrashWindow = sim::ms(600);
constexpr Nanos kCrashAfter = sim::ms(30);  // into the window
constexpr std::int64_t kInitialBalance = 1000;

struct Job {
  Nanos due = 0;
  bool transfer = false;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

struct Session {
  explicit Session(sim::Simulator& sim) : wake(sim) {}
  sim::Notifier wake;
};

struct CrashCtx {
  explicit CrashCtx(sim::Simulator& sim) {
    sessions.reserve(kSessions);
    for (std::uint32_t s = 0; s < kSessions; ++s) sessions.emplace_back(sim);
  }
  std::vector<Session> sessions;
  std::vector<std::uint32_t> idle;
  std::deque<Job> queue;
  bool stop = false;
  int busy = 0;
  // Whole-run accounting (not only the window).
  std::uint64_t arrivals = 0, served = 0, timeouts = 0, overloaded = 0,
                abandoned = 0;
  std::uint64_t deposits_ok = 0, deposits_unknown = 0;
  sim::LatencyRecorder session_wait;  // window only
};

sim::Task<void> arrival_source(sim::Simulator& sim, CrashCtx& cx,
                               std::uint64_t seed) {
  sim::Rng rng(seed);
  while (!cx.stop) {
    const double gap = rng.exponential(kCrashMeanGapNs);
    co_await sim.sleep(gap < 1.0 ? 1 : static_cast<Nanos>(gap));
    if (cx.stop) break;
    Job job{.due = sim.now()};
    auto account = [&](std::uint64_t p) {
      return rng.bounded(kCrashKeysPerPartition) * kPartitions + p;
    };
    if (rng.chance(kTransferShare)) {
      // Transfers run between two of partitions 1..3, never through the
      // crashed partition 0: a remote read whose address resolution hits
      // the crashed leader returns no value, and the app then executes on
      // an empty read set (null dereference). See README.md.
      constexpr std::uint64_t kOthers = kPartitions - 1;
      const std::uint64_t p = rng.bounded(kOthers);
      const std::uint64_t q = (p + 1 + rng.bounded(kOthers - 1)) % kOthers;
      job.transfer = true;
      job.a = account(1 + p);
      job.b = account(1 + q);
    } else {
      job.a = account(rng.bounded(kPartitions));
    }
    ++cx.arrivals;
    cx.queue.push_back(job);
    if (!cx.idle.empty()) {
      const std::uint32_t s = cx.idle.back();
      cx.idle.pop_back();
      cx.sessions[s].wake.notify_all();
    }
  }
}

sim::Task<void> session_worker(sim::Simulator& sim, Cell& cell, CrashCtx& cx,
                               core::Client& client, std::uint32_t me) {
  for (;;) {
    if (cx.queue.empty()) {
      if (cx.stop) co_return;
      cx.idle.push_back(me);
      co_await cx.sessions[me].wake.wait();
      continue;
    }
    const Job job = cx.queue.front();
    cx.queue.pop_front();
    const Nanos waited = sim.now() - job.due;
    if (cell.log.recording()) cx.session_wait.record(waited);
    const amcast::DstMask dst =
        amcast::dst_of(static_cast<core::GroupId>(job.a % kPartitions)) |
        (job.transfer
             ? amcast::dst_of(static_cast<core::GroupId>(job.b % kPartitions))
             : 0);
    if (waited > kPatience) {
      ++cx.abandoned;
      cell.log.abandoned();
      continue;
    }
    ++cx.busy;
    core::Client::Result res;
    if (job.transfer) {
      const faultlab::TransferReq req{job.a, job.b, 2};
      res = co_await client.submit(dst, faultlab::kTransfer,
                                   std::as_bytes(std::span(&req, 1)));
    } else {
      const faultlab::DepositReq req{job.a, 1};
      res = co_await client.submit(dst, faultlab::kDeposit,
                                   std::as_bytes(std::span(&req, 1)));
    }
    --cx.busy;
    const bool ok = res.status == core::SubmitStatus::kOk;
    if (ok) {
      ++cx.served;
    } else if (res.status == core::SubmitStatus::kOverloaded) {
      ++cx.overloaded;
    } else {
      ++cx.timeouts;
    }
    if (!job.transfer) ++(ok ? cx.deposits_ok : cx.deposits_unknown);
    cell.log.done(dst, sim.now(), sim.now() - job.due, ok, /*write=*/true);
  }
}

CellResult run_kv_crash(const CellConfig& cfg) {
  const auto t0 = Clock::now();
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, cfg.seed);
  core::HeronConfig hcfg;
  hcfg.object_region_bytes = 16u << 20;
  hcfg.client_attempt_timeout = sim::ms(1);
  hcfg.client_max_retries = 12;
  hcfg.client_retry_backoff = sim::us(50);
  hcfg.client_retry_backoff_max = sim::ms(2);
  hcfg.durable.checkpoint_interval = sim::ms(10);
  amcast::Config acfg;
  acfg.max_clients = kSessions;  // inbox capacity must fit the pool
  acfg.max_batch = 8;
  acfg.admission_window = 64;
  acfg.adaptive_admission = true;
  acfg.admission_min_window = 2;
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] {
        return std::make_unique<faultlab::BankApp>(
            kPartitions, kCrashKeysPerPartition, kInitialBalance);
      },
      hcfg, acfg);
  Cell cell(cfg, sim, fabric, sys);
  sys.start();
  CrashCtx cx(sim);
  for (std::uint32_t s = 0; s < kSessions; ++s) {
    sim.spawn(session_worker(sim, cell, cx, sys.add_client(), s));
  }
  sim.spawn(arrival_source(sim, cx, cfg.seed * 7919 + 17));
  // The leader of partition 0 at crash time is rank 0: no fault precedes.
  constexpr core::GroupId kGroup = 0;
  constexpr int kLeader = 0;
  sim.spawn(crash_at(sys, kGroup, kLeader, kCrashWarmup + kCrashAfter,
                     cell.phases()));
  auto& out = cell.result();
  out.build_s = seconds_since(t0);
  cell.phases().note("build", out.build_s);
  cell.warm_up(kCrashWarmup);
  if (!sys.amcast().endpoint(kGroup, kLeader).is_leader()) {
    cell.fail("g0.r0 is not the partition-0 leader before the crash");
  }
  cell.measure(kCrashWindow);
  out.layers["client.session_wait_p99_us"] =
      pct_us(cx.session_wait, 99);
  cx.stop = true;
  cell.load_stopped();
  for (const std::uint32_t s : cx.idle) cx.sessions[s].wake.notify_all();
  cx.idle.clear();
  if (!run_until_true(sim, sim::ms(200),
                      [&] { return cx.queue.empty() && cx.busy == 0; })) {
    cell.fail("sessions did not drain");
  }
  rejoin_probe(cell, sys, kGroup, kLeader);
  sim.run_for(sim::ms(1));  // let trailing replication settle
  cell.check({{kGroup, kLeader}});

  // Arrival accounting: every arrival ended exactly one way.
  if (cx.served + cx.timeouts + cx.overloaded + cx.abandoned != cx.arrivals) {
    cell.fail("arrival accounting: served+failed+abandoned != arrivals");
  }
  // Conservation: transfers move money, each deposit adds 1. Deposits
  // that timed out may or may not have executed.
  const std::int64_t initial = kInitialBalance *
                               static_cast<std::int64_t>(kCrashKeysPerPartition) *
                               kPartitions;
  const auto lo = initial + static_cast<std::int64_t>(cx.deposits_ok);
  const auto hi = lo + static_cast<std::int64_t>(cx.deposits_unknown);
  for (int r = 0; r < kReplicas; ++r) {
    const std::int64_t total =
        faultlab::bank_total(sys, r, kCrashKeysPerPartition);
    if (total < lo || total > hi) {
      cell.fail("bank conservation at rank " + std::to_string(r) + ": total " +
                std::to_string(total) + " outside [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "]");
    }
  }
  cell.finish_trace();
  return std::move(out);
}

}  // namespace

CellResult run_cell(const CellConfig& cfg) {
  switch (cfg.workload) {
    case Workload::kTpcc: return run_tpcc(cfg);
    case Workload::kKvFast: return run_kv_fast(cfg);
    case Workload::kKvCrash: return run_kv_crash(cfg);
  }
  return {};
}

}  // namespace perfbench
