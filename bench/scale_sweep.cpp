// Million-client open-loop scale sweep.
//
// An open-loop sweep over a 4x3 bank deployment. Unlike
// the closed-loop figure benches (N clients in think/submit loops, offered
// load capped by N), arrivals here come from an external arrival process —
// every arrival is a distinct logical client that wants exactly one
// command — so offered load is set by the process, not by how fast the
// system answers. 10^6 logical clients per headline cell are multiplexed
// over a fixed pool of real sessions: an arrival grabs an idle session or
// waits FIFO; a logical client whose queue wait exceeds its patience
// abandons (counted, never submitted). The sweep crosses
//   arrival process in {poisson, mmpp}   (mmpp = 2-state Markov-modulated
//     Poisson: same average rate, 8x rate ratio between burst and lull)
//   key skew in {uniform, zipfian (theta .99, spread over partitions),
//     hotpart (zipfian keys + 85% of arrivals aimed at partition 0)}
// Reporting is SLO-style: goodput = completions within the p50 / p99
// latency targets (end-to-end: arrival -> reply, queue wait included),
// plus abandoned / timeout / busy accounting that must sum exactly to the
// arrival count (gated). Uniform cells must stay healthy (gated: >= 90%
// of arrivals complete within the p99 target); hotpart cells are expected
// to shed — that is the stress, not a failure.
//
// Latencies use the LatencyRecorder histogram mode (~30 KB fixed) and the
// kernel is watched via telemetry::KernelStats, so the report also says
// how deep the event queue ran, how many events each cell cost and how
// many of them the simulator ran per wall-second (Mev/s).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/report.hpp"
#include "faultlab/bank.hpp"
#include "rdma/fabric.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "telemetry/json.hpp"
#include "telemetry/kernel.hpp"

using namespace heron;

namespace {

struct Options {
  bool quick = false;
  std::uint64_t seed = 23;
  std::uint64_t clients = 0;  // 0 = default for the mode
  std::string json_path = "BENCH_scale.json";
};

constexpr int kPartitions = 4;
constexpr int kReplicas = 3;
constexpr std::uint64_t kKeysPerPartition = 16384;
constexpr sim::Nanos kSloP50 = sim::us(250);
constexpr sim::Nanos kSloP99 = sim::ms(1);
constexpr sim::Nanos kPatience = sim::ms(2);
// 250k arrivals/s across 4 partitions ~= 65% of measured execution
// capacity (~93k cmds/s per partition leader with max_batch 8 at the
// configured CPU costs); uniform cells run comfortably, while the
// 85%-to-one-partition hotpart cells overload partition 0 by ~3.4x its
// capacity — that cell is *supposed* to shed.
constexpr double kMeanGapNs = 4000.0;

enum class Arrival { kPoisson, kMmpp };
enum class Skew { kUniform, kZipfian, kHotPartition };

const char* arrival_name(Arrival a) {
  return a == Arrival::kPoisson ? "poisson" : "mmpp";
}
const char* skew_name(Skew s) {
  switch (s) {
    case Skew::kUniform: return "uniform";
    case Skew::kZipfian: return "zipfian";
    default: return "hotpart";
  }
}

/// Two-state Markov-modulated Poisson arrival process. Burst state runs
/// 2.8x the base rate, lull 0.35x, with exponential dwell times weighted
/// so the long-run average rate matches the plain Poisson cells — same
/// offered load, very different short-term variance.
class ArrivalProcess {
 public:
  ArrivalProcess(Arrival kind, double mean_gap_ns, sim::Rng& rng)
      : kind_(kind), mean_gap_(mean_gap_ns), rng_(&rng) {}

  sim::Nanos next_gap(sim::Nanos now) {
    double gap = mean_gap_;
    if (kind_ == Arrival::kMmpp) {
      if (now >= dwell_until_) {
        burst_ = !burst_;
        const double dwell =
            rng_->exponential(burst_ ? 1.0e6 : 3.0e6);  // 1 ms / 3 ms mean
        dwell_until_ = now + static_cast<sim::Nanos>(dwell) + 1;
      }
      // Weighted average: (2.8 * 1 + 0.35 * 3) / 4 = 0.9625x base rate.
      gap = burst_ ? mean_gap_ / 2.8 : mean_gap_ / 0.35;
    }
    const double g = rng_->exponential(gap);
    return g < 1.0 ? 1 : static_cast<sim::Nanos>(g);
  }

 private:
  Arrival kind_;
  double mean_gap_;
  sim::Rng* rng_;
  bool burst_ = false;
  sim::Nanos dwell_until_ = 0;
};

/// Key chooser: picks a partition and an account homed there (BankApp
/// homes oid at oid % partitions, so account = rank * partitions + p).
class KeyChooser {
 public:
  KeyChooser(Skew skew, sim::Rng& rng)
      : skew_(skew),
        rng_(&rng),
        global_(kKeysPerPartition * kPartitions, 0.99),
        local_(kKeysPerPartition, 0.99) {}

  std::uint64_t next_account() {
    std::uint64_t p = 0;
    std::uint64_t rank = 0;
    switch (skew_) {
      case Skew::kUniform:
        p = rng_->bounded(kPartitions);
        rank = rng_->bounded(kKeysPerPartition);
        break;
      case Skew::kZipfian: {
        // Global Zipf rank striped across partitions: the hottest keys
        // land on different partitions, so skew stresses contention on
        // individual accounts, not placement.
        const std::uint64_t g = global_.next(*rng_);
        p = g % kPartitions;
        rank = g / kPartitions;
        break;
      }
      case Skew::kHotPartition:
        p = rng_->chance(0.85)
                ? 0
                : 1 + rng_->bounded(kPartitions - 1);
        rank = local_.next(*rng_);
        break;
    }
    return rank * kPartitions + p;
  }

 private:
  Skew skew_;
  sim::Rng* rng_;
  sim::ZipfGen global_;
  sim::ZipfGen local_;
};

struct Job {
  sim::Nanos arrived = 0;
  std::uint64_t account = 0;
};

struct CellResult {
  std::uint64_t arrivals = 0;
  std::uint64_t served_ok = 0;
  std::uint64_t goodput_p50 = 0;  // served within the p50 target
  std::uint64_t goodput_p99 = 0;  // served within the p99 target
  std::uint64_t abandoned = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t hung_workers = 0;
  sim::Nanos p50 = 0;
  sim::Nanos p99 = 0;
  sim::Nanos max = 0;
  sim::Nanos abandon_max_wait = 0;
  sim::Nanos virtual_ns = 0;
  std::uint64_t sim_events = 0;
  double wall_secs = 0.0;
  std::uint64_t queue_depth_max = 0;
  double queue_depth_mean = 0.0;
  bool accounted = false;
};

struct Worker {
  sim::Notifier note;
  std::uint32_t client = 0;
  explicit Worker(sim::Simulator& sim, std::uint32_t c)
      : note(sim), client(c) {}
};

struct CellCtx {
  core::System& sys;
  std::uint64_t n_arrivals;
  ArrivalProcess arrivals;
  KeyChooser keys;
  std::vector<Worker> workers;
  std::vector<std::uint32_t> idle;
  std::deque<Job> waitq;
  bool done = false;
  CellResult out;
  // End-to-end latency of completed logical clients; histogram mode so a
  // million samples cost ~30 KB, not a 10^6-entry vector.
  sim::LatencyRecorder e2e{sim::LatencyRecorder::Mode::kHistogram};

  CellCtx(core::System& s, std::uint64_t n, Arrival a, Skew k, sim::Rng& rng)
      : sys(s), n_arrivals(n), arrivals(a, kMeanGapNs, rng), keys(k, rng) {}
};

/// The open-loop source: every iteration is one logical client arriving.
/// A job is handed straight to an idle pooled session when one exists;
/// otherwise it waits FIFO and is subject to patience at dispatch time.
sim::Task<void> arrival_source(CellCtx& cx) {
  auto& sim = cx.sys.simulator();
  for (std::uint64_t i = 0; i < cx.n_arrivals; ++i) {
    co_await sim.sleep(cx.arrivals.next_gap(sim.now()));
    ++cx.out.arrivals;
    cx.waitq.push_back(Job{sim.now(), cx.keys.next_account()});
    if (!cx.idle.empty()) {
      const std::uint32_t w = cx.idle.back();
      cx.idle.pop_back();
      cx.workers[w].note.notify_all();
    }
  }
  cx.done = true;
  for (const std::uint32_t w : cx.idle) cx.workers[w].note.notify_all();
  cx.idle.clear();
}

/// One pooled session: pulls the next waiting logical client, abandons it
/// if it already out-waited its patience, otherwise submits and scores the
/// end-to-end (arrival -> reply) latency against the SLO targets.
sim::Task<void> session_worker(CellCtx& cx, std::uint32_t me) {
  auto& sim = cx.sys.simulator();
  core::Client& client = cx.sys.client(cx.workers[me].client);
  for (;;) {
    if (cx.waitq.empty()) {
      if (cx.done) co_return;
      cx.idle.push_back(me);
      co_await cx.workers[me].note.wait();
      continue;
    }
    const Job job = cx.waitq.front();
    cx.waitq.pop_front();
    const sim::Nanos waited = sim.now() - job.arrived;
    if (waited > kPatience) {
      ++cx.out.abandoned;
      cx.out.abandon_max_wait = std::max(cx.out.abandon_max_wait, waited);
      continue;
    }
    const faultlab::DepositReq req{job.account, 1};
    const auto res = co_await client.submit(
        amcast::dst_of(static_cast<amcast::GroupId>(job.account %
                                                    kPartitions)),
        faultlab::kDeposit, std::as_bytes(std::span(&req, 1)));
    const sim::Nanos e2e = sim.now() - job.arrived;
    if (res.status == core::SubmitStatus::kOk) {
      ++cx.out.served_ok;
      cx.e2e.record(e2e);
      if (e2e <= kSloP50) ++cx.out.goodput_p50;
      if (e2e <= kSloP99) ++cx.out.goodput_p99;
    } else if (res.status == core::SubmitStatus::kOverloaded) {
      ++cx.out.overloaded;
    } else {
      ++cx.out.timeouts;
    }
  }
}

CellResult run_cell(Arrival arrival, Skew skew, std::uint64_t n_arrivals,
                    std::uint32_t pool, const Options& opt) {
  sim::Simulator sim;
  rdma::LatencyModel model;
  rdma::Fabric fabric(sim, model, opt.seed);
  fabric.telemetry().metrics.enable();

  core::HeronConfig cfg;
  cfg.object_region_bytes = 8u << 20;
  // Light application op so the sweep measures queueing and the kernel,
  // not a synthetic 50 us app: ~2 us/command serial execution per
  // partition leader, amortized further by batching.
  cfg.exec_dispatch_proc = sim::us(1);
  cfg.client_attempt_timeout = sim::ms(1);
  cfg.client_max_retries = 1;
  cfg.client_retry_backoff = sim::us(50);
  amcast::Config acfg;
  acfg.max_clients = pool;  // inbox capacity must fit the session pool
  acfg.max_batch = 8;
  acfg.admission_window = 64;
  acfg.adaptive_admission = true;
  acfg.admission_min_window = 2;
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] {
        return std::make_unique<faultlab::BankApp>(kPartitions,
                                                   kKeysPerPartition);
      },
      cfg, acfg);
  sys.start();

  sim::Rng rng(opt.seed * 7919 + static_cast<std::uint64_t>(arrival) * 131 +
               static_cast<std::uint64_t>(skew) * 17);
  CellCtx cx(sys, n_arrivals, arrival, skew, rng);
  cx.workers.reserve(pool);
  for (std::uint32_t w = 0; w < pool; ++w) {
    sys.add_client();
    auto& cl = sys.client(w);
    cl.latencies().set_mode(sim::LatencyRecorder::Mode::kHistogram);
    cx.workers.emplace_back(sim, w);
  }
  for (std::uint32_t w = 0; w < pool; ++w) {
    sim.spawn(session_worker(cx, w));
  }
  sim.spawn(arrival_source(cx));

  telemetry::KernelStats kstats(sim, fabric.telemetry().metrics,
                                sim::us(500));
  kstats.start();

  // The source finishes near n * mean gap; the tail of the run is queue
  // drain plus in-flight attempts (bounded by timeout * attempts).
  const auto horizon = static_cast<sim::Nanos>(
      static_cast<double>(n_arrivals) * kMeanGapNs * 1.5);
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until(horizon + sim::ms(50));
  const auto t1 = std::chrono::steady_clock::now();
  kstats.stop();

  CellResult out = cx.out;
  out.virtual_ns = sim.now();
  out.sim_events = sim.events_executed();
  out.wall_secs = std::chrono::duration<double>(t1 - t0).count();
  out.p50 = cx.e2e.percentile(50);
  out.p99 = cx.e2e.percentile(99);
  out.max = cx.e2e.max();
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    if (sys.client(c).in_flight()) ++out.hung_workers;
  }
  auto& depth = fabric.telemetry().metrics.histogram("sim", "queue_depth");
  out.queue_depth_max = static_cast<std::uint64_t>(depth.max());
  out.queue_depth_mean = depth.mean();
  out.accounted = out.arrivals == cx.n_arrivals &&
                  out.served_ok + out.abandoned + out.timeouts +
                          out.overloaded ==
                      out.arrivals;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bench::Cli cli;
  cli.flag("--quick", opt.quick, "20k logical clients, pool 256 (CI smoke)")
      .flag("--seed", opt.seed, "<s>", "fabric/arrival seed")
      .flag("--clients", opt.clients, "<n>",
            "logical clients in the headline cell; 0 means 10^6, or 20k "
            "with --quick")
      .flag("--json", opt.json_path, "<path>", "machine-readable report")
      .parse(argc, argv);

  // Headline cell (poisson x zipfian) takes the full logical-client count;
  // the other cells run a slice so the sweep stays inside a few minutes.
  const std::uint64_t headline =
      opt.clients != 0 ? opt.clients : (opt.quick ? 20'000 : 1'000'000);
  const std::uint64_t slice =
      std::max<std::uint64_t>(headline / 8, opt.quick ? 10'000 : 100'000);
  const std::uint32_t pool = opt.quick ? 256 : 1024;

  telemetry::JsonWriter w;
  w.begin_object();
  w.kv("bench", "scale_sweep");
  w.kv("quick", opt.quick);
  w.kv("seed", opt.seed);
  w.kv("partitions", static_cast<std::uint64_t>(kPartitions));
  w.kv("replicas", static_cast<std::uint64_t>(kReplicas));
  w.kv("session_pool", static_cast<std::uint64_t>(pool));
  w.kv("keys_per_partition", kKeysPerPartition);
  w.kv("slo_p50_ns", kSloP50);
  w.kv("slo_p99_ns", kSloP99);
  w.kv("patience_ns", kPatience);

  std::printf(
      "Open-loop sweep: %llu logical clients (headline), pool %u sessions\n",
      static_cast<unsigned long long>(headline), pool);
  std::printf("%-8s %-8s %9s %9s %9s %9s %7s %7s %6s %9s %9s %8s\n",
              "arrival", "skew", "arrivals", "ok", "slo_p50", "slo_p99",
              "abandon", "busy", "tmo", "p50_us", "p99_us", "Mev/s");

  std::uint64_t total_violations = 0;
  std::uint64_t total_clients = 0;
  bool slo_ok = true;
  w.key("cells").begin_array();
  for (const Arrival arrival : {Arrival::kPoisson, Arrival::kMmpp}) {
    for (const Skew skew :
         {Skew::kUniform, Skew::kZipfian, Skew::kHotPartition}) {
      const bool is_headline =
          arrival == Arrival::kPoisson && skew == Skew::kZipfian;
      const std::uint64_t n = is_headline ? headline : slice;
      const CellResult r = run_cell(arrival, skew, n, pool, opt);
      total_clients += r.arrivals;
      std::vector<faultlab::Violation> v;
      if (!r.accounted) {
        v.push_back({"accounting", "served+abandoned+failed != arrivals"});
      }
      if (r.hung_workers != 0) {
        v.push_back({"hung", std::to_string(r.hung_workers) +
                                 " sessions still in flight"});
      }
      total_violations += v.size();
      // Healthy-cell SLO gate: with uniform keys the system runs at ~50%
      // load and must keep nearly every logical client inside the p99
      // target; skewed and bursty cells are the stress arms and only the
      // accounting gates apply to them.
      if (skew == Skew::kUniform) {
        slo_ok = slo_ok && r.goodput_p99 >= (r.arrivals * 9) / 10;
      }

      w.begin_object();
      w.kv("arrival", arrival_name(arrival));
      w.kv("skew", skew_name(skew));
      w.kv("arrivals", r.arrivals);
      w.kv("served_ok", r.served_ok);
      w.kv("goodput_p50", r.goodput_p50);
      w.kv("goodput_p99", r.goodput_p99);
      w.kv("abandoned", r.abandoned);
      w.kv("timeouts", r.timeouts);
      w.kv("overloaded", r.overloaded);
      w.kv("hung_workers", r.hung_workers);
      w.kv("p50_ns", r.p50);
      w.kv("p99_ns", r.p99);
      w.kv("max_ns", r.max);
      w.kv("abandon_max_wait_ns", r.abandon_max_wait);
      w.kv("virtual_ns", r.virtual_ns);
      w.kv("sim_events", r.sim_events);
      w.kv("wall_secs", r.wall_secs);
      w.kv("events_per_wall_sec",
           r.wall_secs > 0.0 ? static_cast<double>(r.sim_events) / r.wall_secs
                             : 0.0);
      w.kv("queue_depth_mean", r.queue_depth_mean);
      w.kv("queue_depth_max", r.queue_depth_max);
      w.kv("accounted", r.accounted);
      w.kv("repro", cli.repro(argv[0]));
      w.end_object();

      std::printf(
          "%-8s %-8s %9llu %9llu %9llu %9llu %7llu %7llu %6llu %9.1f %9.1f "
          "%8.2f\n",
          arrival_name(arrival), skew_name(skew),
          static_cast<unsigned long long>(r.arrivals),
          static_cast<unsigned long long>(r.served_ok),
          static_cast<unsigned long long>(r.goodput_p50),
          static_cast<unsigned long long>(r.goodput_p99),
          static_cast<unsigned long long>(r.abandoned),
          static_cast<unsigned long long>(r.overloaded),
          static_cast<unsigned long long>(r.timeouts), sim::to_us(r.p50),
          sim::to_us(r.p99),
          r.wall_secs > 0.0
              ? static_cast<double>(r.sim_events) / r.wall_secs / 1e6
              : 0.0);
      bench::print_violations(v);
    }
  }
  w.end_array();

  const bool gate_ok = slo_ok && total_violations == 0;
  w.key("gates").begin_array();
  w.begin_object();
  w.kv("gate", "uniform_cells_in_slo");
  w.kv("pass", slo_ok);
  w.end_object();
  w.begin_object();
  w.kv("gate", "accounting_and_liveness");
  w.kv("violations", total_violations);
  w.kv("pass", total_violations == 0);
  w.end_object();
  w.end_array();
  w.kv("total_logical_clients", total_clients);
  w.kv("total_violations", total_violations);
  w.kv("gate_ok", gate_ok);
  w.end_object();

  std::printf("\ntotal logical clients: %llu\n",
              static_cast<unsigned long long>(total_clients));

  if (!bench::write_report(opt.json_path, w.str())) return 1;

  if (!slo_ok) {
    std::fprintf(stderr, "FAIL: a uniform cell missed the p99 SLO gate\n");
    return 1;
  }
  if (total_violations != 0) {
    std::fprintf(stderr, "FAIL: %llu accounting/liveness violations\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  return 0;
}
