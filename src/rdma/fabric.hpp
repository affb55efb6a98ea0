// The simulated RDMA fabric: nodes + reliable-connection verbs.
//
// Semantics modeled after libibverbs RC queue pairs, which is all Heron
// relies on (§II-C of the paper):
//   * one-sided READ / WRITE that never involve the remote CPU;
//   * reliable, in-order delivery per (initiator, target, lane) channel;
//   * remote crash surfaces as a work-completion error (the paper's
//     RDMA_EXCEPTION) after a detection delay;
//   * 8-byte aligned accesses are atomic. The simulator is stricter: an
//     entire op lands in one event, so any span is observed atomically.
//
// The latency model is calibrated against the paper's testbed (ConnectX-4,
// 25 Gbps): a per-verb base cost, a bandwidth term, and optional
// multiplicative jitter. Congestion is modeled at three points:
//   * the initiator NIC — verbs posted back-to-back serialize on the send
//     side;
//   * per-QP credit windows (`credit_window`) — a bounded number of
//     outstanding verbs per (initiator, target, lane); further posts queue
//     FIFO in software until a completion returns a credit, instead of
//     charging latency independently;
//   * a two-level ToR topology (`rack_size` / `oversub_ratio`) — traffic
//     crossing racks serializes through a shared uplink FIFO whose
//     bandwidth is the rack's aggregate NIC rate divided by the
//     oversubscription ratio. This replaces the flat `oversub_factor`
//     scalar of §V-C1 with a model under which congestion collapse,
//     leader incast and victim-flow interference are reproducible.
//
// Control traffic (lease renewals, epoch markers, failure-detector probes)
// can be posted on Lane::kControl: a priority lane that bypasses credit
// gating and the shared-uplink FIFO — the simulated analogue of a
// dedicated QoS queue pair on a lossless priority class.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "rdma/memory.hpp"
#include "rdma/node.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "telemetry/hub.hpp"

namespace heron::rdma {

enum class Status : std::uint8_t {
  kOk = 0,
  kRemoteFailure = 1,  // target crashed: WC error on the initiator QP
  kBadAddress = 2,     // out-of-bounds access (programming error guard)
};

/// Traffic class of a verb. Data is the default; control marks small
/// latency-critical messages that must not queue behind bulk data.
enum class Lane : std::uint8_t {
  kData = 0,
  kControl = 1,
};

/// Outcome of a one-sided verb.
struct Completion {
  Status status = Status::kOk;

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// Latency knobs; defaults approximate the paper's XL170 testbed.
struct LatencyModel {
  sim::Nanos read_base = sim::us(1.6);    // one-sided READ round trip
  sim::Nanos write_base = sim::us(0.9);   // one-sided WRITE until remote visibility
  sim::Nanos post_overhead = sim::us(0.15);  // CPU cost to post a verb
  double bandwidth_bytes_per_ns = 3.125;  // 25 Gbps
  sim::Nanos failure_detect = sim::us(400);  // WC error latency on dead peer
  double jitter_sigma = 0.0;  // lognormal sigma on the network component

  /// Legacy testbed oversubscription (§V-C1: beyond 40 XL170 nodes,
  /// traffic crosses the top-of-rack switch with no bandwidth guarantee).
  /// When the fabric has more than `oversub_nodes` nodes, network
  /// components are scaled by `oversub_factor`. 0 disables the model.
  /// Superseded by the structural topology below when `rack_size` > 0.
  std::size_t oversub_nodes = 0;
  double oversub_factor = 1.3;

  // --- two-level ToR topology ------------------------------------------
  /// Nodes per rack; node id / rack_size is the rack index. 0 keeps the
  /// flat single-switch fabric (seed behavior).
  std::size_t rack_size = 0;
  /// Rack uplink oversubscription: uplink bandwidth is
  /// rack_size * bandwidth_bytes_per_ns / oversub_ratio. 1.0 = full
  /// bisection; 2.0 = classic 2:1 ToR oversubscription.
  double oversub_ratio = 1.0;
  /// Extra one-way latency for crossing the ToR switch.
  sim::Nanos tor_hop = sim::us(0.3);

  // --- flow control ----------------------------------------------------
  /// Max outstanding verbs per (initiator, target, lane) QP. Further
  /// posts queue FIFO in software until a completion returns a credit.
  /// 0 = unlimited (seed behavior).
  std::uint32_t credit_window = 0;
  /// When true, Lane::kControl verbs bypass credit gating and the shared
  /// uplink FIFO (they still pay NIC post/serialization and base
  /// latency). Disable to model a fabric without QoS separation — used
  /// by the fail-on-pre-fix priority-lane tests.
  bool priority_lanes = true;

  /// NIC-rate serialization time. Rounds up: any non-empty transfer costs
  /// at least 1 ns (truncation used to charge 0 ns for sub-byte-time
  /// transfers, letting e.g. 1-byte writes pipeline for free).
  [[nodiscard]] sim::Nanos transfer_time(std::uint64_t bytes) const {
    if (bytes == 0) return 0;
    const double t =
        static_cast<double>(bytes) / bandwidth_bytes_per_ns;
    const auto whole = static_cast<sim::Nanos>(t);
    const sim::Nanos up = (static_cast<double>(whole) < t) ? whole + 1 : whole;
    return up > 0 ? up : 1;
  }

  /// Shared rack-uplink bandwidth under the configured oversubscription.
  [[nodiscard]] double uplink_bytes_per_ns() const {
    return bandwidth_bytes_per_ns * static_cast<double>(rack_size) /
           oversub_ratio;
  }
};

/// Substrate-level counters, read back from the fabric's registry
/// counters (Fabric::stats()).
struct FabricStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t failures = 0;
  std::uint64_t credit_stalls = 0;    // verbs that queued for a credit
  std::uint64_t uplink_queued = 0;    // transfers that waited in a rack FIFO
  std::uint64_t priority_ops = 0;     // control-lane verbs that bypassed queuing
  std::uint64_t injected_ops = 0;     // faultlab phantom flows
  std::uint64_t injected_bytes = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, LatencyModel model = {},
         std::uint64_t seed = 42);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  /// The seed this fabric was constructed with; layers deriving their own
  /// RNG streams (e.g. client retry jitter) mix it with a local salt.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const LatencyModel& model() const { return model_; }
  [[nodiscard]] LatencyModel& model() { return model_; }
  [[nodiscard]] FabricStats stats() const;
  /// Zeroes every counter of the registry this fabric owns (the counters
  /// of every layer attached to it, not only rdma's) AND the fabric-owned
  /// telemetry series (queue-wait / credit-wait / uplink-wait histograms,
  /// per-rack byte and busy accumulators) so a bench that resets between
  /// warmup and measurement reports only the measured window. Live
  /// queuing state (NIC free times, uplink FIFOs, outstanding credits)
  /// and the per-node credit-stall counts behind credit_stalls(node) are
  /// untouched: those are inputs to admission control, not statistics.
  void reset_stats();

  /// The telemetry hub shared by every layer attached to this fabric
  /// (amcast endpoints, core replicas, the harness). Disabled by default.
  [[nodiscard]] telemetry::Hub& telemetry() { return *hub_; }

  /// Creates a node attached to this fabric.
  Node& add_node() {
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>(*sim_, id));
    qps_.emplace_back();
    nic_free_at_.push_back(0);
    hub_->tracer.set_tid_name(id, "node" + std::to_string(id));
    return *nodes_.back();
  }

  [[nodiscard]] Node& node(std::int32_t id) { return *nodes_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// One-sided RDMA READ: copies `out.size()` bytes from (addr) on the
  /// remote node into `out`. The value is sampled at the instant the read
  /// reaches the remote NIC. Initiator blocks until the completion (which
  /// includes any credit-queue wait when flow control is enabled).
  sim::Task<Completion> read(std::int32_t initiator, RAddr addr,
                             std::span<std::byte> out,
                             Lane lane = Lane::kData);

  /// One-sided RDMA WRITE: copies `data` into (addr) on the remote node.
  /// Data becomes remotely visible at arrival time; the region's on_write
  /// notifier fires then. Initiator blocks until the completion.
  sim::Task<Completion> write(std::int32_t initiator, RAddr addr,
                              std::span<const std::byte> data,
                              Lane lane = Lane::kData);

  /// Fire-and-forget WRITE: posts the verb and returns after the post
  /// overhead only. Used where Heron does not wait for the WC (e.g.
  /// coordination-message fan-out, Algorithm 1 line 9). With flow control
  /// enabled the post may queue in software behind earlier verbs of the
  /// same QP; queued posts keep FIFO order, so RC in-order delivery per
  /// channel is preserved.
  void write_async(std::int32_t initiator, RAddr addr,
                   std::span<const std::byte> data,
                   Lane lane = Lane::kData);

  /// One-sided atomic compare-and-swap on an 8-byte word (RC masked
  /// atomics): at arrival the remote word is sampled and, iff it equals
  /// `expected`, replaced by `desired` in the same event; the sampled
  /// value travels back in `observed`. Success of the swap is
  /// `*observed == expected` on an ok() completion. Costs a READ round
  /// trip (request out, old value back). Used by the fast-write path to
  /// take a slot's INVALIDATE lock without clobbering a replica-side
  /// write-phase bracket that opened after the client sampled the word.
  sim::Task<Completion> cas(std::int32_t initiator, RAddr addr,
                            std::uint64_t expected, std::uint64_t desired,
                            std::uint64_t* observed,
                            Lane lane = Lane::kData);

  /// Injects a phantom transfer (heron::faultlab congestion scenarios):
  /// charges the initiator NIC, credit window, uplink FIFO and channel
  /// exactly like a `bytes`-sized write, but touches no memory region, so
  /// the target needs no registered MR and may even be a bare phantom
  /// node. Fire-and-forget.
  void inject_flow(std::int32_t initiator, std::int32_t target,
                   std::uint64_t bytes, Lane lane = Lane::kData);

  // --- topology / backpressure observability ------------------------------

  /// Rack index of a node, or -1 on a flat fabric.
  [[nodiscard]] int rack_of(std::int32_t node_id) const {
    if (model_.rack_size == 0) return -1;
    return static_cast<int>(static_cast<std::size_t>(node_id) /
                            model_.rack_size);
  }
  /// Nanoseconds of transfer already queued on the node's rack uplink —
  /// the backpressure signal sampled by adaptive admission control and
  /// background-copy throttling. 0 on a flat fabric.
  [[nodiscard]] sim::Nanos uplink_backlog(std::int32_t node_id) const;
  /// Cumulative bytes carried by a rack's uplink (since last reset_stats).
  [[nodiscard]] std::uint64_t uplink_bytes(int rack) const;
  /// Cumulative occupancy of a rack's uplink in ns (utilization =
  /// busy_ns / window).
  [[nodiscard]] std::uint64_t uplink_busy_ns(int rack) const;
  /// Credit-queue stalls charged to verbs initiated by `node_id` since the
  /// fabric was built — the starvation half of the backpressure signal.
  /// Monotone (reset_stats leaves it alone): adaptive admission samples
  /// its delta.
  [[nodiscard]] std::uint64_t credit_stalls(std::int32_t node_id) const;
  /// Verbs currently waiting in software credit queues out of `node_id`.
  [[nodiscard]] std::size_t credit_queue_depth(std::int32_t node_id) const;
  /// write_async payload buffers allocated so far: the peak number of
  /// posts in flight at once, since delivered posts recycle theirs.
  [[nodiscard]] std::size_t payload_buffers() const { return payloads_.size(); }

  // --- perturbation hook (heron::faultlab) --------------------------------
  // Transient network chaos, separate from the calibrated LatencyModel so a
  // fault plan can open and close windows without touching the baseline.

  /// Scales the latency component of every verb (1.0 = nominal).
  void set_latency_factor(double f) { latency_factor_ = f; }
  [[nodiscard]] double latency_factor() const { return latency_factor_; }

  /// Scales effective bandwidth (0.5 = half bandwidth, transfers take 2x).
  void set_bandwidth_factor(double f) { bandwidth_factor_ = f; }
  [[nodiscard]] double bandwidth_factor() const { return bandwidth_factor_; }

  /// Partitions `nodes` from the rest of the fabric until virtual time
  /// `heal_at`. Traffic crossing the cut is stalled until the heal instant,
  /// never dropped: RC queue pairs retransmit through transient partitions
  /// (crash faults are modeled separately via Node::crash()). In-order
  /// channel delivery is preserved across the stall.
  void partition(std::vector<std::int32_t> nodes, sim::Nanos heal_at);
  /// Lifts a partition before its scheduled heal time.
  void heal_partition() { partitioned_.clear(); }
  [[nodiscard]] bool partition_active() const {
    return !partitioned_.empty() && sim_->now() < partition_heal_at_;
  }

 private:
  /// Per-(initiator, target, lane) queue-pair state: RC ordering plus the
  /// software credit queue. Waiters are resumed in FIFO order so queued
  /// posts stay ordered; a released credit transfers to the head waiter
  /// without going through `outstanding`.
  struct Qp {
    sim::Nanos last_arrival = 0;  // enforces RC in-order delivery
    std::uint32_t outstanding = 0;
    std::deque<std::pair<sim::Nanos, sim::EventFn>> waiters;
  };

  /// Shared rack uplink: a FIFO pipe at the oversubscribed rate.
  struct RackLink {
    sim::Nanos free_at = 0;
    std::uint64_t bytes = 0;    // cumulative, cleared by reset_stats
    std::uint64_t busy_ns = 0;  // cumulative occupancy
  };

  // Awaitable credit acquisition for the blocking verbs. Members are kept
  // trivial (see the GCC 12 note in sim/notifier.hpp).
  struct CreditGate {
    Fabric* f;
    Qp* qp;
    std::int32_t initiator;
    bool gated;
    bool await_ready() const noexcept {
      if (!gated) return true;
      if (qp->waiters.empty() && qp->outstanding < f->model_.credit_window) {
        ++qp->outstanding;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      f->note_credit_stall(initiator);
      qp->waiters.emplace_back(f->sim_->now(), sim::EventFn(h));
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] Lane effective_lane(Lane lane) const {
    return model_.priority_lanes ? lane : Lane::kData;
  }
  [[nodiscard]] bool credit_gated(Lane lane) const {
    return model_.credit_window > 0 &&
           !(model_.priority_lanes && lane == Lane::kControl);
  }
  Qp& qp_for(std::int32_t initiator, std::int32_t target, Lane lane) {
    auto& row = qps_[static_cast<std::size_t>(initiator)];
    const std::size_t i = static_cast<std::size_t>(target) * 2 +
                          static_cast<std::size_t>(effective_lane(lane));
    if (i < row.size() && row[i]) return *row[i];
    return open_qp(row, i);
  }
  /// Slow path of qp_for: creates the QP on first use.
  Qp& open_qp(std::vector<std::unique_ptr<Qp>>& row, std::size_t i);
  sim::Nanos& nic_free_at(std::int32_t node) {
    return nic_free_at_[static_cast<std::size_t>(node)];
  }
  void note_credit_stall(std::int32_t initiator);
  /// Runs `post` when a credit is available on the QP (immediately when
  /// uncontended). Callback form used by the fire-and-forget verbs.
  void with_credit(Qp& qp, bool gated, std::int32_t initiator,
                   sim::EventFn post);
  /// Returns a credit; hands it to the head waiter if one is queued.
  void release_credit(Qp& qp, bool gated);

  sim::Nanos jitter(sim::Nanos base);
  sim::Nanos xfer_time(std::uint64_t bytes) const;
  sim::Nanos uplink_time(std::uint64_t bytes) const;
  sim::Nanos depart(std::int32_t initiator);
  /// Routes a transfer through the two-level topology: when initiator and
  /// target sit in different racks, the transfer serializes through both
  /// racks' shared uplink FIFOs (control-lane traffic bypasses the queue
  /// but still pays the hop). Returns the instant the transfer clears the
  /// fabric toward the target. Identity on a flat fabric.
  sim::Nanos link_transit(std::int32_t initiator, std::int32_t target,
                          std::uint64_t bytes, sim::Nanos ready, Lane lane);
  sim::Nanos arrival_on_channel(std::int32_t initiator, std::int32_t target,
                                Lane lane, sim::Nanos proposed);
  [[nodiscard]] bool crosses_partition(std::int32_t a, std::int32_t b) const;
  RackLink& rack_link(int rack);
  void post_flow(std::int32_t initiator, std::int32_t target,
                 std::uint64_t bytes, Lane lane, bool gated);
  void deliver_write(RAddr addr, std::span<const std::byte> data);
  /// write_async payload slab: a posted payload is copied once into a
  /// recycled buffer and travels through the credit queue and the
  /// delivery event as a u32 handle; delivery frees the handle.
  std::uint32_t stash_payload(std::span<const std::byte> data);
  void free_payload(std::uint32_t handle) { payload_free_.push_back(handle); }

  sim::Simulator* sim_;
  LatencyModel model_;
  std::uint64_t seed_;
  sim::Rng rng_;
  std::unique_ptr<telemetry::Hub> hub_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // QP table: one row per initiator node, indexed by target * 2 + lane.
  // QPs are created on first use and heap-allocated so their addresses
  // stay stable while a CreditGate holds one across a suspension.
  std::vector<std::vector<std::unique_ptr<Qp>>> qps_;
  std::vector<sim::Nanos> nic_free_at_;  // per node: send-side serialization
  std::vector<RackLink> racks_;          // lazily sized
  std::vector<std::uint64_t> credit_stalls_by_node_;
  std::vector<std::vector<std::byte>> payloads_;  // write_async slab
  std::vector<std::uint32_t> payload_free_;       // recycled slab handles

  // Perturbation state (see the faultlab hook above).
  double latency_factor_ = 1.0;
  double bandwidth_factor_ = 1.0;
  std::vector<std::int32_t> partitioned_;  // sorted node set; one side of the cut
  sim::Nanos partition_heal_at_ = 0;

  // Telemetry handles (registered once): the counters are FabricStats'
  // only home; histograms record only while telemetry is enabled.
  telemetry::Counter* ctr_reads_;
  telemetry::Counter* ctr_writes_;
  telemetry::Counter* ctr_writes_async_;
  telemetry::Counter* ctr_read_bytes_;
  telemetry::Counter* ctr_write_bytes_;
  telemetry::Counter* ctr_errors_;
  telemetry::Counter* ctr_bad_addr_;
  telemetry::Counter* ctr_credit_stalls_;
  telemetry::Counter* ctr_uplink_queued_;
  telemetry::Counter* ctr_priority_ops_;
  telemetry::Counter* ctr_injected_;
  telemetry::Counter* ctr_injected_bytes_;
  telemetry::Histogram* hist_queue_wait_;
  telemetry::Histogram* hist_credit_wait_;
  telemetry::Histogram* hist_uplink_wait_;
};

}  // namespace heron::rdma
