#include "rdma/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "sim/log.hpp"

namespace heron::rdma {

namespace {

bool in_bounds(const MemoryRegion& region, std::uint64_t offset,
               std::uint64_t len) {
  return offset + len <= region.size() && offset + len >= offset;
}

/// Wire footprint charged for the request half of a READ (header +
/// addressing); the payload rides the response.
constexpr std::uint64_t kVerbHeaderBytes = 64;

}  // namespace

Fabric::Fabric(sim::Simulator& sim, LatencyModel model, std::uint64_t seed)
    : sim_(&sim),
      model_(model),
      seed_(seed),
      rng_(seed),
      hub_(std::make_unique<telemetry::Hub>(sim)) {
  auto& m = hub_->metrics;
  ctr_reads_ = &m.counter("rdma", "read_ops");
  ctr_writes_ = &m.counter("rdma", "write_ops");
  ctr_writes_async_ = &m.counter("rdma", "write_async_ops");
  ctr_read_bytes_ = &m.counter("rdma", "read_bytes");
  ctr_write_bytes_ = &m.counter("rdma", "write_bytes");
  ctr_errors_ = &m.counter("rdma", "completion_errors");
  ctr_bad_addr_ = &m.counter("rdma", "bad_address");
  ctr_credit_stalls_ = &m.counter("rdma", "credit_stalls");
  ctr_uplink_queued_ = &m.counter("rdma", "uplink_queued");
  ctr_priority_ops_ = &m.counter("rdma", "priority_ops");
  ctr_injected_ = &m.counter("rdma", "injected_ops");
  ctr_injected_bytes_ = &m.counter("rdma", "injected_bytes");
  hist_queue_wait_ = &m.histogram("rdma", "nic_queue_wait_ns");
  hist_credit_wait_ = &m.histogram("rdma", "credit_wait_ns");
  hist_uplink_wait_ = &m.histogram("rdma", "uplink_wait_ns");
}

FabricStats Fabric::stats() const {
  return FabricStats{
      .reads = ctr_reads_->value(),
      .writes = ctr_writes_->value() + ctr_writes_async_->value(),
      .read_bytes = ctr_read_bytes_->value(),
      .write_bytes = ctr_write_bytes_->value(),
      .failures = ctr_errors_->value() + ctr_bad_addr_->value(),
      .credit_stalls = ctr_credit_stalls_->value(),
      .uplink_queued = ctr_uplink_queued_->value(),
      .priority_ops = ctr_priority_ops_->value(),
      .injected_ops = ctr_injected_->value(),
      .injected_bytes = ctr_injected_bytes_->value(),
  };
}

void Fabric::reset_stats() {
  hub_->metrics.reset_counters();
  hist_queue_wait_->reset();
  hist_credit_wait_->reset();
  hist_uplink_wait_->reset();
  for (RackLink& link : racks_) {
    link.bytes = 0;
    link.busy_ns = 0;
  }
}

sim::Nanos Fabric::jitter(sim::Nanos base) {
  double scaled = static_cast<double>(base);
  // The flat oversubscription scalar only applies when the structural
  // topology is off: with racks configured, crossing traffic pays the
  // shared-uplink FIFO instead.
  if (model_.rack_size == 0 && model_.oversub_nodes != 0 &&
      nodes_.size() > model_.oversub_nodes) {
    scaled *= model_.oversub_factor;
  }
  if (latency_factor_ != 1.0) scaled *= latency_factor_;
  if (model_.jitter_sigma > 0.0) {
    scaled *= rng_.lognormal_mean(1.0, model_.jitter_sigma);
  }
  return static_cast<sim::Nanos>(scaled);
}

sim::Nanos Fabric::xfer_time(std::uint64_t bytes) const {
  sim::Nanos t = model_.transfer_time(bytes);
  if (bandwidth_factor_ > 0.0 && bandwidth_factor_ != 1.0) {
    t = static_cast<sim::Nanos>(static_cast<double>(t) / bandwidth_factor_);
  }
  return t;
}

sim::Nanos Fabric::uplink_time(std::uint64_t bytes) const {
  if (bytes == 0) return 0;
  double bw = model_.uplink_bytes_per_ns();
  if (bandwidth_factor_ > 0.0) bw *= bandwidth_factor_;
  const double t = static_cast<double>(bytes) / bw;
  const auto whole = static_cast<sim::Nanos>(t);
  const sim::Nanos up = (static_cast<double>(whole) < t) ? whole + 1 : whole;
  return up > 0 ? up : 1;
}

void Fabric::partition(std::vector<std::int32_t> nodes, sim::Nanos heal_at) {
  std::sort(nodes.begin(), nodes.end());
  partitioned_ = std::move(nodes);
  partition_heal_at_ = heal_at;
}

bool Fabric::crosses_partition(std::int32_t a, std::int32_t b) const {
  const bool a_in = std::binary_search(partitioned_.begin(),
                                       partitioned_.end(), a);
  const bool b_in = std::binary_search(partitioned_.begin(),
                                       partitioned_.end(), b);
  return a_in != b_in;
}

sim::Nanos Fabric::depart(std::int32_t initiator) {
  const sim::Nanos now = sim_->now();
  sim::Nanos& free_at = nic_free_at(initiator);
  const sim::Nanos at = std::max(now + model_.post_overhead, free_at);
  // Send-side serialization wait: how long the verb sat behind earlier
  // posts before the NIC picked it up.
  hist_queue_wait_->observe(at - (now + model_.post_overhead));
  free_at = at;
  return at;
}

Fabric::RackLink& Fabric::rack_link(int rack) {
  if (racks_.size() <= static_cast<std::size_t>(rack)) {
    racks_.resize(static_cast<std::size_t>(rack) + 1);
  }
  return racks_[static_cast<std::size_t>(rack)];
}

sim::Nanos Fabric::link_transit(std::int32_t initiator, std::int32_t target,
                                std::uint64_t bytes, sim::Nanos ready,
                                Lane lane) {
  if (model_.rack_size == 0) return ready;
  const int src = rack_of(initiator);
  const int dst = rack_of(target);
  if (src == dst) return ready;  // intra-rack: ToR not crossed
  const sim::Nanos hop = jitter(model_.tor_hop);
  if (model_.priority_lanes && lane == Lane::kControl) {
    // QoS class: skips the FIFO, pays only the switch hop.
    ctr_priority_ops_->inc();
    return ready + hop;
  }
  // Size the vector before taking both references: the second rack_link
  // call would otherwise reallocate and dangle the first.
  rack_link(std::max(src, dst));
  RackLink& su = racks_[static_cast<std::size_t>(src)];
  RackLink& du = racks_[static_cast<std::size_t>(dst)];
  const sim::Nanos start = std::max({ready, su.free_at, du.free_at});
  const sim::Nanos wait = start - ready;
  if (wait > 0) {
    ctr_uplink_queued_->inc();
    hist_uplink_wait_->observe(wait);
  }
  const sim::Nanos occupy = uplink_time(bytes);
  // The transfer crosses the source uplink and the destination downlink
  // back-to-back; both rack links are held for its duration, so incast
  // converging on one rack serializes there no matter where it started.
  su.free_at = du.free_at = start + occupy;
  su.bytes += bytes;
  du.bytes += bytes;
  su.busy_ns += static_cast<std::uint64_t>(occupy);
  du.busy_ns += static_cast<std::uint64_t>(occupy);
  return start + occupy + hop;
}

sim::Nanos Fabric::arrival_on_channel(std::int32_t initiator,
                                      std::int32_t target, Lane lane,
                                      sim::Nanos proposed) {
  // Traffic crossing an active partition stalls until the cut heals; the
  // channel's last_arrival then keeps the queued packets in order.
  if (partition_active() && crosses_partition(initiator, target)) {
    proposed = std::max(proposed, partition_heal_at_);
  }
  Qp& qp = qp_for(initiator, target, lane);
  const sim::Nanos at = std::max(proposed, qp.last_arrival);
  qp.last_arrival = at;
  return at;
}

sim::Nanos Fabric::uplink_backlog(std::int32_t node_id) const {
  const int rack = rack_of(node_id);
  if (rack < 0 || racks_.size() <= static_cast<std::size_t>(rack)) return 0;
  const sim::Nanos free_at = racks_[static_cast<std::size_t>(rack)].free_at;
  const sim::Nanos now = sim_->now();
  return free_at > now ? free_at - now : 0;
}

std::uint64_t Fabric::uplink_bytes(int rack) const {
  if (rack < 0 || racks_.size() <= static_cast<std::size_t>(rack)) return 0;
  return racks_[static_cast<std::size_t>(rack)].bytes;
}

std::uint64_t Fabric::uplink_busy_ns(int rack) const {
  if (rack < 0 || racks_.size() <= static_cast<std::size_t>(rack)) return 0;
  return racks_[static_cast<std::size_t>(rack)].busy_ns;
}

std::uint64_t Fabric::credit_stalls(std::int32_t node_id) const {
  const auto i = static_cast<std::size_t>(node_id);
  return i < credit_stalls_by_node_.size() ? credit_stalls_by_node_[i] : 0;
}

std::size_t Fabric::credit_queue_depth(std::int32_t node_id) const {
  const auto n = static_cast<std::size_t>(node_id);
  if (n >= qps_.size()) return 0;
  std::size_t depth = 0;
  for (const auto& qp : qps_[n]) {
    if (qp) depth += qp->waiters.size();
  }
  return depth;
}

Fabric::Qp& Fabric::open_qp(std::vector<std::unique_ptr<Qp>>& row,
                            std::size_t i) {
  if (row.size() <= i) row.resize(std::max(i + 1, nodes_.size() * 2));
  row[i] = std::make_unique<Qp>();
  return *row[i];
}

void Fabric::note_credit_stall(std::int32_t initiator) {
  ctr_credit_stalls_->inc();
  const auto i = static_cast<std::size_t>(initiator);
  if (credit_stalls_by_node_.size() <= i) {
    credit_stalls_by_node_.resize(i + 1, 0);
  }
  ++credit_stalls_by_node_[i];
}

void Fabric::with_credit(Qp& qp, bool gated, std::int32_t initiator,
                         sim::EventFn post) {
  if (!gated) {
    post();
    return;
  }
  if (qp.waiters.empty() && qp.outstanding < model_.credit_window) {
    ++qp.outstanding;
    post();
    return;
  }
  note_credit_stall(initiator);
  qp.waiters.emplace_back(sim_->now(), std::move(post));
}

void Fabric::release_credit(Qp& qp, bool gated) {
  if (!gated) return;
  if (!qp.waiters.empty()) {
    // Hand the credit straight to the head of the software queue;
    // `outstanding` stays constant across the transfer. Resume as a fresh
    // event so the releaser's frame never re-enters the waiter.
    auto [queued_at, go] = std::move(qp.waiters.front());
    qp.waiters.pop_front();
    hist_credit_wait_->observe(sim_->now() - queued_at);
    sim_->schedule(0, std::move(go));
    return;
  }
  assert(qp.outstanding > 0);
  if (qp.outstanding > 0) --qp.outstanding;
}

sim::Task<Completion> Fabric::read(std::int32_t initiator, RAddr addr,
                                   std::span<std::byte> out, Lane lane) {
  ctr_reads_->inc();
  ctr_read_bytes_->inc(out.size());
  auto span = hub_->tracer.span("rdma", "read", initiator);
  span.arg("target", static_cast<std::uint64_t>(addr.node));
  span.arg("bytes", out.size());

  Node& target = node(addr.node);
  if (!in_bounds(target.region(addr.mr), addr.offset, out.size())) {
    ctr_bad_addr_->inc();
    span.arg("bad_address", 1);
    co_return Completion{Status::kBadAddress};
  }

  const bool gated = credit_gated(lane);
  co_await CreditGate{this, &qp_for(initiator, addr.node, lane), initiator,
                      gated};

  const sim::Nanos departed = depart(initiator);
  nic_free_at(initiator) = departed;  // read request itself is tiny
  if (departed > sim_->now()) co_await sim_->sleep(departed - sim_->now());

  // Request propagates to the remote NIC; value is sampled there.
  const sim::Nanos arrive = arrival_on_channel(
      initiator, addr.node, lane,
      link_transit(initiator, addr.node, kVerbHeaderBytes,
                   departed + jitter(model_.read_base / 2), lane));
  if (arrive > sim_->now()) co_await sim_->sleep(arrive - sim_->now());

  if (!target.alive()) {
    ctr_errors_->inc();
    span.arg("wc_error", 1);
    const sim::Nanos err_at = departed + model_.failure_detect;
    if (err_at > sim_->now()) co_await sim_->sleep(err_at - sim_->now());
    release_credit(qp_for(initiator, addr.node, lane), gated);
    co_return Completion{Status::kRemoteFailure};
  }

  // Atomic sample at arrival time (one event = one atomic step).
  const auto src = target.region(addr.mr).bytes().subspan(addr.offset, out.size());
  std::memcpy(out.data(), src.data(), out.size());

  // Response carries the payload back to the initiator.
  const sim::Nanos done_at = link_transit(
      addr.node, initiator, out.size(),
      arrive + jitter(model_.read_base / 2) + xfer_time(out.size()), lane);
  if (done_at > sim_->now()) co_await sim_->sleep(done_at - sim_->now());
  release_credit(qp_for(initiator, addr.node, lane), gated);
  co_return Completion{Status::kOk};
}

sim::Task<Completion> Fabric::cas(std::int32_t initiator, RAddr addr,
                                  std::uint64_t expected,
                                  std::uint64_t desired,
                                  std::uint64_t* observed, Lane lane) {
  // Atomics ride the READ timing path: tiny request out, old value back.
  ctr_reads_->inc();
  ctr_read_bytes_->inc(sizeof(std::uint64_t));
  auto span = hub_->tracer.span("rdma", "cas", initiator);
  span.arg("target", static_cast<std::uint64_t>(addr.node));

  Node& target = node(addr.node);
  if (!in_bounds(target.region(addr.mr), addr.offset,
                 sizeof(std::uint64_t))) {
    ctr_bad_addr_->inc();
    span.arg("bad_address", 1);
    co_return Completion{Status::kBadAddress};
  }

  const bool gated = credit_gated(lane);
  co_await CreditGate{this, &qp_for(initiator, addr.node, lane), initiator,
                      gated};

  const sim::Nanos departed = depart(initiator);
  nic_free_at(initiator) = departed;  // atomic request is tiny
  if (departed > sim_->now()) co_await sim_->sleep(departed - sim_->now());

  const sim::Nanos arrive = arrival_on_channel(
      initiator, addr.node, lane,
      link_transit(initiator, addr.node, kVerbHeaderBytes,
                   departed + jitter(model_.read_base / 2), lane));
  if (arrive > sim_->now()) co_await sim_->sleep(arrive - sim_->now());

  if (!target.alive()) {
    ctr_errors_->inc();
    span.arg("wc_error", 1);
    const sim::Nanos err_at = departed + model_.failure_detect;
    if (err_at > sim_->now()) co_await sim_->sleep(err_at - sim_->now());
    release_credit(qp_for(initiator, addr.node, lane), gated);
    co_return Completion{Status::kRemoteFailure};
  }

  // Compare-and-swap at arrival time (one event = one atomic step).
  auto word = target.region(addr.mr).bytes().subspan(addr.offset,
                                                     sizeof(std::uint64_t));
  std::uint64_t old = 0;
  std::memcpy(&old, word.data(), sizeof(old));
  if (observed != nullptr) *observed = old;
  if (old == expected) {
    std::memcpy(word.data(), &desired, sizeof(desired));
    target.region(addr.mr).landed(addr.offset, sizeof(desired));
  } else {
    span.arg("cas_miss", 1);
  }

  // Response carries the pre-op value back to the initiator.
  const sim::Nanos done_at = link_transit(
      addr.node, initiator, sizeof(std::uint64_t),
      arrive + jitter(model_.read_base / 2) + xfer_time(sizeof(std::uint64_t)),
      lane);
  if (done_at > sim_->now()) co_await sim_->sleep(done_at - sim_->now());
  release_credit(qp_for(initiator, addr.node, lane), gated);
  co_return Completion{Status::kOk};
}

std::uint32_t Fabric::stash_payload(std::span<const std::byte> data) {
  std::uint32_t handle;
  if (!payload_free_.empty()) {
    handle = payload_free_.back();
    payload_free_.pop_back();
  } else {
    handle = static_cast<std::uint32_t>(payloads_.size());
    payloads_.emplace_back();
  }
  payloads_[handle].assign(data.begin(), data.end());
  return handle;
}

void Fabric::deliver_write(RAddr addr, std::span<const std::byte> data) {
  Node& target = node(addr.node);
  if (!target.alive()) {
    ctr_errors_->inc();
    hub_->tracer.instant(
        "rdma", "write_dropped", addr.node,
        {telemetry::Arg{"mr", static_cast<std::uint64_t>(addr.mr.value)},
         telemetry::Arg{"bytes", data.size()}});
    return;  // payload dropped; initiator (if waiting) sees the WC error
  }
  auto& region = target.region(addr.mr);
  auto dst = region.bytes().subspan(addr.offset, data.size());
  std::memcpy(dst.data(), data.data(), data.size());
  region.landed(addr.offset, data.size());
}

sim::Task<Completion> Fabric::write(std::int32_t initiator, RAddr addr,
                                    std::span<const std::byte> data,
                                    Lane lane) {
  ctr_writes_->inc();
  ctr_write_bytes_->inc(data.size());
  auto span = hub_->tracer.span("rdma", "write", initiator);
  span.arg("target", static_cast<std::uint64_t>(addr.node));
  span.arg("bytes", data.size());

  Node& target = node(addr.node);
  if (!in_bounds(target.region(addr.mr), addr.offset, data.size())) {
    ctr_bad_addr_->inc();
    span.arg("bad_address", 1);
    co_return Completion{Status::kBadAddress};
  }

  const bool gated = credit_gated(lane);
  co_await CreditGate{this, &qp_for(initiator, addr.node, lane), initiator,
                      gated};

  const sim::Nanos departed = depart(initiator);
  // Large payloads occupy the send NIC for their transfer duration.
  nic_free_at(initiator) = departed + xfer_time(data.size());
  if (departed > sim_->now()) co_await sim_->sleep(departed - sim_->now());

  const sim::Nanos arrive = arrival_on_channel(
      initiator, addr.node, lane,
      link_transit(initiator, addr.node, data.size(),
                   departed + jitter(model_.write_base) +
                       xfer_time(data.size()),
                   lane));
  if (arrive > sim_->now()) co_await sim_->sleep(arrive - sim_->now());
  release_credit(qp_for(initiator, addr.node, lane), gated);

  if (!target.alive()) {
    ctr_errors_->inc();
    span.arg("wc_error", 1);
    const sim::Nanos err_at = departed + model_.failure_detect;
    if (err_at > sim_->now()) co_await sim_->sleep(err_at - sim_->now());
    co_return Completion{Status::kRemoteFailure};
  }

  auto dst = target.region(addr.mr).bytes().subspan(addr.offset, data.size());
  std::memcpy(dst.data(), data.data(), data.size());
  target.region(addr.mr).landed(addr.offset, data.size());
  co_return Completion{Status::kOk};
}

void Fabric::write_async(std::int32_t initiator, RAddr addr,
                         std::span<const std::byte> data, Lane lane) {
  ctr_writes_async_->inc();
  ctr_write_bytes_->inc(data.size());

  Node& target = node(addr.node);
  if (!in_bounds(target.region(addr.mr), addr.offset, data.size())) {
    ctr_bad_addr_->inc();
    hub_->tracer.instant("rdma", "write_async_bad_address", initiator,
                         {telemetry::Arg{"target",
                                         static_cast<std::uint64_t>(addr.node)},
                          telemetry::Arg{"bytes", data.size()}});
    return;
  }

  const bool gated = credit_gated(lane);
  const std::uint32_t payload = stash_payload(data);
  // The post body runs when a credit is available — immediately when the
  // QP is uncontended, otherwise later from the FIFO software queue (which
  // preserves post order, and so RC in-order delivery).
  auto post = [this, addr, initiator, payload, lane, gated] {
    const std::uint64_t bytes = payloads_[payload].size();
    const sim::Nanos departed = depart(initiator);
    nic_free_at(initiator) = departed + xfer_time(bytes);
    const sim::Nanos arrive = arrival_on_channel(
        initiator, addr.node, lane,
        link_transit(initiator, addr.node, bytes,
                     departed + jitter(model_.write_base) + xfer_time(bytes),
                     lane));

    // The arrival instant is known synchronously, so the span covers
    // the wire flight of the fire-and-forget write.
    {
      auto span = hub_->tracer.span("rdma", "write_async", initiator);
      span.arg("target", static_cast<std::uint64_t>(addr.node));
      span.arg("bytes", bytes);
      span.finish_at(arrive);
    }

    auto land = [this, addr, initiator, payload, lane, gated] {
      release_credit(qp_for(initiator, addr.node, lane), gated);
      deliver_write(addr, payloads_[payload]);
      free_payload(payload);
    };
    static_assert(sizeof(land) <= sim::EventFn::kInlineBytes);
    sim_->schedule_at(arrive, land);
  };
  static_assert(sizeof(post) <= sim::EventFn::kInlineBytes);
  with_credit(qp_for(initiator, addr.node, lane), gated, initiator, post);
}

void Fabric::inject_flow(std::int32_t initiator, std::int32_t target,
                         std::uint64_t bytes, Lane lane) {
  ctr_injected_->inc();
  ctr_injected_bytes_->inc(bytes);

  const bool gated = credit_gated(lane);
  with_credit(qp_for(initiator, target, lane), gated, initiator,
              [this, initiator, target, bytes, lane, gated] {
                post_flow(initiator, target, bytes, lane, gated);
              });
}

void Fabric::post_flow(std::int32_t initiator, std::int32_t target,
                       std::uint64_t bytes, Lane lane, bool gated) {
  const sim::Nanos departed = depart(initiator);
  nic_free_at(initiator) = departed + xfer_time(bytes);
  const sim::Nanos arrive = arrival_on_channel(
      initiator, target, lane,
      link_transit(initiator, target, bytes,
                   departed + jitter(model_.write_base) + xfer_time(bytes),
                   lane));
  sim_->schedule_at(arrive, [this, initiator, target, lane, gated] {
    release_credit(qp_for(initiator, target, lane), gated);
  });
}

}  // namespace heron::rdma
