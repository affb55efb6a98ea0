#include "amcast/endpoint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "amcast/system.hpp"
#include "rdma/pod.hpp"
#include "sim/log.hpp"

namespace heron::amcast {

namespace {

constexpr std::uint64_t kLogSlotSize = sizeof(TaggedLogRecord);

}  // namespace

Endpoint::Endpoint(System& system, GroupId group, int rank, rdma::Node& node)
    : system_(&system),
      group_(group),
      rank_(rank),
      node_(&node),
      inbox_(system.config().max_clients,
             system.config().inbox_slots_per_client),
      props_(static_cast<std::uint32_t>(system.total_replicas()),
             system.config().proposal_slots) {
  const Config& cfg = system.config();
  inbox_mr_ = node.register_region(inbox_.bytes());
  log_mr_ = node.register_region(cfg.log_slots * kLogSlotSize);
  acks_mr_ = node.register_region(
      static_cast<std::size_t>(system.replicas_per_group()) * sizeof(std::uint64_t));
  props_mr_ = node.register_region(props_.bytes());
  hb_mr_ = node.register_region(sizeof(std::uint64_t));
  status_mr_ = node.register_region(sizeof(StatusPage));
  control_mr_ = node.register_region(sizeof(ControlMsg));

  inbox_dirty_.assign((static_cast<std::size_t>(cfg.max_clients) + 63) / 64, 0);
  node.region(inbox_mr_).set_write_watcher(
      [this](std::uint64_t offset, std::uint64_t len) {
        ring_inbox_doorbell(offset, len);
      });
  delivered_.assign(cfg.max_clients, sim::SeqWindow{});
  ready_notifier_ = std::make_unique<sim::Notifier>(
      system.fabric().simulator());
  batch_notifier_ = std::make_unique<sim::Notifier>(
      system.fabric().simulator());

  hub_ = &system.fabric().telemetry();
  const std::string label = std::string("g")
                                .append(std::to_string(group))
                                .append(".r")
                                .append(std::to_string(rank));
  hub_->tracer.set_tid_name(node.id(), label);
  ctr_proposes_ = &hub_->metrics.counter("amcast", "proposes", label);
  ctr_commits_ = &hub_->metrics.counter("amcast", "commits", label);
  ctr_deliveries_ = &hub_->metrics.counter("amcast", "deliveries", label);
  ctr_takeovers_ = &hub_->metrics.counter("amcast", "takeovers", label);
  ctr_reproposals_ = &hub_->metrics.counter("amcast", "reproposals", label);
  ctr_shed_ = &hub_->metrics.counter("amcast", "shed", label);
  ctr_admission_tightened_ =
      &hub_->metrics.counter("amcast", "admission_tightened", label);
  gauge_admission_window_ =
      &hub_->metrics.gauge("amcast", "admission_window", label);
  hist_batch_ = &hub_->metrics.histogram("amcast", "batch_size", label,
                                         {1, 2, 4, 8, 16, 32, 64});

  effective_window_ = cfg.admission_window;
  admission_last_stalls_ = 0;

  update_status_page();
}

Endpoint::~Endpoint() {
  node_->region(inbox_mr_).set_write_watcher(nullptr);
}

void Endpoint::start() {
  auto& sim = system_->fabric().simulator();
  sim.spawn(inbox_loop());
  sim.spawn(log_loop());
  sim.spawn(props_loop());
  sim.spawn(control_loop());
  sim.spawn(batch_loop());
  if (system_->config().enable_failover) {
    sim.spawn(heartbeat_loop());
  }
}

int Endpoint::majority() const {
  return system_->replicas_per_group() / 2 + 1;
}

bool Endpoint::already_delivered(MsgUid uid) const {
  return delivered_[uid_client(uid)].contains(uid_seq(uid));
}

void Endpoint::mark_delivered(MsgUid uid) {
  delivered_[uid_client(uid)].insert(uid_seq(uid));
}

void Endpoint::set_local_proposal(MsgUid uid, Pending& p,
                                  std::uint64_t clock) {
  if (p.proposed_locally && !p.committed) {
    open_index_.erase({p.local_clock, uid});
  }
  p.proposed_locally = true;
  p.local_clock = clock;
  if (!p.committed) open_index_.emplace(clock, uid);
}

void Endpoint::set_committed(MsgUid uid, Pending& p, std::uint64_t final_ts) {
  if (p.committed) {
    committed_index_.erase({p.final_ts, uid});
  } else if (p.proposed_locally) {
    open_index_.erase({p.local_clock, uid});
  }
  p.committed = true;
  p.final_ts = final_ts;
  committed_index_.emplace(final_ts, uid);
}

void Endpoint::erase_pending(std::map<MsgUid, Pending>::iterator it) {
  const Pending& p = it->second;
  if (p.committed) {
    committed_index_.erase({p.final_ts, it->first});
  } else if (p.proposed_locally) {
    open_index_.erase({p.local_clock, it->first});
  }
  pending_.erase(it);
}

void Endpoint::clear_pending() {
  pending_.clear();
  committed_index_.clear();
  open_index_.clear();
}

std::uint64_t Endpoint::log_slot_offset(std::uint64_t seq) const {
  return (seq % system_->config().log_slots) * kLogSlotSize;
}

void Endpoint::update_status_page() {
  rdma::store_pod(node_->region(status_mr_).bytes(), 0,
                  StatusPage{epoch_, applied_seq_, clock_});
}

// ---------------------------------------------------------------------
// Inbox: clients write WireMessages into per-client rings on every
// replica. All replicas track them (so a new leader can re-propose);
// only the leader drives proposals.
// ---------------------------------------------------------------------

void Endpoint::ring_inbox_doorbell(std::uint64_t offset, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t stride = inbox_.stripe_bytes();
  const std::uint64_t last = (offset + len - 1) / stride;
  for (std::uint64_t c = offset / stride; c <= last; ++c) {
    inbox_dirty_[c / 64] |= std::uint64_t{1} << (c % 64);
  }
}

std::uint32_t Endpoint::next_doorbell(std::uint32_t from,
                                      std::uint32_t end) const {
  if (from >= end) return end;
  std::uint32_t w = from / 64;
  std::uint64_t word = inbox_dirty_[w] & (~std::uint64_t{0} << (from % 64));
  while (word == 0) {
    if (++w * 64 >= end) return end;
    word = inbox_dirty_[w];
  }
  return std::min(end, w * 64 + static_cast<std::uint32_t>(
                                    std::countr_zero(word)));
}

sim::Task<void> Endpoint::inbox_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node_->region(inbox_mr_);
  const Config& cfg = system_->config();

  // A slot holds the next message for client c when the ring's gap rule
  // accepts its ring_seq and its uid is client c's.
  auto slot_ready = [this, &region](std::uint32_t c) {
    const std::uint64_t off = inbox_.next_offset(c);
    const auto uid = rdma::load_pod<MsgUid>(region.bytes(), off);
    return uid_client(uid) == c && inbox_.ready_at(region.bytes(), c, off) &&
           uid != 0;
  };
  auto clear_doorbell = [this](std::uint32_t c) {
    inbox_dirty_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  };
  // Lowest client id in [from, end) with a ready slot, else end. Only
  // clients with a doorbell can be ready; the rest are skipped, in the
  // same ascending order a scan of every ring would use.
  auto next_ready = [this, slot_ready, clear_doorbell](std::uint32_t from,
                                                       std::uint32_t end) {
    for (std::uint32_t c = next_doorbell(from, end); c < end;
         c = next_doorbell(c + 1, end)) {
      if (slot_ready(c)) return c;
      clear_doorbell(c);
    }
    return end;
  };
  auto clients = [this, &cfg] {
    return std::min(system_->client_count(), cfg.max_clients);
  };
  auto have_new = [next_ready, clients] {
    const std::uint32_t end = clients();
    return next_ready(0, end) < end;
  };

  while (true) {
    co_await sim::wait_until(region.on_write(), have_new);
    if (stale(inc)) co_return;
    const std::uint32_t end = clients();
    for (std::uint32_t c = next_ready(0, end); c < end;
         c = next_ready(c + 1, end)) {
      while (slot_ready(c)) {
        const auto msg = inbox_.take(region.bytes(), c);
        co_await node_->cpu().use(cfg.inbox_proc);
        if (stale(inc)) co_return;
        note_seen(msg);
      }
      clear_doorbell(c);
    }
  }
}

void Endpoint::note_seen(const WireMessage& msg) {
  if (already_delivered(msg.uid)) return;
  // A pending entry may exist purely from a remote group's proposal; only
  // a *local* PROPOSE makes re-proposing unnecessary.
  auto it = pending_.find(msg.uid);
  if (it != pending_.end() && it->second.proposed_locally) return;
  if (!seen_.contains(msg.uid)) {
    seen_.emplace(msg.uid, msg);
    if (is_leader() && !taking_over_) {
      enqueue_propose(msg.uid);
    }
  }
}

void Endpoint::enqueue_propose(MsgUid uid) {
  propose_queue_.push_back(uid);
  batch_notifier_->notify_all();
}

// ---------------------------------------------------------------------
// Leader: propose -> replicate -> (majority ack) -> exchange proposals
// -> commit. One batcher loop drains the propose queue into PROPOSE
// batches; each batch's ack round runs in its own completion coroutine
// so batches pipeline.
// ---------------------------------------------------------------------

sim::Task<void> Endpoint::batch_loop() {
  const std::uint64_t inc = incarnation_;
  const Config& cfg = system_->config();

  while (true) {
    co_await sim::wait_until(*batch_notifier_, [this] {
      return is_leader() && !taking_over_ && !propose_queue_.empty();
    });
    if (stale(inc)) co_return;

    const std::uint32_t max_batch =
        std::min(std::max(cfg.max_batch, 1u), kMaxBatchLimit);
    if (cfg.batch_timeout > 0 && propose_queue_.size() < max_batch) {
      // Low load: hold the partial batch open for more arrivals, but
      // never past the timeout.
      co_await sim::wait_until_timeout(
          *batch_notifier_,
          [this, max_batch] {
            return propose_queue_.size() >= max_batch || !is_leader();
          },
          cfg.batch_timeout);
      if (stale(inc)) co_return;
    }
    if (!is_leader() || taking_over_) continue;

    // Timestamp assignment: one leader CPU charge for the whole batch.
    // Arrivals during the charge still join this batch (up to max_batch),
    // which is the backpressure that grows batches under load.
    co_await node_->cpu().use(cfg.leader_proc);
    if (stale(inc)) co_return;
    if (!is_leader() || taking_over_) continue;

    // Collect the batch members still worth proposing: a queued uid may
    // have been delivered, proposed under an earlier epoch, or duplicated
    // by a takeover re-drive in the meantime.
    std::vector<MsgUid> members;
    while (!propose_queue_.empty() && members.size() < max_batch) {
      const MsgUid uid = propose_queue_.front();
      propose_queue_.pop_front();
      auto seen_it = seen_.find(uid);
      if (seen_it == seen_.end()) continue;  // raced with delivery
      auto it = pending_.find(uid);
      if (it != pending_.end() && it->second.proposed_locally) continue;
      members.push_back(uid);
    }
    if (members.empty()) continue;

    auto batch_span = hub_->tracer.span("amcast", "batch_propose",
                                        node_->id());
    batch_span.arg("size", members.size());

    // Admission control: with a bounded window, shed the members that
    // would land beyond capacity (backlog sampled once per batch; at
    // max_batch = 1 this is exactly the per-message check). A shed
    // message still runs through ordering so every destination group
    // reaches the same verdict via the commit record; the application
    // answers BUSY instead of executing. With adaptive admission the
    // window itself follows the fabric backpressure signal.
    const std::uint32_t window = sample_admission_window();
    const std::size_t backlog = ready_.size() + pending_.size();

    const std::uint64_t first_seq = append_seq_ + 1;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const MsgUid uid = members[i];
      auto [it, inserted] = pending_.try_emplace(uid);
      Pending& p = it->second;
      p.msg = seen_.at(uid);
      p.has_msg = true;
      set_local_proposal(uid, p, ++clock_);
      p.proposals[group_] = p.local_clock;
      seen_.erase(uid);
      ctr_proposes_->inc();
      // Layout-epoch markers are exempt from shedding: unlike lease
      // grants, which the lease manager re-sends every renewal period, a
      // PREPARE/FLIP marker is multicast exactly once, so shedding it
      // would lose the layout switch cluster-wide while the reconfig
      // controller waits forever for copy/seal progress.
      if (window > 0 && backlog + i + 1 > window &&
          (p.msg.flags & kWireFlagEpoch) == 0) {
        p.shed_groups |= dst_of(group_);
        ctr_shed_->inc();
      }

      LogRecord rec;
      rec.seq = ++append_seq_;
      rec.kind = LogRecord::Kind::kPropose;
      rec.uid = uid;
      rec.value = p.local_clock;
      rec.msg = p.msg;
      rec.flags = dst_contains(p.shed_groups, group_) ? 1u : 0u;
      rec.batch = (i == 0) ? static_cast<std::uint32_t>(members.size()) : 0u;
      p.propose_seq = rec.seq;
      append_local(rec);
    }
    replicate_span(first_seq, members.size());
    update_status_page();
    hist_batch_->observe(static_cast<std::int64_t>(members.size()));

    system_->fabric().simulator().spawn(
        finish_batch(append_seq_, std::move(members)));
  }
}

// Adaptive admission thresholds. The leader tightens when its rack uplink
// holds more than kBackpressureQueueThreshold of queued transfer, or its
// node accrued at least kBackpressureStallThreshold credit stalls since the
// previous batch sample; it re-widens after kAdmissionRecoverSamples
// consecutive clean samples.
constexpr sim::Nanos kBackpressureQueueThreshold = sim::us(30);
constexpr std::uint64_t kBackpressureStallThreshold = 4;
constexpr std::uint32_t kAdmissionRecoverSamples = 8;

std::uint32_t Endpoint::sample_admission_window() {
  const Config& cfg = system_->config();
  if (cfg.admission_window == 0) return 0;
  if (!cfg.adaptive_admission) return cfg.admission_window;

  auto& fabric = system_->fabric();
  const sim::Nanos queue = fabric.uplink_backlog(node_->id());
  const std::uint64_t stalls = fabric.credit_stalls(node_->id());
  const std::uint64_t stall_delta = stalls - admission_last_stalls_;
  admission_last_stalls_ = stalls;

  const bool congested = queue > kBackpressureQueueThreshold ||
                         stall_delta >= kBackpressureStallThreshold;
  const std::uint32_t floor_window =
      std::min(std::max(cfg.admission_min_window, 1u), cfg.admission_window);
  if (congested) {
    const std::uint32_t tightened = std::max(floor_window,
                                             effective_window_ / 2);
    if (tightened < effective_window_) {
      ctr_admission_tightened_->inc();
      hub_->tracer.instant(
          "amcast", "admission_tighten", node_->id(),
          {{"window", static_cast<std::uint64_t>(tightened)},
           {"uplink_ns", static_cast<std::uint64_t>(queue)},
           {"stalls", stall_delta}});
    }
    effective_window_ = tightened;
    admission_clean_streak_ = 0;
  } else if (effective_window_ < cfg.admission_window &&
             ++admission_clean_streak_ >= kAdmissionRecoverSamples) {
    // Multiplicative recovery after a hysteresis delay: grow ~1.5x per
    // clean streak so a recovering leader re-opens in a few batches
    // without flapping on the first calm sample.
    effective_window_ = std::min(cfg.admission_window,
                                 effective_window_ +
                                     std::max(1u, effective_window_ / 2));
    admission_clean_streak_ = 0;
  }
  gauge_admission_window_->set(effective_window_);
  return effective_window_;
}

sim::Task<void> Endpoint::finish_batch(std::uint64_t last_seq,
                                       std::vector<MsgUid> members) {
  const std::uint64_t inc = incarnation_;

  // Wait for a majority of the group to have the whole PROPOSE span
  // before any member can influence another group (failover then always
  // recovers every proposal in the batch). Acks are applied-position
  // watermarks, so acking the batch's last record acks all of it.
  auto ack_span = hub_->tracer.span("amcast", "batch_round", node_->id());
  ack_span.arg("size", members.size());
  ack_span.arg("last_seq", last_seq);
  co_await sim::wait_until(node_->region(acks_mr_).on_write(),
                           [this, last_seq] {
                             return propose_majority_acked(last_seq);
                           });
  if (stale(inc)) co_return;

  for (const MsgUid uid : members) {
    auto it = pending_.find(uid);
    if (it == pending_.end()) continue;
    it->second.propose_acked = true;
    send_proposals(uid);
    maybe_commit(uid);
  }
  // Single-group members commit right here, together: one COMMIT span,
  // one replication write per follower for the whole batch.
  flush_commits();
}

bool Endpoint::propose_majority_acked(std::uint64_t seq) const {
  const auto acks = node_->region(acks_mr_).bytes();
  int count = 1;  // self
  for (int r = 0; r < system_->replicas_per_group(); ++r) {
    if (r == rank_) continue;
    if (rdma::load_pod<std::uint64_t>(acks, static_cast<std::uint64_t>(r) * 8) >=
        seq) {
      ++count;
    }
  }
  return count >= majority();
}

void Endpoint::send_proposals(MsgUid uid) {
  auto it = pending_.find(uid);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (dst_count(p.msg.dst) <= 1) return;  // single group: nothing to exchange

  const std::uint32_t my_stripe = system_->stripe_of(group_, rank_);
  for (GroupId h = 0; h < system_->group_count(); ++h) {
    if (h == group_ || !dst_contains(p.msg.dst, h)) continue;
    for (int r = 0; r < system_->replicas_per_group(); ++r) {
      Endpoint& peer = system_->endpoint(h, r);
      ProposalRecord rec;
      rec.seq = props_.next_seq(system_->stripe_of(h, r));
      rec.uid = uid;
      rec.from_group = group_;
      rec.flags = dst_contains(p.shed_groups, group_) ? 1u : 0u;
      rec.clock = p.local_clock;
      rec.dst = p.msg.dst;
      system_->fabric().write_async(
          node_->id(),
          rdma::RAddr{peer.node().id(), peer.props_mr(),
                      peer.props_.offset(my_stripe, rec.seq)},
          rdma::pod_bytes(rec));
    }
  }
  p.proposals_sent = true;
}

void Endpoint::maybe_commit(MsgUid uid) {
  if (!is_leader() || taking_over_) return;
  auto it = pending_.find(uid);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  if (p.committed || p.commit_queued || !p.proposed_locally ||
      !p.propose_acked || !p.has_msg) {
    return;
  }
  if (static_cast<int>(p.proposals.size()) < dst_count(p.msg.dst)) return;
  commit(uid);
}

// Buffers the commit decision; flush_commits() turns the buffer into a
// contiguous COMMIT span. Callers that can batch several decisions in one
// event (the batch ack round, the proposal drain) flush once at the end.
void Endpoint::commit(MsgUid uid) {
  Pending& p = pending_.at(uid);
  std::uint64_t final_ts = 0;
  for (const auto& [g, clk] : p.proposals) {
    final_ts = std::max(final_ts, pack_ts(clk, g));
  }
  clock_ = std::max(clock_, ts_clock(final_ts));

  ctr_commits_->inc();
  hub_->tracer.instant("amcast", "commit", node_->id(),
                       {{"uid", uid}, {"final_ts", final_ts}});

  // The commit record carries the final shed verdict (any destination
  // group's leader shed it), so followers need no proposal-flag state.
  p.commit_queued = true;
  commit_buf_.push_back(
      QueuedCommit{uid, final_ts, p.shed_groups != 0 ? 1u : 0u});
}

void Endpoint::flush_commits() {
  if (commit_buf_.empty()) return;
  // Deposed (or mid-takeover) with buffered decisions: drop them instead
  // of appending as a non-leader — the current leader re-drives these
  // messages from its own replicated PROPOSE records.
  if (!is_leader() || taking_over_) {
    for (const auto& qc : commit_buf_) {
      auto it = pending_.find(qc.uid);
      if (it != pending_.end()) it->second.commit_queued = false;
    }
    commit_buf_.clear();
    return;
  }
  const std::uint64_t first_seq = append_seq_ + 1;
  const std::size_t count = commit_buf_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const QueuedCommit& qc = commit_buf_[i];
    LogRecord rec;
    rec.seq = ++append_seq_;
    rec.kind = LogRecord::Kind::kCommit;
    rec.uid = qc.uid;
    rec.value = qc.final_ts;
    rec.flags = qc.flags;
    rec.batch = (i == 0) ? static_cast<std::uint32_t>(count) : 0u;
    append_local(rec);
  }
  commit_buf_.clear();
  replicate_span(first_seq, count);
  update_status_page();
}

// Appends to the local ring and applies synchronously (the leader's own
// copy); replication happens separately via replicate_span so a batch of
// consecutive records costs one write per follower.
void Endpoint::append_local(const LogRecord& rec) {
  TaggedLogRecord tagged{epoch_, rec};
  rdma::store_pod(node_->region(log_mr_).bytes(), log_slot_offset(rec.seq),
                  tagged);
  applied_seq_ = std::max(applied_seq_, rec.seq);
  apply_record(rec);
}

// Replicates log records [first_seq, first_seq + count) to all followers
// as contiguous span writes, split only where the ring wraps. A whole
// span lands atomically in one fabric event, and per-record application
// is self-contained, so partial visibility across the wrap split is
// safe.
void Endpoint::replicate_span(std::uint64_t first_seq, std::uint64_t count) {
  if (count == 0) return;
  const std::uint32_t slots = system_->config().log_slots;
  const auto bytes = node_->region(log_mr_).bytes();
  std::uint64_t s = first_seq;
  std::uint64_t left = count;
  while (left > 0) {
    const std::uint64_t idx = s % slots;
    const std::uint64_t run = std::min<std::uint64_t>(left, slots - idx);
    const auto src = bytes.subspan(idx * kLogSlotSize, run * kLogSlotSize);
    for (int r = 0; r < system_->replicas_per_group(); ++r) {
      if (r == rank_) continue;
      Endpoint& peer = system_->endpoint(group_, r);
      system_->fabric().write_async(
          node_->id(),
          rdma::RAddr{peer.node().id(), peer.log_mr(), idx * kLogSlotSize},
          src);
    }
    s += run;
    left -= run;
  }
}

// ---------------------------------------------------------------------
// Log apply (leader locally; followers via log_loop) + delivery.
// ---------------------------------------------------------------------

void Endpoint::apply_record(const LogRecord& rec) {
  switch (rec.kind) {
    case LogRecord::Kind::kPropose: {
      if (already_delivered(rec.uid)) break;
      auto [it, inserted] = pending_.try_emplace(rec.uid);
      Pending& p = it->second;
      p.msg = rec.msg;
      p.has_msg = true;
      set_local_proposal(rec.uid, p, rec.value);
      p.propose_seq = rec.seq;
      p.proposals[group_] = rec.value;
      if (rec.flags & 1) p.shed_groups |= dst_of(group_);
      clock_ = std::max(clock_, rec.value);
      seen_.erase(rec.uid);
      break;
    }
    case LogRecord::Kind::kCommit: {
      if (already_delivered(rec.uid)) break;
      auto it = pending_.find(rec.uid);
      if (it == pending_.end()) break;  // stale duplicate
      Pending& p = it->second;
      set_committed(rec.uid, p, rec.value);
      p.shed = (rec.flags & 1) != 0;
      clock_ = std::max(clock_, ts_clock(rec.value));
      try_deliver();
      break;
    }
    case LogRecord::Kind::kInvalid:
      break;
  }
  update_status_page();
}

sim::Task<void> Endpoint::log_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node_->region(log_mr_);
  const Config& cfg = system_->config();

  auto next_ready = [this, &region] {
    const auto tagged = rdma::load_pod<TaggedLogRecord>(
        region.bytes(), log_slot_offset(applied_seq_ + 1));
    return tagged.epoch == epoch_ && tagged.rec.seq == applied_seq_ + 1;
  };

  while (true) {
    co_await sim::wait_until(region.on_write(), next_ready);
    if (stale(inc)) co_return;
    bool applied_any = false;
    while (next_ready()) {
      const auto tagged = rdma::load_pod<TaggedLogRecord>(
          region.bytes(), log_slot_offset(applied_seq_ + 1));
      applied_seq_ = tagged.rec.seq;
      // The apply cost is charged once per batch (at the head record):
      // batch members share one unmarshal/apply pass, which is the
      // follower half of the batching amortization. Unbatched records
      // are their own head (batch == 1), preserving the seed cost model.
      if (tagged.rec.batch != 0) {
        co_await node_->cpu().use(cfg.follower_proc);
        if (stale(inc)) co_return;
      }
      apply_record(tagged.rec);
      applied_any = true;
    }
    if (applied_any) publish_ack();
  }
}

void Endpoint::publish_ack() {
  const std::uint64_t ack = applied_seq_;
  for (int r = 0; r < system_->replicas_per_group(); ++r) {
    if (r == rank_) continue;
    Endpoint& peer = system_->endpoint(group_, r);
    system_->fabric().write_async(
        node_->id(),
        rdma::RAddr{peer.node().id(), peer.acks_mr(),
                    static_cast<std::uint64_t>(rank_) * 8},
        rdma::pod_bytes(ack));
  }
}

sim::Task<void> Endpoint::props_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node_->region(props_mr_);
  const Config& cfg = system_->config();

  while (true) {
    co_await sim::wait_until(region.on_write(), [this, &region] {
      return props_.any_ready(region.bytes());
    });
    if (stale(inc)) co_return;
    for (std::uint32_t s = 0; s < props_.stripes(); ++s) {
      while (const auto next = props_.next(region.bytes(), s)) {
        const ProposalRecord rec = *next;
        co_await node_->cpu().use(cfg.proposal_proc);
        if (stale(inc)) co_return;
        if (already_delivered(rec.uid)) continue;
        Pending& p = pending_[rec.uid];
        p.proposals[rec.from_group] =
            std::max(p.proposals[rec.from_group], rec.clock);
        if (rec.flags & 1) p.shed_groups |= dst_of(rec.from_group);
        if (!p.has_msg) {
          // Remember the destination set so maybe_commit can count groups
          // even before our own PROPOSE lands.
          p.msg.dst = rec.dst;
          p.msg.uid = rec.uid;
        }
        maybe_commit(rec.uid);
      }
    }
    // Commits decided during this drain go out as one COMMIT span.
    flush_commits();
  }
}

void Endpoint::try_deliver() {
  while (!committed_index_.empty()) {
    // Committed, undelivered message with the smallest final timestamp
    // (ties: smallest uid).
    const auto [final_ts, uid] = *committed_index_.begin();

    // Skeen delivery condition: safe only if no uncommitted message could
    // still receive a smaller final timestamp. A locally proposed,
    // uncommitted message m' has final >= pack(m'.local_clock, 0); any
    // message not yet proposed here will get a proposal > clock_ >=
    // ts_clock(final_ts), hence a larger final.
    if (!open_index_.empty() &&
        pack_ts(open_index_.begin()->first, 0) <= final_ts) {
      return;  // blocked
    }

    const auto it = pending_.find(uid);
    const Pending& best = it->second;
    Delivery d;
    d.uid = uid;
    d.tmp = final_ts;
    d.dst = best.msg.dst;
    d.payload = best.msg.payload;
    d.payload_len = best.msg.payload_len;
    d.shed = best.shed;
    d.lease = (best.msg.flags & kWireFlagLease) != 0;
    d.epoch = (best.msg.flags & kWireFlagEpoch) != 0;
    d.fast_write = (best.msg.flags & kWireFlagFastWrite) != 0;
    mark_delivered(uid);
    erase_pending(it);
    seen_.erase(uid);
    ++delivered_count_;
    ctr_deliveries_->inc();
    hub_->tracer.instant("amcast", "deliver", node_->id(),
                         {{"uid", d.uid}, {"tmp", d.tmp}});
    if (delivery_observer_) delivery_observer_(d);
    ready_.push_back(d);
    ready_notifier_->notify_all();
  }
}

sim::Task<std::vector<Delivery>> Endpoint::next_deliveries() {
  const std::uint64_t inc = incarnation_;
  co_await sim::wait_until(*ready_notifier_, [this] { return !ready_.empty(); });
  // A waiter parked across a crash+restart must not steal deliveries from
  // the new incarnation's consumer: it gets an empty span, which callers
  // discard along with their own stale frame.
  if (stale(inc)) co_return std::vector<Delivery>{};
  co_await node_->cpu().use(system_->config().deliver_proc);
  if (stale(inc)) co_return std::vector<Delivery>{};
  std::vector<Delivery> out(ready_.begin(), ready_.end());
  ready_.clear();
  co_return out;
}

// ---------------------------------------------------------------------
// Failover: heartbeat monitoring, epoch-based takeover.
// ---------------------------------------------------------------------

sim::Task<void> Endpoint::control_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node_->region(control_mr_);
  while (true) {
    co_await sim::wait_until(region.on_write(), [this, &region] {
      return rdma::load_pod<ControlMsg>(region.bytes(), 0).serial !=
             control_serial_;
    });
    if (stale(inc)) co_return;
    const auto ctl = rdma::load_pod<ControlMsg>(region.bytes(), 0);
    control_serial_ = ctl.serial;
    if (ctl.epoch > epoch_) {
      epoch_ = ctl.epoch;
      leader_ = ctl.leader_rank;
      hub_->tracer.instant(
          "amcast", "leader_change", node_->id(),
          {{"epoch", ctl.epoch},
           {"leader", static_cast<std::uint64_t>(ctl.leader_rank)}});
      // Discard any log suffix the old leader never majority-replicated;
      // the new leader's records for those positions supersede them.
      applied_seq_ = std::min(applied_seq_, ctl.reset_seq);
      update_status_page();
      // Re-kick the log loop: records tagged with the new epoch may
      // already sit in the ring.
      node_->region(log_mr_).on_write().notify_all();
    }
  }
}

// Failure detector: a follower reads the leader's heartbeat word every
// kHeartbeatInterval and suspects it after kHeartbeatMisses unchanged reads.
constexpr sim::Nanos kHeartbeatInterval = sim::us(50);
constexpr int kHeartbeatMisses = 4;

sim::Task<void> Endpoint::heartbeat_loop() {
  const std::uint64_t inc = incarnation_;
  auto& fabric = system_->fabric();
  std::uint64_t last_seen = 0;
  int misses = 0;

  while (true) {
    co_await fabric.simulator().sleep(kHeartbeatInterval);
    if (stale(inc)) co_return;
    ++hb_value_;
    rdma::store_pod(node_->region(hb_mr_).bytes(), 0, hb_value_);
    // A replica taking over keeps heartbeating (the loop above) but does
    // not monitor anyone; a leader monitors nobody either.
    if (is_leader() || taking_over_) continue;

    Endpoint& leader = system_->endpoint(group_, leader_);
    std::uint64_t hb = 0;
    std::span<std::byte> buf(reinterpret_cast<std::byte*>(&hb), sizeof(hb));
    // Failure-detector probes ride the control lane: a congested uplink
    // must not turn queuing delay into a false suspicion.
    const auto completion = co_await fabric.read(
        node_->id(), rdma::RAddr{leader.node().id(), leader.hb_mr(), 0}, buf,
        rdma::Lane::kControl);
    if (stale(inc)) co_return;

    bool suspect = false;
    if (!completion.ok()) {
      suspect = true;  // QP error: the paper's RDMA exception path
    } else if (hb == last_seen) {
      if (++misses >= kHeartbeatMisses) suspect = true;
    } else {
      last_seen = hb;
      misses = 0;
    }
    if (!suspect) continue;
    hub_->tracer.instant("amcast", "suspect_leader", node_->id(),
                         {{"leader", static_cast<std::uint64_t>(leader_)}});

    last_seen = 0;
    // Deterministic succession: the lowest alive rank leads. Aliveness is
    // probed through the fabric (RDMA QP error = dead), so in a crash-stop
    // model every prober reaches the same answer.
    int first_alive = rank_;
    for (int cand = 0; cand < system_->replicas_per_group(); ++cand) {
      if (cand == rank_) {
        first_alive = cand;
        break;
      }
      Endpoint& c = system_->endpoint(group_, cand);
      std::uint64_t cand_hb = 0;
      std::span<std::byte> cbuf(reinterpret_cast<std::byte*>(&cand_hb),
                                sizeof(cand_hb));
      const auto cc = co_await fabric.read(
          node_->id(), rdma::RAddr{c.node().id(), c.hb_mr(), 0}, cbuf,
          rdma::Lane::kControl);
      if (stale(inc)) co_return;
      if (cc.ok()) {
        first_alive = cand;
        break;
      }
    }
    if (first_alive == rank_) {
      if (!taking_over_) fabric.simulator().spawn(takeover());
      misses = 0;
    } else {
      leader_ = first_alive;
      // Grace period: the new leader's takeover may pause its proposal
      // flow for a while; don't re-suspect it immediately.
      misses = -4 * kHeartbeatMisses;
    }
  }
}

sim::Task<void> Endpoint::takeover() {
  const std::uint64_t inc = incarnation_;
  if (taking_over_) co_return;
  taking_over_ = true;
  leader_ = rank_;
  auto& fabric = system_->fabric();
  const int n = system_->replicas_per_group();

  ctr_takeovers_->inc();
  auto takeover_span = hub_->tracer.span("amcast", "takeover", node_->id());
  takeover_span.arg("group", static_cast<std::uint64_t>(group_));

  HSIM_LOG(fabric.simulator(), kInfo,
           "group " << group_ << " replica " << rank_ << " taking over");

  // 1. Gather status pages from peers, in parallel, until self +
  //    responders form a majority (responders are alive, and any majority
  //    intersects the ack-majority of every replicated record in an alive
  //    member). With at most f crash failures, all reads resolving yields
  //    self + responders >= f + 1 = majority.
  struct Gather {
    std::vector<std::pair<int, StatusPage>> responses;
    int resolved = 0;
  };
  auto gather = std::make_shared<Gather>();
  auto gather_done = std::make_shared<sim::Notifier>(fabric.simulator());
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    fabric.simulator().spawn(
        [](Endpoint& self, int peer_rank, std::shared_ptr<Gather> g,
           std::shared_ptr<sim::Notifier> done) -> sim::Task<void> {
          Endpoint& peer = self.system_->endpoint(self.group_, peer_rank);
          StatusPage sp{};
          std::span<std::byte> buf(reinterpret_cast<std::byte*>(&sp),
                                   sizeof(sp));
          const auto cc = co_await self.system_->fabric().read(
              self.node_->id(),
              rdma::RAddr{peer.node().id(), peer.status_mr(), 0}, buf,
              rdma::Lane::kControl);
          if (cc.ok()) g->responses.emplace_back(peer_rank, sp);
          ++g->resolved;
          done->notify_all();
        }(*this, r, gather, gather_done));
  }
  co_await sim::wait_until(*gather_done,
                           [&gather, n] { return gather->resolved == n - 1; });
  if (stale(inc)) co_return;

  std::vector<StatusPage> statuses;
  statuses.push_back(StatusPage{epoch_, applied_seq_, clock_});
  int best_peer = -1;
  std::uint64_t best_seq = applied_seq_;
  std::uint64_t min_applied = applied_seq_;
  for (const auto& [r, sp] : gather->responses) {
    statuses.push_back(sp);
    min_applied = std::min(min_applied, sp.applied_seq);
    if (sp.applied_seq > best_seq) {
      best_seq = sp.applied_seq;
      best_peer = r;
    }
  }

  // 2. Catch up from the most advanced responder.
  if (best_peer >= 0 && best_seq > applied_seq_) {
    co_await catch_up_from(system_->endpoint(group_, best_peer), best_seq);
    if (stale(inc)) co_return;
  }

  // 3. Start a new epoch and reset every peer to our log position.
  std::uint64_t max_epoch = epoch_;
  std::uint64_t max_clock = clock_;
  for (const auto& sp : statuses) {
    max_epoch = std::max(max_epoch, sp.epoch);
    max_clock = std::max(max_clock, sp.clock);
  }
  epoch_ = max_epoch + 1;
  clock_ = max_clock;
  append_seq_ = applied_seq_;
  update_status_page();

  ControlMsg ctl{epoch_ /* serial: unique per takeover */, epoch_,
                 applied_seq_, rank_, 0};
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    Endpoint& peer = system_->endpoint(group_, r);
    fabric.write_async(node_->id(),
                       rdma::RAddr{peer.node().id(), peer.control_mr(), 0},
                       rdma::pod_bytes(ctl), rdma::Lane::kControl);
  }

  // 4. Resend the recovered log tail (re-tagged with the new epoch) so
  //    lagging followers converge under the new epoch.
  for (std::uint64_t s = min_applied + 1; s <= applied_seq_; ++s) {
    auto tagged = rdma::load_pod<TaggedLogRecord>(
        node_->region(log_mr_).bytes(), log_slot_offset(s));
    if (tagged.rec.seq != s) continue;
    tagged.epoch = epoch_;
    rdma::store_pod(node_->region(log_mr_).bytes(), log_slot_offset(s), tagged);
    for (int r = 0; r < n; ++r) {
      if (r == rank_) continue;
      Endpoint& peer = system_->endpoint(group_, r);
      fabric.write_async(
          node_->id(),
          rdma::RAddr{peer.node().id(), peer.log_mr(), log_slot_offset(s)},
          rdma::pod_bytes(tagged));
    }
  }

  taking_over_ = false;

  // 5. Re-drive in-flight messages: resend proposals for locally proposed
  //    uncommitted messages (in-flight batches recover member by member —
  //    every batch member is its own log record with its own clock) and
  //    route inbox'd ones through the batcher for re-proposal. Commit
  //    decisions buffered before the takeover belong to the old reign;
  //    drop them so maybe_commit re-decides under the new epoch.
  commit_buf_.clear();
  for (auto& [uid, p] : pending_) p.commit_queued = false;
  redrive_pending();
  std::vector<MsgUid> to_propose;
  for (const auto& [uid, msg] : seen_) {
    auto it = pending_.find(uid);
    // A pending entry created only by a remote proposal still needs our
    // local proposal.
    if (it == pending_.end() || !it->second.proposed_locally) {
      to_propose.push_back(uid);
    }
  }
  ctr_reproposals_->inc(to_propose.size());
  for (MsgUid uid : to_propose) {
    enqueue_propose(uid);
  }
}

sim::Task<void> Endpoint::catch_up_from(Endpoint& peer, std::uint64_t upto) {
  const std::uint64_t inc = incarnation_;
  for (std::uint64_t s = applied_seq_ + 1; s <= upto; ++s) {
    TaggedLogRecord rec{};
    std::span<std::byte> buf(reinterpret_cast<std::byte*>(&rec), sizeof(rec));
    const auto cc = co_await system_->fabric().read(
        node_->id(),
        rdma::RAddr{peer.node().id(), peer.log_mr(), log_slot_offset(s)}, buf);
    if (stale(inc)) co_return;
    if (!cc.ok() || rec.rec.seq != s) break;  // peer died or ring moved on
    rdma::store_pod(node_->region(log_mr_).bytes(), log_slot_offset(s), rec);
    applied_seq_ = s;
    apply_record(rec.rec);
  }
}

void Endpoint::redrive_pending() {
  // Snapshot first: spawn() starts the coroutine eagerly, and when the
  // majority-ack predicate already holds it runs straight through to
  // maybe_commit/flush_commits, which can erase pending_ entries out
  // from under a live iterator.
  std::vector<MsgUid> redrive;
  for (const auto& [uid, p] : pending_) {
    if (p.proposed_locally && !p.committed) redrive.push_back(uid);
  }
  for (MsgUid uid : redrive) {
    system_->fabric().simulator().spawn(
        [](Endpoint& self, MsgUid u) -> sim::Task<void> {
          const std::uint64_t inc = self.incarnation_;
          const auto pit = self.pending_.find(u);
          if (pit == self.pending_.end()) co_return;  // earlier re-drive won
          const std::uint64_t seq = pit->second.propose_seq;
          co_await sim::wait_until(
              self.node_->region(self.acks_mr_).on_write(),
              [&self, seq] { return self.propose_majority_acked(seq); });
          if (self.stale(inc)) co_return;
          auto it = self.pending_.find(u);
          if (it == self.pending_.end()) co_return;
          it->second.propose_acked = true;
          self.send_proposals(u);
          self.maybe_commit(u);
          self.flush_commits();
        }(*this, uid));
  }
}

// ---------------------------------------------------------------------
// Restart: crash-recovery rejoin. Registered memory (inbox/log/acks/
// props/hb/status/control regions) survives the crash; everything in the
// Endpoint object is treated as volatile except the per-client delivered
// sets, which stand in for the application's stable storage (the SMR
// layer's surviving object store implies them).
// ---------------------------------------------------------------------

void Endpoint::restart() {
  node_->restart();
  ++incarnation_;
  taking_over_ = false;
  clear_pending();
  seen_.clear();
  ready_.clear();
  propose_queue_.clear();
  commit_buf_.clear();
  clock_ = 0;
  applied_seq_ = 0;
  append_seq_ = 0;

  const Config& cfg = system_->config();

  // A restarted leader sizes itself against the current fabric state, not
  // a pre-crash stall count.
  effective_window_ = cfg.admission_window;
  admission_clean_streak_ = 0;
  admission_last_stalls_ = system_->fabric().credit_stalls(node_->id());

  // An inbox slot counts only if it holds a message of its own client.
  inbox_.rebuild(node_->region(inbox_mr_).bytes(),
                 [](std::uint32_t c, const WireMessage& m) {
                   return m.uid != 0 && uid_client(m.uid) == c;
                 });
  // Any ring may hold a message past the rebuilt cursor.
  std::fill(inbox_dirty_.begin(), inbox_dirty_.end(), ~std::uint64_t{0});
  props_.rebuild(node_->region(props_mr_).bytes());

  // Don't re-process a control message that predates the crash.
  control_serial_ =
      rdma::load_pod<ControlMsg>(node_->region(control_mr_).bytes(), 0).serial;

  system_->fabric().simulator().spawn(rejoin());
}

sim::Task<void> Endpoint::rejoin() {
  const std::uint64_t inc = incarnation_;
  auto& fabric = system_->fabric();
  const int n = system_->replicas_per_group();

  hub_->tracer.instant("amcast", "rejoin", node_->id(),
                       {{"group", static_cast<std::uint64_t>(group_)}});
  HSIM_LOG(fabric.simulator(), kInfo,
           "group " << group_ << " replica " << rank_ << " rejoining");

  // 1. Replay the surviving local log from the start of the ring.
  //    already_delivered() suppresses re-delivery; committed-but-
  //    undelivered messages re-enter the ready queue. (If the ring has
  //    wrapped the replay stops at the wrap point; the SMR layer's state
  //    transfer then covers the missing history.)
  {
    const auto bytes = node_->region(log_mr_).bytes();
    for (std::uint64_t s = 1;; ++s) {
      const auto tagged =
          rdma::load_pod<TaggedLogRecord>(bytes, log_slot_offset(s));
      if (tagged.rec.seq != s) break;
      applied_seq_ = s;
      apply_record(tagged.rec);
    }
  }

  // 2. Adopt the group's current epoch, leader and clock from peers, and
  //    find the most advanced log to catch up from.
  std::uint64_t best_seq = applied_seq_;
  int best_peer = -1;
  std::uint64_t ctl_epoch = 0;
  int ctl_leader = leader_;
  for (int r = 0; r < n; ++r) {
    if (r == rank_) continue;
    Endpoint& peer = system_->endpoint(group_, r);
    StatusPage sp{};
    std::span<std::byte> sbuf(reinterpret_cast<std::byte*>(&sp), sizeof(sp));
    const auto sc = co_await fabric.read(
        node_->id(), rdma::RAddr{peer.node().id(), peer.status_mr(), 0}, sbuf,
        rdma::Lane::kControl);
    if (stale(inc)) co_return;
    if (sc.ok()) {
      epoch_ = std::max(epoch_, sp.epoch);
      clock_ = std::max(clock_, sp.clock);
      if (sp.applied_seq > best_seq) {
        best_seq = sp.applied_seq;
        best_peer = r;
      }
    }
    ControlMsg cm{};
    std::span<std::byte> cbuf(reinterpret_cast<std::byte*>(&cm), sizeof(cm));
    const auto cc = co_await fabric.read(
        node_->id(), rdma::RAddr{peer.node().id(), peer.control_mr(), 0},
        cbuf, rdma::Lane::kControl);
    if (stale(inc)) co_return;
    if (cc.ok() && cm.epoch > ctl_epoch) {
      ctl_epoch = cm.epoch;
      ctl_leader = cm.leader_rank;
    }
  }
  if (ctl_epoch > 0) {
    leader_ = ctl_leader;
    epoch_ = std::max(epoch_, ctl_epoch);
  }

  // 3. Catch up the log tail from the most advanced peer.
  if (best_peer >= 0) {
    co_await catch_up_from(system_->endpoint(group_, best_peer), best_seq);
    if (stale(inc)) co_return;
  }

  append_seq_ = applied_seq_;
  update_status_page();

  // 4. Publish our applied position so the leader's majority counting
  //    sees us again.
  publish_ack();

  // 5. If we come back as the leader (no takeover happened — quick
  //    restart or failover disabled), recover per-receiver proposal
  //    counters from the receivers' surviving stripe rings and re-drive
  //    in-flight messages, mirroring takeover() step 5.
  if (is_leader()) {
    const std::uint32_t my_stripe = system_->stripe_of(group_, rank_);
    for (GroupId h = 0; h < system_->group_count(); ++h) {
      if (h == group_) continue;
      for (int r = 0; r < system_->replicas_per_group(); ++r) {
        Endpoint& peer = system_->endpoint(h, r);
        std::vector<std::byte> stripe(props_.stripe_bytes());
        const auto cc = co_await fabric.read(
            node_->id(),
            rdma::RAddr{peer.node().id(), peer.props_mr(),
                        peer.props_.offset(my_stripe, 0)},
            stripe);
        if (stale(inc)) co_return;
        if (cc.ok()) props_.recover_sent(system_->stripe_of(h, r), stripe);
      }
    }
    redrive_pending();
  }

  // 6. Resume the protocol loops under the new incarnation.
  start();
}

}  // namespace heron::amcast
