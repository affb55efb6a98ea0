#include "core/system.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rdma/pod.hpp"
#include "sim/log.hpp"
#include "sim/notifier.hpp"

namespace heron::core {

System::System(rdma::Fabric& fabric, int partitions, int replicas,
               AppFactory factory, HeronConfig config,
               amcast::Config amcast_config)
    : config_(config), factory_(std::move(factory)) {
  amcast_ =
      std::make_unique<amcast::System>(fabric, partitions, replicas,
                                       amcast_config);
  // The epoch-1 layout must exist before any Replica is constructed —
  // the replica ctor copies it (heron::reconfig).
  if (config_.reconfig_keys != 0) {
    layout0_ = reconfig::Layout::uniform(partitions, config_.reconfig_keys);
    layout_ = layout0_;
  }
  for (GroupId g = 0; g < partitions; ++g) {
    for (int r = 0; r < replicas; ++r) {
      replicas_.push_back(std::make_unique<Replica>(*this, g, r));
    }
    ctr_renewals_skipped_.push_back(&fabric.telemetry().metrics.counter(
        "core", "lease_renewals_skipped", "g" + std::to_string(g)));
  }
}

void System::start() {
  amcast_->start();
  for (auto& r : replicas_) r->start();
  if (config_.lease_duration > 0) {
    for (GroupId g = 0; g < partitions(); ++g) {
      auto& ep = amcast_->add_client();
      if (by_id_.size() <= ep.client_id()) {
        by_id_.resize(ep.client_id() + 1, nullptr);
      }
      by_id_[ep.client_id()] = nullptr;  // internal: no reply slot
      simulator().spawn(lease_manager_loop(ep, g));
    }
  }
}

sim::Task<void> System::lease_manager_loop(amcast::ClientEndpoint& ep,
                                           GroupId g) {
  auto& sim = simulator();
  // Renew at half the duration so a healthy partition always holds a
  // valid lease; the grant carries the absolute expiry computed at submit
  // time, so every replica installs the identical value. The floor guards
  // against pathological durations: see kMinLeaseRenewPeriod.
  const sim::Nanos period =
      std::max(kMinLeaseRenewPeriod, config_.lease_duration / 2);
  for (;;) {
    // Backpressure gate: while the partition's fabric neighborhood is
    // congested, stop feeding it lease markers. The current lease rides
    // out its remaining duration; fast reads then fall back to the
    // ordered path until the fabric drains (see
    // HeronConfig::lease_backpressure_threshold).
    if (config_.lease_backpressure_threshold > 0) {
      sim::Nanos worst = 0;
      for (int r = 0; r < replicas_per_partition(); ++r) {
        auto& node = amcast_->endpoint(g, r).node();
        if (!node.alive()) continue;
        worst = std::max(worst, fabric().uplink_backlog(node.id()));
      }
      if (worst > config_.lease_backpressure_threshold) {
        ctr_renewals_skipped_[static_cast<std::size_t>(g)]->inc();
        co_await sim.sleep(period);
        continue;
      }
    }
    const RequestHeader header{sim.now(), 0, 0, 0};
    const LeaseGrantWire grant{sim.now() + config_.lease_duration};
    std::array<std::byte, sizeof(RequestHeader) + sizeof(LeaseGrantWire)>
        wire{};
    std::memcpy(wire.data(), &header, sizeof(header));
    std::memcpy(wire.data() + sizeof(header), &grant, sizeof(grant));
    // With fast writes on, every grant also (re-)arms the partition's
    // invalidate/validate machinery at an ordered stream position.
    co_await ep.multicast(amcast::dst_of(g), wire,
                          amcast::kWireFlagLease |
                              (config_.fast_writes ? amcast::kWireFlagFastWrite
                                                   : 0u));
    co_await sim.sleep(period);
  }
}

void System::schedule_migration(const reconfig::Plan& plan) {
  if (config_.reconfig_keys == 0) {
    throw std::logic_error(
        "core::System::schedule_migration: reconfig_keys == 0 "
        "(reconfiguration disabled)");
  }
  auto& ep = amcast_->add_client();
  if (by_id_.size() <= ep.client_id()) {
    by_id_.resize(ep.client_id() + 1, nullptr);
  }
  by_id_[ep.client_id()] = nullptr;  // internal: no reply slot
  simulator().spawn(
      reconfig_controller_loop(ep, plan, reconfig_tickets_issued_++));
}

sim::Task<void> System::multicast_marker(amcast::ClientEndpoint& ep,
                                         DstMask dst,
                                         const reconfig::Layout& layout,
                                         std::uint32_t phase) {
  const RequestHeader header{simulator().now(), 0, 0, 0};
  std::vector<std::byte> wire(sizeof(RequestHeader));
  std::memcpy(wire.data(), &header, sizeof(header));
  if (!reconfig::encode_marker(layout, phase, wire)) {
    throw std::runtime_error(
        "reconfig: layout has too many ranges for one marker payload");
  }
  co_await ep.multicast(dst, wire, amcast::kWireFlagEpoch);
}

sim::Task<void> System::reconfig_controller_loop(amcast::ClientEndpoint& ep,
                                                 reconfig::Plan plan,
                                                 std::uint64_t ticket) {
  auto& sim = simulator();
  if (plan.at > sim.now()) co_await sim.sleep(plan.at - sim.now());

  // Serialize migrations in schedule order: Migration is a single slot
  // (in the layout wire form and in the replicas' source/dest role
  // state), so a controller whose window overlaps an in-flight move
  // would copy layout_ mid-migration and clobber the first move's state.
  while (reconfig_tickets_done_ != ticket) co_await sim.sleep(sim::us(50));

  // Markers go to EVERY group, not just the two involved: the layout
  // epoch is a cluster-wide version, and non-involved groups must install
  // it at an ordered position too (their wrong-epoch replies and epoch
  // words stay consistent, and a later move touching them starts from the
  // same layout).
  DstMask all = 0;
  for (GroupId g = 0; g < partitions(); ++g) all |= amcast::dst_of(g);

  MigrationTimes times;
  times.plan = plan;

  // PREPARE: ownership unchanged, migration armed, epoch bumped. Source
  // ranks spawn their copy machines when the marker is delivered.
  reconfig::Layout prep = layout_;
  prep.epoch += 1;
  prep.migration =
      reconfig::Migration{plan.lo, plan.hi, plan.from, plan.to};
  co_await multicast_marker(ep, all, prep, reconfig::kEpochPrepare);
  layout_ = prep;
  times.prepare = sim.now();
  migration_times_.push_back(times);
  const std::size_t slot = migration_times_.size() - 1;

  // Wait until every alive source rank reports its copier caught up
  // (dirty backlog below the seal threshold), so the flip's unthrottled
  // final delta — the quiesce window — stays brief. Crashed ranks are
  // skipped: they re-arm via resume_migration_roles on rejoin.
  for (;;) {
    bool ready = true;
    for (int q = 0; q < replicas_per_partition(); ++q) {
      Replica& src = replica(plan.from, q);
      if (src.node().alive() && !src.copy_caught_up()) {
        ready = false;
        break;
      }
    }
    if (ready) break;
    co_await sim.sleep(sim::us(50));
  }

  // FLIP: rewrite ownership (migration cleared inside apply_move), epoch
  // bumped again. Sources run their handoff inline at delivery.
  reconfig::Layout flip = layout_;
  flip.apply_move(plan.lo, plan.hi, plan.to, flip.epoch + 1);
  co_await multicast_marker(ep, all, flip, reconfig::kEpochFlip);
  layout_ = flip;
  migration_times_[slot].flip = sim.now();

  // Completion: every alive destination rank sealed its inbound stream
  // (ranks down right now seal later through the pull path).
  for (;;) {
    bool sealed = true;
    for (int q = 0; q < replicas_per_partition(); ++q) {
      Replica& dst = replica(plan.to, q);
      if (dst.node().alive() && !dst.inbound_sealed()) {
        sealed = false;
        break;
      }
    }
    if (sealed) break;
    co_await sim.sleep(sim::us(50));
  }
  migration_times_[slot].sealed = sim.now();
  ++reconfig_tickets_done_;
  HSIM_LOG(sim, kInfo, "reconfig: migration [" << plan.lo << "," << plan.hi
                                               << ") g" << plan.from << "->g"
                                               << plan.to << " sealed");
}

void System::restart_replica(GroupId g, int rank) {
  // Order matters: the endpoint brings the node back up and re-enters the
  // multicast protocol; the replica's rejoin then relies on deliveries and
  // peer reads working again.
  amcast_->endpoint(g, rank).restart();
  replica(g, rank).restart();
}

Client& System::add_client() {
  auto& ep = amcast_->add_client();
  clients_.push_back(std::make_unique<Client>(*this, ep));
  if (by_id_.size() <= ep.client_id()) {
    by_id_.resize(ep.client_id() + 1, nullptr);
  }
  by_id_[ep.client_id()] = clients_.back().get();
  return *clients_.back();
}

std::uint64_t System::total_completed() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->completed();
  return total;
}

std::uint64_t System::lease_renewals_skipped() const {
  std::uint64_t total = 0;
  for (const telemetry::Counter* c : ctr_renewals_skipped_) total += c->value();
  return total;
}

void System::reset_stats() {
  fabric().reset_stats();
  for (auto& r : replicas_) {
    r->ordering_lat().clear();
    r->coord_lat().clear();
    r->exec_lat().clear();
  }
  for (auto& c : clients_) c->latencies().clear();
}

namespace {

/// Registry keys of Client::Stat, in enum order.
constexpr std::array<telemetry::StatKey, Client::kStatCount> kClientStats{{
    {Client::kCompleted, "client", "completed"},
    {Client::kRetries, "client", "retries"},
    {Client::kTimeouts, "client", "timeouts"},
    {Client::kOverloaded, "client", "overloaded"},
    {Client::kBusyReplies, "client", "busy_replies"},
    {Client::kFastReadHits, "core", "fastread_hits"},
    {Client::kFastReadTornRetries, "core", "fastread_torn_retries"},
    {Client::kFastReadFallbacks, "core", "fastread_fallbacks"},
    {Client::kFastReadLeaseRejects, "core", "fastread_lease_rejects"},
    {Client::kFastWriteCommits, "core", "fastwrite_commits"},
    {Client::kFastWriteConflicts, "core", "fastwrite_conflicts"},
    {Client::kFastWriteFallbacks, "core", "fastwrite_fallbacks"},
    {Client::kFastWriteLeaseRejects, "core", "fastwrite_lease_rejects"},
    {Client::kWrongEpochRetries, "reconfig", "client_wrong_epoch"},
}};
static_assert(telemetry::in_enum_order(kClientStats));

}  // namespace

Client::Client(System& system, amcast::ClientEndpoint& ep)
    : system_(&system),
      ep_(&ep),
      rng_(system.fabric().seed() ^
           (0x9e3779b97f4a7c15ULL * (ep.client_id() + 1))),
      layout_(system.initial_layout()) {
  reply_mr_ = ep.node().register_region(
      static_cast<std::size_t>(system.partitions()) * sizeof(ReplySlot));
  stats_ = system.fabric().telemetry().metrics.counters(
      kClientStats, "c" + std::to_string(ep.client_id()));
}

bool Client::apply_wrong_epoch(const Reply& reply) {
  if (reply.payload.size() < sizeof(WrongEpochWire)) return false;
  WrongEpochWire wire{};
  std::memcpy(&wire, reply.payload.data(), sizeof(wire));
  // >= , not >: a client that slept through several migrations jumps to
  // the newest epoch on its FIRST wrong-epoch reply (for the range that
  // faulted); replies for other stale ranges then arrive carrying that
  // same — now current — epoch and must still patch their range, or the
  // client keeps routing them to the old owner until the hop budget runs
  // out. apply_move is idempotent and max-merges the epoch, so replaying
  // a same-epoch slice is safe; only strictly older replies are dropped.
  if (wire.epoch >= layout_.epoch && wire.owner >= 0) {
    layout_.apply_move(wire.lo, wire.hi, wire.owner, wire.epoch);
  }
  // One wrong-epoch reply invalidates EVERY cache entry seeded under an
  // older layout (satellite fix): they all potentially point at replicas
  // that handed their range off, and each would otherwise fail only
  // after its own round trip.
  fastread_cache_.purge_older_than(layout_.epoch);
  return true;
}

sim::Task<Client::Result> Client::submit_routed(
    Oid oid, GroupId fallback, std::uint32_t kind,
    std::span<const std::byte> payload, std::uint32_t flags) {
  constexpr int kMaxHops = 4;
  Result result;
  for (int hop = 0;; ++hop) {
    const GroupId home = layout_.enabled() ? layout_.owner_of(oid) : fallback;
    result =
        co_await submit_uncounted(amcast::dst_of(home), kind, payload, flags);
    if (result.status != SubmitStatus::kOk ||
        result.reply.status != kStatusWrongEpoch || hop >= kMaxHops) {
      if (result.status == SubmitStatus::kOk) count(kCompleted);
      co_return result;
    }
    // The rejecting replica neither executed nor session-marked the
    // command, so replaying it under the SAME session_seq against the
    // new owner preserves exactly-once (and dedups if the range's old
    // owner executed it before the flip — the session migrated too).
    // The bounced hop is not a completed command, so it is not counted.
    apply_wrong_epoch(result.reply);
    count(kWrongEpochRetries);
    session_seq_ = result.session_seq - 1;
  }
}

sim::Task<Client::Result> Client::submit(DstMask dst, std::uint32_t kind,
                                         std::span<const std::byte> payload,
                                         std::uint32_t flags) {
  Result result = co_await submit_uncounted(dst, kind, payload, flags);
  if (result.status == SubmitStatus::kOk) count(kCompleted);
  co_return result;
}

sim::Task<Client::Result> Client::submit_uncounted(
    DstMask dst, std::uint32_t kind, std::span<const std::byte> payload,
    std::uint32_t flags) {
  if (in_flight_) {
    throw std::logic_error(
        "core::Client::submit: overlapping submit on client " +
        std::to_string(id()) +
        " — concurrent requests alias the per-partition reply slots; "
        "serialize submits or use one Client per in-flight request");
  }
  in_flight_ = true;

  const HeronConfig& cfg = system_->config();
  auto& sim = system_->simulator();
  const sim::Nanos start = sim.now();
  const std::uint64_t seq = ++session_seq_;

  RequestHeader header{start, seq, kind, flags};
  std::vector<std::byte> wire(sizeof(RequestHeader) + payload.size());
  std::copy(payload.begin(), payload.end(), wire.begin() + sizeof(header));

  // attempt_timeout == 0 selects the legacy closed-loop behaviour: one
  // attempt, wait forever. The deadline only binds in retry mode.
  const bool retry_mode = cfg.client_attempt_timeout > 0;
  const sim::Nanos deadline =
      retry_mode && cfg.client_deadline > 0 ? start + cfg.client_deadline : 0;

  auto& region = ep_->node().region(reply_mr_);
  auto slot_at = [this, &region](GroupId g) {
    return rdma::load_pod<ReplySlot>(
        region.bytes(), static_cast<std::uint64_t>(g) * sizeof(ReplySlot));
  };

  std::vector<amcast::MsgUid> attempt_uids;
  Result result;
  result.session_seq = seq;
  bool done = false;
  bool last_was_busy = false;
  int attempt = 0;

  for (;; ++attempt) {
    header.sent_at = sim.now();
    std::memcpy(wire.data(), &header, sizeof(header));
    const amcast::MsgUid uid = co_await ep_->multicast(dst, wire);
    attempt_uids.push_back(uid);
    if (attempt > 0) {
      count(kRetries);
    }
    if (system_->attempt_observer()) {
      system_->attempt_observer()(id(), seq, uid, dst, attempt);
    }

    // A partition has answered this command when its slot holds the
    // latest attempt's uid (any status), or an earlier attempt's uid with
    // a non-BUSY status (executed or answered from the session cache). A
    // stale BUSY must not complete a retried command: the retry may still
    // be admitted.
    auto answered = [this, &slot_at, &attempt_uids, uid, dst] {
      for (GroupId g = 0; g < system_->partitions(); ++g) {
        if (!amcast::dst_contains(dst, g)) continue;
        const auto slot = slot_at(g);
        if (slot.uid == uid) continue;
        const bool older_attempt =
            std::find(attempt_uids.begin(), attempt_uids.end(), slot.uid) !=
            attempt_uids.end();
        if (!(older_attempt && slot.status != kStatusBusy)) return false;
      }
      return true;
    };

    bool got_answer;
    if (!retry_mode) {
      co_await sim::wait_until(region.on_write(), answered);
      got_answer = true;
    } else {
      sim::Nanos budget = cfg.client_attempt_timeout;
      if (deadline != 0) budget = std::min(budget, deadline - sim.now());
      got_answer = budget > 0 && co_await sim::wait_until_timeout(
                                     region.on_write(), answered, budget);
    }

    if (got_answer) {
      // Success iff some involved partition holds a non-BUSY reply for
      // any attempt of this command; otherwise every slot is a BUSY for
      // the latest attempt (the shed verdict is uniform per uid).
      last_was_busy = true;
      for (GroupId g = 0; g < system_->partitions(); ++g) {
        if (!amcast::dst_contains(dst, g)) continue;
        const auto slot = slot_at(g);
        if (slot.status == kStatusBusy) continue;
        result.reply.status = slot.status;
        result.reply.payload.assign(slot.payload.begin(),
                                    slot.payload.begin() + slot.payload_len);
        last_was_busy = false;
        done = true;
        break;  // lowest-id partition's reply
      }
      if (done) break;
      count(kBusyReplies);
    } else {
      last_was_busy = false;
    }

    // Retry budget: attempts and deadline.
    if (attempt >= cfg.client_max_retries) break;
    if (deadline != 0 && sim.now() >= deadline) break;

    // Seeded exponential backoff with jitter, capped at the deadline.
    const int shift = std::min(attempt, 20);
    sim::Nanos delay =
        std::min(cfg.client_retry_backoff_max, cfg.client_retry_backoff << shift);
    delay = delay / 2 + static_cast<sim::Nanos>(
                            rng_.bounded(static_cast<std::uint64_t>(delay / 2 + 1)));
    if (deadline != 0) delay = std::min(delay, deadline - sim.now());
    if (delay > 0) co_await sim.sleep(delay);
    if (deadline != 0 && sim.now() >= deadline) break;
  }

  result.attempts = attempt + 1;
  result.latency = sim.now() - start;
  if (done) {
    result.status = SubmitStatus::kOk;
    latencies_.record(result.latency);
  } else if (last_was_busy) {
    result.status = SubmitStatus::kOverloaded;
    count(kOverloaded);
  } else {
    result.status = SubmitStatus::kTimeout;
    count(kTimeouts);
  }
  if (system_->outcome_observer()) {
    system_->outcome_observer()(id(), seq, result.status, result.attempts);
  }
  in_flight_ = false;
  co_return result;
}

sim::Task<Client::ReadResult> Client::read(GroupId home, Oid oid) {
  const HeronConfig& cfg = system_->config();
  auto& sim = system_->simulator();
  const sim::Nanos start = sim.now();
  constexpr int kMaxHops = 4;
  bool truncated_retry = false;

  for (int hop = 0;; ++hop) {
  // Layout routing (heron::reconfig): the caller's home is overridden by
  // the layout owner; a wrong-epoch reply below re-seeds the layout and
  // loops to retry against the new owner.
  if (layout_.enabled()) home = layout_.owner_of(oid);

  if (cfg.lease_duration > 0) {
    const FastLoc* cached = fastread_cache_.find(oid);
    // Entries seeded under a superseded layout are skipped (satellite
    // fix): the cached replica may have handed the range off, and its
    // retired slot (or a live lease on unrelated ranges) must not serve
    // this oid. The ordered fallback re-seeds under the current epoch.
    if (cached != nullptr &&
        (!layout_.enabled() || cached->epoch == layout_.epoch)) {
      const FastLoc loc = *cached;
      Replica& target = system_->replica(home, loc.rank);
      const auto target_node = target.node().id();
      bool cache_bad = false;

      // READ 1: the lease word. The per-(initiator, target) in-order
      // channel guarantees this samples strictly before the slot READ
      // below, so a lease valid here covers the slot sample.
      std::array<std::byte, sizeof(LeaseWord)> lease_buf{};
      const auto cc1 = co_await system_->fabric().read(
          node().id(),
          rdma::RAddr{target_node, target.fastread_mr(), kFastReadLeaseOffset},
          lease_buf);
      if (!cc1.ok()) {
        cache_bad = true;
      } else {
        const auto lease = rdma::load_pod<LeaseWord>(
            std::span<const std::byte>(lease_buf), 0);
        if (lease.epoch == 0 || lease.expiry <= sim.now()) {
          count(kFastReadLeaseRejects);
        } else {
          // READ 2 (+ retries): the whole object slot, straight into the
          // value buffer handed back, which is then cut down to the
          // current version. A torn (odd) seqlock means a write phase or
          // its write gate is in flight there. The slot must still be
          // this oid's at the cached size: a cached offset that no
          // longer names it (a retired slot, or a diverged layout that
          // put a same-size neighbour there) is a bad cache entry, never
          // a value.
          ReadResult res;
          res.value.resize(SlotView::header_bytes() + 2ull * loc.size);
          for (int attempt = 0; attempt <= cfg.fastread_torn_retries;
               ++attempt) {
            const auto cc2 = co_await system_->fabric().read(
                node().id(),
                rdma::RAddr{target_node, target.store().mr(), loc.offset},
                res.value);
            if (!cc2.ok() ||
                !SlotView::parse_header(res.value).holds(oid, loc.size)) {
              cache_bad = true;
              break;
            }
            const SlotView view = SlotView::parse(res.value);
            if (view.torn()) {
              count(kFastReadTornRetries);
              continue;
            }
            const auto [tmp, value] = view.current();
            count(kFastReadHits);
            res.fast = true;
            res.tmp = tmp;
            std::memmove(res.value.data(), value.data(), value.size());
            res.value.resize(value.size());
            res.latency = sim.now() - start;
            co_return res;
          }
        }
      }
      if (cache_bad) fastread_cache_.erase(oid);
    }
  }

  // Ordered fallback: a core-level read through the multicast stream.
  // Linearizable because the replica answers it in stream order, after
  // every earlier write's gate completed. The reply carries the slot
  // address and re-seeds the fast-read cache.
  count(kFastReadFallbacks);
  ReadResult res;
  Result sub =
      co_await submit(amcast::dst_of(home), 0, rdma::pod_bytes(oid),
                      kReqFlagRead);
  res.submit_status = sub.status;
  res.latency = sim.now() - start;
  if (sub.status != SubmitStatus::kOk) co_return res;
  if (sub.reply.status == kStatusWrongEpoch) {
    res.status = sub.reply.status;
    if (hop >= kMaxHops) co_return res;
    // Hops left: the targeted group no longer owns the oid. Adopt the
    // newer layout slice from the reply, rewind the session counter (the
    // replica never executed or marked the read), and retry against the
    // new owner. On exhaustion we return above instead of falling
    // through: the 32-byte WrongEpochWire would pass the ReadAnswerWire
    // size check and seed a garbage FastLoc into the cache.
    apply_wrong_epoch(sub.reply);
    count(kWrongEpochRetries);
    session_seq_ = sub.session_seq - 1;
    continue;
  }
  res.status = sub.reply.status;
  if (sub.reply.status == kStatusReadNotFound ||
      sub.reply.payload.size() < sizeof(ReadAnswerWire)) {
    co_return res;
  }
  ReadAnswerWire wire{};
  std::memcpy(&wire, sub.reply.payload.data(), sizeof(wire));
  res.tmp = wire.tmp;
  res.value.assign(sub.reply.payload.begin() +
                       static_cast<std::ptrdiff_t>(sizeof(wire)),
                   sub.reply.payload.end());
  const bool serialized = (wire.rank & kReadAnswerSerializedBit) != 0;
  const std::uint32_t rank = wire.rank & ~kReadAnswerSerializedBit;
  bool seeded = false;
  if (cfg.lease_duration > 0 &&
      rank < static_cast<std::uint32_t>(system_->replicas_per_partition())) {
    fastread_cache_.put(oid, FastLoc{.offset = wire.offset,
                                     .epoch = layout_.epoch,
                                     .size = wire.size,
                                     .rank = static_cast<std::int32_t>(rank),
                                     .serialized = serialized});
    seeded = true;
  }
  if (res.status == kStatusReadTruncated && seeded && !truncated_retry) {
    // The ordered reply clipped the value to the reply-slot budget, but it
    // just seeded the address cache — loop back into the fast path once,
    // whose slot READ has no such cap and returns the whole value. Before
    // this, the FIRST read of a large object handed the caller a
    // truncated value despite leases being on. One retry only: if the
    // fast path can't serve it either (lease churn), the truncated reply
    // is still an honest, correctly-flagged answer.
    truncated_retry = true;
    continue;
  }
  co_return res;
  }  // hop loop
}

// ---------------------------------------------------------------------
// Client::write — the leased one-sided fast write (Hermes-style
// invalidate/validate; see the declaration for the state machine).
// ---------------------------------------------------------------------

/// Shared state of one attempt's per-replica fan-out. Lives on write()'s
/// frame; helpers hold a raw pointer, which stays valid because write()
/// stays suspended on `done` until every helper finished.
struct Client::FastWriteRound {
  struct PerRank {
    std::uint64_t lock = 0;       // sampled even seqlock word (CAS expected)
    Tmp base = 0;                 // current version tmp at this replica
    int overwrite_idx = 0;        // version slot the new value goes into
    sim::Nanos lease_expiry = 0;  // freshest sampled lease expiry
  };
  explicit FastWriteRound(sim::Simulator& s) : done(s) {}

  std::vector<PerRank> ranks;
  int pending = 0;
  bool failed = false;
  std::uint32_t reason = kFastWriteNone;  // first failure's reason wins
  sim::Notifier done;

  void fail(std::uint32_t why) {
    failed = true;
    if (reason == kFastWriteNone) reason = why;
  }
  void finish_one() {
    if (--pending == 0) done.notify_all();
  }
};

namespace {

/// A lease word that authorizes fast WRITES: live, and not carrying the
/// migration/arming disarm bit (fast reads only need "live").
bool fast_write_lease_ok(const LeaseWord& lease, sim::Nanos now) {
  return lease.epoch != 0 &&
         (lease.epoch & kLeaseFastWriteDisarmedBit) == 0 && lease.expiry > now;
}

}  // namespace

sim::Task<void> Client::fast_write_probe(GroupId home, int rank, Oid oid,
                                         FastLoc loc, FastWriteRound* st) {
  auto& sim = system_->simulator();
  Replica& target = system_->replica(home, rank);
  const auto target_node = target.node().id();

  // Lease word first: the in-order channel makes this sample strictly
  // older than the header sample, so a lease live here covers it.
  std::array<std::byte, sizeof(LeaseWord)> lease_buf{};
  const auto cc1 = co_await system_->fabric().read(
      node().id(),
      rdma::RAddr{target_node, target.fastread_mr(), kFastReadLeaseOffset},
      lease_buf);
  if (!cc1.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  const auto lease =
      rdma::load_pod<LeaseWord>(std::span<const std::byte>(lease_buf), 0);
  if (!fast_write_lease_ok(lease, sim.now())) {
    st->fail(kFastWriteNoLease);
    st->finish_one();
    co_return;
  }

  std::array<std::byte, SlotView::header_bytes()> hdr{};
  const auto cc2 = co_await system_->fabric().read(
      node().id(), rdma::RAddr{target_node, target.store().mr(), loc.offset},
      hdr);
  if (!cc2.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  const SlotView h = SlotView::parse_header(hdr);
  // Identity and eligibility: the slot must be THIS oid (offsets can
  // diverge across replicas after a lagger re-created objects; a retire
  // also poisons the size), the row must be raw, and the lock must be
  // even — not an ordered write phase, not someone else's invalidation.
  if (!h.holds(oid, loc.size) || h.is_serialized_slot() || h.torn()) {
    st->fail(kFastWriteConflict);
    st->finish_one();
    co_return;
  }
  // SlotView::current() on the header words alone (values not needed):
  // among valid versions the higher tmp wins; the loser is overwritten.
  const bool va = h.valid(h.tmp_a);
  const bool vb = h.valid(h.tmp_b);
  const bool a_current = va != vb ? va : h.tmp_a >= h.tmp_b;
  auto& pr = st->ranks[static_cast<std::size_t>(rank)];
  pr.lock = h.lock;
  pr.base = a_current ? h.tmp_a : h.tmp_b;
  pr.overwrite_idx = a_current ? 1 : 0;
  pr.lease_expiry = lease.expiry;
  st->finish_one();
}

sim::Task<void> Client::fast_write_install(GroupId home, int rank,
                                           FastLoc loc, Tmp fast_tmp,
                                           std::span<const std::byte> value,
                                           FastWriteRound* st) {
  Replica& target = system_->replica(home, rank);
  const auto target_node = target.node().id();
  const auto mr = target.store().mr();
  const auto& pr = st->ranks[static_cast<std::size_t>(rank)];

  // INVALIDATE: take the slot's lock word with a CAS against the probed
  // even value. A miss means the slot moved under us — an ordered write
  // phase opened, another fast writer invalidated first, or a wipe
  // resolved the generation — and the attempt aborts WITHOUT having
  // disturbed the replica (a blind write here could clobber an open
  // seqlock bracket).
  std::uint64_t observed = 0;
  const auto cc = co_await system_->fabric().cas(
      node().id(), rdma::RAddr{target_node, mr, loc.offset}, pr.lock,
      static_cast<std::uint64_t>(fast_tmp) | 1, &observed);
  if (!cc.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  if (observed != pr.lock) {
    st->fail(kFastWriteConflict);
    st->finish_one();
    co_return;
  }

  // New version into the non-current slot: tag, then body. The
  // per-(initiator, target) FIFO channel keeps CAS -> tag -> body ordered
  // at the replica, so the blocking body write's completion acks all
  // three.
  const std::uint64_t tmp_off =
      loc.offset + 8 + 8ull * static_cast<std::uint64_t>(pr.overwrite_idx);
  system_->fabric().write_async(node().id(),
                                rdma::RAddr{target_node, mr, tmp_off},
                                rdma::pod_bytes(fast_tmp));
  const std::uint64_t val_off =
      loc.offset + SlotView::header_bytes() +
      static_cast<std::uint64_t>(pr.overwrite_idx) * loc.size;
  const auto cc2 = co_await system_->fabric().write(
      node().id(), rdma::RAddr{target_node, mr, val_off}, value);
  if (!cc2.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  st->finish_one();
}

sim::Task<void> Client::fast_write_verify(GroupId home, int rank, Oid oid,
                                          FastLoc loc, Tmp fast_tmp, Tmp base,
                                          FastWriteRound* st) {
  auto& sim = system_->simulator();
  Replica& target = system_->replica(home, rank);
  const auto target_node = target.node().id();

  std::array<std::byte, SlotView::header_bytes()> hdr{};
  const auto cc = co_await system_->fabric().read(
      node().id(), rdma::RAddr{target_node, target.store().mr(), loc.offset},
      hdr);
  if (!cc.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  const SlotView h = SlotView::parse_header(hdr);
  // The slot must hold exactly our pending invalidation over the agreed
  // base: lock still fast_tmp|1 (nothing resolved or clobbered it) and
  // the version pair exactly {fast_tmp, base}. Anything else — an
  // ordered wipe, a retire, an ABA'd lock generation — aborts before
  // VALIDATE, so the pending version dies unobserved.
  const bool pair_ok = (h.tmp_a == fast_tmp && h.tmp_b == base) ||
                       (h.tmp_a == base && h.tmp_b == fast_tmp);
  if (h.lock != (static_cast<std::uint64_t>(fast_tmp) | 1) || !pair_ok ||
      !h.holds(oid, loc.size)) {
    st->fail(kFastWriteConflict);
    st->finish_one();
    co_return;
  }
  // Fresh lease sample: the VALIDATE margin check runs against the
  // tightest expiry across replicas as of this phase, and a disarm that
  // landed since the probe (a PREPARE marker) must abort the commit.
  std::array<std::byte, sizeof(LeaseWord)> lease_buf{};
  const auto cc2 = co_await system_->fabric().read(
      node().id(),
      rdma::RAddr{target_node, target.fastread_mr(), kFastReadLeaseOffset},
      lease_buf);
  if (!cc2.ok()) {
    st->fail(kFastWriteReplicaFail);
    st->finish_one();
    co_return;
  }
  const auto lease =
      rdma::load_pod<LeaseWord>(std::span<const std::byte>(lease_buf), 0);
  if (!fast_write_lease_ok(lease, sim.now())) {
    st->fail(kFastWriteNoLease);
    st->finish_one();
    co_return;
  }
  st->ranks[static_cast<std::size_t>(rank)].lease_expiry = lease.expiry;
  st->finish_one();
}

sim::Task<Client::WriteResult> Client::write(
    GroupId home, Oid oid, std::span<const std::byte> value,
    std::uint32_t kind, std::span<const std::byte> ordered_payload) {
  const HeronConfig& cfg = system_->config();
  auto& sim = system_->simulator();
  const sim::Nanos start = sim.now();
  const int nreplicas = system_->replicas_per_partition();

  WriteResult res;
  std::uint32_t reason = kFastWriteNone;
  FastLoc loc{};
  if (!cfg.fast_writes || cfg.lease_duration <= 0) {
    reason = kFastWriteDisabled;
  } else {
    if (layout_.enabled()) home = layout_.owner_of(oid);
    const FastLoc* cached = fastread_cache_.find(oid);
    if (cached == nullptr ||
        (layout_.enabled() && cached->epoch != layout_.epoch)) {
      reason = kFastWriteColdCache;
    } else if (cached->serialized) {
      reason = kFastWriteSerialized;
    } else if (value.size() != cached->size) {
      reason = kFastWriteSizeMismatch;
    } else {
      loc = *cached;
    }
  }

  do {  // single pass; `break` = abort the attempt to the ordered fallback
    if (reason != kFastWriteNone) break;
    FastWriteRound st(sim);
    st.ranks.resize(static_cast<std::size_t>(nreplicas));

    // PROBE every replica of the partition in parallel.
    st.pending = nreplicas;
    for (int r = 0; r < nreplicas; ++r) {
      sim.spawn(fast_write_probe(home, r, oid, loc, &st));
    }
    co_await sim::wait_until(st.done, [&st] { return st.pending == 0; });
    if (st.failed) {
      reason = st.reason;
      break;
    }

    // Client-side join: the partition must agree on one current version
    // (the base this write chains on) and leave enough lease runway.
    const Tmp base = st.ranks[0].base;
    sim::Nanos min_expiry = st.ranks[0].lease_expiry;
    bool agree = true;
    for (const auto& pr : st.ranks) {
      agree = agree && pr.base == base;
      min_expiry = std::min(min_expiry, pr.lease_expiry);
    }
    if (!agree) {
      reason = kFastWriteConflict;
      break;
    }
    if (min_expiry - sim.now() <= cfg.fast_write_val_margin) {
      reason = kFastWriteNoLease;
      break;
    }
    const Tmp fast_tmp = next_fast_tmp(base, id());

    // INVALIDATE + install the new version at every replica.
    st.pending = nreplicas;
    for (int r = 0; r < nreplicas; ++r) {
      sim.spawn(fast_write_install(home, r, loc, fast_tmp, value, &st));
    }
    co_await sim::wait_until(st.done, [&st] { return st.pending == 0; });
    if (st.failed) {
      reason = st.reason;
      break;
    }

    // VERIFY at every replica.
    st.pending = nreplicas;
    for (int r = 0; r < nreplicas; ++r) {
      sim.spawn(fast_write_verify(home, r, oid, loc, fast_tmp, base, &st));
    }
    co_await sim::wait_until(st.done, [&st] { return st.pending == 0; });
    if (st.failed) {
      reason = st.reason;
      break;
    }

    // VALIDATE. Replicas discard a still-pending invalidation at lease
    // expiry, so the VALIDATEs may only be posted while every sampled
    // lease outlives the margin: then the writes land long before any
    // expiry (margin >> fabric latency), and had we NOT posted, every
    // replica would discard. Either way the outcome is uniform. No
    // suspension between this check and the posts.
    min_expiry = st.ranks[0].lease_expiry;
    for (const auto& pr : st.ranks) {
      min_expiry = std::min(min_expiry, pr.lease_expiry);
    }
    if (min_expiry - sim.now() <= cfg.fast_write_val_margin) {
      reason = kFastWriteNoLease;
      break;
    }
    for (int r = 0; r < nreplicas; ++r) {
      Replica& target = system_->replica(home, r);
      system_->fabric().write_async(
          node().id(),
          rdma::RAddr{target.node().id(), target.store().mr(), loc.offset},
          rdma::pod_bytes(static_cast<std::uint64_t>(fast_tmp)));
    }

    count(kFastWriteCommits);
    count(kCompleted);
    res.fast = true;
    res.tmp = fast_tmp;
    res.base_tmp = base;
    res.latency = sim.now() - start;
    latencies_.record(res.latency);
    co_return res;
  } while (false);

  // Ordered fallback. The stream's apply-side wipe (install_version +
  // clear_fast_lock on slots with fast residue) converges every replica —
  // including any this attempt's partial one-sided traffic reached —
  // before the new value commits.
  res.fallback_reason = reason;
  count(kFastWriteFallbacks);
  if (reason == kFastWriteConflict) {
    count(kFastWriteConflicts);
  } else if (reason == kFastWriteNoLease) {
    count(kFastWriteLeaseRejects);
  }
  const Result sub = co_await submit_routed(oid, home, kind, ordered_payload);
  res.status = sub.status;
  res.reply_status = sub.reply.status;
  res.session_seq = sub.session_seq;
  res.latency = sim.now() - start;
  co_return res;
}

}  // namespace heron::core
