#include "core/replica.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>
#include <stdexcept>
#include <string>

#include "core/system.hpp"
#include "rdma/pod.hpp"
#include "sim/log.hpp"
#include "sim/notifier.hpp"

namespace heron::core {

namespace {

constexpr std::uint64_t kCoordSlot = sizeof(CoordEntry);
constexpr std::uint64_t kSyncSlot = sizeof(StateSyncEntry);
constexpr std::uint64_t kAddrQSlot = sizeof(AddrQuery);
constexpr std::uint64_t kAddrASlot = sizeof(AddrAnswer);
constexpr std::uint32_t kAddrSlots = 256;  // per stripe

/// Wire form of a Replica::Session: fixed header, then `cached_len` reply
/// payload bytes, then `extra_count` u64 executed-seqs above the
/// watermark.
struct SessionWire {
  std::uint64_t watermark = 0;
  std::uint64_t cached_seq = 0;
  std::uint64_t last_tmp = 0;    // tmp of the session's last executed cmd
  std::uint32_t cached_status = 0;
  std::uint32_t cached_len = 0;
  std::uint32_t extra_count = 0;
  std::uint32_t paged_out = 0;   // cached payload lives on the device
};
static_assert(std::is_trivially_copyable_v<SessionWire>);

/// Registry keys of Replica::Stat, in enum order.
constexpr std::array<telemetry::StatKey, Replica::kStatCount> kReplicaStats{{
    {Replica::kExecuted, "core", "executed"},
    {Replica::kSkipped, "core", "skipped"},
    {Replica::kAddrCacheHits, "core", "addr_cache_hits"},
    {Replica::kAddrCacheMisses, "core", "addr_cache_misses"},
    {Replica::kRemoteReads, "core", "remote_reads"},
    {Replica::kRemoteReadRetries, "core", "remote_read_retries"},
    {Replica::kLaggingDetected, "core", "lagging_detected"},
    {Replica::kStateTransfers, "core", "state_transfers"},
    {Replica::kTransfersServed, "core", "transfers_served"},
    {Replica::kDedupHits, "core", "session_dedup_hits"},
    {Replica::kShedReplies, "core", "shed_replies"},
    {Replica::kLeaseGrants, "core", "lease_grants"},
    {Replica::kGateWaits, "core", "gate_waits"},
    {Replica::kOrderedReads, "core", "ordered_reads"},
    {Replica::kFastFenceWaits, "core", "fastwrite_fence_waits"},
    {Replica::kFastDiscards, "core", "fastwrite_discards"},
    {Replica::kFastRepairs, "core", "fastwrite_repairs"},
    {Replica::kFastAdopted, "core", "fastwrite_reconciled_adopted"},
    {Replica::kFastRediscarded, "core", "fastwrite_reconciled_discarded"},
    {Replica::kCoordMultiPartition, "core", "coord_multi_partition"},
    {Replica::kCoordDelayed, "core", "coord_delayed"},
    {Replica::kCoordDelayNs, "core", "coord_delay_ns"},
    {Replica::kCoordGaveUp, "core", "coord_gave_up"},
    {Replica::kCheckpoints, "durable", "replica_checkpoints"},
    {Replica::kCheckpointsDeferred, "durable", "checkpoints_deferred"},
    {Replica::kSessionsEvicted, "durable", "sessions_evicted"},
    {Replica::kStaleSessionReplies, "durable", "stale_session_replies"},
    {Replica::kCopyDeferred, "reconfig", "copy_deferred"},
    {Replica::kWrongEpochReplies, "reconfig", "wrong_epoch_replies"},
    {Replica::kQuiesceDeferred, "reconfig", "quiesce_deferred"},
    {Replica::kMigratedOut, "reconfig", "migrated_out"},
    {Replica::kMigratedIn, "reconfig", "migrated_in"},
    {Replica::kCheckpointsRejectedLayout, "reconfig",
     "checkpoints_rejected_layout"},
}};
static_assert(telemetry::in_enum_order(kReplicaStats));

}  // namespace

void append_session(durable::RecordBuffer& out, std::uint32_t client,
                    const Replica::Session& s, const Reply* paged_in) {
  const Reply& reply = paged_in != nullptr ? *paged_in : s.cached_reply;
  const std::size_t extra = s.seqs.above_count();
  const SessionWire wire{
      s.watermark(),
      s.cached_seq,
      s.last_tmp,
      reply.status,
      static_cast<std::uint32_t>(reply.payload.size()),
      static_cast<std::uint32_t>(extra),
      s.reply_paged_out && paged_in == nullptr ? 1u : 0u};
  const auto value =
      out.append(durable::kRecordSession, 0, client, s.last_tmp,
                 sizeof(wire) + reply.payload.size() + extra * sizeof(Tmp));
  std::byte* at = value.data();
  std::memcpy(at, &wire, sizeof(wire));
  at += sizeof(wire);
  if (!reply.payload.empty()) {
    std::memcpy(at, reply.payload.data(), reply.payload.size());
    at += reply.payload.size();
  }
  s.seqs.for_each_above([&at](std::uint64_t e) {
    std::memcpy(at, &e, sizeof(e));
    at += sizeof(e);
  });
}

Replica::Session decode_session(std::span<const std::byte> bytes) {
  Replica::Session s;
  if (bytes.size() < sizeof(SessionWire)) return s;  // malformed
  SessionWire wire{};
  std::memcpy(&wire, bytes.data(), sizeof(wire));
  // Validate the declared lengths against the blob before slicing: a
  // truncated or corrupt blob must yield an empty session, not OOB reads.
  const std::size_t need =
      sizeof(SessionWire) + static_cast<std::size_t>(wire.cached_len) +
      static_cast<std::size_t>(wire.extra_count) * sizeof(std::uint64_t);
  if (bytes.size() < need) return s;
  s.cached_seq = wire.cached_seq;
  s.last_tmp = wire.last_tmp;
  s.cached_reply.status = wire.cached_status;
  s.reply_paged_out = wire.paged_out != 0;
  auto rest = bytes.subspan(sizeof(SessionWire));
  s.cached_reply.payload.assign(rest.begin(), rest.begin() + wire.cached_len);
  rest = rest.subspan(wire.cached_len);
  // The encoder writes the seqs above the watermark in ascending order;
  // anything else is a corrupt blob.
  sim::SeqWindow seqs(wire.watermark + 1);
  std::uint64_t prev = wire.watermark;
  for (std::uint32_t e = 0; e < wire.extra_count; ++e) {
    std::uint64_t v = 0;
    std::memcpy(&v, rest.data() + static_cast<std::size_t>(e) * sizeof(v),
                sizeof(v));
    if (v <= prev) return Replica::Session{};
    seqs.insert(v);
    prev = v;
  }
  s.seqs = std::move(seqs);
  return s;
}

Replica::Replica(System& system, GroupId group, int rank)
    : system_(&system),
      group_(group),
      rank_(rank),
      rng_(0x9e3779b9u ^ (static_cast<std::uint64_t>(group) << 16) ^
           static_cast<std::uint64_t>(rank)) {
  const HeronConfig& cfg = system.config();
  auto& n = node();
  store_ = std::make_unique<ObjectStore>(n, cfg.object_region_bytes);
  app_ = system.app_factory()();

  const auto parts = static_cast<std::uint64_t>(system.partitions());
  const auto reps = static_cast<std::uint64_t>(system.replicas_per_partition());
  const auto stripes = static_cast<std::uint64_t>(system.amcast().total_replicas());

  coord_mr_ = n.register_region(parts * reps * kCoordSlot);
  statesync_mr_ = n.register_region(reps * kSyncSlot);
  addrq_mr_ = n.register_region(stripes * kAddrSlots * kAddrQSlot);
  addra_mr_ = n.register_region(stripes * kAddrSlots * kAddrASlot);
  const StateStream::Geometry xfer_geo{cfg.statesync_ring_slots,
                                       cfg.statesync_chunk_bytes,
                                       static_cast<int>(reps)};
  const StateStream::Geometry copy_geo{cfg.reconfig.copy_ring_slots,
                                       cfg.reconfig.copy_chunk_bytes,
                                       static_cast<int>(reps)};
  staging_mr_ = n.register_region(xfer_geo.bytes());
  fastread_mr_ = n.register_region(fastread_region_bytes(static_cast<int>(reps)));
  if (cfg.reconfig_keys != 0) {
    // Copy rings + cursor words, then one pull word per requester rank.
    reconfig_mr_ = n.register_region(copy_geo.bytes() +
                                     reps * sizeof(reconfig::PullWord));
    layout_ = system.initial_layout();
  }
  app_->bind_layout(&layout_);
  pull_seen_.assign(reps, 0);

  exec_done_ = std::make_unique<sim::Notifier>(system.simulator());
  for (int t = 0; t < std::max(1, cfg.exec_threads); ++t) {
    exec_cpus_.push_back(std::make_unique<sim::Cpu>(system.simulator()));
  }
  slot_busy_.assign(exec_cpus_.size(), false);

  addrq_sent_.assign(stripes, 0);
  addrq_next_.assign(stripes, 0);
  addra_next_.assign(stripes, 0);

  hub_ = &system.fabric().telemetry();
  label_ = "g" + std::to_string(group) + ".r" + std::to_string(rank);
  const std::string& label = label_;
  StateStream::Costs costs{cfg.memcpy_ns_per_byte,
                           cfg.serialize_ns_per_byte};
  xfer_ = std::make_unique<StateStream>(
      system.fabric(), n, staging_mr_, xfer_geo, rank, costs, rng_,
      cfg.reconfig.chunk_corrupt_rate, "xfer", label);
  costs.send_memcpy = true;
  copy_ = std::make_unique<StateStream>(
      system.fabric(), n, reconfig_mr_, copy_geo, rank, costs, rng_,
      cfg.reconfig.chunk_corrupt_rate, "copy", label);
  auto& m = hub_->metrics;
  stats_ = m.counters(kReplicaStats, label);
  gauge_restart_delta_ = &m.gauge("durable", "restart_delta_bytes", label);
  hist_exec_ = &m.histogram("core", "exec_ns", label);
  hist_coord_ = &m.histogram("core", "coord_ns", label);
  hist_gate_wait_ = &m.histogram("core", "gate_wait_ns", label);

  if (cfg.durable.enabled()) {
    ckpt_ = std::make_unique<durable::CheckpointStore>(
        system.simulator(), hub_->metrics, cfg.durable, label);
  }
}

rdma::Node& Replica::node() {
  return system_->amcast().endpoint(group_, rank_).node();
}

void Replica::start() {
  app_->bootstrap(group_, *store_);
  auto& sim = system_->simulator();
  sim.spawn(main_loop());
  sim.spawn(addr_query_loop());
  sim.spawn(statesync_watch_loop());
  spawn_stream_receivers();
  if (ckpt_ != nullptr) sim.spawn(checkpoint_loop());
  if (reconfig_enabled()) {
    publish_epoch_word();
    sim.spawn(pull_watch_loop());
  }
}

void Replica::spawn_stream_receivers() {
  auto& sim = system_->simulator();
  sim.spawn(xfer_->receive_loop(
      [this](std::uint64_t stream) { return stream == xfer_expect_; },
      [this](const durable::RecordView& rec) {
        return apply_state_record(rec, ApplyRule::kReplace);
      }));
  if (reconfig_enabled()) {
    // Every copy chunk is applied: newest-wins makes stale and repeated
    // (pull-resent) records harmless.
    sim.spawn(copy_->receive_loop(
        [](std::uint64_t) { return true; },
        [this](const durable::RecordView& rec) {
          return apply_state_record(rec, ApplyRule::kNewestWins);
        }));
  }
}

CoordStats Replica::coord_stats() const {
  return CoordStats{
      .multi_partition = stat(kCoordMultiPartition),
      .delayed = stat(kCoordDelayed),
      .delay_sum = static_cast<sim::Nanos>(stat(kCoordDelayNs)),
      .gave_up = stat(kCoordGaveUp),
  };
}

std::uint64_t Replica::coord_offset(GroupId h, int q) const {
  return (static_cast<std::uint64_t>(h) *
              static_cast<std::uint64_t>(system_->replicas_per_partition()) +
          static_cast<std::uint64_t>(q)) *
         kCoordSlot;
}

std::uint64_t Replica::statesync_offset(int q) const {
  return static_cast<std::uint64_t>(q) * kSyncSlot;
}

std::uint64_t Replica::addrq_offset(std::uint32_t stripe,
                                    std::uint64_t seq) const {
  return (static_cast<std::uint64_t>(stripe) * kAddrSlots +
          seq % kAddrSlots) *
         kAddrQSlot;
}

std::uint64_t Replica::addra_offset(std::uint32_t stripe,
                                    std::uint64_t seq) const {
  return (static_cast<std::uint64_t>(stripe) * kAddrSlots +
          seq % kAddrSlots) *
         kAddrASlot;
}

// ---------------------------------------------------------------------
// Algorithm 1: main loop + coordination phases.
// ---------------------------------------------------------------------

sim::Task<void> Replica::main_loop() {
  const std::uint64_t inc = incarnation_;
  auto& ep = system_->amcast().endpoint(group_, rank_);
  while (!stale(inc)) {
    // Consume committed messages as a span: one wakeup (and one deliver
    // hand-off charge) covers everything the ordering layer has ready,
    // so the execution loop stops paying per-message wakeups under load.
    // With a single client the span has one entry and the path is
    // identical to the per-message one.
    std::vector<amcast::Delivery> span = co_await ep.next_deliveries();
    if (stale(inc)) co_return;
    for (amcast::Delivery& d : span) {
      if (d.uid == 0) continue;  // stale-waiter sentinel from the endpoint

      Request r;
      r.uid = d.uid;
      r.tmp = d.tmp;
      r.dst = d.dst;
      r.shed = d.shed;
      auto payload = d.payload_view();
      if (payload.size() < sizeof(RequestHeader)) continue;  // malformed
      std::memcpy(&r.header, payload.data(), sizeof(RequestHeader));
      r.payload.assign(payload.begin() + sizeof(RequestHeader), payload.end());

      // Lines 3-4: skip requests already covered by a state transfer.
      if (r.tmp <= last_req_) {
        count(kSkipped);
        continue;
      }
      last_req_ = r.tmp;

      // A state transfer served from this replica pauses execution at a
      // request boundary.
      while (in_state_transfer_) {
        co_await system_->simulator().sleep(sim::us(2));
        if (stale(inc)) co_return;
      }

      // Lease-grant marker (kWireFlagLease): ordered like any command but
      // replica-internal — no session, no reply (the lease manager is a
      // raw multicast endpoint with no reply slot). A shed marker is
      // dropped identically everywhere: the shed bit is set by the
      // ordering leader before delivery, so no replica installs a grant
      // the others skipped.
      if (d.lease) {
        if (!r.shed) {
          // Fast-write arming rides on the grant marker, so every replica
          // of the partition arms at the same stream position: a client
          // can only hold a fast-write-capable lease whose grant armed the
          // whole partition. Set BEFORE apply_lease_grant so the lease
          // word it publishes advertises the new arming state.
          fast_write_armed_ = d.fast_write;
          apply_lease_grant(r);
        }
        last_executed_ = std::max(last_executed_, r.tmp);
        if (leases_enabled()) push_applied();
        continue;
      }

      // Layout-epoch marker (kWireFlagEpoch): ordered like a command but
      // replica-internal. Unlike lease grants, a marker is multicast
      // exactly once, so the ordering leader exempts kWireFlagEpoch from
      // admission shedding (the !shed guard below is defense in depth —
      // were a marker ever shed, it is shed identically everywhere).
      // Every replica switches layouts at this exact stream position; the
      // FLIP handoff (final delta + retirement) runs inline, so execution
      // pauses for the marker — the paper-level "brief quiesce".
      if (d.epoch) {
        if (!r.shed) {
          co_await apply_epoch_marker(r);
          if (stale(inc)) co_return;
        }
        last_executed_ = std::max(last_executed_, r.tmp);
        if (leases_enabled()) push_applied();
        continue;
      }

      // Shed by admission control: still totally ordered (so every replica
      // of every destination takes this exact branch for this uid), but
      // answered BUSY and never executed.
      if (r.shed) {
        count(kShedReplies);
        last_executed_ = std::max(last_executed_, r.tmp);
        co_await send_reply(r, Reply{kStatusBusy, {}});
        if (stale(inc)) co_return;
        continue;
      }

      // Session-TTL tombstone: this client's session was evicted and the
      // command is at or below the evicted floor. Its original execution
      // (if any) happened before eviction; answering a distinguishable
      // kStatusStaleSession — and never re-executing — preserves
      // at-most-once without the session state.
      if (r.header.session_seq != 0) {
        const auto tomb = evicted_sessions_.find(amcast::uid_client(r.uid));
        if (tomb != evicted_sessions_.end() &&
            r.header.session_seq <= tomb->second) {
          count(kStaleSessionReplies);
          last_executed_ = std::max(last_executed_, r.tmp);
          co_await send_reply(r, Reply{kStatusStaleSession, {}});
          if (stale(inc)) co_return;
          continue;
        }
      }

      // Session dedup: a retry of a command that already executed (or is
      // executing right now) here must not run again. Answer from the reply
      // cache when it holds exactly this command; stay silent for in-flight
      // or stale duplicates — the live attempt owns the reply slot.
      if (session_executed(r)) {
        count(kDedupHits);
        last_executed_ = std::max(last_executed_, r.tmp);
        if (const Reply* cached = session_cached(r)) {
          co_await send_reply(r, *cached);
          if (stale(inc)) co_return;
        } else if (session_reply_paged_out(r)) {
          // The cached payload was paged out to the durable device after a
          // covering checkpoint; fetch it back and answer from there.
          co_await answer_paged_reply(r);
          if (stale(inc)) co_return;
        }
        continue;
      }
      // Reconfiguration serving checks, ordered before session_mark so a
      // re-routed retry still dedups at the new owner.
      if (layout_.enabled()) {
        const std::vector<Oid> roids = request_oids(r);
        // (a) Quiesce: the request touches an inbound migration range
        // whose copy stream has not sealed — defer until the SEAL lands
        // (or a pull resend re-seals). Checked regardless of ownership so
        // a pre-flip misroute defers here instead of ping-ponging
        // kStatusWrongEpoch between source and destination.
        if (touches_unsealed_inbound(roids)) {
          count(kQuiesceDeferred);
          while (touches_unsealed_inbound(roids)) {
            co_await system_->simulator().sleep(sim::us(20));
            if (stale(inc)) co_return;
          }
        }
        // (b) Foreign range: a single-partition command or core read whose
        // keys this group no longer owns under the installed layout. The
        // request is NOT executed; the reply re-seeds the client's layout
        // and cache. Multi-partition requests are exempt — their read
        // sets legitimately span foreign oids.
        if (r.single_partition() || (r.header.flags & kReqFlagRead) != 0) {
          Oid foreign = 0;
          bool have_foreign = false;
          for (const Oid oid : roids) {
            if (layout_.owner_of(oid) != group_) {
              foreign = oid;
              have_foreign = true;
              break;
            }
          }
          if (have_foreign) {
            count(kWrongEpochReplies);
            last_executed_ = std::max(last_executed_, r.tmp);
            if (leases_enabled()) push_applied();
            co_await send_reply(r, make_wrong_epoch_reply(foreign));
            if (stale(inc)) co_return;
            continue;
          }
        }
      }

      // Mark at dispatch, before execution completes: with exec_threads > 1
      // a duplicate can be delivered while the first copy is mid-execution.
      session_mark(r);

      const HeronConfig& cfg = system_->config();
      // Concurrent dispatch is off under leases: the write gate's applied
      // watermark (last_executed_) only means "everything up to tmp is
      // applied" when requests apply in timestamp order. Core-level reads
      // also stay on the sequential path (their payload is not an
      // application command, so conflict_keys cannot parse it).
      if (cfg.exec_threads > 1 && cfg.mode == Mode::kApp &&
          r.single_partition() && !leases_enabled() &&
          (r.header.flags & kReqFlagRead) == 0) {
        // §III-D1 extension: run non-conflicting single-partition requests
        // on idle worker cores.
        auto keys = app_->conflict_keys(r, group_);
        co_await sim::wait_until(*exec_done_, [this, &keys] {
          return inflight_ < static_cast<int>(exec_cpus_.size()) &&
                 keys_free(keys);
        });
        if (stale(inc)) co_return;
        int slot = 0;
        while (slot_busy_[static_cast<std::size_t>(slot)]) ++slot;
        slot_busy_[static_cast<std::size_t>(slot)] = true;
        for (Oid k : keys) locked_keys_.insert(k);
        ++inflight_;
        system_->simulator().spawn(
            exec_concurrent(std::move(r), slot, std::move(keys)));
        continue;
      }
      if (cfg.exec_threads > 1) {
        // Multi-partition requests (and other modes) form a barrier: they
        // run alone, after all in-flight executions drained.
        co_await sim::wait_until(*exec_done_,
                                 [this] { return inflight_ == 0; });
        if (stale(inc)) co_return;
      }

      co_await handle_request(std::move(r));
      if (stale(inc)) co_return;
    }
  }
}

bool Replica::keys_free(const std::vector<Oid>& keys) const {
  for (Oid k : keys) {
    if (locked_keys_.contains(k)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Sessions: at-most-once execution per (client, session_seq).
// ---------------------------------------------------------------------

bool Replica::session_executed(const Request& r) const {
  if (r.header.session_seq == 0) return false;  // sessionless client
  const auto it = sessions_.find(amcast::uid_client(r.uid));
  return it != sessions_.end() && it->second.executed(r.header.session_seq);
}

void Replica::session_mark(const Request& r) {
  if (r.header.session_seq == 0) return;
  Session& s = sessions_[amcast::uid_client(r.uid)];
  s.mark(r.header.session_seq);
  s.last_tmp = std::max(s.last_tmp, r.tmp);
  s.last_active = system_->simulator().now();
}

void Replica::session_cache_reply(const Request& r, const Reply& reply) {
  if (r.header.session_seq == 0) return;
  Session& s = sessions_[amcast::uid_client(r.uid)];
  s.cached_seq = r.header.session_seq;
  s.cached_reply.status = reply.status;
  // Mirror what the reply slot carries: the payload truncated to the slot
  // size, so a cached answer is byte-identical to the original one.
  const std::size_t len = std::min(reply.payload.size(), kMaxReplyPayload);
  s.cached_reply.payload.assign(reply.payload.begin(),
                                reply.payload.begin() +
                                    static_cast<std::ptrdiff_t>(len));
  s.reply_paged_out = false;  // the in-memory copy is authoritative again
}

const Reply* Replica::session_cached(const Request& r) const {
  if (r.header.session_seq == 0) return nullptr;
  const auto it = sessions_.find(amcast::uid_client(r.uid));
  if (it == sessions_.end()) return nullptr;
  if (it->second.cached_seq != r.header.session_seq) return nullptr;
  if (it->second.reply_paged_out) return nullptr;  // see answer_paged_reply
  return &it->second.cached_reply;
}

bool Replica::session_reply_paged_out(const Request& r) const {
  if (r.header.session_seq == 0) return false;
  const auto it = sessions_.find(amcast::uid_client(r.uid));
  return it != sessions_.end() &&
         it->second.cached_seq == r.header.session_seq &&
         it->second.reply_paged_out;
}

sim::Task<void> Replica::answer_paged_reply(const Request& r) {
  const std::uint32_t client = amcast::uid_client(r.uid);
  // Fallback when the fetch fails (CRC, compacted away): the command DID
  // execute (session_executed passed), only its reply payload is gone —
  // exactly the contract kStatusStaleSession carries.
  Reply reply{kStatusStaleSession, {}};
  if (ckpt_ != nullptr) {
    const auto rec =
        co_await ckpt_->fetch_record(durable::kRecordSession, client);
    if (rec.has_value()) {
      Session persisted = decode_session(rec->bytes);
      // A persisted record that is itself marked paged-out carries no
      // payload (a dirty-while-paged-out session snapshotted by a delta
      // checkpoint); treat it like a failed fetch — the stale-session
      // fallback — never as an empty success.
      if (persisted.cached_seq == r.header.session_seq &&
          !persisted.reply_paged_out) {
        reply = persisted.cached_reply;
        // Re-cache: further retries answer from memory again.
        const auto it = sessions_.find(client);
        if (it != sessions_.end() &&
            it->second.cached_seq == r.header.session_seq) {
          it->second.cached_reply = reply;
          it->second.reply_paged_out = false;
        }
      }
    }
  }
  co_await send_reply(r, reply);
}

void Replica::note_executed(const Request& r, const Reply& reply) {
  if (r.header.session_seq == 0) return;
  session_cache_reply(r, reply);
  if (system_->exec_observer()) {
    system_->exec_observer()(group_, rank_, amcast::uid_client(r.uid),
                             r.header.session_seq, r.uid, r.tmp);
  }
}

sim::Task<void> Replica::exec_concurrent(Request r, int slot,
                                         std::vector<Oid> keys) {
  const std::uint64_t inc = incarnation_;
  const sim::Nanos t0 = system_->simulator().now();
  ExecOutcome out = co_await execute_on(r, *exec_cpus_[static_cast<std::size_t>(slot)]);
  // restart() resets the slot bookkeeping wholesale, so a stale execution
  // must not release anything — it just disappears.
  if (stale(inc)) co_return;
  const sim::Nanos exec_ns = system_->simulator().now() - t0;
  exec_lat_.record(exec_ns);
  hist_exec_->observe(exec_ns);
  count(kExecuted);
  last_executed_ = std::max(last_executed_, r.tmp);
  note_executed(r, out.reply);
  co_await send_reply(r, out.reply);
  if (stale(inc)) co_return;

  slot_busy_[static_cast<std::size_t>(slot)] = false;
  for (Oid k : keys) locked_keys_.erase(k);
  --inflight_;
  exec_done_->notify_all();
}

sim::Task<void> Replica::handle_request(Request r) {
  const std::uint64_t inc = incarnation_;
  const HeronConfig& cfg = system_->config();
  ordering_lat_.record(system_->simulator().now() - r.header.sent_at);

  if (cfg.mode == Mode::kOrderOnly) {
    count(kExecuted);
    last_executed_ = std::max(last_executed_, r.tmp);
    note_executed(r, Reply{});
    co_await send_reply(r, Reply{});
    co_return;
  }

  // Core-level ordered read (kReqFlagRead): answered from the store
  // without invoking the application. It is the fast-read fallback and
  // the address-resolution vehicle for the client's fast-read cache. No
  // write gate is needed here: this replica executes the stream
  // sequentially, so every earlier write's gate already completed before
  // the read runs.
  if ((r.header.flags & kReqFlagRead) != 0 && cfg.mode == Mode::kApp) {
    co_await node().cpu().use(cfg.exec_dispatch_proc);
    if (stale(inc)) co_return;
    if (fast_writes_enabled()) {
      // Resolve any pending one-sided INVALIDATE before answering: an
      // ordered read must never serve the pre-image of a fast write that
      // some fast reader elsewhere has already observed committed.
      co_await fast_write_fence(r);
      if (stale(inc)) co_return;
    }
    Reply reply = make_read_reply(r);
    count(kExecuted);
    last_executed_ = std::max(last_executed_, r.tmp);
    if (leases_enabled()) push_applied();
    note_executed(r, reply);
    co_await send_reply(r, reply);
    co_return;
  }

  // Lines 5-7: single-partition requests skip coordination.
  if (r.single_partition()) {
    Reply reply;
    std::vector<Oid> locked;
    if (cfg.mode == Mode::kApp) {
      const sim::Nanos t0 = system_->simulator().now();
      ExecOutcome out = co_await execute(r);
      if (stale(inc)) co_return;
      const sim::Nanos exec_ns = system_->simulator().now() - t0;
      exec_lat_.record(exec_ns);
      hist_exec_->observe(exec_ns);
      // Single-partition requests only touch local objects; they cannot
      // observe remote progress, hence cannot detect lagging.
      reply = std::move(out.reply);
      locked = std::move(out.locked);
    }
    count(kExecuted);
    last_executed_ = std::max(last_executed_, r.tmp);
    if (leases_enabled()) {
      push_applied();
      co_await write_gate(r, locked);
      if (stale(inc)) co_return;
    }
    note_executed(r, reply);
    co_await send_reply(r, reply);
    co_return;
  }

  // Phase 2 (lines 8-10).
  const sim::Nanos c0 = system_->simulator().now();
  co_await coordinate(r, 1, cfg.extra_delay_in_phase2);
  if (stale(inc)) co_return;
  const sim::Nanos phase2 = system_->simulator().now() - c0;

  // Phase 3 (lines 11-13).
  Reply reply;
  std::vector<Oid> locked;
  if (cfg.mode == Mode::kApp) {
    const sim::Nanos t0 = system_->simulator().now();
    ExecOutcome out = co_await execute(r);
    if (stale(inc)) co_return;
    const sim::Nanos exec_ns = system_->simulator().now() - t0;
    exec_lat_.record(exec_ns);
    hist_exec_->observe(exec_ns);
    if (out.lagging) {
      // Lagging is detected in the read phase, before any seqlock bracket
      // is taken, so there is nothing to release here.
      co_await request_state_transfer(r.tmp);
      co_return;  // no reply from this replica; others answer the client
    }
    reply = std::move(out.reply);
    locked = std::move(out.locked);
  }

  // Phase 4 (lines 14-16); carries the wait-for-all statistics.
  const sim::Nanos c1 = system_->simulator().now();
  co_await coordinate(r, 2, /*collect_stats=*/true);
  if (stale(inc)) co_return;
  const sim::Nanos coord_ns = phase2 + (system_->simulator().now() - c1);
  coord_lat_.record(coord_ns);
  hist_coord_->observe(coord_ns);
  count(kCoordMultiPartition);

  count(kExecuted);
  last_executed_ = std::max(last_executed_, r.tmp);
  if (leases_enabled()) {
    push_applied();
    co_await write_gate(r, locked);
    if (stale(inc)) co_return;
  }
  note_executed(r, reply);
  co_await send_reply(r, reply);  // Phase 5 (line 17)
}

void Replica::write_coord(const Request& r, std::uint32_t phase) {
  // In partition-id order, then replica-id order — the paper notes this
  // write order is what shapes Table I's per-partition trend.
  const CoordEntry entry{r.tmp, phase, 0};
  for (GroupId h = 0; h < system_->partitions(); ++h) {
    if (!amcast::dst_contains(r.dst, h)) continue;
    for (int q = 0; q < system_->replicas_per_partition(); ++q) {
      Replica& peer = system_->replica(h, q);
      if (h == group_ && q == rank_) {
        rdma::store_pod(node().region(coord_mr_).bytes(),
                        coord_offset(group_, rank_), entry);
        node().region(coord_mr_).on_write().notify_all();
        continue;
      }
      system_->fabric().write_async(
          node().id(),
          rdma::RAddr{peer.node().id(), peer.coord_mr(),
                      peer.coord_offset(group_, rank_)},
          rdma::pod_bytes(entry));
    }
  }
}

bool Replica::coord_satisfied(const Request& r, std::uint32_t phase,
                              bool require_all) const {
  const auto region =
      const_cast<Replica*>(this)->node().region(coord_mr_).bytes();
  const int reps = system_->replicas_per_partition();
  const int needed = require_all ? reps : reps / 2 + 1;
  for (GroupId h = 0; h < system_->partitions(); ++h) {
    if (!amcast::dst_contains(r.dst, h)) continue;
    int count = 0;
    for (int q = 0; q < reps; ++q) {
      const auto e = rdma::load_pod<CoordEntry>(region, coord_offset(h, q));
      // Line 10/16: caught up to r in this phase, or already past r.
      if ((e.tmp == r.tmp && e.state >= phase) || e.tmp > r.tmp) ++count;
    }
    if (count < needed) return false;
  }
  return true;
}

sim::Task<void> Replica::coordinate(const Request& r, std::uint32_t phase,
                                    bool collect_stats) {
  const std::uint64_t inc = incarnation_;
  const HeronConfig& cfg = system_->config();
  auto span = hub_->tracer.span("core", "coordinate", node().id());
  span.arg("uid", r.uid);
  span.arg("phase", phase);
  co_await node().cpu().use(cfg.coord_check_proc);
  if (stale(inc)) co_return;
  write_coord(r, phase);

  auto& notifier = node().region(coord_mr_).on_write();
  co_await sim::wait_until(notifier, [this, &r, phase] {
    return coord_satisfied(r, phase, /*require_all=*/false);
  });
  if (stale(inc)) co_return;

  if (!collect_stats) co_return;

  // Wait-for-all heuristic (§III-A last paragraph; Table I): after the
  // majority is in, tentatively wait for all replicas up to the cutoff.
  if (coord_satisfied(r, phase, /*require_all=*/true)) co_return;
  count(kCoordDelayed);
  if (cfg.coord_extra_delay <= 0) {
    count(kCoordGaveUp);
    co_return;
  }
  const sim::Nanos t0 = system_->simulator().now();
  const bool all = co_await sim::wait_until_timeout(
      notifier,
      [this, &r, phase] { return coord_satisfied(r, phase, true); },
      cfg.coord_extra_delay);
  count(kCoordDelayNs,
        static_cast<std::uint64_t>(system_->simulator().now() - t0));
  if (!all) count(kCoordGaveUp);
}

sim::Task<void> Replica::send_reply(const Request& r, const Reply& reply) {
  const HeronConfig& cfg = system_->config();
  co_await node().cpu().use(cfg.reply_proc);

  // Amcast client ids also cover internal endpoints (lease managers),
  // which have no reply slot; replies to them are dropped here.
  Client* client = system_->client_by_amcast_id(amcast::uid_client(r.uid));
  if (client == nullptr) co_return;
  ReplySlot slot;
  slot.uid = r.uid;
  slot.status = reply.status;
  slot.payload_len = static_cast<std::uint32_t>(
      std::min(reply.payload.size(), kMaxReplyPayload));
  if (slot.payload_len > 0) {
    std::memcpy(slot.payload.data(), reply.payload.data(), slot.payload_len);
  }

  system_->fabric().write_async(
      node().id(),
      rdma::RAddr{client->node().id(), client->reply_mr(),
                  static_cast<std::uint64_t>(group_) * sizeof(ReplySlot)},
      rdma::pod_bytes(slot));
}

// ---------------------------------------------------------------------
// Algorithm 2: execution.
// ---------------------------------------------------------------------

sim::Task<Replica::ExecOutcome> Replica::execute(const Request& r) {
  return execute_on(r, node().cpu());
}

sim::Task<Replica::ExecOutcome> Replica::execute_on(const Request& r,
                                                    sim::Cpu& cpu) {
  // A restart while this execution is suspended makes it stale: the CPU
  // charges sleep through the crash and read_remote comes back empty, so
  // every suspension is followed by a check that abandons the execution
  // before the application, the seqlock brackets or the store see it.
  // Callers re-check stale() and drop the empty outcome.
  const std::uint64_t inc = incarnation_;
  const HeronConfig& cfg = system_->config();
  auto span = hub_->tracer.span("core", "execute", node().id());
  span.arg("uid", r.uid);
  span.arg("kind", r.header.kind);
  if (cfg.hiccup_prob > 0 && rng_.chance(cfg.hiccup_prob)) {
    co_await cpu.use(cfg.hiccup_duration);
    if (stale(inc)) co_return ExecOutcome{};
  }
  co_await cpu.use(cfg.exec_dispatch_proc);
  if (stale(inc)) co_return ExecOutcome{};

  ExecContext ctx(group_, *store_);
  sim::Nanos read_cpu = 0;

  // The read set's local oids are resolved up to kResolveGroup at a time,
  // in read-set order. A suspension (a fence or a remote read) lets other
  // work create or retire objects, which invalidates the batch's Refs, so
  // the rest of the read set is resolved afresh after one.
  const std::vector<Oid> reads = app_->read_set(r, group_);
  std::array<Oid, ObjectStore::kResolveGroup> batch;
  std::array<ObjectStore::Ref, ObjectStore::kResolveGroup> refs;
  std::size_t batch_next = 0;
  std::size_t batch_size = 0;
  auto resolve_from = [&](std::size_t i) {
    batch_next = batch_size = 0;
    for (; i < reads.size() && batch_size < batch.size(); ++i) {
      if (app_->partition_of(reads[i]) == group_) {
        batch[batch_size++] = reads[i];
      }
    }
    store_->resolve(std::span(batch).first(batch_size),
                    std::span(refs).first(batch_size));
  };
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const Oid oid = reads[i];
    const GroupId h = app_->partition_of(oid);
    if (h == group_) {
      if (batch_next == batch_size) resolve_from(i);
      ObjectStore::Ref ref = refs[batch_next++];
      if (fast_writes_enabled() && ref.found() && store_->fast_pending(ref)) {
        // Fence right at the read: no suspension separates the check from
        // the get() below, so a validated-elsewhere fast write cannot slip
        // past this replica's ordered read (read inversion).
        co_await fence_slot(oid);
        if (stale(inc)) co_return ExecOutcome{};
        resolve_from(i);
        ref = refs[batch_next++];
      }
      // Lines 4-7: local read of the current version.
      const auto [tmp, value] = store_->get(ref);
      ctx.set_value(oid, value);
      read_cpu += static_cast<sim::Nanos>(
          static_cast<double>(value.size()) *
          (store_->is_serialized(ref) ? cfg.serialize_ns_per_byte
                                      : cfg.memcpy_ns_per_byte));
      continue;
    }
    // Lines 8-28: remote read.
    RemoteRead rr = co_await read_remote(r, oid, h);
    if (stale(inc)) co_return ExecOutcome{};
    if (rr.lagging) co_return ExecOutcome{.lagging = true};
    ctx.set_value(oid, rr.value);
    batch_next = batch_size = 0;
  }
  // Service-time jitter. The dominant component is per (partition,
  // request) — replicas of one partition execute the same sequence on
  // near-identical machines and stay tightly synced, while different
  // partitions drift apart (queues, request mixes). A small per-replica
  // component adds the intra-partition spread that creates stragglers.
  double jitter = 1.0;
  if (cfg.exec_jitter_sigma > 0) {
    sim::Rng part_rng((static_cast<std::uint64_t>(group_) << 48) ^ r.tmp ^
                      0x517cc1b727220a95ULL);
    jitter = part_rng.lognormal_mean(1.0, cfg.exec_jitter_sigma) *
             rng_.lognormal_mean(1.0, cfg.exec_jitter_sigma / 4.0);
  }
  if (read_cpu > 0) {
    co_await cpu.use(
        static_cast<sim::Nanos>(static_cast<double>(read_cpu) * jitter));
    if (stale(inc)) co_return ExecOutcome{};
  }

  Reply reply = app_->execute(r, ctx);

  ExecOutcome out;
  if (leases_enabled()) {
    // Seqlock bracket: every overwritten slot goes odd for the whole
    // write phase AND the write gate that follows — a fast reader must
    // not observe r's value until every lease holder can serve it, or two
    // fast reads against different replicas could see r then not-r (read
    // inversion). Fresh creates need no bracket: a fast reader can only
    // learn their address from an ordered read, which is itself ordered
    // (and gated) after the create. The brackets are released by
    // write_gate.
    auto lock_for_write = [&](Oid oid) {
      if (!store_->exists(oid)) return;
      if (std::find(out.locked.begin(), out.locked.end(), oid) !=
          out.locked.end()) {
        return;
      }
      store_->begin_write(oid);
      open_brackets_.insert(oid);
      out.locked.push_back(oid);
    };
    for (const auto& c : ctx.creates()) lock_for_write(c.oid);
    for (const auto& w : ctx.writes()) lock_for_write(w.oid);
  }

  // Writing phase: charge the application cost plus write serialization,
  // then apply all writes at one instant (the store is never observed
  // mid-write-phase).
  sim::Nanos write_cpu = ctx.cpu_cost();
  for (const auto& w : ctx.writes()) {
    write_cpu += static_cast<sim::Nanos>(
        static_cast<double>(w.bytes.size()) *
        (store_->is_serialized(w.oid) ? cfg.serialize_ns_per_byte
                                      : cfg.memcpy_ns_per_byte));
  }
  for (const auto& c : ctx.creates()) {
    write_cpu += static_cast<sim::Nanos>(static_cast<double>(c.bytes.size()) *
                                         cfg.memcpy_ns_per_byte);
  }
  if (write_cpu > 0) {
    co_await cpu.use(
        static_cast<sim::Nanos>(static_cast<double>(write_cpu) * jitter));
    // restart() already closed the brackets taken above.
    if (stale(inc)) co_return ExecOutcome{};
  }
  apply_writes(r, ctx);
  out.lagging = false;
  out.reply = std::move(reply);
  co_return out;
}

void Replica::apply_writes(const Request& r, ExecContext& ctx) {
  // Coalesce duplicate writes to the same object (e.g. a NewOrder with
  // the same item twice): a request must produce at most one version per
  // object, or both dual-version slots would carry r.tmp and remote
  // readers of r would false-detect lagging. Creates are queued before
  // writes, each in call order, so after sorting by (oid, queue position)
  // the last entry of each oid's run holds its final value; runs are
  // applied (and logged) in ascending oid order.
  auto& queued = apply_scratch_;
  queued.clear();
  for (const auto& c : ctx.creates()) {
    // Creation order is call order (and so slot-offset order).
    store_->create_if_absent(c.oid, c.bytes, c.serialized);
    queued.push_back({c.oid, queued.size(), c.bytes});
  }
  for (const auto& w : ctx.writes()) {
    queued.push_back({w.oid, queued.size(), w.bytes});
  }
  std::sort(queued.begin(), queued.end(),
            [](const QueuedWrite& a, const QueuedWrite& b) {
              return a.oid != b.oid ? a.oid < b.oid : a.pos < b.pos;
            });
  auto& oids = apply_oids_;
  oids.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queued.size(); ++i) {
    if (i + 1 < queued.size() && queued[i + 1].oid == queued[i].oid) {
      continue;  // superseded by a later write to the same object
    }
    queued[kept++] = queued[i];
    oids.push_back(queued[i].oid);
  }
  // Nothing below creates or retires, so one batch serves every write.
  auto& refs = apply_refs_;
  refs.resize(kept);
  store_->resolve(oids, refs);
  for (std::size_t i = 0; i < kept; ++i) {
    const Oid oid = queued[i].oid;
    const std::span<const std::byte> bytes = queued[i].bytes;
    if (system_->config().fast_writes && store_->has_fast_trace(refs[i])) {
      // Ordered wipe: the slot carries fast-write residue (a committed
      // fast version, or the headers of an aborted one). set() would keep
      // that residue in the sibling slot, and replicas that missed the
      // one-sided traffic would diverge from those that saw it. Install
      // r.tmp as the object's entire state instead and strip the lock tag
      // (parity preserved — we are inside this request's seqlock bracket),
      // so every replica converges on {r.tmp, r.tmp} regardless of which
      // fast-write bytes reached it. This doubles as the repair path for
      // the fast writer's own ordered fallback.
      store_->install_version(oid, bytes, r.tmp,
                              store_->is_serialized(refs[i]));
      store_->clear_fast_lock(oid);
      count(kFastRepairs);
    } else {
      store_->set(refs[i], bytes, r.tmp);
    }
    log_update(r.tmp, oid);
  }
}

// ---------------------------------------------------------------------
// Fast-read leases: grant markers, applied watermarks, the write gate
// and the ordered-read fallback.
// ---------------------------------------------------------------------

bool Replica::leases_enabled() const {
  return system_->config().lease_duration > 0;
}

void Replica::publish_lease_word() {
  std::uint64_t epoch_word = lease_epoch_;
  // Fast-write disarm advertisement (kLeaseFastWriteDisarmedBit): probes
  // must fall back while the arming marker hasn't been delivered or an
  // outbound migration's copy machine is live — one-sided commits bypass
  // its dirty tracking and would be lost at the destination after FLIP.
  if (epoch_word != 0 && system_->config().fast_writes &&
      (!fast_write_armed_ || outbound_active_)) {
    epoch_word |= kLeaseFastWriteDisarmedBit;
  }
  const LeaseWord w{epoch_word, lease_expiry_};
  rdma::store_pod(node().region(fastread_mr_).bytes(), kFastReadLeaseOffset, w);
  node().region(fastread_mr_).on_write().notify_all();
}

void Replica::apply_lease_grant(const Request& r) {
  if (r.payload.size() < sizeof(LeaseGrantWire)) return;  // malformed
  LeaseGrantWire wire{};
  std::memcpy(&wire, r.payload.data(), sizeof(wire));
  count(kLeaseGrants);
  lease_epoch_ = r.tmp;
  // Monotone: expiry = submit time + duration and the manager submits
  // sequentially, so grants carry non-decreasing expiries; max() guards
  // the invariant the write gate's timeout cap leans on.
  lease_expiry_ = std::max(lease_expiry_, wire.expiry);
  publish_lease_word();
  hub_->tracer.instant(
      "core", "lease_grant", node().id(),
      {telemetry::Arg{"epoch", lease_epoch_},
       telemetry::Arg{"expiry", static_cast<std::uint64_t>(lease_expiry_)}});
}

void Replica::push_applied() {
  const AppliedWord w{last_executed_, system_->simulator().now()};
  // Own slot first (keeps the gate's region scan uniform across ranks),
  // then one-sided writes into every peer's fast-read region.
  rdma::store_pod(node().region(fastread_mr_).bytes(),
                  fastread_applied_offset(rank_), w);
  node().region(fastread_mr_).on_write().notify_all();
  for (int q = 0; q < system_->replicas_per_partition(); ++q) {
    if (q == rank_) continue;
    Replica& peer = system_->replica(group_, q);
    system_->fabric().write_async(
        node().id(),
        rdma::RAddr{peer.node().id(), peer.fastread_mr(),
                    fastread_applied_offset(rank_)},
        rdma::pod_bytes(w));
  }
}

sim::Task<void> Replica::write_gate(const Request& r,
                                    const std::vector<Oid>& locked) {
  const std::uint64_t inc = incarnation_;
  const sim::Nanos now = system_->simulator().now();
  // Nothing to wait for without locked slots or an active lease: fast
  // reads are impossible (no lease) or cannot observe r's writes (no
  // overwritten slot).
  if (!locked.empty() && leases_enabled() && lease_expiry_ > now) {
    const int reps = system_->replicas_per_partition();
    auto all_applied = [this, reps, &r] {
      const auto region = node().region(fastread_mr_).bytes();
      for (int q = 0; q < reps; ++q) {
        const auto w =
            rdma::load_pod<AppliedWord>(region, fastread_applied_offset(q));
        if (w.tmp < r.tmp) return false;
      }
      return true;
    };
    if (!all_applied()) {
      count(kGateWaits);
      // Capped by the expiry of the lease active NOW: any grant still
      // valid after that instant is ordered after r in the stream, so its
      // holder has already applied r — a fast read it authorizes cannot
      // miss r's writes even if a crashed peer never catches up.
      co_await sim::wait_until_timeout(node().region(fastread_mr_).on_write(),
                                       all_applied, lease_expiry_ - now);
      if (!stale(inc)) {
        hist_gate_wait_->observe(system_->simulator().now() - now);
      }
    }
  }
  // Release the brackets even when the incarnation went stale mid-wait: a
  // takeover (incarnation bump without a node restart) that early-returned
  // here used to strand the seqlocks permanently odd, walling every future
  // fast read off these slots. release_bracket only ends brackets this
  // incarnation still owns — restart() clears open_brackets_ and runs its
  // own sweep, so a crash+restart cannot double-release a slot the new
  // incarnation re-bracketed.
  for (Oid oid : locked) release_bracket(oid);
}

void Replica::release_bracket(Oid oid) {
  const auto it = open_brackets_.find(oid);
  if (it == open_brackets_.end()) return;  // swept by restart or epoch flip
  open_brackets_.erase(it);
  if (store_->exists(oid)) store_->end_write(oid);
}

// ---------------------------------------------------------------------
// Fast writes: the replica-side fence and restart reconciliation.
// ---------------------------------------------------------------------

bool Replica::fast_writes_enabled() const {
  return leases_enabled() && system_->config().fast_writes;
}

sim::Task<void> Replica::fast_write_fence(const Request& r) {
  for (const Oid oid : request_oids(r)) {
    if (!store_->exists(oid) || !store_->fast_pending(oid)) continue;
    co_await fence_slot(oid);
    if (stale(incarnation_)) co_return;
  }
}

sim::Task<void> Replica::fence_slot(Oid oid) {
  const std::uint64_t inc = incarnation_;
  count(kFastFenceWaits);
  while (store_->fast_pending(oid)) {
    const sim::Nanos now = system_->simulator().now();
    if (lease_expiry_ <= now) {
      // The lease (including any renewal) has run out and the slot is
      // still pending: the writer never posted its VALIDATE — clients
      // only validate while more than fast_write_val_margin of lease
      // remains, and the margin dwarfs the fabric's delivery latency, so
      // a posted VALIDATE would have landed by now. Every replica reaches
      // this same verdict at its own expiry; discard restores the
      // surviving version.
      store_->discard_pending(oid);
      count(kFastDiscards);
      co_return;
    }
    // Wake on any write into the object region (the VALIDATE/discard
    // paths notify it); re-check the expiry each round — a renewal grant
    // can extend it while we wait.
    co_await sim::wait_until_timeout(
        node().region(store_->mr()).on_write(),
        [this, oid] { return !store_->fast_pending(oid); },
        lease_expiry_ - now);
    if (stale(inc)) co_return;
  }
}

Reply Replica::make_read_reply(const Request& r) const {
  count(kOrderedReads);
  if (r.payload.size() < sizeof(Oid)) return Reply{kStatusReadNotFound, {}};
  Oid oid = 0;
  std::memcpy(&oid, r.payload.data(), sizeof(oid));
  if (!store_->exists(oid)) return Reply{kStatusReadNotFound, {}};
  const auto [tmp, value] = store_->get(oid);
  // The rank field's high bit flags serialized rows: fast writers must
  // skip them (a one-sided value write cannot re-serialize), and the
  // client records the flag alongside the cached address.
  ReadAnswerWire wire{tmp, store_->offset_of(oid), store_->size_of(oid),
                      static_cast<std::uint32_t>(rank_) |
                          (store_->is_serialized(oid)
                               ? kReadAnswerSerializedBit
                               : 0u)};
  Reply reply;
  const std::size_t inline_len = std::min(value.size(), kMaxReadInline);
  if (value.size() > kMaxReadInline) reply.status = kStatusReadTruncated;
  reply.payload.resize(sizeof(wire) + inline_len);
  std::memcpy(reply.payload.data(), &wire, sizeof(wire));
  std::memcpy(reply.payload.data() + sizeof(wire), value.data(), inline_len);
  return reply;
}

sim::Task<Replica::RemoteRead> Replica::read_remote(const Request& r, Oid oid,
                                                    GroupId h) {
  const std::uint64_t inc = incarnation_;
  count(kRemoteReads);
  auto span = hub_->tracer.span("core", "remote_read", node().id());
  span.arg("oid", oid);
  span.arg("home", static_cast<std::uint64_t>(h));
  const bool resolved = co_await resolve_addr(oid, h);
  if (!resolved) co_return RemoteRead{};  // unreachable partition

  auto& locs = object_map_.at(oid);
  const int reps = system_->replicas_per_partition();
  auto coord_region = node().region(coord_mr_).bytes();

  while (true) {
    // Line 15: choose among processes that coordinated in Phase 2 for r
    // (their coord entry carries r.tmp) and whose address we know. A
    // process whose entry is already *past* r also qualifies: it executed
    // everything up to r, and dual-versioning either still exposes the
    // right version or reveals that we lag (line 23).
    std::vector<int> candidates;
    for (int q = 0; q < reps; ++q) {
      if (!locs[static_cast<std::size_t>(q)].known) continue;
      const auto e =
          rdma::load_pod<CoordEntry>(coord_region, coord_offset(h, q));
      if ((e.tmp == r.tmp && e.state >= 1) || e.tmp > r.tmp) {
        candidates.push_back(q);
      }
    }
    if (candidates.empty()) {
      // Coordination messages may still be in flight; re-check on the
      // next write into coordination memory.
      co_await node().region(coord_mr_).on_write().wait();
      if (stale(inc)) co_return RemoteRead{};
      continue;
    }
    const int q = candidates[rng_.bounded(candidates.size())];
    const auto& loc = locs[static_cast<std::size_t>(q)];

    Replica& peer = system_->replica(h, q);
    std::vector<std::byte> buf(SlotView::header_bytes() + 2ull * loc.size);
    const auto cc = co_await system_->fabric().read(
        node().id(), rdma::RAddr{peer.node().id(), peer.store().mr(), loc.offset},
        buf);
    if (stale(inc)) co_return RemoteRead{};
    if (!cc.ok()) {
      // Line 20-21: RDMA exception — the peer failed; pick another.
      count(kRemoteReadRetries);
      locs[static_cast<std::size_t>(q)].known = false;
      continue;
    }

    const auto view = SlotView::parse(buf);
    const auto version = view.version_before(r.tmp);
    if (!version) {
      // Line 23-25: both versions postdate r — we lag behind our group.
      count(kLaggingDetected);
      co_return RemoteRead{.lagging = true};
    }
    RemoteRead out;
    out.ok = true;
    out.value.assign(version->second.begin(), version->second.end());
    if (view.is_serialized_slot()) {
      co_await node().cpu().use(static_cast<sim::Nanos>(
          static_cast<double>(view.size) *
          system_->config().serialize_ns_per_byte));
    }
    co_return out;
  }
}

sim::Task<bool> Replica::resolve_addr(Oid oid, GroupId h) {
  const std::uint64_t inc = incarnation_;
  const int reps = system_->replicas_per_partition();
  const int majority = reps / 2 + 1;

  auto known_count = [this, oid, reps] {
    auto it = object_map_.find(oid);
    if (it == object_map_.end()) return 0;
    int known = 0;
    for (int q = 0; q < reps; ++q) {
      if (it->second[static_cast<std::size_t>(q)].known) ++known;
    }
    return known;
  };

  // Consume any answers that already arrived (including strays from
  // earlier queries).
  auto drain = [this] {
    const auto region = node().region(addra_mr_).bytes();
    const auto stripes = system_->amcast().total_replicas();
    const int reps2 = system_->replicas_per_partition();
    for (std::uint32_t s = 0; s < stripes; ++s) {
      while (true) {
        // `>` tolerated: answers dropped across a crash+restart leave a
        // gap; the ring continues at the producer's counter.
        const auto ans = rdma::load_pod<AddrAnswer>(
            region, addra_offset(s, addra_next_[s] + 1));
        if (ans.seq < addra_next_[s] + 1) break;
        addra_next_[s] = ans.seq;
        if (ans.found == 0) continue;
        auto [it, inserted] = object_map_.try_emplace(
            ans.oid, std::vector<RemoteLoc>(static_cast<std::size_t>(reps2)));
        const int q = static_cast<int>(s) % reps2;
        it->second[static_cast<std::size_t>(q)] =
            RemoteLoc{ans.offset, ans.size, true};
      }
    }
  };

  drain();
  if (known_count() >= majority) {
    count(kAddrCacheHits);
    co_return true;
  }
  count(kAddrCacheMisses);

  // Lines 8-13: query every replica of h, wait for a majority.
  for (int q = 0; q < reps; ++q) {
    Replica& peer = system_->replica(h, q);
    const auto stripe = system_->amcast().stripe_of(h, q);
    const auto my_stripe = system_->amcast().stripe_of(group_, rank_);
    AddrQuery query{++addrq_sent_[stripe], oid};
    system_->fabric().write_async(
        node().id(),
        rdma::RAddr{peer.node().id(), peer.addrq_mr(),
                    peer.addrq_offset(my_stripe, query.seq)},
        rdma::pod_bytes(query));
  }
  co_await sim::wait_until(node().region(addra_mr_).on_write(),
                           [&drain, &known_count, majority] {
                             drain();
                             return known_count() >= majority;
                           });
  if (stale(inc)) co_return false;
  co_return true;
}

sim::Task<void> Replica::addr_query_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(addrq_mr_);
  const auto stripes = system_->amcast().total_replicas();
  const HeronConfig& cfg = system_->config();

  // `>` tolerated (see resolve_addr's drain): gaps appear when queries
  // were dropped while this replica was down.
  auto have_new = [this, &region, stripes] {
    for (std::uint32_t s = 0; s < stripes; ++s) {
      const auto q = rdma::load_pod<AddrQuery>(
          region.bytes(), addrq_offset(s, addrq_next_[s] + 1));
      if (q.seq >= addrq_next_[s] + 1) return true;
    }
    return false;
  };

  while (true) {
    co_await sim::wait_until(region.on_write(), have_new);
    if (stale(inc)) co_return;
    for (std::uint32_t s = 0; s < stripes; ++s) {
      while (true) {
        const auto q = rdma::load_pod<AddrQuery>(
            region.bytes(), addrq_offset(s, addrq_next_[s] + 1));
        if (q.seq < addrq_next_[s] + 1) break;
        addrq_next_[s] = q.seq;
        co_await node().cpu().use(cfg.coord_check_proc);
        if (stale(inc)) co_return;

        AddrAnswer ans;
        ans.seq = q.seq;
        ans.oid = q.oid;
        if (store_->exists(q.oid)) {
          ans.offset = store_->offset_of(q.oid);
          ans.size = store_->size_of(q.oid);
          ans.found = 1;
        }
        // Answer into the asker's answer region, striped by *us*.
        const auto asker_group = static_cast<GroupId>(
            s / static_cast<std::uint32_t>(system_->replicas_per_partition()));
        const auto asker_rank = static_cast<int>(
            s % static_cast<std::uint32_t>(system_->replicas_per_partition()));
        Replica& asker = system_->replica(asker_group, asker_rank);
        const auto my_stripe = system_->amcast().stripe_of(group_, rank_);
        system_->fabric().write_async(
            node().id(),
            rdma::RAddr{asker.node().id(), asker.addra_mr(),
                        asker.addra_offset(my_stripe, ans.seq)},
            rdma::pod_bytes(ans));
      }
    }
  }
}

// ---------------------------------------------------------------------
// heron::reconfig: epoch-versioned layouts, dual-epoch serving and the
// throttled background copy machine (see DESIGN.md "Reconfiguration";
// the copy machine is modeled on cortx-motr's cm/sns copy-packet pump).
// ---------------------------------------------------------------------

bool Replica::reconfig_enabled() const {
  return system_->config().reconfig_keys != 0;
}

void Replica::publish_epoch_word() {
  rdma::store_pod(node().region(fastread_mr_).bytes(), kFastReadEpochOffset,
                  layout_.epoch);
  node().region(fastread_mr_).on_write().notify_all();
}

std::vector<Oid> Replica::request_oids(const Request& r) const {
  if ((r.header.flags & kReqFlagRead) != 0) {
    if (r.payload.size() < sizeof(Oid)) return {};
    Oid oid = 0;
    std::memcpy(&oid, r.payload.data(), sizeof(oid));
    return {oid};
  }
  if (system_->config().mode == Mode::kApp) return app_->read_set(r, group_);
  return {};  // order-only payloads carry no parseable keys
}

bool Replica::touches_unsealed_inbound(const std::vector<Oid>& oids) const {
  if (inbound_sealed()) return false;
  for (const Oid oid : oids) {
    if (inbound_.contains(oid)) return true;
  }
  return false;
}

Reply Replica::make_wrong_epoch_reply(Oid oid) const {
  WrongEpochWire wire;
  wire.epoch = layout_.epoch;
  layout_.range_of(oid, wire.lo, wire.hi);
  wire.owner = layout_.owner_of(oid);
  Reply reply;
  reply.status = kStatusWrongEpoch;
  reply.payload.resize(sizeof(wire));
  std::memcpy(reply.payload.data(), &wire, sizeof(wire));
  return reply;
}

sim::Task<void> Replica::apply_epoch_marker(const Request& r) {
  const std::uint64_t inc = incarnation_;
  reconfig::Layout incoming;
  std::uint32_t phase = 0;
  if (!reconfig::decode_marker(r.payload, incoming, phase)) co_return;
  if (incoming.epoch <= layout_.epoch) co_return;  // superseded/duplicate

  if (phase == reconfig::kEpochPrepare) {
    layout_ = incoming;
    publish_epoch_word();
    const reconfig::Migration& mig = layout_.migration;
    if (!mig.active()) co_return;
    if (mig.from == group_) {
      outbound_active_ = true;
      outbound_flipped_ = false;
      outbound_ = mig;
      outbound_epoch_ = layout_.epoch;
      migration_dirty_.clear();
      pass_pending_.clear();
      copy_caught_up_ = false;
      final_image_ = {};
      // Disarm fast writes for the whole partition before the copy
      // machine's first pass: re-publish the lease word with
      // kLeaseFastWriteDisarmedBit so in-flight probes/verifies abort
      // (one-sided commits bypass migration_dirty_).
      if (leases_enabled()) publish_lease_word();
      system_->simulator().spawn(copy_machine(layout_.epoch));
    }
    if (mig.to == group_) {
      inbound_epoch_ = layout_.epoch;
      inbound_ = mig;
      // Taint is not cleared here: chunks of this epoch may have landed
      // (and torn) before this PREPARE did. A stale taint only costs one
      // pull resend.
      inbound_progress_at_ = system_->simulator().now();
      system_->simulator().spawn(inbound_watch_loop(layout_.epoch));
    }
    co_return;
  }

  // FLIP: ownership moves at this exact stream position on every replica.
  const bool was_source = outbound_active_ && !outbound_flipped_;
  const reconfig::Migration mig = layout_.migration;
  layout_ = incoming;  // ranges rewritten, migration cleared
  publish_epoch_word();
  if (!was_source || !mig.active() || mig.from != group_) co_return;

  // (1) Fast-read cutoff FIRST, before any suspension: zero the lease
  // word so no one-sided reader trusts this replica for the handed-off
  // range between the destination's seal and the retirement below
  // (satellite fix: lease words zeroed on ownership transfer, not only
  // on restart()).
  outbound_flipped_ = true;
  copy_caught_up_ = true;
  lease_epoch_ = 0;
  lease_expiry_ = 0;
  publish_lease_word();

  // (2) Final image: full range snapshot + every session + tombstones,
  // retained in memory to serve idempotent pull resends after the live
  // slots are retired.
  std::vector<Oid> range_oids;
  store_->for_each_oid([&](Oid oid) {
    if (mig.contains(oid)) range_oids.push_back(oid);
  });
  std::sort(range_oids.begin(), range_oids.end());
  // A slot still fast-pending here snapshots as its pre-image
  // (SlotView::current skips the pending version). That is the right
  // value: the PREPARE disarm stopped new fast commits long before this
  // FLIP, so a pending that lingered this long was abandoned by its
  // writer — no VALIDATE is coming — and step (4) discards it below.
  final_image_ = collect_records(range_oids, /*sessions=*/true);

  // (3) Final delta: objects written (or collected but not yet on the
  // wire — pass_pending_) since the last drained pass, plus all session
  // state, sealed. Unthrottled: this is the flip's quiesce window and
  // should be as short as possible.
  std::set<Oid> delta = migration_dirty_;
  delta.insert(pass_pending_.begin(), pass_pending_.end());
  migration_dirty_.clear();
  pass_pending_.clear();
  durable::RecordBuffer records;
  for (std::size_t i = 0; i < final_image_.size(); ++i) {
    const durable::RecordView rec = final_image_[i];
    if (rec.kind == durable::kRecordObject && !delta.contains(rec.id)) {
      continue;
    }
    records.append(rec);
  }
  co_await copy_send(std::move(records), outbound_epoch_, mig.to, rank_,
                     /*seal=*/true, /*throttle=*/false);
  if (stale(inc)) co_return;

  // (4) Retirement: normalize any odd seqlock (satellite fix — this sweep
  // previously only ran on restart()), poison the size word so stale
  // fast readers fail their size check, and purge the range from the
  // update log so later delta checkpoints/transfers skip retired oids.
  for (const Oid oid : range_oids) {
    if (!store_->exists(oid)) continue;
    // A pending INVALIDATE on a migrating-away slot resolves as aborted:
    // the final delta above shipped the committed version, and the writer's
    // VERIFY against this retired slot (poisoned size) fails, sending it
    // down the ordered fallback — which the new owner answers.
    if (store_->fast_pending(oid)) store_->discard_pending(oid);
    if (store_->seqlock(oid) & 1) store_->end_write(oid);
    store_->retire(oid);
    count(kMigratedOut);
  }
  std::erase_if(update_log_,
                [&mig](const LogEntry& e) { return mig.contains(e.oid); });
  outbound_active_ = false;  // outbound_/outbound_epoch_ kept for pulls
}

sim::Task<void> Replica::copy_machine(std::uint64_t mig_epoch) {
  const std::uint64_t inc = incarnation_;
  const reconfig::ReconfigConfig& rcfg = system_->config().reconfig;
  auto& sim = system_->simulator();
  const reconfig::Migration mig = outbound_;
  int pass = 0;
  while (true) {
    if (stale(inc) || !outbound_active_ || outbound_flipped_ ||
        outbound_epoch_ != mig_epoch) {
      co_return;
    }
    // Pass 0 snapshots the whole range; later passes drain the objects
    // foreground writes dirtied since. Collected oids sit in
    // pass_pending_ until their chunk is on the wire, so a FLIP that
    // interrupts a pass still covers them in its final delta.
    std::vector<Oid> oids;
    if (pass == 0) {
      store_->for_each_oid([&](Oid oid) {
        if (mig.contains(oid)) oids.push_back(oid);
      });
      std::sort(oids.begin(), oids.end());
    } else {
      oids.assign(migration_dirty_.begin(), migration_dirty_.end());
      migration_dirty_.clear();
    }
    // A pending invalidation may still receive its VALIDATE (posted
    // before the PREPARE disarm propagated to the writer); shipping the
    // pre-image now would miss that commit, and one-sided traffic never
    // touches migration_dirty_. Defer such oids to a later pass — by then
    // the slot has validated or been discarded.
    std::erase_if(oids, [this](Oid oid) {
      if (!store_->exists(oid) || !store_->fast_pending(oid)) return false;
      migration_dirty_.insert(oid);
      count(kCopyDeferred);
      return true;
    });
    pass_pending_.insert(oids.begin(), oids.end());
    co_await copy_send(collect_records(oids, false), mig_epoch, mig.to, rank_,
                       /*seal=*/false, /*throttle=*/true);
    if (stale(inc) || !outbound_active_ || outbound_flipped_) co_return;
    // The whole pass is on the wire — or the destination is down and will
    // pull the final image once it rejoins (its restart taints the
    // stream). Either way a FLIP from here on needs only what was dirtied
    // since.
    for (const Oid oid : oids) pass_pending_.erase(oid);
    ++pass;
    copy_caught_up_ = migration_dirty_.size() + pass_pending_.size() <=
                      rcfg.seal_dirty_threshold;
    co_await sim.sleep(rcfg.delta_pass_interval);
  }
}

sim::Task<void> Replica::copy_send(durable::RecordBuffer records,
                                   std::uint64_t mig_epoch, GroupId dest_group,
                                   int dest_rank, bool seal, bool throttle) {
  const reconfig::ReconfigConfig& rcfg = system_->config().reconfig;
  Replica& dest = system_->replica(dest_group, dest_rank);
  StateStream::SendOptions opts;
  opts.seal = seal;
  if (throttle) {
    // Same backpressure discipline as the checkpoint writer — defer while
    // the ordering propose queue is deep or the replica CPU has a backlog
    // of queued foreground work — plus the fabric signal: copy chunks
    // yield the congested rack uplink (and its credits) to foreground
    // traffic.
    opts.defer = [this, &rcfg]() -> sim::Nanos {
      auto& fabric = system_->fabric();
      const bool busy =
          system_->amcast().endpoint(group_, rank_).propose_backlog() >
              rcfg.throttle_queue_depth ||
          node().cpu().free_at() >
              system_->simulator().now() + rcfg.throttle_cpu_backlog ||
          (rcfg.throttle_uplink_backlog > 0 &&
           fabric.uplink_backlog(node().id()) > rcfg.throttle_uplink_backlog);
      if (!busy) return 0;
      count(kCopyDeferred);
      return rcfg.throttle_backoff;
    };
  }
  // A send abandoned because the dest is down is tolerated: the dest
  // recovers through a pull resend once it rejoins.
  co_await copy_->send({dest.node().id(), dest.reconfig_mr()}, mig_epoch,
                       std::move(records), std::move(opts));
}

sim::Task<void> Replica::inbound_watch_loop(std::uint64_t mig_epoch) {
  const std::uint64_t inc = incarnation_;
  const reconfig::ReconfigConfig& rcfg = system_->config().reconfig;
  auto& sim = system_->simulator();
  const int reps = system_->replicas_per_partition();
  while (true) {
    co_await sim.sleep(rcfg.pull_timeout / 2);
    if (stale(inc)) co_return;
    if (inbound_epoch_ != mig_epoch) co_return;    // superseded migration
    if (copy_->sealed() >= mig_epoch) co_return;   // sealed: done
    if (sim.now() - std::max(inbound_progress_at_, copy_->progress_at()) <=
        rcfg.pull_timeout) {
      continue;
    }
    // Starved: ask the next source rank (pair rank first, then
    // round-robin) for an idempotent full resend.
    const int src = static_cast<int>(
        (static_cast<std::uint64_t>(rank_) + pull_rr_++) %
        static_cast<std::uint64_t>(reps));
    Replica& donor = system_->replica(inbound_.from, src);
    const reconfig::PullWord pw{++pull_serial_, rank_, 0};
    system_->fabric().write_async(
        node().id(),
        rdma::RAddr{donor.node().id(), donor.reconfig_mr(),
                    pull_offset(rank_)},
        rdma::pod_bytes(pw));
    copy_->count(StateStream::kResends);
    inbound_progress_at_ = sim.now();
  }
}

sim::Task<void> Replica::pull_watch_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(reconfig_mr_);
  const int reps = system_->replicas_per_partition();
  while (true) {
    co_await region.on_write().wait();
    if (stale(inc)) co_return;
    for (int q = 0; q < reps; ++q) {
      const auto pw =
          rdma::load_pod<reconfig::PullWord>(region.bytes(), pull_offset(q));
      if (pw.serial <= pull_seen_[static_cast<std::size_t>(q)] ||
          pw.requester != q) {
        continue;
      }
      pull_seen_[static_cast<std::size_t>(q)] = pw.serial;
      // Serve only once flipped, from the retained final image. A
      // restarted source whose image is gone marks the pull handled and
      // stays silent; the starved destination round-robins to the next
      // source rank. (Every source crashing after the FLIP but before
      // any dest rank sealed is out of scope — see DESIGN.md.)
      if (!outbound_flipped_ || final_image_.empty()) continue;
      copy_->count(StateStream::kResendsServed);
      co_await copy_send(final_image_, outbound_epoch_, outbound_.to, q,
                         /*seal=*/true, /*throttle=*/false);
      if (stale(inc)) co_return;
    }
  }
}

// Union-merge: both sides may have executed disjoint command sets (the
// source pre-flip, this group post-flip). The cached reply follows the
// higher cached_seq; a paged-out incoming payload stays paged out and
// degrades to kStatusStaleSession on retry (this group's device never
// persisted it).
void Replica::Session::merge(Session&& incoming) {
  if (incoming.cached_seq > cached_seq) {
    cached_seq = incoming.cached_seq;
    cached_reply = std::move(incoming.cached_reply);
    reply_paged_out = incoming.reply_paged_out;
  }
  last_tmp = std::max(last_tmp, incoming.last_tmp);
  last_active = incoming.last_active;
  seqs.merge(incoming.seqs);
}

void Replica::adopt_layout_record(std::span<const std::byte> payload) {
  if (payload.size() < sizeof(std::uint64_t)) return;
  const auto donor_seal = rdma::load_pod<std::uint64_t>(payload, 0);
  reconfig::Layout donor;
  std::uint32_t phase = 0;
  if (!reconfig::decode_marker(payload.subspan(sizeof(std::uint64_t)), donor,
                               phase)) {
    return;
  }
  if (donor.epoch > layout_.epoch) {
    layout_ = donor;
    publish_epoch_word();
  }
  // Donor seal knowledge is transplantable: the same transfer ships the
  // donor's store, which already includes everything its sealed copy
  // stream carried.
  copy_->note_sealed(donor_seal);
}

void Replica::resume_migration_roles() {
  if (!layout_.enabled() || !layout_.migration.active()) return;
  const reconfig::Migration mig = layout_.migration;
  auto& sim = system_->simulator();

  if (mig.from == group_) {
    // Source crashed mid-copy: restart the copier from a full pass. Its
    // first chunk to each dest recovers the send cursor (copy_ restarted).
    outbound_active_ = true;
    outbound_flipped_ = false;
    outbound_ = mig;
    outbound_epoch_ = layout_.epoch;
    migration_dirty_.clear();
    pass_pending_.clear();
    copy_caught_up_ = false;
    sim.spawn(copy_machine(layout_.epoch));
  }
  if (mig.to == group_ && copy_->sealed() < layout_.epoch) {
    inbound_epoch_ = layout_.epoch;
    inbound_ = mig;
    // Chunks streamed while this rank was down are gone; force the first
    // SEAL attempt to fail so a pull resend re-ships the whole range.
    copy_->taint();
    inbound_progress_at_ = sim.now();
    sim.spawn(inbound_watch_loop(layout_.epoch));
  }
}

// ---------------------------------------------------------------------
// Algorithm 3: state transfer.
// ---------------------------------------------------------------------

void Replica::log_update(Tmp tmp, Oid oid) {
  // Copy-machine dirty tracking: a foreground write into the outbound
  // range re-marks the object for the next delta pass (or the FLIP's
  // final delta).
  if (outbound_active_ && !outbound_flipped_ && outbound_.contains(oid)) {
    migration_dirty_.insert(oid);
  }
  update_log_.push_back(LogEntry{tmp, oid});
  if (update_log_.size() > system_->config().update_log_capacity) {
    // A capacity pop loses dirty-tracking: remember the highest tmp ever
    // dropped this way, so a delta checkpoint whose base is older is
    // forced full. Checkpoint truncation (entries the checkpoint covers)
    // does NOT update this — those entries are durably recorded.
    log_dropped_max_ = std::max(log_dropped_max_, update_log_.front().tmp);
    log_floor_ = std::max(log_floor_, update_log_.front().tmp);
    update_log_.pop_front();
    log_truncated_ = true;
  }
}

std::vector<Oid> Replica::log_objects_since(Tmp from_tmp, bool held_through,
                                            bool& full_transfer) const {
  // from_tmp == 0 is a from-scratch restart (no checkpoint, volatile
  // memory lost): by definition a full transfer, whatever the log holds.
  //
  // Otherwise the requester needs every update at/above from_tmp
  // (failed-request semantics) or strictly above it (held_through: a
  // delta request certifies from_tmp itself is applied). A delta
  // suffices exactly when no entry the requester needs was ever dropped:
  // log_floor_ is the highest tmp dropped by any path (capacity pops,
  // checkpoint truncation, restart wipe).
  full_transfer = from_tmp == 0 || (held_through ? log_floor_ > from_tmp
                                                 : log_floor_ >= from_tmp);
  std::vector<Oid> out;
  std::set<Oid> seen;
  if (full_transfer) return out;
  // Entries are appended in execution order => sorted by tmp.
  auto it =
      held_through
          ? std::upper_bound(update_log_.begin(), update_log_.end(), from_tmp,
                             [](Tmp t, const LogEntry& e) { return t < e.tmp; })
          : std::lower_bound(update_log_.begin(), update_log_.end(), from_tmp,
                             [](const LogEntry& e, Tmp t) { return e.tmp < t; });
  for (; it != update_log_.end(); ++it) {
    if (seen.insert(it->oid).second) out.push_back(it->oid);
  }
  return out;
}

sim::Task<void> Replica::request_state_transfer(Tmp failed_tmp,
                                                bool have_sessions) {
  const std::uint64_t inc = incarnation_;
  count(kStateTransfers);
  auto span = hub_->tracer.span("core", "state_transfer", node().id());
  span.arg("from_tmp", failed_tmp);
  auto& region = node().region(statesync_mr_);

  std::uint64_t serial = 0;
  while (true) {
    serial = ++statesync_serial_;
    const StateSyncEntry entry{failed_tmp, have_sessions ? 2ull : 1ull, 0,
                               serial};
    // Only this request's stream is applied from here on; chunks of an
    // abandoned earlier one are dropped as stale.
    xfer_expect_ = serial;
    const std::uint64_t taints = xfer_->taints();

    // Lines 2-4: write the request into every group member's statesync
    // memory (and our own, so candidates and our waiter see one source).
    rdma::store_pod(region.bytes(), statesync_offset(rank_), entry);
    region.on_write().notify_all();
    for (int q = 0; q < system_->replicas_per_partition(); ++q) {
      if (q == rank_) continue;
      Replica& peer = system_->replica(group_, q);
      system_->fabric().write_async(
          node().id(),
          rdma::RAddr{peer.node().id(), peer.statesync_mr(),
                      peer.statesync_offset(rank_)},
          rdma::pod_bytes(entry));
    }

    // Line 5: wait until a handler flips our status back to 0 for this
    // serial, then for the stream to drain (the notice follows the last
    // chunk on the same channel, so every chunk has landed by now).
    co_await sim::wait_until(region.on_write(), [this, &region, serial] {
      const auto e = rdma::load_pod<StateSyncEntry>(region.bytes(),
                                                    statesync_offset(rank_));
      return e.status == 0 && e.serial == serial && e.rid != 0;
    });
    if (stale(inc)) co_return;
    co_await sim::wait_until(xfer_->progress(),
                             [this] { return xfer_->idle(); });
    if (stale(inc)) co_return;
    if (xfer_->taints() == taints) break;
    // A chunk of the stream was torn, malformed or lost: the applied
    // state may be partial. Ask again; the new serial starts a fresh
    // stream.
    xfer_->count(StateStream::kResends);
  }
  if (xfer_expect_ == serial) xfer_expect_ = 0;  // unless a newer request

  // Line 6.
  const auto done = rdma::load_pod<StateSyncEntry>(region.bytes(),
                                                   statesync_offset(rank_));
  last_req_ = std::max(last_req_, done.rid);
  last_executed_ = std::max(last_executed_, done.rid);
}

sim::Task<void> Replica::statesync_watch_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(statesync_mr_);
  const int reps = system_->replicas_per_partition();
  std::vector<std::uint64_t> handled(static_cast<std::size_t>(reps), 0);

  while (true) {
    co_await region.on_write().wait();
    if (stale(inc)) co_return;
    for (int q = 0; q < reps; ++q) {
      if (q == rank_) continue;
      const auto e = rdma::load_pod<StateSyncEntry>(region.bytes(),
                                                    statesync_offset(q));
      if ((e.status != 1 && e.status != 2) ||
          e.serial == handled[static_cast<std::size_t>(q)]) {
        continue;
      }
      handled[static_cast<std::size_t>(q)] = e.serial;
      system_->simulator().spawn(
          perform_transfer(q, e.req_tmp, e.status == 2, e.serial));
    }
  }
}

sim::Task<void> Replica::perform_transfer(int lagger_rank, Tmp from_tmp,
                                          bool sessions_delta,
                                          std::uint64_t serial) {
  const std::uint64_t inc = incarnation_;

  // Lines 9-11: deterministic handler selection — candidates in cyclic
  // rank order after the lagger; candidate k starts after k suspicion
  // timeouts unless someone finished first.
  const int n = system_->replicas_per_partition();
  const int k = (rank_ - lagger_rank + n) % n - 1;
  if (k > 0) {
    co_await system_->simulator().sleep(k * system_->config().statesync_timeout);
    if (stale(inc)) co_return;
    const auto e = rdma::load_pod<StateSyncEntry>(
        node().region(statesync_mr_).bytes(), statesync_offset(lagger_rank));
    // Lines 19-22: someone else completed it (status back to 0) or a
    // newer request superseded this one.
    if ((e.status != 1 && e.status != 2) || e.serial != serial) co_return;
  }

  // Only transfer a state that already covers the failed request — and
  // that has actually been *executed*: last_req_ advances at delivery,
  // before execution, and a transfer snapshot must reflect applied writes.
  while (last_executed_ < from_tmp) {
    co_await system_->simulator().sleep(sim::us(5));
    if (stale(inc)) co_return;
  }

  // Pause execution at a request boundary: the replica is single-threaded,
  // so serving the transfer and executing requests are mutually exclusive.
  in_state_transfer_ = true;
  count(kTransfersServed);
  auto span = hub_->tracer.span("core", "serve_transfer", node().id());
  span.arg("lagger", static_cast<std::uint64_t>(lagger_rank));
  span.arg("from_tmp", from_tmp);
  // A restarted replica can serve a transfer before executing anything;
  // the requester's waiter treats rid==0 as "not done yet", so clamp to 1
  // (real tmps are pack_ts(clock >= 1, group), i.e. >= 64).
  const Tmp rid = std::max<Tmp>(last_executed_, 1);

  bool full = false;
  std::vector<Oid> oids = log_objects_since(from_tmp, sessions_delta, full);
  if (full) {
    oids.clear();
    oids.reserve(store_->object_count());
    store_->for_each_oid([&oids](Oid oid) { oids.push_back(oid); });
  }

  // Session table: the dedup state must travel with the store — the
  // receiver replaces whole entries, which is safe because this snapshot
  // waited for last_executed_ >= from_tmp, so per covered client its
  // session is a superset of anything the lagger executed. A delta
  // request (status 2) certifies the requester already holds session
  // state through from_tmp inclusive — a restored checkpoint chain is
  // complete up to its watermark — so sessions idle at or before
  // from_tmp are skipped. Session-TTL tombstones always ship whole (a
  // handful of u64 pairs); the receiver merges by max floor.
  durable::RecordBuffer records =
      collect_records(oids, /*sessions=*/true, sessions_delta ? from_tmp : 0);

  // Donor layout + seal knowledge (heron::reconfig): a rejoining replica
  // that missed epoch markers while down adopts the donor's installed
  // layout, and may adopt its seal too — the donor's store (shipped in
  // this very transfer) already contains everything its sealed copy
  // stream carried.
  if (layout_.enabled()) {
    std::vector<std::byte> value(sizeof(std::uint64_t));
    rdma::store_pod(std::span(value), 0, copy_->sealed());
    if (reconfig::encode_marker(layout_, 0, value)) {
      records.append(durable::RecordView{durable::kRecordLayout, 0, 0,
                                         layout_.epoch, value});
    }
  }

  // Crashed (or restarted) mid-transfer: abandon. restart() resets
  // in_state_transfer_; the lagger's timeout picks the next handler. A
  // superseded stream (the lagger re-issued its request) is abandoned too.
  Replica& lagger = system_->replica(group_, lagger_rank);
  StateStream::SendOptions opts;
  opts.flags = full ? kChunkFull : 0;
  const bool sent =
      co_await xfer_->send({lagger.node().id(), lagger.staging_mr()}, serial,
                           std::move(records), std::move(opts));
  if (stale(inc)) co_return;
  if (!sent) {
    in_state_transfer_ = false;
    co_return;
  }

  // Lines 16-17: completion notice to every member (including ourselves
  // and the lagger).
  const StateSyncEntry done{from_tmp, 0, rid, serial};
  for (int q = 0; q < system_->replicas_per_partition(); ++q) {
    Replica& peer = system_->replica(group_, q);
    if (q == rank_) {
      rdma::store_pod(node().region(statesync_mr_).bytes(),
                      statesync_offset(lagger_rank), done);
      node().region(statesync_mr_).on_write().notify_all();
      continue;
    }
    system_->fabric().write_async(
        node().id(),
        rdma::RAddr{peer.node().id(), peer.statesync_mr(),
                    peer.statesync_offset(lagger_rank)},
        rdma::pod_bytes(done));
  }
  in_state_transfer_ = false;
}

// ---------------------------------------------------------------------
// State records: the one collector and the one installer behind Algorithm
// 3 transfers, migration copy and checkpoints.
// ---------------------------------------------------------------------

durable::RecordBuffer Replica::collect_records(
    const std::vector<Oid>& oids, bool sessions, Tmp sessions_after,
    const std::map<std::uint32_t, Reply>* paged_in) {
  durable::RecordBuffer out;
  for (const Oid oid : oids) {
    if (!store_->exists(oid)) continue;  // retired (migrated away)
    const auto [tmp, value] = store_->get(oid);
    out.append(durable::RecordView{
        durable::kRecordObject,
        store_->is_serialized(oid) ? durable::kRecordFlagSerialized : 0u, oid,
        tmp, value});
  }
  if (!sessions) return out;
  for (const auto& [client, s] : sessions_) {
    if (sessions_after != 0 && s.last_tmp <= sessions_after) continue;
    const Reply* reply = nullptr;
    if (paged_in != nullptr && s.reply_paged_out) {
      const auto it = paged_in->find(client);
      if (it != paged_in->end()) reply = &it->second;
    }
    append_session(out, client, s, reply);
  }
  for (const auto& [client, floor] : evicted_sessions_) {
    out.append(durable::kRecordTombstone, 0, client, floor, 0);
  }
  return out;
}

bool Replica::apply_state_record(const durable::RecordView& rec,
                                 ApplyRule rule) {
  const auto client = static_cast<std::uint32_t>(rec.id);
  switch (rec.kind) {
    case durable::kRecordObject:
      if (rule == ApplyRule::kNewestWins) {
        // Later passes and idempotent pull resends may re-ship versions
        // this replica already applied.
        if (!store_->exists(rec.id)) {
          count(kMigratedIn);
        } else if (store_->get(rec.id).first >= rec.tmp) {
          return false;
        }
      }
      store_->install_version(rec.id, rec.value, rec.tmp, rec.serialized());
      break;
    case durable::kRecordSession: {
      Session s = decode_session(rec.value);
      s.last_active = system_->simulator().now();
      const auto [it, fresh] = sessions_.try_emplace(client);
      if (fresh || rule == ApplyRule::kReplace) {
        it->second = std::move(s);
      } else {
        it->second.merge(std::move(s));
      }
      break;
    }
    case durable::kRecordTombstone: {
      auto& floor = evicted_sessions_[client];
      floor = std::max(floor, rec.tmp);
      break;
    }
    case durable::kRecordLayout:
      adopt_layout_record(rec.value);
      break;
    default:
      break;  // unknown kinds from future formats: ignore
  }
  return true;
}

// ---------------------------------------------------------------------
// Durability: background checkpoint writer + image restore
// (heron::durable). The writer drives off the applied watermark
// (last_executed_), throttles against foreground load, and compacts the
// update log and session caches behind each committed checkpoint.
// ---------------------------------------------------------------------

sim::Task<void> Replica::checkpoint_loop() {
  const std::uint64_t inc = incarnation_;
  const durable::DurableConfig& dcfg = system_->config().durable;
  auto& sim = system_->simulator();
  auto& ep = system_->amcast().endpoint(group_, rank_);
  while (true) {
    co_await sim.sleep(dcfg.checkpoint_interval);
    if (stale(inc)) co_return;
    // Throttle: defer while the foreground is hot — the ordering propose
    // queue is deep, or the replica CPU has a backlog of queued work.
    while (ep.propose_backlog() > dcfg.throttle_queue_depth ||
           node().cpu().free_at() > sim.now() + dcfg.throttle_cpu_backlog) {
      count(kCheckpointsDeferred);
      co_await sim.sleep(dcfg.throttle_backoff);
      if (stale(inc)) co_return;
    }
    co_await write_checkpoint_once(inc);
    if (stale(inc)) co_return;
  }
}

sim::Task<void> Replica::write_checkpoint_once(std::uint64_t inc) {
  const HeronConfig& cfg = system_->config();
  const durable::DurableConfig& dcfg = cfg.durable;
  const bool full = !ckpt_->has_checkpoint() || ckpt_->should_compact() ||
                    ckpt_watermark_ < log_dropped_max_;

  // Paged-out reply payloads live only on the device, so any session
  // about to be re-encoded — every session on a full checkpoint, dirty
  // ones (last_tmp above the watermark) on a delta — must fetch them
  // back first: the new kRecordSession record supersedes the old one
  // under newest-wins indexing (and compaction frees it), so encoding
  // without the payload would persist an empty reply in its place.
  // Awaits here are fine — the snapshot below re-reads live state.
  std::map<std::uint32_t, Reply> paged_replies;
  {
    std::vector<std::uint32_t> paged_clients;
    for (const auto& [client, s] : sessions_) {
      if (s.reply_paged_out && (full || s.last_tmp > ckpt_watermark_)) {
        paged_clients.push_back(client);
      }
    }
    for (const std::uint32_t client : paged_clients) {
      const auto rec =
          co_await ckpt_->fetch_record(durable::kRecordSession, client);
      if (stale(inc)) co_return;
      if (rec.has_value()) {
        Session persisted = decode_session(rec->bytes);
        // A record that is itself paged-out holds no payload; using it
        // would launder an empty reply into a paged_out=0 record.
        if (!persisted.reply_paged_out) {
          paged_replies[client] = std::move(persisted.cached_reply);
        }
      }
    }
  }

  // Synchronous snapshot (no suspension between reading the watermark and
  // collecting records, so the image is consistent as of `w`).
  const Tmp w = last_executed_;
  if (w == 0) co_return;
  if (!full && w == ckpt_watermark_) co_return;  // nothing new to persist

  auto span = hub_->tracer.span("durable", "checkpoint", node().id());
  span.arg("watermark", w);
  span.arg("full", full ? 1u : 0u);

  // Full: every object. Delta: objects written since the previous
  // checkpoint — log entries are tmp-sorted, and capacity pops above
  // ckpt_watermark_ force `full`, so the log is complete over
  // (ckpt_watermark_, w].
  std::vector<Oid> oids;
  if (full) {
    oids.reserve(store_->object_count());
    store_->for_each_oid([&oids](Oid oid) { oids.push_back(oid); });
  } else {
    auto it = std::lower_bound(
        update_log_.begin(), update_log_.end(), ckpt_watermark_ + 1,
        [](const LogEntry& e, Tmp t) { return e.tmp < t; });
    for (; it != update_log_.end(); ++it) oids.push_back(it->oid);
    std::sort(oids.begin(), oids.end());
    oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  }
  const durable::RecordBuffer records = collect_records(
      oids, /*sessions=*/true, full ? 0 : ckpt_watermark_, &paged_replies);

  // Snapshotting is memcpy-class CPU work on the replica's core.
  const auto snap_cpu = static_cast<sim::Nanos>(
      static_cast<double>(records.value_bytes()) * cfg.memcpy_ns_per_byte);
  if (snap_cpu > 0) {
    co_await node().cpu().use(snap_cpu);
    if (stale(inc)) co_return;
  }

  const bool ok = co_await ckpt_->write_checkpoint(
      w, lease_epoch_, lease_expiry_, full, records,
      [this, inc] { return stale(inc); }, layout_.epoch);
  if (stale(inc)) co_return;
  if (!ok) co_return;  // aborted or out of pages; previous commit intact

  count(kCheckpoints);
  const Tmp prev_w = ckpt_watermark_;
  ckpt_watermark_ = w;

  // Log compaction: entries covered by the *previous* checkpoint are
  // dropped (bounding memory). Truncation lags one checkpoint so a peer
  // that restored a checkpoint as recent as our previous one can still
  // be served an O(delta) transfer from the log; anything older falls
  // back to a full snapshot via log_floor_.
  while (!update_log_.empty() && update_log_.front().tmp <= prev_w) {
    log_floor_ = std::max(log_floor_, update_log_.front().tmp);
    update_log_.pop_front();
    log_truncated_ = true;
  }

  // Session TTL: evict idle sessions now durably covered by this commit,
  // leaving a tombstone floor ("everything <= floor was executed before
  // eviction"; safe for sequential clients, which never resubmit an
  // abandoned seq).
  const sim::Nanos now = system_->simulator().now();
  if (dcfg.session_ttl > 0) {
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const Session& s = it->second;
      if (s.last_tmp <= w && now - s.last_active > dcfg.session_ttl) {
        // Highest executed seq (or cached one), whichever is larger.
        const std::uint64_t floor = std::max(s.seqs.end() - 1, s.cached_seq);
        auto& tomb = evicted_sessions_[it->first];
        tomb = std::max(tomb, floor);
        count(kSessionsEvicted);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // Reply page-out: cached payloads now persisted in the chain can be
  // dropped from memory; a late retry pages them back in.
  if (dcfg.page_out_replies) {
    for (auto& [client, s] : sessions_) {
      if (s.last_tmp <= w && !s.reply_paged_out &&
          !s.cached_reply.payload.empty()) {
        s.cached_reply.payload.clear();
        s.cached_reply.payload.shrink_to_fit();
        s.reply_paged_out = true;
      }
    }
  }
}

sim::Task<void> Replica::apply_checkpoint_image(const durable::Image& img) {
  const HeronConfig& cfg = system_->config();
  std::uint64_t bytes = 0;
  for (const durable::Record& rec : img.records) {
    bytes += rec.bytes.size() + sizeof(durable::Record);
    apply_state_record(rec.view(), ApplyRule::kReplace);
  }
  // Installing the image is memcpy-class work (whatever the objects'
  // form: the image holds them as persisted); the device read itself was
  // charged by load_latest() on the device channel.
  const auto cpu = static_cast<sim::Nanos>(static_cast<double>(bytes) *
                                           cfg.memcpy_ns_per_byte);
  if (cpu > 0) co_await node().cpu().use(cpu);

  last_req_ = std::max(last_req_, img.watermark);
  last_executed_ = std::max(last_executed_, img.watermark);
  ckpt_watermark_ = img.watermark;
  // Leases: restore only the expiry floor (the monotonicity invariant the
  // write gate leans on). The epoch stays 0 — no fast read is served from
  // this replica until a grant ordered after its rejoin arrives.
  lease_expiry_ = std::max(lease_expiry_, img.lease_expiry);
}

// ---------------------------------------------------------------------
// Restart path. Called by System::restart_replica after the amcast
// endpoint has restarted the node. The object store lives in registered
// memory and survives; everything request-scoped is rebuilt.
// ---------------------------------------------------------------------

void Replica::restart() {
  ++incarnation_;

  // Volatile runtime state. last_req_ / last_executed_ / statesync_serial_
  // are kept: they describe the surviving object-store contents, standing
  // in for the small stable-storage record a real deployment would keep
  // (keeping the serial is load-bearing — peers dedupe transfer requests
  // by serial, so a reset serial would be silently ignored).
  in_state_transfer_ = false;
  object_map_.clear();
  locked_keys_.clear();
  inflight_ = 0;
  slot_busy_.assign(exec_cpus_.size(), false);

  // The session table is volatile; the rejoin state transfer reinstalls
  // it from the donor (which, having executed at least as far, holds a
  // superset for every covered command).
  sessions_.clear();

  // With the durable subsystem on (or volatile_restart modeling), losing
  // power means losing the volatile watermarks too: rejoin() restarts
  // from the newest checkpoint (or zero) and pays the recovery honestly —
  // checkpoint read + delta transfer, or a full transfer. Legacy restarts
  // keep the watermarks, standing in for a small stable-storage record.
  // The registered object region survives either way; its stale bytes are
  // never observable (see DESIGN.md: a restarted replica is only a remote
  // -read candidate for requests it coordinated, whose slots it wrote).
  const durable::DurableConfig& dcfg0 = system_->config().durable;
  // Everything we had applied is gone from the log (cleared below): any
  // peer asking for a delta older than our pre-crash watermark must get a
  // full snapshot. Capture before the watermark reset.
  log_floor_ = std::max(log_floor_, last_executed_);
  if (dcfg0.enabled() || dcfg0.volatile_restart) {
    last_req_ = 0;
    last_executed_ = 0;
    ckpt_watermark_ = 0;
    log_dropped_max_ = 0;
    evicted_sessions_.clear();
  }
  restored_from_checkpoint_ = false;
  restart_catchup_bytes_ = 0;
  rejoining_ = true;

  // Reconfiguration role state is volatile (its coroutines died with the
  // node); rejoin()'s resume_migration_roles re-arms whatever the adopted
  // layout still shows active. Pull serials and seal knowledge survive
  // with the registered region they describe. A flipped source loses its
  // retained final image and can no longer serve pulls — destinations
  // round-robin to a surviving source rank instead.
  outbound_active_ = false;
  outbound_flipped_ = false;
  outbound_epoch_ = 0;
  outbound_ = {};
  migration_dirty_.clear();
  pass_pending_.clear();
  copy_caught_up_ = false;
  final_image_ = {};
  inbound_epoch_ = 0;

  // State streams: the receive cursors live in the registered regions and
  // survive; send cursors are recovered lazily (one READ per receiver).
  xfer_expect_ = 0;
  xfer_->restart();
  copy_->restart();

  // Fast-read lease state is volatile: a restarted replica must not serve
  // fast reads until a grant ordered after its rejoin transfer arrives.
  // Zero the published lease word first, then normalize any seqlock left
  // odd by a write phase in flight at crash time — no fast reader acts on
  // these slots while the lease word reads "no lease".
  lease_epoch_ = 0;
  lease_expiry_ = 0;
  fast_write_armed_ = false;
  open_brackets_.clear();
  publish_lease_word();
  fast_pending_at_restart_.clear();
  store_->for_each_oid([this](Oid oid) {
    if (store_->fast_pending(oid)) {
      // A one-sided fast write was in flight at crash time. Its outcome
      // was decided at the peers (the writer may have validated there
      // after our ack): blindly evening the lock here could resurrect an
      // uncommitted value or orphan a committed one. Leave the slot
      // pending — no fast reader acts on it while the lease word reads
      // "no lease", and rejoin() reconciles against live peers before
      // execution resumes.
      fast_pending_at_restart_.push_back(oid);
      return;
    }
    if (store_->seqlock(oid) & 1) store_->end_write(oid);
  });

  // The in-memory update log is gone; mark it truncated so a later
  // transfer served *by* this replica correctly falls back to a full
  // snapshot instead of claiming an empty delta.
  update_log_.clear();
  log_truncated_ = true;

  // Rebuild consumer cursors from the surviving rings: resume at the
  // highest sequence number actually stored. Writes dropped while dead
  // leave gaps the `>=` drain tolerance heals.
  const auto stripes = system_->amcast().total_replicas();
  const auto addrq = node().region(addrq_mr_).bytes();
  const auto addra = node().region(addra_mr_).bytes();
  for (std::uint32_t s = 0; s < stripes; ++s) {
    addrq_next_[s] = 0;
    addra_next_[s] = 0;
    for (std::uint32_t i = 0; i < kAddrSlots; ++i) {
      const auto q = rdma::load_pod<AddrQuery>(
          addrq, (static_cast<std::uint64_t>(s) * kAddrSlots + i) * kAddrQSlot);
      addrq_next_[s] = std::max(addrq_next_[s], q.seq);
      const auto a = rdma::load_pod<AddrAnswer>(
          addra, (static_cast<std::uint64_t>(s) * kAddrSlots + i) * kAddrASlot);
      addra_next_[s] = std::max(addra_next_[s], a.seq);
    }
  }

  system_->simulator().spawn(rejoin());
}

sim::Task<void> Replica::rejoin() {
  const std::uint64_t inc = incarnation_;
  hub_->tracer.instant("core", "rejoin", node().id(),
                       {telemetry::Arg{"group", static_cast<std::uint64_t>(group_)},
                        telemetry::Arg{"rank", static_cast<std::uint64_t>(rank_)}});
  HSIM_LOG(system_->simulator(), kInfo,
           "core g" << group_ << ".r" << rank_ << " rejoin: catching up from tmp "
                    << last_executed_);

  // Receive-side loops first: the stream receivers must be draining
  // before the state transfer below ships chunks, or its waiter never
  // completes.
  auto& sim = system_->simulator();
  sim.spawn(addr_query_loop());
  sim.spawn(statesync_watch_loop());
  spawn_stream_receivers();
  if (reconfig_enabled()) sim.spawn(pull_watch_loop());

  // Recover the address-query send counters by reading back the rings our
  // past writes landed in, so fresh sends continue the surviving sequence
  // instead of overwriting live slots with duplicate numbers. (The state
  // streams recover theirs lazily: one cursor-word READ per receiver.)
  const auto my_stripe = system_->amcast().stripe_of(group_, rank_);
  for (GroupId h = 0; h < system_->partitions(); ++h) {
    if (h == group_) continue;  // address queries only target remote homes
    for (int q = 0; q < system_->replicas_per_partition(); ++q) {
      Replica& peer = system_->replica(h, q);
      const auto stripe = system_->amcast().stripe_of(h, q);
      std::vector<std::byte> buf(kAddrSlots * kAddrQSlot);
      const auto cc = co_await system_->fabric().read(
          node().id(),
          rdma::RAddr{peer.node().id(), peer.addrq_mr(),
                      peer.addrq_offset(my_stripe, 0)},
          buf);
      if (stale(inc)) co_return;
      if (!cc.ok()) continue;  // peer down; counter stays 0, ring restarts
      for (std::uint32_t i = 0; i < kAddrSlots; ++i) {
        const auto qr = rdma::load_pod<AddrQuery>(std::span(buf), i * kAddrQSlot);
        addrq_sent_[stripe] = std::max(addrq_sent_[stripe], qr.seq);
      }
    }
  }

  // O(delta) restart: load the newest valid checkpoint chain from the
  // device and install it, then catch up only the tail via Algorithm 3.
  // Any CRC/manifest failure falls through to restored==false and the
  // legacy full transfer below.
  bool have_sessions = false;
  if (ckpt_ != nullptr) {
    auto img = co_await ckpt_->load_latest();
    if (stale(inc)) co_return;
    if (img.has_value() && reconfig_enabled()) {
      // Reject checkpoints committed under a superseded layout: objects
      // may have migrated away (or in) since, and replaying the image
      // would resurrect retired state. Peers publish their installed
      // epoch in the fast-read region; one one-sided READ per peer tells
      // us whether the cluster moved on while we were down. Rejecting
      // falls back to a full transfer, which ships the donor's layout.
      std::uint64_t peer_epoch = layout_.epoch;
      for (int q = 0; q < system_->replicas_per_partition(); ++q) {
        if (q == rank_) continue;
        Replica& peer = system_->replica(group_, q);
        std::vector<std::byte> buf(sizeof(std::uint64_t));
        const auto cc = co_await system_->fabric().read(
            node().id(),
            rdma::RAddr{peer.node().id(), peer.fastread_mr(),
                        kFastReadEpochOffset},
            buf);
        if (stale(inc)) co_return;
        if (!cc.ok()) continue;
        peer_epoch = std::max(
            peer_epoch, rdma::load_pod<std::uint64_t>(std::span(buf), 0));
      }
      if (peer_epoch > img->layout_epoch) {
        count(kCheckpointsRejectedLayout);
        HSIM_LOG(system_->simulator(), kInfo,
                 "core g" << group_ << ".r" << rank_
                          << " checkpoint rejected: layout_epoch="
                          << img->layout_epoch << " < cluster epoch "
                          << peer_epoch);
        img.reset();
      }
    }
    if (img.has_value()) {
      co_await apply_checkpoint_image(*img);
      if (stale(inc)) co_return;
      restored_from_checkpoint_ = true;
      have_sessions = true;
      HSIM_LOG(system_->simulator(), kInfo,
               "core g" << group_ << ".r" << rank_
                        << " restored checkpoint: watermark=" << img->watermark
                        << " records=" << img->records.size()
                        << " chain=" << img->chain_length);
    }
  }
  hub_->tracer.instant(
      "durable", "restart_source", node().id(),
      {telemetry::Arg{"from_checkpoint", restored_from_checkpoint_ ? 1ull : 0ull},
       telemetry::Arg{"watermark", last_executed_}});

  // Algorithm 3 as the rejoin vehicle: everything delivered while we were
  // down (or since the checkpoint watermark) is folded into a state
  // transfer from the surviving members. A delta request (have_sessions)
  // tells the donor we hold everything through last_executed_ inclusive,
  // so only strictly newer updates ship; a plain request keeps the
  // failed-request semantics (donor re-ships from_tmp itself).
  const std::uint64_t applied_before =
      xfer_applied_full_bytes() + xfer_applied_delta_bytes();
  co_await request_state_transfer(last_executed_, have_sessions);
  if (stale(inc)) co_return;
  // (A reset_stats during the rejoin zeroes the stream's statistics.)
  const std::uint64_t applied =
      xfer_applied_full_bytes() + xfer_applied_delta_bytes();
  restart_catchup_bytes_ =
      applied >= applied_before ? applied - applied_before : applied;
  gauge_restart_delta_->set(
      static_cast<std::int64_t>(restart_catchup_bytes_));

  if (layout_.enabled()) {
    // Owner sweep: the store index survives the crash, so objects this
    // group handed off under a layout adopted above (transfer
    // kRecordLayout record or surviving epoch word) may still be present.
    // Retire them — except inbound migration state still being copied
    // *to* us.
    std::vector<Oid> foreign;
    store_->for_each_oid([&](Oid oid) {
      if (layout_.owner_of(oid) == group_) return;
      if (layout_.migration.active() && layout_.migration.to == group_ &&
          layout_.migration.contains(oid)) {
        return;
      }
      foreign.push_back(oid);
    });
    for (const Oid oid : foreign) {
      if (store_->fast_pending(oid)) store_->discard_pending(oid);
      if (store_->seqlock(oid) & 1) store_->end_write(oid);
      store_->retire(oid);
    }
    resume_migration_roles();
  }

  // Resolve fast writes left pending at crash time against the surviving
  // peers' slots — before execution (and with it the fence and fast reads)
  // resumes. Safe to run here: the lease word is still zeroed and the main
  // loop is not running, so nothing serves these slots concurrently.
  if (system_->config().fast_writes) {
    co_await reconcile_fast_slots(inc);
    if (stale(inc)) co_return;
  }

  HSIM_LOG(system_->simulator(), kInfo,
           "core g" << group_ << ".r" << rank_
                    << " rejoin complete: last_executed=" << last_executed_);
  // Peers' write gates may be waiting on this rank's applied watermark;
  // push it now that the transferred state covers it.
  if (leases_enabled()) push_applied();
  // Only now resume execution: the store reflects the survivors' state and
  // deliveries with tmp <= last_req_ are skipped by the main loop.
  rejoining_ = false;
  sim.spawn(main_loop());
  if (ckpt_ != nullptr) sim.spawn(checkpoint_loop());
}

sim::Task<void> Replica::reconcile_fast_slots(std::uint64_t inc) {
  if (fast_pending_at_restart_.empty()) co_return;
  const int reps = system_->replicas_per_partition();
  for (const Oid oid : fast_pending_at_restart_) {
    if (stale(inc)) co_return;
    // The rejoin transfer (or an epoch sweep) may already have rewritten
    // or retired the slot; only still-pending slots need a verdict.
    if (!store_->exists(oid) || !store_->fast_pending(oid)) continue;
    const Tmp pending = store_->seqlock(oid) & ~std::uint64_t{1};
    bool resolved = false;
    // Replicas of one partition build their stores in the same order, so
    // the slot offset is identical at every rank — the same symmetry the
    // fast-write client leans on.
    const std::uint64_t off = store_->offset_of(oid);
    const sim::Nanos deadline = system_->simulator().now() + sim::ms(2);
    while (!resolved) {
      bool peer_pending = false;
      for (int q = 0; q < reps && !resolved; ++q) {
        if (q == rank_) continue;
        Replica& peer = system_->replica(group_, q);
        if (!peer.node().alive()) continue;
        std::vector<std::byte> buf(sizeof(std::uint64_t));
        const auto cc = co_await system_->fabric().read(
            node().id(),
            rdma::RAddr{peer.node().id(), peer.store().mr(), off}, buf);
        if (stale(inc)) co_return;
        if (!cc.ok()) continue;
        const auto peer_lock =
            rdma::load_pod<std::uint64_t>(std::span(buf), 0);
        if (peer_lock == pending) {
          // The peer holds the validated tmp: the writer committed. Our
          // own copy of the value landed before the crash — the writer
          // only validates after its verify READ observed our completed
          // phase-A traffic — so validating locally adopts the same
          // version, not a torn one.
          store_->validate_fast(oid, pending);
          count(kFastAdopted);
          resolved = true;
        } else if (peer_lock == (pending | 1)) {
          peer_pending = true;  // undecided there too — ask again later
        } else {
          // The peer moved past this write (discarded it at lease expiry,
          // wiped it with an ordered write, or committed a later fast
          // write): our pending version is dead either way.
          store_->discard_pending(oid);
          count(kFastRediscarded);
          resolved = true;
        }
      }
      if (resolved) break;
      if (!peer_pending || system_->simulator().now() >= deadline) {
        // No live peer carries evidence for this write (all discarded
        // windows closed, or the whole partition is reconciling). Discard:
        // if every replica is in this state the writer cannot have
        // validated — a VALIDATE requires a verify round against ALL
        // replicas, and its trace would survive as a validated lock.
        store_->discard_pending(oid);
        count(kFastRediscarded);
        break;
      }
      co_await system_->simulator().sleep(sim::us(50));
      if (stale(inc)) co_return;
    }
  }
  fast_pending_at_restart_.clear();
}

}  // namespace heron::core
