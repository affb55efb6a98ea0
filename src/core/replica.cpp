#include "core/replica.hpp"

#include <algorithm>
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

/// Header of a state-transfer chunk written into the staging ring.
struct ChunkHeader {
  std::uint64_t seq = 0;
  std::uint32_t record_count = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t flags = 0;  // kChunkFlag* bits
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

/// ChunkHeader::flags bit 0: this chunk belongs to a full (whole-store)
/// transfer rather than a delta catch-up. The receiver splits its
/// applied-bytes accounting on it (full vs delta restart cost).
constexpr std::uint32_t kChunkFlagFull = 1u << 0;

/// Per-record kinds inside a chunk: application objects, per-client
/// session entries (the dedup state must travel with the store, or a
/// rejoined replica would re-execute retried commands) and session-TTL
/// tombstones (evicted floors; without them a rejoined replica could
/// re-execute a retry the donor had already answered as stale).
constexpr std::uint32_t kRecObject = 0;
constexpr std::uint32_t kRecSession = 1;
constexpr std::uint32_t kRecTombstone = 2;
/// Donor layout + seal knowledge (heron::reconfig): payload is a u64
/// seal_epoch_seen_ followed by an encoded layout marker. Shipped with
/// every transfer when reconfiguration is enabled, so a rejoining replica
/// that missed epoch markers while down adopts the donor's layout.
constexpr std::uint32_t kRecLayout = 3;

/// Per-record header inside a chunk, followed by the record's bytes. For
/// kRecObject: the current version (receiver installs it as the object's
/// whole state), oid = object id. For kRecSession: a SessionWire blob,
/// oid = client id.
struct ChunkRecord {
  Oid oid = 0;
  Tmp tmp = 0;
  std::uint32_t size = 0;
  std::uint32_t serialized = 0;
  std::uint32_t kind = kRecObject;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkRecord>);

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

}  // namespace

std::vector<std::byte> encode_session(const Replica::Session& s) {
  std::vector<std::byte> out(sizeof(SessionWire));
  const SessionWire wire{
      s.watermark(),
      s.cached_seq,
      s.last_tmp,
      s.cached_reply.status,
      static_cast<std::uint32_t>(s.cached_reply.payload.size()),
      static_cast<std::uint32_t>(s.seqs.above_count()),
      s.reply_paged_out ? 1u : 0u};
  std::memcpy(out.data(), &wire, sizeof(wire));
  out.insert(out.end(), s.cached_reply.payload.begin(),
             s.cached_reply.payload.end());
  s.seqs.for_each_above([&out](std::uint64_t e) {
    const std::size_t off = out.size();
    out.resize(off + sizeof(e));
    std::memcpy(out.data() + off, &e, sizeof(e));
  });
  return out;
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
  staging_mr_ = n.register_region(
      reps * cfg.statesync_ring_slots *
      (sizeof(ChunkHeader) + cfg.statesync_chunk_bytes));
  fastread_mr_ = n.register_region(fastread_region_bytes(static_cast<int>(reps)));
  if (cfg.reconfig_keys != 0) {
    reconfig_mr_ = n.register_region(
        reconfig::copy_region_bytes(cfg.reconfig, static_cast<int>(reps)));
    layout_ = system.initial_layout();
  }
  app_->bind_layout(&layout_);
  copy_seq_.assign(reps, 0);
  pull_seen_.assign(reps, 0);
  copy_next_.assign(reps, 0);

  exec_done_ = std::make_unique<sim::Notifier>(system.simulator());
  for (int t = 0; t < std::max(1, cfg.exec_threads); ++t) {
    exec_cpus_.push_back(std::make_unique<sim::Cpu>(system.simulator()));
  }
  slot_busy_.assign(exec_cpus_.size(), false);

  addrq_sent_.assign(stripes, 0);
  addrq_next_.assign(stripes, 0);
  addra_next_.assign(stripes, 0);
  staging_next_.assign(reps, 0);
  staging_sent_.assign(reps, 0);

  hub_ = &system.fabric().telemetry();
  const std::string label =
      "g" + std::to_string(group) + ".r" + std::to_string(rank);
  auto& m = hub_->metrics;
  ctr_executed_ = &m.counter("core", "executed", label);
  ctr_skipped_ = &m.counter("core", "skipped", label);
  ctr_addr_hits_ = &m.counter("core", "addr_cache_hits", label);
  ctr_addr_misses_ = &m.counter("core", "addr_cache_misses", label);
  ctr_remote_reads_ = &m.counter("core", "remote_reads", label);
  ctr_remote_retries_ = &m.counter("core", "remote_read_retries", label);
  ctr_lagging_ = &m.counter("core", "lagging_detected", label);
  ctr_state_transfers_ = &m.counter("core", "state_transfers", label);
  ctr_transfers_served_ = &m.counter("core", "transfers_served", label);
  ctr_xfer_bytes_sent_ = &m.counter("core", "transfer_bytes_sent", label);
  ctr_xfer_bytes_applied_ = &m.counter("core", "transfer_bytes_applied", label);
  ctr_xfer_bytes_applied_full_ =
      &m.counter("core", "transfer_bytes_applied_full", label);
  ctr_xfer_bytes_applied_delta_ =
      &m.counter("core", "transfer_bytes_applied_delta", label);
  ctr_checkpoints_ = &m.counter("durable", "replica_checkpoints", label);
  ctr_ckpt_deferred_ = &m.counter("durable", "checkpoints_deferred", label);
  ctr_sessions_evicted_ = &m.counter("durable", "sessions_evicted", label);
  ctr_stale_session_ = &m.counter("durable", "stale_session_replies", label);
  gauge_restart_delta_ = &m.gauge("durable", "restart_delta_bytes", label);
  ctr_dedup_hits_ = &m.counter("core", "session_dedup_hits", label);
  ctr_shed_replies_ = &m.counter("core", "shed_replies", label);
  ctr_lease_grants_ = &m.counter("core", "lease_grants", label);
  ctr_gate_waits_ = &m.counter("core", "gate_waits", label);
  ctr_ordered_reads_ = &m.counter("core", "ordered_reads", label);
  ctr_fast_fence_ = &m.counter("core", "fastwrite_fence_waits", label);
  ctr_fast_discards_ = &m.counter("core", "fastwrite_discards", label);
  ctr_fast_repairs_ = &m.counter("core", "fastwrite_repairs", label);
  ctr_copy_chunks_ = &m.counter("reconfig", "copy_chunks", label);
  ctr_copy_corrupt_ = &m.counter("reconfig", "copy_chunks_corrupt", label);
  ctr_copy_deferred_ = &m.counter("reconfig", "copy_deferred", label);
  ctr_copy_pulls_ = &m.counter("reconfig", "copy_pulls", label);
  ctr_wrong_epoch_ = &m.counter("reconfig", "wrong_epoch_replies", label);
  ctr_quiesce_ = &m.counter("reconfig", "quiesce_deferred", label);
  hist_exec_ = &m.histogram("core", "exec_ns", label);
  hist_coord_ = &m.histogram("core", "coord_ns", label);
  hist_gate_wait_ = &m.histogram("core", "gate_wait_ns", label);

  if (cfg.durable.enabled()) {
    ckpt_ = std::make_unique<durable::CheckpointStore>(
        system.simulator(), hub_, cfg.durable, label);
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
  sim.spawn(staging_apply_loop());
  if (ckpt_ != nullptr) sim.spawn(checkpoint_loop());
  if (reconfig_enabled()) {
    publish_epoch_word();
    sim.spawn(copy_recv_loop());
    sim.spawn(pull_watch_loop());
  }
}

void Replica::reset_stats() {
  coord_stats_ = {};
  ordering_lat_.clear();
  coord_lat_.clear();
  exec_lat_.clear();
  // Satellite audit (PR 10): every counter added since PR 5 must reset
  // here too, or post-warmup bench reports carry warmup-inflated values.
  // Only counters are cleared — watermarks, sessions, lease/layout state
  // and cursors are runtime state, not statistics.
  dedup_hits_ = 0;
  shed_replies_ = 0;
  executed_ = 0;
  skipped_ = 0;
  state_transfers_ = 0;
  transfers_served_ = 0;
  lease_grants_ = 0;
  gate_waits_ = 0;
  checkpoints_ = 0;
  ckpt_deferred_ = 0;
  sessions_evicted_ = 0;
  stale_session_replies_ = 0;
  copy_chunks_sent_ = 0;
  copy_chunks_received_ = 0;
  copy_chunks_corrupt_ = 0;
  copy_deferred_ = 0;
  copy_pulls_ = 0;
  copy_pulls_served_ = 0;
  wrong_epoch_replies_ = 0;
  quiesce_deferred_ = 0;
  migrated_out_ = 0;
  migrated_in_ = 0;
  ckpt_rejected_layout_ = 0;
  fast_fence_waits_ = 0;
  fast_discards_ = 0;
  fast_repairs_ = 0;
  fast_adopted_ = 0;
  fast_rediscarded_ = 0;
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

std::uint64_t Replica::staging_offset(int sender_rank,
                                      std::uint64_t seq) const {
  const HeronConfig& cfg = system_->config();
  const std::uint64_t slot_size =
      sizeof(ChunkHeader) + cfg.statesync_chunk_bytes;
  return (static_cast<std::uint64_t>(sender_rank) * cfg.statesync_ring_slots +
          seq % cfg.statesync_ring_slots) *
         slot_size;
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
        ++skipped_;
        ctr_skipped_->inc();
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
        ++shed_replies_;
        ctr_shed_replies_->inc();
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
          ++stale_session_replies_;
          ctr_stale_session_->inc();
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
        ++dedup_hits_;
        ctr_dedup_hits_->inc();
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
          ++quiesce_deferred_;
          ctr_quiesce_->inc();
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
            ++wrong_epoch_replies_;
            ctr_wrong_epoch_->inc();
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
  ++executed_;
  ctr_executed_->inc();
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
    ++executed_;
    ctr_executed_->inc();
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
    ++executed_;
    ctr_executed_->inc();
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
    ++executed_;
    ctr_executed_->inc();
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
  ++coord_stats_.multi_partition;

  ++executed_;
  ctr_executed_->inc();
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
  ++coord_stats_.delayed;
  if (cfg.coord_extra_delay <= 0) {
    ++coord_stats_.gave_up;
    co_return;
  }
  const sim::Nanos t0 = system_->simulator().now();
  const bool all = co_await sim::wait_until_timeout(
      notifier,
      [this, &r, phase] { return coord_satisfied(r, phase, true); },
      cfg.coord_extra_delay);
  coord_stats_.delay_sum += system_->simulator().now() - t0;
  if (!all) ++coord_stats_.gave_up;
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
  const HeronConfig& cfg = system_->config();
  auto span = hub_->tracer.span("core", "execute", node().id());
  span.arg("uid", r.uid);
  span.arg("kind", r.header.kind);
  if (cfg.hiccup_prob > 0 && rng_.chance(cfg.hiccup_prob)) {
    co_await cpu.use(cfg.hiccup_duration);
  }
  co_await cpu.use(cfg.exec_dispatch_proc);

  ExecContext ctx(group_, *store_);
  sim::Nanos read_cpu = 0;

  for (Oid oid : app_->read_set(r, group_)) {
    const GroupId h = app_->partition_of(oid);
    if (h == group_) {
      if (fast_writes_enabled() && store_->exists(oid) &&
          store_->fast_pending(oid)) {
        // Fence right at the read: no suspension separates the check from
        // the get() below, so a validated-elsewhere fast write cannot slip
        // past this replica's ordered read (read inversion).
        co_await fence_slot(oid);
      }
      // Lines 4-7: local read of the current version.
      const auto [tmp, value] = store_->get(oid);
      ctx.mutable_values()[oid].assign(value.begin(), value.end());
      read_cpu += static_cast<sim::Nanos>(
          static_cast<double>(value.size()) *
          (store_->is_serialized(oid) ? cfg.serialize_ns_per_byte
                                      : cfg.memcpy_ns_per_byte));
      continue;
    }
    // Lines 8-28: remote read.
    RemoteRead rr = co_await read_remote(r, oid, h);
    if (rr.lagging) co_return ExecOutcome{.lagging = true};
    ctx.mutable_values()[oid] = std::move(rr.value);
    const auto& loc = object_map_.at(oid)[0];
    (void)loc;
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
    for (const auto& [oid, bytes] : ctx.writes()) lock_for_write(oid);
  }

  // Writing phase: charge the application cost plus write serialization,
  // then apply all writes at one instant (the store is never observed
  // mid-write-phase).
  sim::Nanos write_cpu = ctx.cpu_cost();
  for (const auto& [oid, bytes] : ctx.writes()) {
    write_cpu += static_cast<sim::Nanos>(
        static_cast<double>(bytes.size()) *
        (store_->is_serialized(oid) ? cfg.serialize_ns_per_byte
                                    : cfg.memcpy_ns_per_byte));
  }
  for (const auto& c : ctx.creates()) {
    write_cpu += static_cast<sim::Nanos>(static_cast<double>(c.bytes.size()) *
                                         cfg.memcpy_ns_per_byte);
  }
  if (write_cpu > 0) {
    co_await cpu.use(
        static_cast<sim::Nanos>(static_cast<double>(write_cpu) * jitter));
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
  // readers of r would false-detect lagging.
  std::map<Oid, std::span<const std::byte>> final_value;
  for (const auto& c : ctx.creates()) {
    if (!store_->exists(c.oid)) {
      store_->create(c.oid, c.bytes, c.serialized);
    }
    final_value[c.oid] = c.bytes;
  }
  for (const auto& [oid, bytes] : ctx.writes()) {
    final_value[oid] = bytes;
  }
  for (const auto& [oid, bytes] : final_value) {
    if (system_->config().fast_writes && store_->has_fast_trace(oid)) {
      // Ordered wipe: the slot carries fast-write residue (a committed
      // fast version, or the headers of an aborted one). set() would keep
      // that residue in the sibling slot, and replicas that missed the
      // one-sided traffic would diverge from those that saw it. Install
      // r.tmp as the object's entire state instead and strip the lock tag
      // (parity preserved — we are inside this request's seqlock bracket),
      // so every replica converges on {r.tmp, r.tmp} regardless of which
      // fast-write bytes reached it. This doubles as the repair path for
      // the fast writer's own ordered fallback.
      store_->install_version(oid, bytes, r.tmp, store_->is_serialized(oid));
      store_->clear_fast_lock(oid);
      ++fast_repairs_;
      ctr_fast_repairs_->inc();
    } else {
      store_->set(oid, bytes, r.tmp);
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
  ++lease_grants_;
  ctr_lease_grants_->inc();
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
      ++gate_waits_;
      ctr_gate_waits_->inc();
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
  ++fast_fence_waits_;
  ctr_fast_fence_->inc();
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
      ++fast_discards_;
      ctr_fast_discards_->inc();
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
  ctr_ordered_reads_->inc();
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
  ctr_remote_reads_->inc();
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
      ctr_remote_retries_->inc();
      locs[static_cast<std::size_t>(q)].known = false;
      continue;
    }

    const auto view = SlotView::parse(buf);
    const auto version = view.version_before(r.tmp);
    if (!version) {
      // Line 23-25: both versions postdate r — we lag behind our group.
      ctr_lagging_->inc();
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
    ctr_addr_hits_->inc();
    co_return true;
  }
  ctr_addr_misses_->inc();

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
      final_image_.clear();
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
      inbound_stream_dirty_ = false;
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
  final_image_.clear();
  for (const Oid oid : range_oids) {
    // A slot still fast-pending here snapshots as its pre-image
    // (SlotView::current skips the pending version). That is the right
    // value: the PREPARE disarm stopped new fast commits long before this
    // FLIP, so a pending that lingered this long was abandoned by its
    // writer — no VALIDATE is coming — and step (4) discards it below.
    const auto [tmp, val] = store_->get(oid);
    reconfig::CopyRecord rec;
    rec.oid = oid;
    rec.tmp = tmp;
    rec.size = static_cast<std::uint32_t>(val.size());
    rec.serialized = store_->is_serialized(oid) ? 1u : 0u;
    rec.kind = reconfig::kCopyObject;
    final_image_.emplace_back(rec,
                              std::vector<std::byte>(val.begin(), val.end()));
  }
  for (const auto& [client, s] : sessions_) {
    std::vector<std::byte> blob = encode_session(s);
    reconfig::CopyRecord rec;
    rec.oid = client;
    rec.tmp = s.last_tmp;
    rec.size = static_cast<std::uint32_t>(blob.size());
    rec.kind = reconfig::kCopySession;
    final_image_.emplace_back(rec, std::move(blob));
  }
  for (const auto& [client, floor] : evicted_sessions_) {
    reconfig::CopyRecord rec;
    rec.oid = client;
    rec.tmp = floor;
    rec.kind = reconfig::kCopyTombstone;
    final_image_.emplace_back(rec, std::vector<std::byte>{});
  }

  // (3) Final delta: objects written (or collected but not yet on the
  // wire — pass_pending_) since the last drained pass, plus all session
  // state, sealed. Unthrottled: this is the flip's quiesce window and
  // should be as short as possible.
  std::set<Oid> delta = migration_dirty_;
  delta.insert(pass_pending_.begin(), pass_pending_.end());
  migration_dirty_.clear();
  pass_pending_.clear();
  std::vector<CopyItem> items;
  for (const CopyItem& it : final_image_) {
    if (it.first.kind == reconfig::kCopyObject &&
        !delta.contains(it.first.oid)) {
      continue;
    }
    items.push_back(it);
  }
  co_await copy_send(std::move(items), outbound_epoch_, mig.to, rank_,
                     /*seal=*/true, /*throttle=*/false, inc);
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
    ++migrated_out_;
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
    pass_pending_.insert(oids.begin(), oids.end());
    std::vector<CopyItem> items;
    items.reserve(oids.size());
    for (const Oid oid : oids) {
      if (!store_->exists(oid)) continue;
      if (store_->fast_pending(oid)) {
        // A pending invalidation may still receive its VALIDATE (posted
        // before the PREPARE disarm propagated to the writer); shipping
        // the pre-image now would miss that commit, and one-sided traffic
        // never touches migration_dirty_. Defer the oid to a later pass —
        // by then the slot has validated or been discarded.
        migration_dirty_.insert(oid);
        pass_pending_.erase(oid);
        ++copy_deferred_;
        ctr_copy_deferred_->inc();
        continue;
      }
      const auto [tmp, val] = store_->get(oid);
      reconfig::CopyRecord rec;
      rec.oid = oid;
      rec.tmp = tmp;
      rec.size = static_cast<std::uint32_t>(val.size());
      rec.serialized = store_->is_serialized(oid) ? 1u : 0u;
      rec.kind = reconfig::kCopyObject;
      items.emplace_back(rec, std::vector<std::byte>(val.begin(), val.end()));
    }
    const bool ok = co_await copy_send(std::move(items), mig_epoch, mig.to,
                                       rank_, /*seal=*/false,
                                       /*throttle=*/true, inc);
    if (!ok || stale(inc) || !outbound_active_ || outbound_flipped_) co_return;
    ++pass;
    copy_caught_up_ = migration_dirty_.size() + pass_pending_.size() <=
                      rcfg.seal_dirty_threshold;
    co_await sim.sleep(rcfg.delta_pass_interval);
  }
}

sim::Task<bool> Replica::copy_send(std::vector<CopyItem> items,
                                   std::uint64_t mig_epoch, GroupId dest_group,
                                   int dest_rank, bool seal, bool throttle,
                                   std::uint64_t inc) {
  const HeronConfig& cfg = system_->config();
  const reconfig::ReconfigConfig& rcfg = cfg.reconfig;
  auto& sim = system_->simulator();
  auto& ep = system_->amcast().endpoint(group_, rank_);
  Replica& dest = system_->replica(dest_group, dest_rank);
  std::vector<std::byte> chunk(reconfig::copy_slot_bytes(rcfg));
  std::uint32_t fill = 0;
  std::uint32_t count = 0;
  std::vector<Oid> chunk_oids;

  auto flush = [&](bool seal_flag) -> sim::Task<bool> {
    if (count == 0 && !seal_flag) co_return true;
    if (throttle) {
      // Same backpressure discipline as the checkpoint writer — defer
      // while the ordering propose queue is deep or the replica CPU has
      // a backlog of queued foreground work — plus the fabric signal:
      // copy chunks yield the congested rack uplink (and its credits) to
      // foreground traffic.
      auto& fabric = system_->fabric();
      while (ep.propose_backlog() > rcfg.throttle_queue_depth ||
             node().cpu().free_at() > sim.now() + rcfg.throttle_cpu_backlog ||
             (rcfg.throttle_uplink_backlog > 0 &&
              fabric.uplink_backlog(node().id()) >
                  rcfg.throttle_uplink_backlog)) {
        ++copy_deferred_;
        ctr_copy_deferred_->inc();
        co_await sim.sleep(rcfg.throttle_backoff);
        if (stale(inc)) co_return false;
      }
    }
    if (fill > 0) {
      co_await node().cpu().use(static_cast<sim::Nanos>(
          static_cast<double>(fill) * cfg.memcpy_ns_per_byte));
      if (stale(inc)) co_return false;
    }
    reconfig::CopyChunkHeader hdr;
    hdr.seq = ++copy_seq_[static_cast<std::size_t>(dest_rank)];
    hdr.epoch = mig_epoch;
    hdr.record_count = count;
    hdr.payload_bytes = fill;
    hdr.flags = seal_flag ? reconfig::kCopyFlagSeal : 0u;
    hdr.crc = reconfig::copy_crc(std::span<const std::byte>(chunk).subspan(
        sizeof(reconfig::CopyChunkHeader), fill));
    // Fault injection: corrupt one payload byte AFTER the CRC was
    // computed — the receiver must detect the mismatch and recover
    // through the pull path.
    if (rcfg.chunk_corrupt_rate > 0 && fill > 0 &&
        rng_.chance(rcfg.chunk_corrupt_rate)) {
      chunk[sizeof(hdr) + rng_.bounded(fill)] ^= std::byte{0x40};
    }
    rdma::store_pod(std::span(chunk), 0, hdr);
    // A failed write (dest down) is tolerated: the dest recovers through
    // a pull resend once it rejoins.
    co_await system_->fabric().write(
        node().id(),
        rdma::RAddr{dest.node().id(), dest.reconfig_mr(),
                    reconfig::copy_slot_offset(rcfg, rank_, hdr.seq)},
        std::span<const std::byte>(chunk).first(sizeof(hdr) + fill));
    if (stale(inc)) co_return false;
    ++copy_chunks_sent_;
    ctr_copy_chunks_->inc();
    for (const Oid oid : chunk_oids) pass_pending_.erase(oid);
    chunk_oids.clear();
    fill = 0;
    count = 0;
    co_return true;
  };

  for (CopyItem& item : items) {
    const auto len = static_cast<std::uint32_t>(sizeof(reconfig::CopyRecord) +
                                                item.second.size());
    if (len > rcfg.copy_chunk_bytes) {
      throw std::runtime_error("reconfig: record larger than copy chunk");
    }
    if (fill + len > rcfg.copy_chunk_bytes) {
      if (!co_await flush(false)) co_return false;
    }
    const std::uint64_t off = sizeof(reconfig::CopyChunkHeader) + fill;
    rdma::store_pod(std::span(chunk), off, item.first);
    std::memcpy(chunk.data() + off + sizeof(reconfig::CopyRecord),
                item.second.data(), item.second.size());
    fill += len;
    ++count;
    if (item.first.kind == reconfig::kCopyObject) {
      chunk_oids.push_back(item.first.oid);
    }
  }
  co_return co_await flush(seal);
}

sim::Task<void> Replica::copy_recv_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(reconfig_mr_);
  const HeronConfig& cfg = system_->config();
  const reconfig::ReconfigConfig& rcfg = cfg.reconfig;
  const int reps = system_->replicas_per_partition();

  auto have_new = [this, &region, &rcfg, reps] {
    for (int s = 0; s < reps; ++s) {
      const auto next = copy_next_[static_cast<std::size_t>(s)] + 1;
      const auto hdr = rdma::load_pod<reconfig::CopyChunkHeader>(
          region.bytes(), reconfig::copy_slot_offset(rcfg, s, next));
      if (hdr.seq >= next) return true;
    }
    return false;
  };

  while (true) {
    co_await sim::wait_until(region.on_write(), have_new);
    if (stale(inc)) co_return;
    for (int s = 0; s < reps; ++s) {
      while (true) {
        const std::uint64_t next = copy_next_[static_cast<std::size_t>(s)] + 1;
        const std::uint64_t base = reconfig::copy_slot_offset(rcfg, s, next);
        const auto hdr =
            rdma::load_pod<reconfig::CopyChunkHeader>(region.bytes(), base);
        if (hdr.seq < next) break;
        if (hdr.seq > next) {
          // Ring overrun while this rank lagged (or was down): the slots
          // between next and hdr.seq were overwritten and their records
          // lost — taint the stream so no SEAL lands until a pull resend.
          inbound_stream_dirty_ = true;
          copy_next_[static_cast<std::size_t>(s)] = hdr.seq - 1;
          continue;
        }
        copy_next_[static_cast<std::size_t>(s)] = hdr.seq;
        inbound_progress_at_ = system_->simulator().now();
        // A torn/garbage header must never size the payload view past the
        // ring slot: treat an oversized payload_bytes as a corrupt chunk
        // (cursor already advanced; the pull path re-ships it) instead of
        // an out-of-range subspan.
        if (hdr.payload_bytes > rcfg.copy_chunk_bytes) {
          ++copy_chunks_corrupt_;
          ctr_copy_corrupt_->inc();
          inbound_stream_dirty_ = true;
          continue;
        }
        const auto payload = region.bytes().subspan(
            base + sizeof(reconfig::CopyChunkHeader), hdr.payload_bytes);
        if (reconfig::copy_crc(payload) != hdr.crc) {
          ++copy_chunks_corrupt_;
          ctr_copy_corrupt_->inc();
          inbound_stream_dirty_ = true;
          continue;
        }
        ++copy_chunks_received_;
        sim::Nanos apply_cpu = 0;
        std::uint64_t off = 0;
        bool malformed = false;
        for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
          if (off + sizeof(reconfig::CopyRecord) > payload.size()) {
            malformed = true;
            break;
          }
          const auto rec = rdma::load_pod<reconfig::CopyRecord>(payload, off);
          off += sizeof(reconfig::CopyRecord);
          if (rec.size > payload.size() - off) {
            malformed = true;
            break;
          }
          const auto value = payload.subspan(off, rec.size);
          off += rec.size;
          if (rec.kind == reconfig::kCopySession) {
            merge_session(static_cast<std::uint32_t>(rec.oid),
                          decode_session(value));
            apply_cpu += static_cast<sim::Nanos>(
                static_cast<double>(rec.size) * cfg.memcpy_ns_per_byte);
            continue;
          }
          if (rec.kind == reconfig::kCopyTombstone) {
            auto& floor =
                evicted_sessions_[static_cast<std::uint32_t>(rec.oid)];
            floor = std::max(floor, rec.tmp);
            continue;
          }
          // Object record, newest-wins: later passes and idempotent pull
          // resends may re-ship versions this rank already applied.
          if (store_->exists(rec.oid)) {
            if (store_->get(rec.oid).first >= rec.tmp) continue;
          } else {
            ++migrated_in_;
          }
          store_->install_version(rec.oid, value, rec.tmp,
                                  rec.serialized != 0);
          apply_cpu += static_cast<sim::Nanos>(
              static_cast<double>(rec.size) *
              (rec.serialized != 0 ? cfg.memcpy_ns_per_byte
                                   : cfg.serialize_ns_per_byte));
        }
        if (malformed) {
          // A record overran the CRC'd payload: sender bug or a torn-write
          // mode the CRC missed. Same recovery as a corrupt chunk — taint
          // the stream so the seal is withheld until a pull resend.
          ++copy_chunks_corrupt_;
          ctr_copy_corrupt_->inc();
          inbound_stream_dirty_ = true;
          continue;
        }
        if ((hdr.flags & reconfig::kCopyFlagSeal) != 0) {
          if (!inbound_stream_dirty_) {
            seal_epoch_seen_ = std::max(seal_epoch_seen_, hdr.epoch);
          }
          // A dirty stream drops the seal: the starvation watcher sees no
          // further progress and pulls a full resend, which carries its
          // own SEAL over a fresh clean stream.
          inbound_stream_dirty_ = false;
        }
        if (apply_cpu > 0) {
          co_await node().cpu().use(apply_cpu);
          if (stale(inc)) co_return;
        }
      }
    }
  }
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
    if (seal_epoch_seen_ >= mig_epoch) co_return;  // sealed: done
    if (sim.now() - inbound_progress_at_ <= rcfg.pull_timeout) continue;
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
                    reconfig::copy_pull_offset(rcfg, reps, rank_)},
        rdma::pod_bytes(pw));
    ++copy_pulls_;
    ctr_copy_pulls_->inc();
    inbound_progress_at_ = sim.now();
  }
}

sim::Task<void> Replica::pull_watch_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(reconfig_mr_);
  const reconfig::ReconfigConfig& rcfg = system_->config().reconfig;
  const int reps = system_->replicas_per_partition();
  while (true) {
    co_await region.on_write().wait();
    if (stale(inc)) co_return;
    for (int q = 0; q < reps; ++q) {
      const auto pw = rdma::load_pod<reconfig::PullWord>(
          region.bytes(), reconfig::copy_pull_offset(rcfg, reps, q));
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
      ++copy_pulls_served_;
      std::vector<CopyItem> items = final_image_;
      co_await copy_send(std::move(items), outbound_epoch_, outbound_.to, q,
                         /*seal=*/true, /*throttle=*/false, inc);
      if (stale(inc)) co_return;
    }
  }
}

void Replica::merge_session(std::uint32_t client, Session&& incoming) {
  incoming.last_active = system_->simulator().now();
  auto it = sessions_.find(client);
  if (it == sessions_.end()) {
    sessions_[client] = std::move(incoming);
    return;
  }
  it->second.merge(std::move(incoming));
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
  seal_epoch_seen_ = std::max(seal_epoch_seen_, donor_seal);
}

sim::Task<void> Replica::resume_migration_roles(std::uint64_t inc) {
  if (!layout_.enabled() || !layout_.migration.active()) co_return;
  const reconfig::Migration mig = layout_.migration;
  const reconfig::ReconfigConfig& rcfg = system_->config().reconfig;
  const int reps = system_->replicas_per_partition();
  auto& sim = system_->simulator();

  if (mig.from == group_) {
    // Source crashed mid-copy: recover per-dest send counters from the
    // surviving dest rings (a fresh stream restarting at seq 1 would be
    // silently ignored by the dest's cursor), then restart the copier
    // from a full pass.
    for (int q = 0; q < reps; ++q) {
      Replica& dest = system_->replica(mig.to, q);
      std::uint64_t max_seq = copy_seq_[static_cast<std::size_t>(q)];
      for (std::uint32_t i = 0; i < rcfg.copy_ring_slots; ++i) {
        std::vector<std::byte> buf(sizeof(reconfig::CopyChunkHeader));
        const auto cc = co_await system_->fabric().read(
            node().id(),
            rdma::RAddr{dest.node().id(), dest.reconfig_mr(),
                        (static_cast<std::uint64_t>(rank_) *
                             rcfg.copy_ring_slots +
                         i) *
                            reconfig::copy_slot_bytes(rcfg)},
            buf);
        if (stale(inc)) co_return;
        if (!cc.ok()) break;  // dest down; counter stays, stream resumes
        max_seq = std::max(
            max_seq,
            rdma::load_pod<reconfig::CopyChunkHeader>(std::span(buf), 0).seq);
      }
      copy_seq_[static_cast<std::size_t>(q)] = max_seq;
    }
    outbound_active_ = true;
    outbound_flipped_ = false;
    outbound_ = mig;
    outbound_epoch_ = layout_.epoch;
    migration_dirty_.clear();
    pass_pending_.clear();
    copy_caught_up_ = false;
    sim.spawn(copy_machine(layout_.epoch));
  }
  if (mig.to == group_ && seal_epoch_seen_ < layout_.epoch) {
    inbound_epoch_ = layout_.epoch;
    inbound_ = mig;
    // Chunks streamed while this rank was down are gone; force the first
    // SEAL attempt to fail so a pull resend re-ships the whole range.
    inbound_stream_dirty_ = true;
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
  ++state_transfers_;
  ctr_state_transfers_->inc();
  auto span = hub_->tracer.span("core", "state_transfer", node().id());
  span.arg("from_tmp", failed_tmp);
  const StateSyncEntry entry{failed_tmp, have_sessions ? 2ull : 1ull, 0,
                             ++statesync_serial_};

  // Lines 2-4: write the request into every group member's statesync
  // memory (and our own, so candidates and our waiter see one source).
  rdma::store_pod(node().region(statesync_mr_).bytes(),
                  statesync_offset(rank_), entry);
  node().region(statesync_mr_).on_write().notify_all();
  for (int q = 0; q < system_->replicas_per_partition(); ++q) {
    if (q == rank_) continue;
    Replica& peer = system_->replica(group_, q);
    system_->fabric().write_async(
        node().id(),
        rdma::RAddr{peer.node().id(), peer.statesync_mr(),
                    peer.statesync_offset(rank_)},
        rdma::pod_bytes(entry));
  }

  // Line 5: wait until the handler flips our status back to 0, then wait
  // for the staging applier to drain the shipped chunks.
  auto& region = node().region(statesync_mr_);
  co_await sim::wait_until(region.on_write(), [this, &region] {
    const auto e = rdma::load_pod<StateSyncEntry>(region.bytes(),
                                                  statesync_offset(rank_));
    return e.status == 0 && e.rid != 0;
  });
  if (stale(inc)) co_return;
  co_await sim::wait_until(node().region(staging_mr_).on_write(),
                           [this] { return staging_pending() == 0; });
  if (stale(inc)) co_return;

  // Line 6.
  const auto done = rdma::load_pod<StateSyncEntry>(region.bytes(),
                                                   statesync_offset(rank_));
  last_req_ = std::max(last_req_, done.rid);
  last_executed_ = std::max(last_executed_, done.rid);
}

std::uint64_t Replica::staging_pending() const {
  const auto region =
      const_cast<Replica*>(this)->node().region(staging_mr_).bytes();
  std::uint64_t pending = 0;
  for (int s = 0; s < system_->replicas_per_partition(); ++s) {
    const auto hdr = rdma::load_pod<ChunkHeader>(
        region, staging_offset(s, staging_next_[static_cast<std::size_t>(s)] + 1));
    if (hdr.seq >= staging_next_[static_cast<std::size_t>(s)] + 1) ++pending;
  }
  return pending;
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
          [](Replica& self, int lagger, Tmp from, bool sessions_delta,
             std::uint64_t serial, std::uint64_t inc2) -> sim::Task<void> {
            // Line 9-11: deterministic handler selection — candidates in
            // cyclic rank order after the lagger; candidate k starts after
            // k suspicion timeouts unless someone finished first.
            const int n = self.system_->replicas_per_partition();
            int k = 0;
            for (int step = 1; step < n; ++step) {
              const int cand = (lagger + step) % n;
              if (cand == self.rank_) break;
              ++k;
            }
            if (k > 0) {
              co_await self.system_->simulator().sleep(
                  k * self.system_->config().statesync_timeout);
              if (self.stale(inc2)) co_return;
              const auto now_e = rdma::load_pod<StateSyncEntry>(
                  self.node().region(self.statesync_mr_).bytes(),
                  self.statesync_offset(lagger));
              // Lines 19-22: someone else completed it (status back to 0)
              // or a newer request superseded this one.
              if ((now_e.status != 1 && now_e.status != 2) ||
                  now_e.serial != serial) {
                co_return;
              }
            }
            co_await self.perform_transfer(lagger, from, sessions_delta);
          }(*this, q, e.req_tmp, e.status == 2, e.serial, inc));
    }
  }
}

sim::Task<void> Replica::perform_transfer(int lagger_rank, Tmp from_tmp,
                                          bool sessions_delta) {
  const std::uint64_t inc = incarnation_;
  const HeronConfig& cfg = system_->config();

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
  ++transfers_served_;
  ctr_transfers_served_->inc();
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

  Replica& lagger = system_->replica(group_, lagger_rank);
  const std::uint32_t chunk_capacity = cfg.statesync_chunk_bytes;
  std::vector<std::byte> chunk(sizeof(ChunkHeader) + chunk_capacity);
  std::uint32_t fill = 0;
  std::uint32_t count = 0;
  sim::Nanos serialize_cpu = 0;

  auto flush = [&]() -> sim::Task<void> {
    if (count == 0) co_return;
    if (serialize_cpu > 0) {
      co_await node().cpu().use(serialize_cpu);
      serialize_cpu = 0;
    }
    const std::uint64_t seq =
        ++staging_sent_[static_cast<std::size_t>(lagger_rank)];
    ctr_xfer_bytes_sent_->inc(sizeof(ChunkHeader) + fill);
    ChunkHeader hdr{seq, count, fill, full ? kChunkFlagFull : 0u, 0};
    rdma::store_pod(std::span(chunk), 0, hdr);
    // Flow control: never run more than ring_slots-2 chunks ahead of the
    // applier (its cursor is mirrored into our statesync ack word below).
    co_await system_->fabric().write(
        node().id(),
        rdma::RAddr{lagger.node().id(), lagger.staging_mr(),
                    lagger.staging_offset(rank_, seq)},
        std::span(chunk).first(sizeof(ChunkHeader) + fill));
    fill = 0;
    count = 0;
  };

  for (Oid oid : oids) {
    if (!store_->exists(oid)) continue;  // retired (migrated away)
    const auto [tmp, value] = store_->get(oid);
    const auto record_len =
        static_cast<std::uint32_t>(sizeof(ChunkRecord) + value.size());
    if (record_len > chunk_capacity) {
      throw std::runtime_error("state transfer: object larger than chunk");
    }
    if (fill + record_len > chunk_capacity) {
      co_await flush();
      // Crashed (or restarted) mid-transfer: abandon. restart() resets
      // in_state_transfer_; the lagger's timeout picks the next handler.
      if (stale(inc)) co_return;
    }

    ChunkRecord rec;
    rec.oid = oid;
    rec.tmp = tmp;
    rec.size = static_cast<std::uint32_t>(value.size());
    rec.serialized = store_->is_serialized(oid) ? 1 : 0;
    rec.kind = kRecObject;
    rdma::store_pod(std::span(chunk), sizeof(ChunkHeader) + fill, rec);
    std::memcpy(chunk.data() + sizeof(ChunkHeader) + fill + sizeof(ChunkRecord),
                value.data(), value.size());
    fill += record_len;
    ++count;
    // Serialized tables ship as stored (memcpy); others pay serialization.
    serialize_cpu += static_cast<sim::Nanos>(
        static_cast<double>(value.size()) *
        (store_->is_serialized(oid) ? cfg.memcpy_ns_per_byte
                                    : cfg.serialize_ns_per_byte));
  }

  // Session table: the dedup state must travel with the store — the
  // receiver replaces whole entries, which is safe because this snapshot
  // waited for last_executed_ >= from_tmp, so per covered client its
  // session is a superset of anything the lagger executed. A delta
  // request (status 2) certifies the requester already holds session
  // state through from_tmp inclusive — a restored checkpoint chain is
  // complete up to its watermark — so sessions idle at or before
  // from_tmp are skipped.
  for (const auto& [client, s] : sessions_) {
    if (sessions_delta && s.last_tmp <= from_tmp) continue;
    const std::vector<std::byte> blob = encode_session(s);
    const auto payload_len = static_cast<std::uint32_t>(blob.size());
    const auto record_len =
        static_cast<std::uint32_t>(sizeof(ChunkRecord) + payload_len);
    if (record_len > chunk_capacity) {
      throw std::runtime_error("state transfer: session larger than chunk");
    }
    if (fill + record_len > chunk_capacity) {
      co_await flush();
      if (stale(inc)) co_return;
    }

    ChunkRecord rec;
    rec.oid = client;
    rec.tmp = s.last_tmp;
    rec.size = payload_len;
    rec.kind = kRecSession;
    const std::uint64_t off = sizeof(ChunkHeader) + fill;
    rdma::store_pod(std::span(chunk), off, rec);
    std::memcpy(chunk.data() + off + sizeof(ChunkRecord), blob.data(),
                blob.size());
    fill += record_len;
    ++count;
    serialize_cpu += static_cast<sim::Nanos>(
        static_cast<double>(payload_len) * cfg.memcpy_ns_per_byte);
  }

  // Session-TTL tombstones: always shipped whole (a handful of u64 pairs);
  // the receiver merges by max floor.
  for (const auto& [client, floor] : evicted_sessions_) {
    const auto record_len = static_cast<std::uint32_t>(sizeof(ChunkRecord));
    if (fill + record_len > chunk_capacity) {
      co_await flush();
      if (stale(inc)) co_return;
    }
    ChunkRecord rec;
    rec.oid = client;
    rec.tmp = floor;
    rec.size = 0;
    rec.kind = kRecTombstone;
    rdma::store_pod(std::span(chunk), sizeof(ChunkHeader) + fill, rec);
    fill += record_len;
    ++count;
  }

  // Donor layout + seal knowledge (heron::reconfig): a rejoining replica
  // that missed epoch markers while down adopts the donor's installed
  // layout, and may adopt its seal too — the donor's store (shipped in
  // this very transfer) already contains everything its sealed copy
  // stream carried.
  if (layout_.enabled()) {
    std::vector<std::byte> blob(sizeof(std::uint64_t));
    rdma::store_pod(std::span(blob), 0, seal_epoch_seen_);
    if (reconfig::encode_marker(layout_, 0, blob)) {
      const auto payload_len = static_cast<std::uint32_t>(blob.size());
      const auto record_len =
          static_cast<std::uint32_t>(sizeof(ChunkRecord) + payload_len);
      if (fill + record_len > chunk_capacity) {
        co_await flush();
        if (stale(inc)) co_return;
      }
      ChunkRecord rec;
      rec.oid = 0;
      rec.tmp = layout_.epoch;
      rec.size = payload_len;
      rec.kind = kRecLayout;
      const std::uint64_t off = sizeof(ChunkHeader) + fill;
      rdma::store_pod(std::span(chunk), off, rec);
      std::memcpy(chunk.data() + off + sizeof(ChunkRecord), blob.data(),
                  blob.size());
      fill += record_len;
      ++count;
    }
  }
  co_await flush();
  if (stale(inc)) co_return;

  // Lines 16-17: completion notice to every member (including ourselves
  // and the lagger).
  StateSyncEntry done{from_tmp, 0, rid, statesync_serial_ + 1};
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

sim::Task<void> Replica::staging_apply_loop() {
  const std::uint64_t inc = incarnation_;
  auto& region = node().region(staging_mr_);
  const HeronConfig& cfg = system_->config();
  const int reps = system_->replicas_per_partition();

  // `>=` tolerated: a chunk written while this replica was down leaves a
  // gap; the abandoned transfer is superseded by the fresh one the rejoin
  // path requests, so skipping straight to the producer's counter is safe.
  auto have_new = [this, &region, reps] {
    for (int s = 0; s < reps; ++s) {
      const auto hdr = rdma::load_pod<ChunkHeader>(
          region.bytes(),
          staging_offset(s, staging_next_[static_cast<std::size_t>(s)] + 1));
      if (hdr.seq >= staging_next_[static_cast<std::size_t>(s)] + 1) {
        return true;
      }
    }
    return false;
  };

  while (true) {
    co_await sim::wait_until(region.on_write(), have_new);
    if (stale(inc)) co_return;
    for (int s = 0; s < reps; ++s) {
      while (true) {
        const std::uint64_t next =
            staging_next_[static_cast<std::size_t>(s)] + 1;
        const std::uint64_t base = staging_offset(s, next);
        const auto hdr = rdma::load_pod<ChunkHeader>(region.bytes(), base);
        if (hdr.seq < next) break;

        sim::Nanos apply_cpu = 0;
        std::uint64_t off = base + sizeof(ChunkHeader);
        for (std::uint32_t i = 0; i < hdr.record_count; ++i) {
          const auto rec = rdma::load_pod<ChunkRecord>(region.bytes(), off);
          off += sizeof(ChunkRecord);
          const auto value = region.bytes().subspan(off, rec.size);
          if (rec.kind == kRecSession) {
            Session s = decode_session(value);
            s.last_active = system_->simulator().now();
            sessions_[static_cast<std::uint32_t>(rec.oid)] = std::move(s);
            off += rec.size;
            apply_cpu += static_cast<sim::Nanos>(
                static_cast<double>(rec.size) * cfg.memcpy_ns_per_byte);
            continue;
          }
          if (rec.kind == kRecTombstone) {
            auto& floor =
                evicted_sessions_[static_cast<std::uint32_t>(rec.oid)];
            floor = std::max(floor, rec.tmp);
            off += rec.size;
            continue;
          }
          if (rec.kind == kRecLayout) {
            adopt_layout_record(value);
            off += rec.size;
            continue;
          }
          store_->install_version(rec.oid, value, rec.tmp,
                                  rec.serialized != 0);
          off += rec.size;
          // Receiver-side cost: serialized data lands in place (memcpy);
          // non-serialized data must be deserialized into the app state.
          apply_cpu += static_cast<sim::Nanos>(
              static_cast<double>(rec.size) *
              (rec.serialized != 0 ? cfg.memcpy_ns_per_byte
                                   : cfg.serialize_ns_per_byte));
        }
        staging_next_[static_cast<std::size_t>(s)] = hdr.seq;
        ctr_xfer_bytes_applied_->inc(hdr.payload_bytes);
        if ((hdr.flags & kChunkFlagFull) != 0) {
          xfer_applied_full_bytes_ += hdr.payload_bytes;
          ctr_xfer_bytes_applied_full_->inc(hdr.payload_bytes);
        } else {
          xfer_applied_delta_bytes_ += hdr.payload_bytes;
          ctr_xfer_bytes_applied_delta_->inc(hdr.payload_bytes);
        }
        if (apply_cpu > 0) {
          co_await node().cpu().use(apply_cpu);
          if (stale(inc)) co_return;
        }
        region.on_write().notify_all();  // progress signal for the waiter
      }
    }
  }
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
      ++ckpt_deferred_;
      ctr_ckpt_deferred_->inc();
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

  std::vector<durable::Record> records;
  std::uint64_t snap_bytes = 0;
  const auto add_object = [&](Oid oid, Tmp tmp, std::span<const std::byte> val,
                              bool serialized) {
    durable::Record rec;
    rec.kind = durable::kRecordObject;
    rec.flags = serialized ? durable::kRecordFlagSerialized : 0u;
    rec.id = oid;
    rec.tmp = tmp;
    rec.bytes.assign(val.begin(), val.end());
    snap_bytes += rec.bytes.size();
    records.push_back(std::move(rec));
  };
  if (full) {
    store_->for_each_object(add_object);
  } else {
    // Dirty set: objects written since the previous checkpoint. Entries
    // are tmp-sorted; capacity pops above ckpt_watermark_ force `full`,
    // so the log is complete over (ckpt_watermark_, w].
    std::set<Oid> dirty;
    auto it = std::lower_bound(
        update_log_.begin(), update_log_.end(), ckpt_watermark_ + 1,
        [](const LogEntry& e, Tmp t) { return e.tmp < t; });
    for (; it != update_log_.end(); ++it) dirty.insert(it->oid);
    for (const Oid oid : dirty) {
      if (!store_->exists(oid)) continue;  // retired (migrated away)
      const auto [tmp, val] = store_->get(oid);
      add_object(oid, tmp, val, store_->is_serialized(oid));
    }
  }
  for (const auto& [client, s] : sessions_) {
    if (!full && s.last_tmp <= ckpt_watermark_) continue;
    durable::Record rec;
    rec.kind = durable::kRecordSession;
    rec.id = client;
    rec.tmp = s.last_tmp;
    if (s.reply_paged_out && paged_replies.contains(client)) {
      Session copy = s;
      copy.cached_reply = paged_replies[client];
      copy.reply_paged_out = false;
      rec.bytes = encode_session(copy);
    } else {
      rec.bytes = encode_session(s);
    }
    snap_bytes += rec.bytes.size();
    records.push_back(std::move(rec));
  }
  for (const auto& [client, floor] : evicted_sessions_) {
    durable::Record rec;
    rec.kind = durable::kRecordTombstone;
    rec.id = client;
    rec.tmp = floor;
    records.push_back(std::move(rec));
  }

  // Snapshotting is memcpy-class CPU work on the replica's core.
  const auto snap_cpu = static_cast<sim::Nanos>(
      static_cast<double>(snap_bytes) * cfg.memcpy_ns_per_byte);
  if (snap_cpu > 0) {
    co_await node().cpu().use(snap_cpu);
    if (stale(inc)) co_return;
  }

  const bool ok = co_await ckpt_->write_checkpoint(
      w, lease_epoch_, lease_expiry_, full, records,
      [this, inc] { return stale(inc); }, layout_.epoch);
  if (stale(inc)) co_return;
  if (!ok) co_return;  // aborted or out of pages; previous commit intact

  ++checkpoints_;
  ctr_checkpoints_->inc();
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
        ++sessions_evicted_;
        ctr_sessions_evicted_->inc();
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
  const sim::Nanos now = system_->simulator().now();
  std::uint64_t bytes = 0;
  for (const durable::Record& rec : img.records) {
    bytes += rec.bytes.size() + sizeof(durable::Record);
    switch (rec.kind) {
      case durable::kRecordObject:
        store_->install_version(
            rec.id, rec.bytes, rec.tmp,
            (rec.flags & durable::kRecordFlagSerialized) != 0);
        break;
      case durable::kRecordSession: {
        Session s = decode_session(rec.bytes);
        s.last_active = now;
        sessions_[static_cast<std::uint32_t>(rec.id)] = std::move(s);
        break;
      }
      case durable::kRecordTombstone: {
        auto& floor = evicted_sessions_[static_cast<std::uint32_t>(rec.id)];
        floor = std::max(floor, rec.tmp);
        break;
      }
      default:
        break;  // unknown kinds from future formats: ignore
    }
  }
  // Installing the image is memcpy-class work; the device read itself was
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
  // layout still shows active. Cursors and counters (copy_seq_,
  // copy_next_, pull_seen_, pull_serial_, seal_epoch_seen_) survive with
  // the registered region they describe. A flipped source loses its
  // retained final image and can no longer serve pulls — destinations
  // round-robin to a surviving source rank instead.
  outbound_active_ = false;
  outbound_flipped_ = false;
  outbound_epoch_ = 0;
  outbound_ = {};
  migration_dirty_.clear();
  pass_pending_.clear();
  copy_caught_up_ = false;
  final_image_.clear();
  inbound_epoch_ = 0;
  inbound_stream_dirty_ = false;

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
  const HeronConfig& cfg = system_->config();
  const auto staging = node().region(staging_mr_).bytes();
  for (int s = 0; s < system_->replicas_per_partition(); ++s) {
    staging_next_[static_cast<std::size_t>(s)] = 0;
    for (std::uint32_t i = 0; i < cfg.statesync_ring_slots; ++i) {
      const auto hdr = rdma::load_pod<ChunkHeader>(staging, staging_offset(s, i));
      staging_next_[static_cast<std::size_t>(s)] =
          std::max(staging_next_[static_cast<std::size_t>(s)], hdr.seq);
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

  // Receive-side loops first: the staging applier must be draining before
  // the state transfer below ships chunks, or its waiter never completes.
  auto& sim = system_->simulator();
  sim.spawn(addr_query_loop());
  sim.spawn(statesync_watch_loop());
  sim.spawn(staging_apply_loop());
  if (reconfig_enabled()) {
    sim.spawn(copy_recv_loop());
    sim.spawn(pull_watch_loop());
  }

  // Recover send-side counters by reading back the rings our past writes
  // landed in, so fresh sends continue the surviving sequence instead of
  // overwriting live slots with duplicate numbers.
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
  const HeronConfig& cfg = system_->config();
  for (int q = 0; q < system_->replicas_per_partition(); ++q) {
    if (q == rank_) continue;
    Replica& peer = system_->replica(group_, q);
    std::uint64_t max_seq = 0;
    for (std::uint32_t i = 0; i < cfg.statesync_ring_slots; ++i) {
      std::vector<std::byte> buf(sizeof(ChunkHeader));
      const auto cc = co_await system_->fabric().read(
          node().id(),
          rdma::RAddr{peer.node().id(), peer.staging_mr(),
                      peer.staging_offset(rank_, i)},
          buf);
      if (stale(inc)) co_return;
      if (!cc.ok()) break;
      max_seq = std::max(max_seq,
                         rdma::load_pod<ChunkHeader>(std::span(buf), 0).seq);
    }
    staging_sent_[static_cast<std::size_t>(q)] = max_seq;
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
        ++ckpt_rejected_layout_;
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
      xfer_applied_full_bytes_ + xfer_applied_delta_bytes_;
  co_await request_state_transfer(last_executed_, have_sessions);
  if (stale(inc)) co_return;
  restart_catchup_bytes_ =
      xfer_applied_full_bytes_ + xfer_applied_delta_bytes_ - applied_before;
  gauge_restart_delta_->set(
      static_cast<std::int64_t>(restart_catchup_bytes_));

  if (layout_.enabled()) {
    // Owner sweep: the store index survives the crash, so objects this
    // group handed off under a layout adopted above (transfer kRecLayout
    // record or surviving epoch word) may still be present. Retire them —
    // except inbound migration state still being copied *to* us.
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
    co_await resume_migration_roles(inc);
    if (stale(inc)) co_return;
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
          ++fast_adopted_;
          resolved = true;
        } else if (peer_lock == (pending | 1)) {
          peer_pending = true;  // undecided there too — ask again later
        } else {
          // The peer moved past this write (discarded it at lease expiry,
          // wiped it with an ordered write, or committed a later fast
          // write): our pending version is dead either way.
          store_->discard_pending(oid);
          ++fast_rediscarded_;
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
        ++fast_rediscarded_;
        break;
      }
      co_await system_->simulator().sleep(sim::us(50));
      if (stale(inc)) co_return;
    }
  }
  fast_pending_at_restart_.clear();
}

}  // namespace heron::core
