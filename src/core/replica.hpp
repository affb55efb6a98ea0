// The Heron replica runtime: Algorithm 1 (coordination), Algorithm 2
// (execution with remote reads over dual-versioned objects) and
// Algorithm 3 (state transfer), layered on the atomic multicast endpoint
// and the simulated RDMA fabric.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "amcast/endpoint.hpp"
#include "core/app.hpp"
#include "core/migration_roles.hpp"
#include "core/object_store.hpp"
#include "core/session_table.hpp"
#include "core/state_stream.hpp"
#include "core/types.hpp"
#include "core/update_log.hpp"
#include "durable/checkpoint.hpp"
#include "reconfig/layout.hpp"
#include "sim/stats.hpp"
#include "telemetry/hub.hpp"

namespace heron::core {

class System;

class Replica {
 public:
  Replica(System& system, GroupId group, int rank);
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Bootstraps application state and spawns the runtime coroutines.
  void start();

  /// Restart path (the node itself is restarted via the amcast endpoint):
  /// discards volatile runtime state, rebuilds ring cursors from the
  /// surviving registered memory, then spawns a rejoin coroutine that
  /// recovers send-side counters from peers, catches up via Algorithm 3
  /// state transfer, and only then resumes the main loop.
  void restart();

  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] rdma::Node& node();
  [[nodiscard]] ObjectStore& store() { return *store_; }
  [[nodiscard]] Application& app() { return *app_; }
  [[nodiscard]] Tmp last_req() const { return last_req_; }

  /// Statistics. Each lives in one registry counter, keyed by
  /// (subsystem, name, "g<g>.r<r>") as listed in replica.cpp's
  /// kReplicaStats; System::reset_stats zeroes them all.
  enum Stat : int {
    kExecuted, kSkipped, kAddrCacheHits, kAddrCacheMisses, kRemoteReads,
    kRemoteReadRetries, kLaggingDetected, kStateTransfers, kTransfersServed,
    kDedupHits, kShedReplies, kLeaseGrants, kGateWaits, kOrderedReads,
    kFastFenceWaits,   // ordered requests that waited on an INVALIDATE
    kFastDiscards,     // pending INVALIDATEs aborted (expiry / restart)
    kFastRepairs,      // ordered writes that wiped fast-write residue
    kFastAdopted, kFastRediscarded,  // rejoin reconciliation of pending slots
    kCoordMultiPartition, kCoordDelayed, kCoordDelayNs,
    kCoordGaveUp, kCheckpoints, kCheckpointsDeferred, kSessionsEvicted,
    kStaleSessionReplies, kCopyDeferred, kWrongEpochReplies, kQuiesceDeferred,
    kMigratedOut, kMigratedIn, kCheckpointsRejectedLayout, kStatCount
  };
  [[nodiscard]] std::uint64_t stat(Stat s) const { return stats_[s]->value(); }
  [[nodiscard]] std::uint64_t executed_count() const { return stat(kExecuted); }
  [[nodiscard]] std::uint64_t skipped_count() const { return stat(kSkipped); }
  [[nodiscard]] std::uint64_t state_transfers() const {
    return stat(kStateTransfers);
  }
  [[nodiscard]] std::uint64_t transfers_served() const {
    return stat(kTransfersServed);
  }
  [[nodiscard]] std::uint64_t dedup_hits() const { return stat(kDedupHits); }
  [[nodiscard]] std::uint64_t shed_replies() const {
    return stat(kShedReplies);
  }

  /// Per-client sessions (session_table.hpp), in client-id order.
  using Session = core::Session;
  [[nodiscard]] const SessionTable::Map& sessions() const {
    return sessions_.entries();
  }
  [[nodiscard]] std::size_t session_count() const { return sessions().size(); }

  // Durable subsystem state (tests / bench / diagnostics).
  [[nodiscard]] std::size_t update_log_size() const {
    return update_log().size();
  }
  [[nodiscard]] const std::deque<LogEntry>& update_log() const {
    return log_.entries();
  }
  /// Highest tmp ever dropped from the update log; delta transfers are
  /// only served from at or above it.
  [[nodiscard]] Tmp log_floor() const { return log_.floor(); }
  [[nodiscard]] Tmp last_executed() const { return last_executed_; }
  /// True from restart() until the rejoin path (checkpoint restore +
  /// catch-up transfer) has completed and execution resumed.
  [[nodiscard]] bool rejoining() const { return rejoining_; }
  [[nodiscard]] Tmp checkpoint_watermark() const { return ckpt_watermark_; }
  [[nodiscard]] std::uint64_t checkpoints_completed() const {
    return stat(kCheckpoints);
  }
  [[nodiscard]] std::uint64_t checkpoints_deferred() const {
    return stat(kCheckpointsDeferred);
  }
  [[nodiscard]] std::uint64_t sessions_evicted() const {
    return stat(kSessionsEvicted);
  }
  [[nodiscard]] std::uint64_t stale_session_replies() const {
    return stat(kStaleSessionReplies);
  }
  [[nodiscard]] bool restored_from_checkpoint() const {
    return restored_from_checkpoint_;
  }
  [[nodiscard]] std::uint64_t restart_catchup_bytes() const {
    return restart_catchup_bytes_;
  }
  [[nodiscard]] std::uint64_t xfer_applied_full_bytes() const {
    return xfer_->stat(StateStream::kAppliedFullBytes);
  }
  [[nodiscard]] std::uint64_t xfer_applied_delta_bytes() const {
    return xfer_->stat(StateStream::kAppliedDeltaBytes);
  }
  /// The Algorithm 3 stream (statistics, tests).
  [[nodiscard]] const StateStream& xfer_stream() const { return *xfer_; }
  /// Null when the durable subsystem is disabled.
  [[nodiscard]] durable::CheckpointStore* durable_store() {
    return ckpt_.get();
  }

  /// Bench/test hook: runs the state-transfer protocol as if this replica
  /// failed to execute the request with timestamp `from` (Algorithm 3
  /// lines 1-6). Returns once the transferred state has been applied.
  /// `have_sessions` marks the request as a delta (the requester certifies
  /// it holds objects and sessions through `from` inclusive).
  sim::Task<void> force_state_transfer(Tmp from, bool have_sessions = false) {
    co_await request_state_transfer(from, have_sessions);
  }

  /// Test hook: advances client `client`'s session last_tmp to `tmp`, as
  /// session_mark does at dispatch — models a later command from that
  /// client being mid-execution (marked, reply not yet cached) when the
  /// checkpoint writer snapshots the session table.
  void test_touch_session(std::uint32_t client, Tmp tmp) {
    sessions_.touch(client, tmp);
  }

  // Measurement hooks (read directly by the harness).
  [[nodiscard]] CoordStats coord_stats() const;
  [[nodiscard]] sim::LatencyRecorder& ordering_lat() { return ordering_lat_; }
  [[nodiscard]] sim::LatencyRecorder& coord_lat() { return coord_lat_; }
  [[nodiscard]] sim::LatencyRecorder& exec_lat() { return exec_lat_; }

  // Region handles.
  [[nodiscard]] rdma::MrId coord_mr() const { return coord_mr_; }
  [[nodiscard]] rdma::MrId statesync_mr() const { return statesync_mr_; }
  [[nodiscard]] rdma::MrId addrq_mr() const { return addrq_mr_; }
  [[nodiscard]] rdma::MrId addra_mr() const { return addra_mr_; }
  [[nodiscard]] rdma::MrId staging_mr() const { return staging_mr_; }
  [[nodiscard]] rdma::MrId fastread_mr() const { return fastread_mr_; }

  // Fast-read lease state (tests / diagnostics).
  [[nodiscard]] std::uint64_t lease_epoch() const { return lease_epoch_; }
  [[nodiscard]] sim::Nanos lease_expiry() const { return lease_expiry_; }
  [[nodiscard]] std::uint64_t lease_grants() const {
    return stat(kLeaseGrants);
  }
  [[nodiscard]] std::uint64_t gate_waits() const { return stat(kGateWaits); }

  // Fast-write state (tests / diagnostics).
  /// Ordered writes that wiped fast-write residue off a slot.
  [[nodiscard]] std::uint64_t fast_repairs() const {
    return stat(kFastRepairs);
  }

  /// Test hook (write-gate takeover regression): bumps the incarnation
  /// WITHOUT restarting, as a failover-driven takeover does, so staleness
  /// checks in in-flight coroutines fire while the store and runtime state
  /// survive untouched.
  void debug_bump_incarnation() { ++incarnation_; }
  /// Test hook: oids currently held seqlock-odd by an in-flight write
  /// phase or write gate of THIS incarnation.
  [[nodiscard]] std::size_t open_bracket_count() const {
    return open_brackets_.size();
  }

  // Reconfiguration state (heron::reconfig; tests / bench / controller).
  [[nodiscard]] const reconfig::Layout& layout() const { return layout_; }
  [[nodiscard]] rdma::MrId reconfig_mr() const { return reconfig_mr_; }
  /// Source role: the background copier has drained the range down to the
  /// seal threshold (kSealDirtyThreshold) — the controller may order the
  /// FLIP marker.
  [[nodiscard]] bool copy_caught_up() const { return roles_.source.caught_up; }
  /// Destination role: no unsealed inbound copy stream (either none was
  /// ever inbound, or the SEAL for the current migration epoch landed).
  [[nodiscard]] bool inbound_sealed() const {
    return roles_.dest.epoch == 0 || copy_->sealed() >= roles_.dest.epoch;
  }
  [[nodiscard]] std::uint64_t copy_chunks_sent() const {
    return copy_->stat(StateStream::kChunksSent);
  }
  [[nodiscard]] std::uint64_t copy_chunks_received() const {
    return copy_->stat(StateStream::kChunksReceived);
  }
  [[nodiscard]] std::uint64_t copy_chunks_corrupt() const {
    return copy_->stat(StateStream::kChunksCorrupt);
  }
  [[nodiscard]] std::uint64_t copy_deferred() const {
    return stat(kCopyDeferred);
  }
  [[nodiscard]] std::uint64_t copy_pulls() const {
    return copy_->stat(StateStream::kResends);
  }
  [[nodiscard]] std::uint64_t copy_pulls_served() const {
    return copy_->stat(StateStream::kResendsServed);
  }
  [[nodiscard]] std::uint64_t wrong_epoch_replies() const {
    return stat(kWrongEpochReplies);
  }
  [[nodiscard]] std::uint64_t quiesce_deferred() const {
    return stat(kQuiesceDeferred);
  }
  [[nodiscard]] std::uint64_t migrated_out() const {
    return stat(kMigratedOut);
  }
  [[nodiscard]] std::uint64_t migrated_in() const { return stat(kMigratedIn); }
  [[nodiscard]] std::uint64_t checkpoints_rejected_layout() const {
    return stat(kCheckpointsRejectedLayout);
  }

  // Offset helpers shared with peer writers.
  [[nodiscard]] std::uint64_t coord_offset(GroupId h, int q) const;
  [[nodiscard]] std::uint64_t statesync_offset(int q) const;
  [[nodiscard]] std::uint64_t addrq_offset(std::uint32_t stripe,
                                           std::uint64_t seq) const;
  [[nodiscard]] std::uint64_t addra_offset(std::uint32_t stripe,
                                           std::uint64_t seq) const;

 private:
  friend class System;

  // --- main loop (Algorithm 1) ----------------------------------------
  sim::Task<void> main_loop();
  sim::Task<void> handle_request(Request r);
  // §III-D1 extension: one concurrently running single-partition request.
  sim::Task<void> exec_concurrent(Request r, int slot,
                                  std::vector<Oid> keys);
  [[nodiscard]] bool keys_free(const std::vector<Oid>& keys) const;
  sim::Task<void> coordinate(const Request& r, std::uint32_t phase);
  void write_coord(const Request& r, std::uint32_t phase);
  [[nodiscard]] bool coord_satisfied(const Request& r, std::uint32_t phase,
                                     bool require_all) const;
  sim::Task<void> send_reply(const Request& r, const Reply& reply);

  // --- execution (Algorithm 2) ----------------------------------------
  struct ExecOutcome {
    bool lagging = false;
    Reply reply{};
    /// Oids left seqlock-odd by the write phase (leases enabled only);
    /// the write gate releases them before the reply goes out.
    std::vector<Oid> locked{};
  };
  sim::Task<ExecOutcome> execute(const Request& r);
  sim::Task<ExecOutcome> execute_on(const Request& r, sim::Cpu& cpu);
  struct RemoteRead {
    bool lagging = false;
    bool ok = false;
    std::vector<std::byte> value{};
  };
  sim::Task<RemoteRead> read_remote(const Request& r, Oid oid, GroupId h);
  sim::Task<bool> resolve_addr(Oid oid, GroupId h);
  sim::Task<void> addr_query_loop();  // answers peers' address queries
  /// Applies the request's writes. With leases enabled, the written oids
  /// stay seqlock-odd (begin_write was called before the write-phase CPU
  /// charge) and are returned in `locked` for the caller to release after
  /// the write gate.
  void apply_writes(const Request& r, ExecContext& ctx);
  struct QueuedWrite {
    Oid oid;
    std::size_t pos;  // queue position: creates first, then writes
    std::span<const std::byte> bytes;
  };

  // --- fast-read leases -------------------------------------------------
  [[nodiscard]] bool leases_enabled() const;
  /// Handles a lease-grant marker delivered through the ordered stream.
  void apply_lease_grant(const Request& r);
  /// Pushes this replica's applied watermark (last_executed_) into every
  /// peer's fast-read region; called after each execution so the write
  /// gate below can complete.
  void push_applied();
  /// Write gate: before acknowledging a request that wrote under an
  /// active lease, wait until every peer has applied it (or the lease
  /// active at execution time has expired). Releases the seqlock brackets
  /// taken in execute_on.
  sim::Task<void> write_gate(const Request& r, const std::vector<Oid>& locked);
  /// Releases a write-phase seqlock bracket if it is still owned by this
  /// incarnation (see open_brackets_); the only path allowed to end_write.
  void release_bracket(Oid oid);
  /// Answers a core-level ordered read (kReqFlagRead) from the store.
  [[nodiscard]] Reply make_read_reply(const Request& r) const;
  void publish_lease_word();

  // --- fast writes (leased one-sided invalidate/validate) ---------------
  [[nodiscard]] bool fast_writes_enabled() const;
  /// Hermes-style reader fence: before an ordered request touches an oid
  /// whose slot carries a pending INVALIDATE, wait for the writer's
  /// VALIDATE (a one-sided write into the object region), bounded by the
  /// lease expiry; a still-pending slot at expiry is discarded. The
  /// validate-margin rule (kFastWriteValMargin, system.cpp) makes the
  /// outcome identical at every replica.
  sim::Task<void> fast_write_fence(const Request& r);
  /// Single-slot fence, called immediately before each local store read so
  /// no suspension point separates the pending check from the read (the
  /// whole-request fence alone would leave a window where an INVALIDATE
  /// lands and validates elsewhere mid-execution — read inversion).
  sim::Task<void> fence_slot(Oid oid);
  /// Rejoin step: resolves slots left fast-pending across a restart by
  /// sampling live peers — a peer whose lock equals the pending tmp proves
  /// the writer validated (adopt); any other resolved peer state proves it
  /// aborted (discard). Runs before main_loop resumes.
  sim::Task<void> reconcile_fast_slots(std::uint64_t inc);

  // --- state transfer (Algorithm 3) ------------------------------------
  /// `have_sessions` marks the request as a delta (StateSyncEntry status
  /// 2): this replica already holds session state through failed_tmp, so
  /// the donor skips sessions older than that. Re-issues the request
  /// (under a new serial) until a transfer lands on an untainted stream.
  sim::Task<void> request_state_transfer(Tmp failed_tmp,
                                         bool have_sessions = false);
  sim::Task<void> statesync_watch_loop();   // reacts to peers' requests
  /// Serves request `serial` if this replica is (or, after suspicion
  /// timeouts, becomes) its handler: streams the records (stream id =
  /// serial), then writes the completion notice.
  sim::Task<void> perform_transfer(int lagger_rank, Tmp from_tmp,
                                   bool sessions_delta, std::uint64_t serial);
  sim::Task<void> rejoin();                 // restart: recover + catch up
  /// Spawns the receive loops of both state streams.
  void spawn_stream_receivers();

  // --- state records (shared by transfer, migration and checkpoints) ----
  /// The one record collector: the objects in `oids` that still exist
  /// (retired ones migrated away), then — with `sessions` — the session
  /// table's records (SessionTable::append_records). Encodes everything
  /// before returning, so the snapshot is consistent as of the call.
  [[nodiscard]] durable::RecordBuffer collect_records(
      const std::vector<Oid>& oids, bool sessions, Tmp sessions_after = 0,
      const std::map<std::uint32_t, Reply>* paged_in = nullptr);
  /// How an incoming record meets local state: Algorithm 3 transfers and
  /// checkpoint restores replace; migration is newest-wins per object and
  /// union-merges sessions (both sides may have executed commands).
  enum class ApplyRule { kReplace, kNewestWins };
  /// The one record installer; false when newest-wins skipped the record.
  bool apply_state_record(const durable::RecordView& rec, ApplyRule rule);

  // --- durability (checkpointing + log compaction) ----------------------
  /// Foreground-load throttle shared by checkpoint_loop and the migration
  /// copier: the ordering propose queue is deep or the CPU has a backlog
  /// of queued work.
  [[nodiscard]] bool foreground_busy();
  sim::Task<void> checkpoint_loop();
  sim::Task<void> write_checkpoint_once(std::uint64_t inc);
  /// Installs a restored checkpoint image: objects, sessions, tombstones,
  /// watermarks; charges memcpy-class CPU for the installed bytes.
  sim::Task<void> apply_checkpoint_image(const durable::Image& img);
  /// Retry of a session whose cached reply payload was paged out: fetch
  /// the persisted session record and answer from it.
  sim::Task<void> answer_paged_reply(const Request& r);

  // --- reconfiguration (heron::reconfig) --------------------------------
  [[nodiscard]] bool reconfig_enabled() const;
  /// Handles a layout-epoch marker (kWireFlagEpoch) from the ordered
  /// stream: installs the new layout; on PREPARE arms the source/dest
  /// roles, on FLIP performs the source-side handoff (lease cutoff, final
  /// delta + SEAL, range retirement).
  sim::Task<void> apply_epoch_marker(const Request& r);
  /// Publishes layout_.epoch into the fast-read region (read one-sided by
  /// rejoining peers to reject checkpoints from a superseded layout).
  void publish_epoch_word();
  /// Oids a request's routing is judged by: the read oid (kReqFlagRead)
  /// or the app read_set. Empty when the request carries no parseable
  /// keys (order-only payloads).
  [[nodiscard]] std::vector<Oid> request_oids(const Request& r) const;
  /// True while any of `oids` lies in an inbound migration range whose
  /// copy stream has not sealed yet (dual-epoch quiesce window).
  [[nodiscard]] bool touches_unsealed_inbound(
      const std::vector<Oid>& oids) const;
  [[nodiscard]] Reply make_wrong_epoch_reply(Oid oid) const;
  /// Source-side background copier: pass 0 snapshots the whole range,
  /// later passes drain the dirty set, throttled against foreground load.
  sim::Task<void> copy_machine(std::uint64_t mig_epoch);
  /// Streams `records` into dest's copy ring (stream id = the migration
  /// epoch). `seal` flags the last chunk; `throttle` defers between chunks
  /// under foreground load.
  sim::Task<void> copy_send(durable::RecordBuffer records,
                            std::uint64_t mig_epoch, GroupId dest_group,
                            int dest_rank, bool seal, bool throttle);
  /// Offset of requester rank `rank`'s pull word in a reconfig region.
  [[nodiscard]] std::uint64_t pull_offset(int rank) const {
    return copy_->geometry().bytes() +
           static_cast<std::uint64_t>(rank) * sizeof(reconfig::PullWord);
  }
  /// Destination-side starvation watcher: no inbound progress for
  /// kPullTimeout -> write a pull word to the next source rank.
  sim::Task<void> inbound_watch_loop(std::uint64_t mig_epoch);
  /// Source-side pull server: answers a dest rank's pull word with an
  /// idempotent full resend of the retained final image (+ SEAL).
  sim::Task<void> pull_watch_loop();
  /// State-transfer kRecordLayout payload: adopts the donor's layout when
  /// newer and max-merges its seal knowledge.
  void adopt_layout_record(std::span<const std::byte> payload);
  /// Arms this replica's source and destination roles in the installed
  /// layout's active migration and spawns their coroutines: at PREPARE,
  /// or at the rejoin tail (`rejoining`) for a migration still active in
  /// the adopted layout.
  void arm_migration_roles(bool rejoining);
  /// The stored oids of `mig`'s range, ascending.
  [[nodiscard]] std::vector<Oid> oids_in(const reconfig::Migration& mig) const;
  /// Retires the stored ones of `oids`: a pending fast write is discarded
  /// and an odd seqlock evened first. Returns how many were retired.
  std::size_t retire_oids(const std::vector<Oid>& oids);

  /// True when a coroutine spawned under incarnation `inc` must exit (the
  /// node crashed, or restarted and fresh loops took over).
  [[nodiscard]] bool stale(std::uint64_t inc) {
    return !node().alive() || inc != incarnation_;
  }

  System* system_;
  GroupId group_;
  int rank_;
  std::unique_ptr<Application> app_;
  std::unique_ptr<ObjectStore> store_;

  rdma::MrId coord_mr_{}, statesync_mr_{}, addrq_mr_{}, addra_mr_{},
      staging_mr_{};

  // --- sessions (at-most-once execution) -------------------------------
  SessionTable sessions_;
  /// Post-execution bookkeeping: caches the reply and fires the system's
  /// exec observer (the exactly-once oracle's evidence stream).
  void note_executed(const Request& r, const Reply& reply);

  // --- fast-read lease state -------------------------------------------
  rdma::MrId fastread_mr_{};
  std::uint64_t lease_epoch_ = 0;     // tmp of the latest applied grant
  sim::Nanos lease_expiry_ = 0;       // absolute; monotone across grants

  // --- fast-write state --------------------------------------------------
  bool fast_write_armed_ = false;  // armed lease grant applied (sticky)
  /// Seqlock brackets opened by THIS incarnation's write phases and not
  /// yet released. A takeover (incarnation bump without restart) must not
  /// let the stale gate's release path touch brackets a fresh incarnation
  /// opened, and conversely the bump itself must not strand the stale
  /// gate's brackets odd — release_bracket() keys off this set.
  std::set<Oid> open_brackets_;
  /// Slots found fast-pending by restart(); rejoin() reconciles them with
  /// peers before the main loop resumes.
  std::vector<Oid> fast_pending_at_restart_;

  Tmp last_req_ = 0;       // Algorithm 1: tmp of the last request (delivered)
  Tmp last_executed_ = 0;  // highest tmp whose writes are applied locally
  std::uint64_t statesync_serial_ = 0;
  /// Serial of the transfer this replica is waiting for (0: none); the
  /// transfer stream applies chunks of this stream id only.
  std::uint64_t xfer_expect_ = 0;
  bool in_state_transfer_ = false;

  // Bumped on every restart(); see stale().
  std::uint64_t incarnation_ = 0;

  // Remote object map: oid -> per-rank location in the home partition
  // (the paper's object_map of <oid, q> -> addr).
  struct RemoteLoc {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    bool known = false;
  };
  std::unordered_map<Oid, std::vector<RemoteLoc>> object_map_;
  std::vector<std::uint64_t> addrq_sent_;   // per target stripe
  std::vector<std::uint64_t> addrq_next_;   // consumer cursor per stripe
  std::vector<std::uint64_t> addra_next_;   // consumer cursor per stripe

  // Reused by apply_writes.
  std::vector<QueuedWrite> apply_scratch_;
  std::vector<Oid> apply_oids_;
  std::vector<ObjectStore::Ref> apply_refs_;

  UpdateLog log_;
  bool rejoining_ = false;

  // --- durable subsystem state ------------------------------------------
  std::unique_ptr<durable::CheckpointStore> ckpt_;  // null when disabled
  Tmp ckpt_watermark_ = 0;          // watermark of the last committed ckpt
  bool restored_from_checkpoint_ = false;
  std::uint64_t restart_catchup_bytes_ = 0;  // applied during last rejoin

  // State streams: Algorithm 3 transfers (staging_mr_) and migration copy
  // (reconfig_mr_, followed by the pull words).
  std::unique_ptr<StateStream> xfer_;
  std::unique_ptr<StateStream> copy_;

  // --- reconfiguration state (heron::reconfig) ---------------------------
  reconfig::Layout layout_;      // installed layout; epoch 0 = disabled
  rdma::MrId reconfig_mr_{};     // copy rings + pull words (when enabled)
  MigrationRoles roles_;
  // Pull state survives restarts with the registered region it describes.
  std::vector<std::uint64_t> pull_seen_;  // handled pull serial per rank
  std::uint64_t pull_serial_ = 0;  // our outgoing pull-word serial
  std::uint64_t pull_rr_ = 0;      // round-robin source pick for pulls

  // Multi-threaded execution state (exec_threads > 1).
  std::vector<std::unique_ptr<sim::Cpu>> exec_cpus_;
  std::vector<bool> slot_busy_;
  std::set<Oid> locked_keys_;
  int inflight_ = 0;
  std::unique_ptr<sim::Notifier> exec_done_;

  // Stage latencies (exact percentiles for fig6 and perfbench).
  sim::LatencyRecorder ordering_lat_;
  sim::LatencyRecorder coord_lat_;
  sim::LatencyRecorder exec_lat_;

  // Telemetry handles (see telemetry/hub.hpp), keyed by "g<g>.r<r>".
  telemetry::Hub* hub_;
  std::string label_;  // "g<g>.r<r>": this replica's metrics label
  std::array<telemetry::Counter*, kStatCount> stats_{};
  void count(Stat s, std::uint64_t n = 1) const { stats_[s]->inc(n); }
  telemetry::Gauge* gauge_restart_delta_;
  telemetry::Histogram* hist_exec_;
  telemetry::Histogram* hist_coord_;
  telemetry::Histogram* hist_gate_wait_;

  sim::Rng rng_;
};

}  // namespace heron::core
