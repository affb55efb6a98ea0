// Heron deployment wiring: an atomic multicast system plus one Replica
// per multicast endpoint and client handles with reply memory.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "amcast/system.hpp"
#include "core/fast_loc_index.hpp"
#include "core/replica.hpp"
#include "core/types.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "telemetry/hub.hpp"

namespace heron::core {

/// Factory producing one Application instance per replica.
using AppFactory = std::function<std::unique_ptr<Application>()>;

/// Client handle: submits requests and awaits one reply per involved
/// partition (the paper's closed-loop client).
///
/// Every submit runs the robust lifecycle: bounded retries under fresh
/// multicast uids (the logical command is identified by the header's
/// session_seq, which replicas deduplicate) after each attempt timeout,
/// seeded exponential backoff with jitter, an optional overall deadline,
/// and BUSY-aware backoff under admission control. The default attempt
/// timeout never fires in a fault-free run.
class Client {
 public:
  Client(System& system, amcast::ClientEndpoint& ep);

  struct Result {
    Reply reply;            // reply from the lowest-id involved partition
    sim::Nanos latency = 0; // submit -> all partitions replied
    SubmitStatus status = SubmitStatus::kOk;
    int attempts = 1;            // multicasts performed (1 = no retries)
    std::uint64_t session_seq = 0;  // logical command number
  };

  /// Submits a request to the partitions in `dst` and awaits replies (or
  /// a terminal timeout/overload verdict under the retry lifecycle).
  /// Throws std::logic_error on an overlapping submit on the same client:
  /// concurrent requests would alias the per-partition reply slots.
  /// `flags` lands in RequestHeader::flags (kReqFlag* bits).
  sim::Task<Result> submit(DstMask dst, std::uint32_t kind,
                           std::span<const std::byte> payload,
                           std::uint32_t flags = 0);

  /// Outcome of a linearizable read (Client::read).
  struct ReadResult {
    /// 0 = value returned; kStatusReadNotFound / kStatusReadTruncated
    /// otherwise (fast reads always return the full value).
    std::uint32_t status = 0;
    /// Transport verdict of the ordered fallback; kOk for fast reads.
    SubmitStatus submit_status = SubmitStatus::kOk;
    bool fast = false;  // served by one-sided RDMA READs
    Tmp tmp = 0;        // version timestamp of the returned value
    std::vector<std::byte> value;
    sim::Nanos latency = 0;
  };

  /// Layout-routed submit (heron::reconfig): the destination partition is
  /// recomputed from the client's cached layout on every attempt, and a
  /// kStatusWrongEpoch reply re-seeds the layout and retries the SAME
  /// logical command (same session_seq — the rejecting replica never
  /// executed or session-marked it) against the new owner. Falls back to
  /// plain submit against `fallback` when reconfiguration is disabled.
  sim::Task<Result> submit_routed(Oid oid, GroupId fallback,
                                  std::uint32_t kind,
                                  std::span<const std::byte> payload,
                                  std::uint32_t flags = 0);

  /// Linearizable read of `oid` homed in partition `home`.
  ///
  /// Fast path (lease_duration > 0 and the per-oid address cache is warm):
  /// two one-sided RDMA READs against one replica — the lease word, then
  /// the object slot. The in-order per-(initiator, target) channel makes
  /// the lease sample strictly older than the slot sample, so a lease
  /// valid at the first READ plus an even (untorn) seqlock at the second
  /// proves the value is write-gate-complete: every other lease holder
  /// can already serve it, which is what makes the read linearizable.
  ///
  /// Falls back to an ordered read through the multicast stream
  /// (kReqFlagRead) on a cold cache, an absent/expired lease, a slot that
  /// stays torn after fastread_torn_retries, or remote failure. The
  /// fallback's reply carries the slot address and re-seeds the cache.
  sim::Task<ReadResult> read(GroupId home, Oid oid);

  /// Outcome of a single-object blind write (Client::write).
  struct WriteResult {
    /// Transport verdict of the ordered fallback; kOk for fast commits.
    SubmitStatus status = SubmitStatus::kOk;
    /// Replica reply status of the ordered fallback; 0 for fast commits.
    std::uint32_t reply_status = 0;
    bool fast = false;      // committed on the leased one-sided path
    Tmp tmp = 0;            // fast: the committed fast tmp (0 otherwise)
    Tmp base_tmp = 0;       // fast: the version tmp the write chained on
    /// kFastWriteNone on a fast commit; otherwise why the ordered stream
    /// was taken (kFastWrite* in types.hpp).
    std::uint32_t fallback_reason = kFastWriteNone;
    /// Session sequence number of the ordered fallback submit (0 for fast
    /// commits), so callers can resolve the executed version through a
    /// HistoryRecorder just like a plain submit().
    std::uint64_t session_seq = 0;
    sim::Nanos latency = 0;
  };

  /// Blind (absolute-value) write of `oid` homed in partition `home`.
  ///
  /// Fast path (fast_writes + leases on, warm current-epoch address
  /// cache): Hermes-style leased invalidate/validate, all one-sided.
  ///   PROBE      per replica: READ the lease word, then the 32-byte slot
  ///              header; require a live lease, an even untorn lock, the
  ///              oid's identity tag, and the cached size. All replicas
  ///              must agree on the current version tmp (the base).
  ///   INVALIDATE per replica: CAS the seqlock word from the sampled even
  ///              value to fast_tmp|1 (odd: readers see a torn slot and
  ///              fence), then write the new version tagged
  ///              next_fast_tmp(base, id()) over the non-current slot.
  ///   VERIFY     per replica: re-READ the header (lock still fast_tmp|1,
  ///              versions exactly {fast_tmp, base}) and the lease word.
  ///   VALIDATE   posted only while every sampled lease still has more
  ///              than kFastWriteValMargin left: one-sided writes set
  ///              each lock word to fast_tmp (even — the version is now
  ///              valid everywhere). Replicas discard a still-pending
  ///              invalidation at lease expiry, so the margin makes the
  ///              outcome uniform: all replicas commit or all discard.
  ///
  /// Any probe/CAS/verify/lease failure aborts the attempt and submits
  /// `ordered_payload` with `kind` on the ordered stream (submit_routed),
  /// whose apply-side wipe clears one-sided residue on every replica.
  /// `value` must be the full slot value (size() == the object's size);
  /// RMW ops must use the ordered stream — a blind overwrite is the only
  /// op whose outcome is independent of the base it clobbers.
  sim::Task<WriteResult> write(GroupId home, Oid oid,
                               std::span<const std::byte> value,
                               std::uint32_t kind,
                               std::span<const std::byte> ordered_payload);

  [[nodiscard]] std::uint32_t id() const { return ep_->client_id(); }
  [[nodiscard]] rdma::Node& node() { return ep_->node(); }
  [[nodiscard]] rdma::MrId reply_mr() const { return reply_mr_; }

  /// Statistics. Each lives in one registry counter, keyed by
  /// (subsystem, name, "c<amcast client id>") as listed in system.cpp's
  /// kClientStats; System::reset_stats zeroes them all.
  enum Stat : int {
    kCompleted, kRetries, kTimeouts, kOverloaded, kBusyReplies, kFastReadHits,
    kFastReadTornRetries, kFastReadFallbacks, kFastReadLeaseRejects,
    kFastWriteCommits, kFastWriteConflicts, kFastWriteFallbacks,
    kFastWriteLeaseRejects, kWrongEpochRetries, kStatCount
  };
  [[nodiscard]] std::uint64_t stat(Stat s) const { return stats_[s]->value(); }
  [[nodiscard]] std::uint64_t completed() const { return stat(kCompleted); }
  [[nodiscard]] sim::LatencyRecorder& latencies() { return latencies_; }

  // Lifecycle stats.
  [[nodiscard]] std::uint64_t retries() const { return stat(kRetries); }
  [[nodiscard]] std::uint64_t timeouts() const { return stat(kTimeouts); }
  [[nodiscard]] std::uint64_t overloaded() const { return stat(kOverloaded); }
  [[nodiscard]] std::uint64_t busy_replies() const {
    return stat(kBusyReplies);
  }
  [[nodiscard]] bool in_flight() const { return in_flight_; }

  // Fast-read path stats.
  /// Test hook: the replica rank a fast read of `oid` would target, or
  /// nullopt when the address cache is cold.
  [[nodiscard]] std::optional<int> fastread_cached_rank(Oid oid) const {
    const FastLoc* loc = fastread_cache_.find(oid);
    if (loc == nullptr) return std::nullopt;
    return loc->rank;
  }
  /// Test hook: points the warm cache entry of `oid` at another slot
  /// offset of the same replica, modelling a cached offset that no longer
  /// matches that replica's layout. No-op when the cache is cold.
  void fastread_repoint(Oid oid, std::uint64_t offset) {
    if (const FastLoc* loc = fastread_cache_.find(oid)) {
      FastLoc moved = *loc;
      moved.offset = offset;
      fastread_cache_.put(oid, moved);
    }
  }
  [[nodiscard]] std::uint64_t fastread_hits() const {
    return stat(kFastReadHits);
  }
  [[nodiscard]] std::uint64_t fastread_torn_retries() const {
    return stat(kFastReadTornRetries);
  }
  [[nodiscard]] std::uint64_t fastread_fallbacks() const {
    return stat(kFastReadFallbacks);
  }
  [[nodiscard]] std::uint64_t fastread_lease_rejects() const {
    return stat(kFastReadLeaseRejects);
  }

  // Fast-write path stats.
  [[nodiscard]] std::uint64_t fastwrite_commits() const {
    return stat(kFastWriteCommits);
  }
  [[nodiscard]] std::uint64_t fastwrite_conflicts() const {
    return stat(kFastWriteConflicts);
  }
  [[nodiscard]] std::uint64_t fastwrite_fallbacks() const {
    return stat(kFastWriteFallbacks);
  }
  [[nodiscard]] std::uint64_t fastwrite_lease_rejects() const {
    return stat(kFastWriteLeaseRejects);
  }

  // Reconfiguration-side stats / hooks (heron::reconfig).
  /// Layout this client routes by (seeded from the system's initial
  /// layout, advanced by kStatusWrongEpoch replies).
  [[nodiscard]] const reconfig::Layout& layout() const { return layout_; }
  [[nodiscard]] std::uint64_t wrong_epoch_retries() const {
    return stat(kWrongEpochRetries);
  }
  /// Test hook: the layout epoch a cached fast-read entry was seeded
  /// under (nullopt when cold).
  [[nodiscard]] std::optional<std::uint64_t> fastread_cached_epoch(
      Oid oid) const {
    const FastLoc* loc = fastread_cache_.find(oid);
    if (loc == nullptr) return std::nullopt;
    return loc->epoch;
  }

  /// Test hook: rewinds the session counter so the next submit reuses an
  /// already-issued session_seq — models a client resending an old
  /// command (e.g. after its session was TTL-evicted server-side).
  void rewind_session(std::uint64_t seq) { session_seq_ = seq; }
  [[nodiscard]] std::uint64_t session_seq() const { return session_seq_; }

 private:
  System* system_;
  amcast::ClientEndpoint* ep_;
  rdma::MrId reply_mr_{};
  bool in_flight_ = false;
  std::uint64_t session_seq_ = 0;  // last issued logical command number
  sim::Rng rng_;                   // backoff jitter, forked off the fabric seed
  sim::LatencyRecorder latencies_;

  /// Per-oid fast-path address cache, seeded by ordered-read replies
  /// (per-rank coherent; see FastLoc).
  FastLocIndex fastread_cache_;

  /// submit() minus the completion count, so submit_routed counts a
  /// command once however many wrong-epoch hops it took.
  sim::Task<Result> submit_uncounted(DstMask dst, std::uint32_t kind,
                                     std::span<const std::byte> payload,
                                     std::uint32_t flags);

  /// Shared state of one fast-write attempt's per-replica fan-out
  /// (defined in system.cpp; the helpers below each own one replica).
  struct FastWriteRound;
  sim::Task<void> fast_write_probe(GroupId home, int rank, Oid oid,
                                   FastLoc loc, FastWriteRound* st);
  sim::Task<void> fast_write_install(GroupId home, int rank, FastLoc loc,
                                     Tmp fast_tmp,
                                     std::span<const std::byte> value,
                                     FastWriteRound* st);
  sim::Task<void> fast_write_verify(GroupId home, int rank, Oid oid,
                                    FastLoc loc, Tmp fast_tmp, Tmp base,
                                    FastWriteRound* st);

  /// Applies a kStatusWrongEpoch reply: advances layout_ (when the wire
  /// epoch is newer) and evicts every fast-read cache entry seeded under
  /// an older layout. Returns false on a malformed payload.
  bool apply_wrong_epoch(const Reply& reply);
  reconfig::Layout layout_;

  std::array<telemetry::Counter*, kStatCount> stats_{};
  void count(Stat s) { stats_[s]->inc(); }
};

class System {
 public:
  /// Builds a Heron deployment with `partitions` groups of `replicas`
  /// members each. `factory` creates the application for every replica.
  System(rdma::Fabric& fabric, int partitions, int replicas,
         AppFactory factory, HeronConfig config = {},
         amcast::Config amcast_config = {});

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Starts multicast endpoints and replica runtimes.
  void start();

  /// Restarts a crashed replica: brings the amcast endpoint (and its
  /// node) back up, then runs the replica's rejoin path, which catches up
  /// via Algorithm 3 state transfer before resuming execution.
  void restart_replica(GroupId g, int rank);

  /// Fault-injection hook: lets heron::faultlab toggle runtime knobs
  /// (e.g. hiccup bursts) mid-run.
  [[nodiscard]] HeronConfig& mutable_config() { return config_; }

  [[nodiscard]] rdma::Fabric& fabric() { return amcast_->fabric(); }
  [[nodiscard]] sim::Simulator& simulator() {
    return fabric().simulator();
  }
  [[nodiscard]] amcast::System& amcast() { return *amcast_; }
  [[nodiscard]] const HeronConfig& config() const { return config_; }
  [[nodiscard]] int partitions() const { return amcast_->group_count(); }
  [[nodiscard]] int replicas_per_partition() const {
    return amcast_->replicas_per_group();
  }

  [[nodiscard]] Replica& replica(GroupId g, int rank) {
    return *replicas_[static_cast<std::size_t>(g) *
                          static_cast<std::size_t>(replicas_per_partition()) +
                      static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] AppFactory& app_factory() { return factory_; }

  Client& add_client();
  /// Ordinal access: the i-th add_client() call. NOT the amcast client id
  /// — internal endpoints (lease managers) consume amcast ids too.
  [[nodiscard]] Client& client(std::uint32_t id) { return *clients_[id]; }
  /// Client owning the given amcast client id; nullptr for internal
  /// endpoints (lease managers) and unknown ids. Replicas route replies
  /// through this so internal commands never dereference a client.
  [[nodiscard]] Client* client_by_amcast_id(std::uint32_t id) {
    return id < by_id_.size() ? by_id_[id] : nullptr;
  }
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }

  /// Total completions across clients (throughput accounting).
  [[nodiscard]] std::uint64_t total_completed() const;
  /// Lease renewal periods skipped by the backpressure gate (see
  /// HeronConfig::lease_backpressure_threshold).
  [[nodiscard]] std::uint64_t lease_renewals_skipped() const;
  /// The one statistics reset: zeroes every registry counter of the
  /// fabric (replicas, clients, streams, amcast, rdma, durable) via
  /// Fabric::reset_stats and clears the latency recorders. Runtime state
  /// (watermarks, sessions, leases, layouts, cursors) is untouched.
  void reset_stats();

  // --- heron::reconfig: elastic repartitioning --------------------------

  /// The epoch-1 layout built from `HeronConfig::reconfig_keys` before any
  /// replica is constructed (replicas and clients seed their own copies
  /// from it). Disabled (epoch 0) when reconfig_keys == 0.
  [[nodiscard]] const reconfig::Layout& initial_layout() const {
    return layout0_;
  }
  /// The controller's view of the current cluster layout (advances at
  /// each marker it multicasts).
  [[nodiscard]] const reconfig::Layout& cluster_layout() const {
    return layout_;
  }

  /// Wall-clock milestones of one completed (or in-flight) migration.
  struct MigrationTimes {
    reconfig::Plan plan;
    sim::Nanos prepare = 0;  // PREPARE marker multicast
    sim::Nanos flip = 0;     // FLIP marker multicast (0 = not yet)
    sim::Nanos sealed = 0;   // every alive dest rank sealed (0 = not yet)
  };
  [[nodiscard]] const std::vector<MigrationTimes>& migration_times() const {
    return migration_times_;
  }

  /// Schedules one range move: at `plan.at` the controller multicasts a
  /// PREPARE marker (kWireFlagEpoch) to every group, waits for the alive
  /// source ranks to report their copy machines caught up, multicasts the
  /// FLIP, and records milestones until every alive destination rank
  /// seals. Requires reconfig_keys != 0. Call after start().
  void schedule_migration(const reconfig::Plan& plan);

  // --- lifecycle observers (heron::faultlab's history recorder) -------
  // System-level so clients added after attach are covered. Must not
  // re-enter the system.

  /// Fired right after each multicast attempt of a submit.
  using ClientAttemptObserver =
      std::function<void(std::uint32_t client, std::uint64_t session_seq,
                         MsgUid uid, DstMask dst, int attempt)>;
  /// Fired when a submit reaches its terminal outcome.
  using ClientOutcomeObserver =
      std::function<void(std::uint32_t client, std::uint64_t session_seq,
                         SubmitStatus status, int attempts)>;
  /// Fired when a replica commits to executing a command (session mark).
  using ExecObserver =
      std::function<void(GroupId group, int rank, std::uint32_t client,
                         std::uint64_t session_seq, MsgUid uid, Tmp tmp)>;

  void set_attempt_observer(ClientAttemptObserver obs) {
    attempt_observer_ = std::move(obs);
  }
  void set_outcome_observer(ClientOutcomeObserver obs) {
    outcome_observer_ = std::move(obs);
  }
  void set_exec_observer(ExecObserver obs) {
    exec_observer_ = std::move(obs);
  }
  [[nodiscard]] const ClientAttemptObserver& attempt_observer() const {
    return attempt_observer_;
  }
  [[nodiscard]] const ClientOutcomeObserver& outcome_observer() const {
    return outcome_observer_;
  }
  [[nodiscard]] const ExecObserver& exec_observer() const {
    return exec_observer_;
  }

 private:
  /// One per partition when lease_duration > 0: multicasts a lease-grant
  /// marker (kWireFlagLease) every lease_duration / 2 so replicas renew
  /// before expiry. A raw multicast endpoint, not a core::Client — it
  /// never reads a reply.
  sim::Task<void> lease_manager_loop(amcast::ClientEndpoint& ep, GroupId g);

  /// One per scheduled migration: drives the PREPARE / FLIP marker pair
  /// through an internal multicast endpoint and records milestones.
  /// Controllers are serialized by `ticket`: Migration is a single slot
  /// in the layout and in replica role state, so an overlapping plan
  /// would clobber the in-flight move.
  sim::Task<void> reconfig_controller_loop(amcast::ClientEndpoint& ep,
                                           reconfig::Plan plan,
                                           std::uint64_t ticket);
  /// Multicasts one epoch marker (layout + phase) to `dst`.
  sim::Task<void> multicast_marker(amcast::ClientEndpoint& ep, DstMask dst,
                                   const reconfig::Layout& layout,
                                   std::uint32_t phase);

  std::unique_ptr<amcast::System> amcast_;
  HeronConfig config_;
  AppFactory factory_;
  reconfig::Layout layout0_;  // immutable epoch-1 layout
  reconfig::Layout layout_;   // controller's current layout
  std::uint64_t reconfig_tickets_issued_ = 0;  // migration serialization
  std::uint64_t reconfig_tickets_done_ = 0;
  /// Per partition: backpressure-gated lease renewals.
  std::vector<telemetry::Counter*> ctr_renewals_skipped_;
  std::vector<MigrationTimes> migration_times_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Client*> by_id_;  // amcast client id -> Client (or nullptr)
  ClientAttemptObserver attempt_observer_;
  ClientOutcomeObserver outcome_observer_;
  ExecObserver exec_observer_;
};

}  // namespace heron::core
