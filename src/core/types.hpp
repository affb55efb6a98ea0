// Core types of the Heron replica runtime.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "amcast/types.hpp"
#include "durable/config.hpp"
#include "reconfig/layout.hpp"
#include "sim/time.hpp"

namespace heron::core {

using amcast::DstMask;
using amcast::GroupId;
using amcast::MsgUid;

/// Application object identifier (the paper's `oid`). Applications encode
/// table/key structure into the 64 bits however they like.
using Oid = std::uint64_t;

/// Timestamp type: the packed, globally unique timestamps produced by
/// atomic multicast (amcast::pack_ts).
using Tmp = std::uint64_t;

/// Execution mode of a replica (used by the Fig. 4 experiment ladder).
enum class Mode : std::uint8_t {
  kOrderOnly,  // reply at delivery; no coordination, no execution
  kNull,       // coordinate multi-partition requests but execute nothing
  kApp,        // full Heron: coordinate + execute the application
};

/// RequestHeader::flags bit 0: a core-level ordered read. The replica
/// answers it from the object store (value + version + slot address)
/// without invoking the application; it is the fast-read fallback path
/// and doubles as per-replica address resolution for the client's
/// fast-read cache.
constexpr std::uint32_t kReqFlagRead = 1u << 0;

/// Fixed header every client prepends to its application payload.
struct RequestHeader {
  sim::Nanos sent_at = 0;   // client virtual time, for latency breakdowns
  /// Per-client logical command number. Retries of the same command reuse
  /// the session_seq under fresh multicast uids; replicas use it for
  /// at-most-once execution (session dedup). 0 = sessionless (no dedup).
  std::uint64_t session_seq = 0;
  std::uint32_t kind = 0;   // application-defined request type
  std::uint32_t flags = 0;  // kReqFlag* bits
};
static_assert(std::is_trivially_copyable_v<RequestHeader>);

/// A delivered request as seen by the replica and the application.
struct Request {
  MsgUid uid = 0;
  Tmp tmp = 0;
  DstMask dst = 0;
  bool shed = false;  // shed by admission control: reply BUSY, don't execute
  RequestHeader header{};
  std::vector<std::byte> payload;  // application payload (header stripped)

  [[nodiscard]] int partition_count() const { return amcast::dst_count(dst); }
  [[nodiscard]] bool single_partition() const { return partition_count() == 1; }
};

/// Reply written into the client's per-group reply slot.
constexpr std::size_t kMaxReplyPayload = 64;

/// Reserved reply status: the request was shed by admission control and
/// not executed; the client should back off and retry. High value so it
/// cannot collide with application statuses.
constexpr std::uint32_t kStatusBusy = 0xFFFFFF01u;

/// Reserved reply statuses for core-level ordered reads (kReqFlagRead).
constexpr std::uint32_t kStatusReadNotFound = 0xFFFFFF02u;
constexpr std::uint32_t kStatusReadTruncated = 0xFFFFFF03u;

/// Reserved reply status: the request is a retry from a session evicted by
/// the session TTL, at or below the evicted floor. It was NOT re-executed
/// (its original execution may or may not have happened before eviction);
/// the client must treat the outcome as unknown, never as a fresh failure.
constexpr std::uint32_t kStatusStaleSession = 0xFFFFFF04u;

/// Reserved reply status: the request touches a key range this group no
/// longer owns under the replica's installed layout epoch. The request
/// was NOT executed. The payload is a WrongEpochWire describing the new
/// owner of the faulting range; the client applies it to its layout,
/// drops every fast-read cache entry seeded under an older epoch, and
/// re-routes the same session_seq to the new owner.
constexpr std::uint32_t kStatusWrongEpoch = 0xFFFFFF05u;

/// Terminal outcome of Client::submit.
enum class SubmitStatus : std::uint8_t {
  kOk = 0,          // executed (possibly answered from the session cache)
  kTimeout = 1,     // deadline/retry budget exhausted without a reply
  kOverloaded = 2,  // budget exhausted and the last reply was BUSY
};

struct ReplySlot {
  MsgUid uid = 0;        // request this reply answers
  std::uint32_t status = 0;
  std::uint32_t payload_len = 0;
  std::array<std::byte, kMaxReplyPayload> payload{};
};
static_assert(std::is_trivially_copyable_v<ReplySlot>);

/// Application-level reply value.
struct Reply {
  std::uint32_t status = 0;
  std::vector<std::byte> payload{};
};

/// Coordination memory entry (Algorithm 1's coord_mem[h][q]).
struct CoordEntry {
  Tmp tmp = 0;
  std::uint32_t state = 0;  // 1 after Phase 2, 2 after Phase 4
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<CoordEntry>);

/// State-transfer memory entry (Algorithm 3's statesync_mem[q]).
/// status 2 is a delta request: the requester already holds all state
/// (objects AND sessions) up to req_tmp — from a restored checkpoint or
/// from having executed that far — so the donor may skip sessions whose
/// last executed command is below req_tmp. status 1 ships everything.
struct StateSyncEntry {
  Tmp req_tmp = 0;       // request the lagger failed to execute
  std::uint64_t status = 0;  // 0: idle, 1: full request, 2: delta request
  Tmp rid = 0;           // last request covered by the completed transfer
  std::uint64_t serial = 0;  // change detection
};
static_assert(std::is_trivially_copyable_v<StateSyncEntry>);

/// Object-address query/answer records (Algorithm 2 lines 8-13).
struct AddrQuery {
  std::uint64_t seq = 0;
  Oid oid = 0;
};
static_assert(std::is_trivially_copyable_v<AddrQuery>);

struct AddrAnswer {
  std::uint64_t seq = 0;
  Oid oid = 0;
  std::uint64_t offset = 0;  // object slot offset in the object region
  std::uint32_t size = 0;    // object payload size
  std::uint32_t found = 0;
};
static_assert(std::is_trivially_copyable_v<AddrAnswer>);

// --- fast-read path (lease-based linearizable one-sided READs) --------

/// Payload of a lease-grant marker (follows the RequestHeader): the
/// absolute expiry the grant carries. The expiry is computed by the lease
/// manager at submit time, so every replica installs the identical value;
/// the epoch is the marker's delivery timestamp (unique and monotone).
struct LeaseGrantWire {
  sim::Nanos expiry = 0;
};
static_assert(std::is_trivially_copyable_v<LeaseGrantWire>);

/// Lease word published at kFastReadLeaseOffset of a replica's fast-read
/// region; fast readers sample it with a one-sided READ before the slot.
/// epoch == 0 means "no lease" (also the state right after a restart).
struct LeaseWord {
  std::uint64_t epoch = 0;
  sim::Nanos expiry = 0;
};
static_assert(std::is_trivially_copyable_v<LeaseWord>);

/// LeaseWord::epoch bit 63: the lease (and fast READs) stays live, but
/// one-sided fast WRITES are disarmed at this replica — the grant's
/// arming marker has not been delivered yet, or an outbound migration's
/// copy machine is running (a one-sided commit would bypass its dirty
/// tracking and be lost at the destination). Fast-write probes and
/// verifies must treat the bit as "no lease"; fast readers ignore it.
/// Only set when HeronConfig::fast_writes is on, so the published word is
/// byte-identical to older builds otherwise.
constexpr std::uint64_t kLeaseFastWriteDisarmedBit = 1ull << 63;

/// Applied watermark replica q pushes into slot q of each peer's
/// fast-read region after every execution; the write gate waits on it.
struct AppliedWord {
  Tmp tmp = 0;
  sim::Nanos pushed_at = 0;
};
static_assert(std::is_trivially_copyable_v<AppliedWord>);

/// Fast-read region layout: the lease word at offset 0 (own cache line),
/// the replica's installed layout epoch at offset 32 (read by rejoining
/// peers to reject checkpoints from a superseded layout), then one
/// AppliedWord per peer rank.
constexpr std::uint64_t kFastReadLeaseOffset = 0;
constexpr std::uint64_t kFastReadEpochOffset = 32;
constexpr std::uint64_t kFastReadAppliedBase = 64;
constexpr std::uint64_t fastread_applied_offset(int rank) {
  return kFastReadAppliedBase +
         static_cast<std::uint64_t>(rank) * sizeof(AppliedWord);
}
constexpr std::uint64_t fastread_region_bytes(int replicas) {
  return fastread_applied_offset(replicas);
}

/// Ordered-read reply layout (status kOk/...ReadTruncated): this header,
/// then the value bytes. offset/size/rank seed the client's per-replica
/// fast-read address cache (slot offsets may diverge across replicas
/// after a state transfer, so the cache must be per-rank).
struct ReadAnswerWire {
  Tmp tmp = 0;
  std::uint64_t offset = 0;  // slot offset at the replying replica
  std::uint32_t size = 0;    // object payload size
  std::uint32_t rank = 0;    // replying replica's rank
};
static_assert(std::is_trivially_copyable_v<ReadAnswerWire>);

/// Value bytes an ordered-read reply can carry inline.
constexpr std::size_t kMaxReadInline = kMaxReplyPayload - sizeof(ReadAnswerWire);

/// ReadAnswerWire::rank bit 31: the object is stored serialized. Fast
/// writes only apply to raw (non-serialized) objects — a one-sided value
/// overwrite cannot re-serialize — so the client needs the flag to decide
/// eligibility without another round trip. Clients must mask the bit off
/// before using the rank.
constexpr std::uint32_t kReadAnswerSerializedBit = 1u << 31;

// --- fast-write path (leased, one-sided invalidate/validate) -----------

/// Version-timestamp tag for fast writes. Ordered timestamps are packed
/// amcast clocks — small, dense integers — so a fast write cannot squeeze
/// a new timestamp numerically *between* ordered ones. Instead a fast
/// write tags its version with bit 63 set, which makes it compare above
/// every ordered tmp (correct: the fast write happened after the ordered
/// write it sampled as its base) and lets every layer recognize the
/// version as lease-scoped rather than stream-ordered.
///
/// Seqlock-word protocol (Hermes-style invalidate/validate): the writer
/// one-sidedly sets the slot's lock word to `fast_tmp | 1` (odd:
/// INVALIDATE — readers treat the slot as torn), installs the version
/// tagged `fast_tmp` over the older dual-version slot, and, once every
/// replica acked + re-verified, sets the lock to `fast_tmp` (even:
/// VALIDATE). A fast-tagged version is only *valid* while the lock word
/// equals its tmp exactly; anything else (a later bracket, a wipe by an
/// ordered write, a discarded invalidation) makes it an inert remnant
/// that SlotView::current() skips.
constexpr Tmp kFastTmpBit = Tmp{1} << 63;
constexpr bool is_fast_tmp(Tmp t) { return (t & kFastTmpBit) != 0; }

/// Next fast tmp for `client_id` chained on `base` (the current version
/// tmp the writer sampled). Layout: bit 63 | 40-bit chain counter << 23 |
/// 22-bit client tag << 1 | 0. Always even (it doubles as the VALIDATE
/// lock value), strictly greater than `base` when base is itself a fast
/// tmp (counter + 1), and distinct across clients within a chain round,
/// so two concurrent fast writes racing on the same base can never forge
/// each other's INVALIDATE/VALIDATE words.
constexpr Tmp next_fast_tmp(Tmp base, std::uint32_t client_id) {
  const Tmp ctr = is_fast_tmp(base) ? ((base & ~kFastTmpBit) >> 23) : 0;
  return kFastTmpBit | ((ctr + 1) << 23) |
         (((Tmp{client_id} & 0x3FFFFF) + 1) << 1);
}

// --- Client::write fallback reasons (WriteResult::fallback_reason) ------
// Why a write took (or would have taken) the ordered stream instead of
// committing on the leased fast path. Diagnostics only — every reason maps
// to the same recovery: submit the op on the ordered stream, whose
// apply-side wipe erases any one-sided residue the aborted attempt left.
constexpr std::uint32_t kFastWriteNone = 0;          // committed fast
constexpr std::uint32_t kFastWriteDisabled = 1;      // feature/leases off
constexpr std::uint32_t kFastWriteColdCache = 2;     // no current-epoch addr
constexpr std::uint32_t kFastWriteSerialized = 3;    // serialized row
constexpr std::uint32_t kFastWriteSizeMismatch = 4;  // value != slot size
constexpr std::uint32_t kFastWriteNoLease = 5;       // lease absent/expiring
constexpr std::uint32_t kFastWriteConflict = 6;      // torn lock / lost race
constexpr std::uint32_t kFastWriteReplicaFail = 7;   // WC error on a replica

/// Payload of a kStatusWrongEpoch reply: the faulting range [lo, hi)
/// (hi == 0 wraps to 2^64) and its owner under layout epoch `epoch`.
struct WrongEpochWire {
  std::uint64_t epoch = 0;
  Oid lo = 0;
  Oid hi = 0;
  std::int32_t owner = -1;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<WrongEpochWire>);
static_assert(sizeof(WrongEpochWire) <= kMaxReplyPayload);

/// Runtime knobs for the Heron replica layer.
struct HeronConfig {
  Mode mode = Mode::kApp;

  /// §III-D1 extension: number of worker cores per replica executing
  /// non-conflicting single-partition requests concurrently. 1 preserves
  /// the paper's single-threaded prototype. >1 requires the application
  /// to report complete conflict_keys() (see core::Application).
  int exec_threads = 1;

  /// Registered object memory per replica.
  std::size_t object_region_bytes = 64u << 20;

  /// Post-majority extra wait in Phase 4, the paper's lagger-avoidance
  /// heuristic (§III-A last paragraph, Table I). 0 disables it.
  sim::Nanos coord_extra_delay = sim::us(3);

  /// Wait-for-all statistics collection (Table I) happens regardless;
  /// this also controls whether Phase 2 uses the extra delay (the paper
  /// applies it only to the second coordination phase).
  bool extra_delay_in_phase2 = false;

  /// State transfer: suspicion timeout per candidate handler.
  sim::Nanos statesync_timeout = sim::ms(5);

  /// State transfer chunk payload (the paper uses 32 KB RDMA writes).
  std::uint32_t statesync_chunk_bytes = 32u << 10;
  std::uint32_t statesync_ring_slots = 64;

  /// Update-log capacity (entries); laggers older than the log tail get a
  /// full-state transfer.
  std::size_t update_log_capacity = 1u << 20;

  /// Per-replica service-time jitter: lognormal sigma applied to each
  /// request's execution CPU. Models real-machine variance (GC, cache,
  /// interrupts); it is what makes stragglers — and hence Table I's
  /// delayed-transaction statistics and the laggers of §III-A — occur.
  double exec_jitter_sigma = 0.08;

  /// Occasional large stalls (GC pause / interrupt storm): probability per
  /// executed request and stall length. Off by default; the coordination
  /// ablation uses them to provoke laggers.
  double hiccup_prob = 0.0;
  sim::Nanos hiccup_duration = sim::us(150);

  /// CPU cost model (calibration handles; see EXPERIMENTS.md).
  sim::Nanos coord_check_proc = sim::us(0.15);  // scan coordination memory
  sim::Nanos exec_dispatch_proc = sim::us(1.0); // request decode + dispatch
  sim::Nanos reply_proc = sim::us(0.5);         // marshal + post the reply
  double serialize_ns_per_byte = 1.0;    // Java-style (de)serialization
  double memcpy_ns_per_byte = 0.05;      // raw copy for non-serialized data

  // --- client request lifecycle (retry / timeout / backoff) -----------
  /// Per-attempt reply timeout. 0 preserves the legacy behaviour: a
  /// single attempt that waits forever (no retries, no deadline).
  sim::Nanos client_attempt_timeout = 0;
  /// Maximum retries after the first attempt (attempts = retries + 1).
  int client_max_retries = 8;
  /// Exponential backoff between attempts: base doubles per retry, each
  /// wait jittered in [delay/2, delay] with the client's seeded RNG.
  sim::Nanos client_retry_backoff = sim::us(50);
  sim::Nanos client_retry_backoff_max = sim::ms(2);
  /// Overall per-request deadline across attempts and backoffs. 0 means
  /// the retry budget alone bounds the request.
  sim::Nanos client_deadline = 0;

  // --- fast reads (lease-based, one-sided) ----------------------------
  /// Lease duration for the linearizable fast-read path. 0 disables the
  /// whole mechanism (seed behaviour: no markers, no watermark pushes,
  /// no write gate). When > 0, a per-partition lease manager multicasts
  /// a grant marker every lease_duration / 2, and writes gate their
  /// acknowledgement on every peer having applied them (capped by the
  /// expiry of the lease active at execution time).
  sim::Nanos lease_duration = 0;
  /// Torn-slot retries before a fast read falls back to the ordered path.
  int fastread_torn_retries = 3;
  /// Fabric-backpressure gate for lease renewal: when > 0 and the rack
  /// uplink of any alive replica of the partition has more than this many
  /// nanoseconds of queued transfer, the lease manager skips that renewal
  /// period instead of adding ordered traffic to a congested partition.
  /// Fast reads then degrade to the ordered path when the current lease
  /// expires and resume on the first post-congestion grant — graceful
  /// degradation instead of marker pile-up. 0 disables the gate.
  sim::Nanos lease_backpressure_threshold = 0;

  // --- fast writes (leased, one-sided invalidate/validate) -------------
  /// Enables the Hermes-style fast write path on top of the fast-read
  /// lease substrate (requires lease_duration > 0). false preserves the
  /// seed behaviour bit for bit: no invalidations are ever issued, no
  /// replica-side fence runs, and same-seed reports stay byte-identical.
  bool fast_writes = false;
  /// Minimum lease time that must remain when a fast writer posts its
  /// VALIDATE words. Replicas discard a still-pending invalidation at
  /// lease expiry; the margin guarantees any VALIDATE that was posted
  /// lands well before that deadline, so either every replica validates
  /// or every replica discards — never a mix.
  sim::Nanos fast_write_val_margin = sim::us(20);

  // --- durability (checkpointing + log compaction) ---------------------
  /// See durable/config.hpp. durable.checkpoint_interval == 0 (default)
  /// keeps the seed behaviour: no device, no checkpoints, restarts rejoin
  /// via a full state transfer without losing volatile watermarks.
  durable::DurableConfig durable;

  // --- elastic repartitioning (heron::reconfig) ------------------------
  /// Size of the layout-partitioned keyspace. 0 (default) keeps the seed
  /// behaviour: no initial layout, no epoch markers, no copy rings. > 0
  /// builds a uniform initial layout over [0, reconfig_keys) at epoch 1,
  /// registers per-replica copy rings, and lets the System's controller
  /// drive scheduled range migrations (System::schedule_migration).
  Oid reconfig_keys = 0;
  /// Copy-machine tuning + fault knobs (see reconfig/layout.hpp).
  reconfig::ReconfigConfig reconfig;
};

/// Floor for the lease manager's renewal period. Renewing faster than the
/// ordering round trip cannot produce usable grants (each expires before it
/// is delivered), yet the marker stream alone can exceed the replicas'
/// per-message CPU budget (~7us/marker on the leader: inbox + leader +
/// deliver processing) and collapse the group — CPU queues grow without
/// bound and commits stop. The floor keeps a misconfigured too-short lease
/// safely degraded (always-expired grants, fully ordered reads) instead.
constexpr sim::Nanos kMinLeaseRenewPeriod = sim::us(10);

/// Per-replica coordination statistics backing Table I.
struct CoordStats {
  std::uint64_t multi_partition = 0;  // coordinated requests
  std::uint64_t delayed = 0;          // majority present but not all
  sim::Nanos delay_sum = 0;           // extra wait until all present
  std::uint64_t gave_up = 0;          // cutoff hit before all present

  [[nodiscard]] double delayed_fraction() const {
    return multi_partition == 0
               ? 0.0
               : static_cast<double>(delayed) /
                     static_cast<double>(multi_partition);
  }
  [[nodiscard]] double avg_delay_us() const {
    return delayed == 0 ? 0.0
                        : sim::to_us(delay_sum) / static_cast<double>(delayed);
  }
};

/// Per-replica stage timing (Fig. 6 breakdown), aggregated by the harness.
struct StageBreakdown {
  sim::Nanos ordering = 0;
  sim::Nanos coordination = 0;
  sim::Nanos execution = 0;
};

}  // namespace heron::core
