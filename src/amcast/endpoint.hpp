// Replica-side endpoint of the atomic multicast protocol.
//
// Every replica hosts: an inbox (clients write requests here), a group
// log (the leader replicates PROPOSE/COMMIT records into it), an ack
// array (followers report their applied position), proposal stripes (one
// per potential sender replica in the system, carrying cross-group
// proposals), a heartbeat word and a status page (for failover), and a
// control word (new-leader epoch reset).
//
// See types.hpp for the protocol walk-through and DESIGN.md for the
// failover argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "amcast/types.hpp"
#include "rdma/fabric.hpp"
#include "rdma/seq_ring.hpp"
#include "sim/notifier.hpp"
#include "sim/seq_window.hpp"
#include "sim/task.hpp"
#include "telemetry/hub.hpp"

namespace heron::amcast {

class System;

/// Failover bookkeeping written by the epoch owner into every follower.
struct ControlMsg {
  std::uint64_t serial = 0;  // change-detected; new value = new message
  std::uint64_t epoch = 0;
  std::uint64_t reset_seq = 0;
  std::int32_t leader_rank = 0;
  std::int32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<ControlMsg>);

/// Locally maintained, remotely readable summary used during takeover.
struct StatusPage {
  std::uint64_t epoch = 0;
  std::uint64_t applied_seq = 0;
  std::uint64_t clock = 0;
};
static_assert(std::is_trivially_copyable_v<StatusPage>);

/// Epoch-tagged log record as stored in the replicated ring.
struct TaggedLogRecord {
  std::uint64_t epoch = 0;
  LogRecord rec{};
};
static_assert(std::is_trivially_copyable_v<TaggedLogRecord>);

class Endpoint {
 public:
  Endpoint(System& system, GroupId group, int rank, rdma::Node& node);
  /// Detaches the inbox write watcher, which points at this endpoint.
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Spawns the protocol coroutines. Called once by System::start().
  void start();

  /// Restarts a crashed endpoint: brings the node back up, discards
  /// volatile protocol state, rebuilds producer cursors from the surviving
  /// registered memory, and spawns a rejoin coroutine that replays the
  /// local log, adopts the current epoch/leader from peers, and catches up
  /// the log tail before the protocol loops resume. Safe against stale
  /// pre-crash coroutines via an incarnation counter.
  void restart();

  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] rdma::Node& node() { return *node_; }
  [[nodiscard]] bool is_leader() const { return leader_ == rank_; }
  [[nodiscard]] int current_leader() const { return leader_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t clock() const { return clock_; }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_count_; }

  /// Awaits at least one delivery and drains the whole ready queue in
  /// delivery order, charging the hand-off cost once for the span. This
  /// is the batched consumer path: under load the application stops
  /// paying a wakeup + deliver_proc per message. Returns an empty vector
  /// to a waiter parked across a crash+restart (the stale sentinel).
  sim::Task<std::vector<Delivery>> next_deliveries();

  /// Observer invoked at the instant a message is delivered (before the
  /// application dequeues it). Used by heron::faultlab's history recorder;
  /// must not re-enter the endpoint.
  using DeliveryObserver = std::function<void(const Delivery&)>;
  void set_delivery_observer(DeliveryObserver obs) {
    delivery_observer_ = std::move(obs);
  }

  /// Depth of the leader's propose queue (ordered-but-unproposed uids);
  /// the checkpoint writer uses it as a foreground-load signal.
  [[nodiscard]] std::size_t propose_backlog() const {
    return propose_queue_.size();
  }

  /// Current adaptive admission window (== Config::admission_window when
  /// adaptation is off or the fabric is calm). Tests and benches observe
  /// the tighten/recover cycle through this.
  [[nodiscard]] std::uint32_t effective_admission_window() const {
    return effective_window_;
  }

  // Region handles (published via the System directory).
  [[nodiscard]] rdma::MrId inbox_mr() const { return inbox_mr_; }
  [[nodiscard]] rdma::MrId log_mr() const { return log_mr_; }
  [[nodiscard]] rdma::MrId acks_mr() const { return acks_mr_; }
  [[nodiscard]] rdma::MrId props_mr() const { return props_mr_; }
  [[nodiscard]] rdma::MrId hb_mr() const { return hb_mr_; }
  [[nodiscard]] rdma::MrId status_mr() const { return status_mr_; }
  [[nodiscard]] rdma::MrId control_mr() const { return control_mr_; }

  // Slot address arithmetic, shared with writers (clients, peer leaders).
  using InboxRing = rdma::SeqRing<WireMessage, offsetof(WireMessage, ring_seq)>;
  /// One stripe per client id.
  [[nodiscard]] const InboxRing& inbox() const { return inbox_; }
  [[nodiscard]] std::uint64_t log_slot_offset(std::uint64_t seq) const;

 private:
  friend class System;

  struct Pending {
    WireMessage msg{};           // known once a PROPOSE or inbox copy is seen
    bool has_msg = false;
    bool proposed_locally = false;
    std::uint64_t local_clock = 0;
    std::uint64_t propose_seq = 0;   // log position of our PROPOSE
    bool propose_acked = false;      // majority-replicated
    bool proposals_sent = false;
    bool committed = false;
    std::uint64_t final_ts = 0;
    std::map<GroupId, std::uint64_t> proposals;  // group -> proposal clock
    DstMask shed_groups = 0;  // groups whose leader shed this message
    bool shed = false;        // committed verdict (any group shed it)
    bool commit_queued = false;  // buffered in commit_buf_, not yet appended
  };

  // --- protocol coroutines -------------------------------------------
  sim::Task<void> inbox_loop();
  sim::Task<void> log_loop();
  sim::Task<void> props_loop();
  sim::Task<void> control_loop();
  sim::Task<void> heartbeat_loop();
  sim::Task<void> batch_loop();  // leader: drain propose queue into batches
  sim::Task<void> finish_batch(std::uint64_t last_seq,
                               std::vector<MsgUid> members);
  sim::Task<void> takeover();
  sim::Task<void> rejoin();  // restart path: replay + adopt + catch up
  /// Copies `peer`'s log records after applied_seq_ up to `upto` into the
  /// local ring, applying each; stops at the first slot not holding the
  /// next seq (the peer died or its ring moved on).
  sim::Task<void> catch_up_from(Endpoint& peer, std::uint64_t upto);
  /// Reports applied_seq_ to every peer (any of them may be, or become,
  /// the leader).
  void publish_ack();
  /// Re-drives the locally proposed, uncommitted messages: each waits for
  /// a majority to ack its PROPOSE, then sends its proposals and commits.
  void redrive_pending();

  /// True when a coroutine spawned under incarnation `inc` must exit: the
  /// node crashed, or it restarted and fresh loops took over.
  [[nodiscard]] bool stale(std::uint64_t inc) const {
    return !node_->alive() || inc != incarnation_;
  }

  // --- helpers --------------------------------------------------------
  /// Samples fabric backpressure (leader uplink queue depth + credit
  /// stalls) and returns the admission window to apply to this batch;
  /// see Config::adaptive_admission for the tighten/recover policy.
  std::uint32_t sample_admission_window();
  void append_local(const LogRecord& rec);     // local ring + apply
  void replicate_span(std::uint64_t first_seq, std::uint64_t count);
  void apply_record(const LogRecord& rec);
  void maybe_commit(MsgUid uid);
  void commit(MsgUid uid);          // buffers into commit_buf_
  void flush_commits();             // appends + replicates buffered commits
  void enqueue_propose(MsgUid uid);
  void try_deliver();
  void update_status_page();
  void note_seen(const WireMessage& msg);
  [[nodiscard]] int majority() const;
  [[nodiscard]] bool propose_majority_acked(std::uint64_t seq) const;
  void send_proposals(MsgUid uid);

  System* system_;
  GroupId group_;
  int rank_;
  rdma::Node* node_;

  rdma::MrId inbox_mr_{}, log_mr_{}, acks_mr_{}, props_mr_{}, hb_mr_{},
      status_mr_{}, control_mr_{};

  // Role / log state.
  int leader_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t clock_ = 0;
  std::uint64_t applied_seq_ = 0;   // highest log record applied
  std::uint64_t append_seq_ = 0;    // leader: highest record appended
  std::uint64_t control_serial_ = 0;
  std::uint64_t hb_value_ = 0;
  bool taking_over_ = false;

  // Bumped on every restart(). Coroutines capture the value at spawn and
  // exit when it no longer matches: a loop parked across a crash+restart
  // must not resume against the rebuilt state.
  std::uint64_t incarnation_ = 0;

  // Adaptive admission state (leader only; see sample_admission_window).
  std::uint32_t effective_window_ = 0;
  std::uint32_t admission_clean_streak_ = 0;
  std::uint64_t admission_last_stalls_ = 0;

  // Message state. Delivered messages are deduplicated exactly: a per-
  // client watermark plus the delivered sequences above it. With client
  // retries a later uid (a retry, or the next command after a give-up)
  // can commit before an abandoned earlier uid, so sequences no longer
  // complete in order and a max()-watermark would drop messages
  // inconsistently across groups. The watermark is exclusive ("all seqs
  // below it delivered") so sequence 0 — representable since the uid
  // encoding was made total — starts out undelivered like any other.
  std::map<MsgUid, Pending> pending_;
  // Delivery indexes over pending_ (see try_deliver): committed entries by
  // (final_ts, uid), and locally proposed uncommitted ones by
  // (local_clock, uid). Kept in step by set_local_proposal / set_committed
  // / erase_pending.
  std::set<std::pair<std::uint64_t, MsgUid>> committed_index_;
  std::set<std::pair<std::uint64_t, MsgUid>> open_index_;
  std::vector<sim::SeqWindow> delivered_;  // per client id
  std::map<MsgUid, WireMessage> seen_;  // inbox'd but not yet proposed
  /// Deliveries since construction: a progress count, not a statistic.
  /// No reset touches it, so callers can take deltas across a measurement
  /// reset; the resettable statistic is the amcast/deliveries counter.
  std::uint64_t delivered_count_ = 0;

  // Leader-side batching. note_seen/takeover enqueue uids; batch_loop
  // drains the queue into PROPOSE batches. Commits ready at the same
  // instant are buffered and flushed as one COMMIT span.
  struct QueuedCommit {
    MsgUid uid = 0;
    std::uint64_t final_ts = 0;
    std::uint32_t flags = 0;
  };
  std::deque<MsgUid> propose_queue_;
  std::unique_ptr<sim::Notifier> batch_notifier_;
  std::vector<QueuedCommit> commit_buf_;

  [[nodiscard]] bool already_delivered(MsgUid uid) const;
  void mark_delivered(MsgUid uid);
  void set_local_proposal(MsgUid uid, Pending& p, std::uint64_t clock);
  void set_committed(MsgUid uid, Pending& p, std::uint64_t final_ts);
  void erase_pending(std::map<MsgUid, Pending>::iterator it);
  void clear_pending();

  // props_ has one stripe per sender replica (System::stripe_of) and also
  // holds this replica's proposal counter toward every peer.
  InboxRing inbox_;
  rdma::SeqRing<ProposalRecord> props_;
  // Inbox doorbells, one bit per client: set by every write landing in
  // the client's ring (the region's write watcher) and by restart(),
  // cleared only once the client's next slot is found not ready. A ready
  // ring therefore always has its bit set, and inbox_loop visits only the
  // set bits instead of every client's ring.
  std::vector<std::uint64_t> inbox_dirty_;
  void ring_inbox_doorbell(std::uint64_t offset, std::uint64_t len);
  /// First client id in [from, end) whose doorbell is set, else end.
  [[nodiscard]] std::uint32_t next_doorbell(std::uint32_t from,
                                            std::uint32_t end) const;

  // Delivery queue to the application.
  std::deque<Delivery> ready_;
  std::unique_ptr<sim::Notifier> ready_notifier_;
  DeliveryObserver delivery_observer_;

  // Telemetry handles (see telemetry/hub.hpp), keyed by "g<g>.r<r>".
  telemetry::Hub* hub_;
  telemetry::Counter* ctr_proposes_;
  telemetry::Counter* ctr_commits_;
  telemetry::Counter* ctr_deliveries_;
  telemetry::Counter* ctr_takeovers_;
  telemetry::Counter* ctr_reproposals_;
  telemetry::Counter* ctr_shed_;
  telemetry::Counter* ctr_admission_tightened_;
  telemetry::Gauge* gauge_admission_window_;
  telemetry::Histogram* hist_batch_;  // PROPOSE batch sizes (messages)
};

}  // namespace heron::amcast
