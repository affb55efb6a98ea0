// The state stream: chunks of state records (durable/record.hpp) written
// one-sided into per-sender rings in a registered region. Algorithm 3
// transfers, the migration copy machine and its pull resends all use it.
//
// Region: one ring of `slots` slots (ChunkHeader + payload) per sender
// rank, then one applied-cursor word per ring. The receiver drains each
// ring in seq order and publishes the last seq it consumed in the word,
// which survives restarts with the region. A sender stays within
// window() chunks of that word, refreshing it with a one-sided READ
// issued in the background once half the window is in flight; a
// restarted sender recovers its send cursor with one READ of the word and
// flags its first chunk kChunkFirst.
//
// A CRC mismatch, a record overrunning the payload, a seq gap, or a new
// sender generation without kChunkFirst (a restarted sender overwrote
// slots already drained) *taints* the stream: nothing of the chunk is
// applied and the next seal is dropped. Owners recover by asking again
// (Algorithm 3 re-issues its request, migration writes a pull word).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durable/record.hpp"
#include "rdma/fabric.hpp"
#include "sim/notifier.hpp"
#include "sim/random.hpp"

namespace heron::core {

/// `seq` counts one ring's chunks from 1; `stream` is the migration epoch
/// or the Algorithm 3 request serial; `gen` the sender's restart
/// generation; `crc` covers the payload.
struct ChunkHeader {
  std::uint64_t seq = 0;
  std::uint64_t stream = 0;
  std::uint32_t count = 0;  // records
  std::uint32_t bytes = 0;  // payload bytes
  std::uint16_t flags = 0;
  std::uint16_t gen = 0;
  std::uint32_t crc = 0;
};
static_assert(sizeof(ChunkHeader) == 32);

constexpr std::uint16_t kChunkSeal = 1u << 0;   // last chunk of a stream
constexpr std::uint16_t kChunkFull = 1u << 1;   // whole-store transfer
constexpr std::uint16_t kChunkFirst = 1u << 2;  // after a cursor recovery

class StateStream {
 public:
  struct Geometry {
    std::uint32_t slots = 0;
    std::uint32_t chunk_bytes = 0;  // payload budget per chunk
    int senders = 0;

    [[nodiscard]] std::uint64_t slot_offset(int sender,
                                            std::uint64_t seq) const {
      return (static_cast<std::uint64_t>(sender) * slots + (seq - 1) % slots) *
             (sizeof(ChunkHeader) + chunk_bytes);
    }
    [[nodiscard]] std::uint64_t cursor_offset(int sender) const {
      return slot_offset(senders, 1) + sizeof(std::uint64_t) * sender;
    }
    /// Rings + cursor words; owners may keep their own words after this.
    [[nodiscard]] std::uint64_t bytes() const { return cursor_offset(senders); }
  };

  /// CPU per record: serialized objects and sessions move at memcpy
  /// speed, other objects pay (de)serialization. Receivers charge it per
  /// applied record; senders per record too, unless `send_memcpy`: then
  /// a chunk costs its payload bytes at memcpy speed (the migration copy
  /// ships stored bytes as they are).
  struct Costs {
    double memcpy_ns_per_byte = 0;
    double serialize_ns_per_byte = 0;
    bool send_memcpy = false;
    [[nodiscard]] sim::Nanos of(const durable::RecordView& r) const;
  };

  struct Target {
    std::int32_t node = -1;
    rdma::MrId mr{};
  };

  /// Statistics: registry counters (subsystem `name`, label `label`).
  enum Stat : std::size_t {
    kChunksSent,
    kBytesSent,
    kChunksReceived,
    kChunksCorrupt,
    kAppliedFullBytes,
    kAppliedDeltaBytes,
    kResends,        // resends this receiver asked for (owner-counted)
    kResendsServed,  // resends this sender answered (owner-counted)
    kStatCount
  };

  /// `rank` picks this node's ring at every receiver. `corrupt_rate` is
  /// the fault hook: flip a payload byte after the CRC (drawn from `rng`).
  StateStream(rdma::Fabric& fabric, rdma::Node& node, rdma::MrId mr,
              Geometry geometry, int rank, Costs costs, sim::Rng& rng,
              double corrupt_rate, const std::string& name,
              const std::string& label);

  [[nodiscard]] const Geometry& geometry() const { return geo_; }
  [[nodiscard]] std::uint64_t window() const {
    return geo_.slots > 2 ? geo_.slots - 2 : 1;
  }
  /// The owner restarted: send cursors become unknown, the receive loop
  /// exits, the generation moves on.
  void restart();

  struct SendOptions {
    bool seal = false;        // flag the last chunk (an empty one if need be)
    std::uint16_t flags = 0;  // extra kChunk* bits on every chunk
    /// Polled before each chunk; a positive result defers it that long.
    std::function<sim::Nanos()> defer;
  };
  /// Ships `records` as stream `stream` into this node's ring at `to`,
  /// cut into chunks at record boundaries. False when abandoned: owner
  /// restarted, receiver down, or a newer stream to the same receiver
  /// started.
  sim::Task<bool> send(Target to, std::uint64_t stream,
                       durable::RecordBuffer records, SendOptions opts);

  /// Drains the rings until the owner restarts. Every chunk is consumed;
  /// only chunks whose stream `accept`s are applied, record by record.
  /// `apply` returns false for a record it skipped (no CPU charged).
  using Accept = std::function<bool(std::uint64_t stream)>;
  using Apply = std::function<bool(const durable::RecordView&)>;
  sim::Task<void> receive_loop(Accept accept, Apply apply);

  /// Every chunk that landed has been consumed (records install at
  /// consume time; their CPU may still be charging).
  [[nodiscard]] bool idle() const;
  [[nodiscard]] sim::Notifier& progress() { return progress_; }
  [[nodiscard]] sim::Nanos progress_at() const { return progress_at_; }

  /// Monotone taint count: compare two readings to learn whether
  /// anything went wrong in between.
  [[nodiscard]] std::uint64_t taints() const { return taints_; }
  void taint() { ++taints_; }
  /// Highest stream id sealed on an untainted stream.
  [[nodiscard]] std::uint64_t sealed() const { return sealed_; }
  void note_sealed(std::uint64_t s) { sealed_ = std::max(sealed_, s); }

  [[nodiscard]] std::uint64_t stat(Stat s) const { return stats_[s]->value(); }
  void count(Stat s, std::uint64_t n = 1) { stats_[s]->inc(n); }

 private:
  struct SendState {
    bool known = false;        // sent/acked describe the ring
    bool first = false;        // next chunk carries kChunkFirst
    bool reading = false;      // a cursor READ is in flight
    std::uint64_t sent = 0;    // last seq written
    std::uint64_t acked = 0;   // last cursor value read back
    std::uint64_t stream = 0;  // newest stream started
    std::uint64_t resyncs = 0;  // cursor losses + recoveries
    std::unique_ptr<sim::Notifier> read_done;
  };

  [[nodiscard]] bool stale(std::uint64_t gen) const {
    return gen != gen_ || !node_->alive();
  }
  [[nodiscard]] std::uint64_t cursor(int sender) const;
  [[nodiscard]] bool pending(int sender) const;
  sim::Task<bool> read_cursor(Target to, SendState& st, std::uint64_t gen);
  static void lose_cursor(SendState& st);

  rdma::Fabric* fabric_;
  rdma::Node* node_;
  rdma::MrId mr_;
  Geometry geo_;
  int rank_;
  Costs costs_;
  sim::Rng* rng_;
  double corrupt_rate_;
  std::uint64_t gen_ = 0;
  std::map<std::int32_t, SendState> send_;  // by receiver node id
  // Receiver; the cursors themselves live in the region.
  std::vector<int> ring_gen_;  // sender gen last consumed, -1 = unknown
  std::uint64_t taints_ = 0;
  std::uint64_t seal_taints_ = 0;  // taints_ at the previous seal
  std::uint64_t sealed_ = 0;
  sim::Nanos progress_at_ = 0;
  sim::Notifier progress_;
  std::array<telemetry::Counter*, kStatCount> stats_{};
};

}  // namespace heron::core
