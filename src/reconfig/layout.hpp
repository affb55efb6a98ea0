// Epoch-versioned partition layouts for elastic repartitioning.
//
// A Layout maps the object-id keyspace [0, 2^64) onto partition groups
// through a sorted list of split points; each epoch bump installs a new
// layout at the same atomic-multicast stream position on every replica
// (kWireFlagEpoch markers, see DESIGN.md "Reconfiguration"). A migration
// moves one contiguous range between groups in two ordered markers:
//
//   PREPARE  epoch E   ownership unchanged, Migration{lo,hi,from,to} set;
//                      source ranks start the background copy machine.
//   FLIP     epoch E+1 ranges rewritten so [lo,hi) -> to, migration
//                      cleared; the source sends its final delta and
//                      retires the range.
//
// The wire form of a marker (layout + phase) must fit one multicast
// payload (amcast::kMaxPayload - sizeof(core::RequestHeader)), which
// bounds the number of ranges a layout may carry (kMaxWireRanges).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace heron::reconfig {

using Oid = std::uint64_t;
using GroupId = std::int32_t;

/// Half-open keyspace slice [lo, next range's lo) owned by one group.
struct Range {
  Oid lo = 0;
  GroupId owner = 0;
};

/// One in-flight range move; from < 0 means no migration is active.
struct Migration {
  Oid lo = 0;
  Oid hi = 0;  // exclusive
  GroupId from = -1;
  GroupId to = -1;

  [[nodiscard]] bool active() const { return from >= 0; }
  [[nodiscard]] bool contains(Oid oid) const { return oid >= lo && oid < hi; }
};

/// Marker phases carried next to the layout on the wire.
constexpr std::uint32_t kEpochPrepare = 1;
constexpr std::uint32_t kEpochFlip = 2;

/// Upper bound on ranges in a wire-encodable layout (payload budget).
constexpr std::size_t kMaxWireRanges = 12;

struct Layout {
  std::uint64_t epoch = 0;          // 0 = reconfiguration disabled
  std::vector<Range> ranges;        // sorted by lo; ranges[0].lo == 0
  Migration migration;              // set between PREPARE and FLIP

  [[nodiscard]] bool enabled() const { return epoch != 0 && !ranges.empty(); }
  [[nodiscard]] GroupId owner_of(Oid oid) const;
  /// The covering range of `oid` as [lo, hi) (hi of the last range wraps
  /// to 0 meaning 2^64). Requires enabled().
  void range_of(Oid oid, Oid& lo, Oid& hi) const;

  /// Rewrites the split points so [lo, hi) belongs to `to`, merging
  /// neighbours that end up with the same owner, and bumps the epoch.
  void apply_move(Oid lo, Oid hi, GroupId to, std::uint64_t new_epoch);

  /// Equal keyspace split of [0, keys) over `partitions` groups, epoch 1.
  /// Oids >= keys map to their owner by the last range.
  static Layout uniform(int partitions, Oid keys);
};

/// Ring sizing + fault knob of the copy machine. Its pacing (pass
/// interval, seal threshold, pull timeout, foreground throttle) is fixed
/// next to its use in core/replica.cpp.
struct ReconfigConfig {
  std::uint32_t copy_chunk_bytes = 8u << 10;   // payload per copy chunk
  std::uint32_t copy_ring_slots = 64;          // per source-rank ring
  /// Torn-chunk fault hook of both state streams (migration copy and
  /// Algorithm 3 transfer): a payload byte flipped after the CRC.
  double chunk_corrupt_rate = 0.0;
};

/// Pull word a starved destination rank writes into a source replica's
/// reconfig region (after the copy rings). `serial` increases per
/// request; the source answers any serial above the last one it handled
/// with a full-range resend (objects + sessions + SEAL), which is
/// idempotent at the receiver.
struct PullWord {
  std::uint64_t serial = 0;
  std::int32_t requester = -1;  // dest rank to send to
  std::uint32_t pad = 0;
};

/// A scheduled range move, driven by the System's controller coroutine.
struct Plan {
  sim::Nanos at = 0;
  Oid lo = 0;
  Oid hi = 0;
  GroupId from = -1;
  GroupId to = -1;
};

/// Serialized marker size for a layout with `ranges` ranges.
[[nodiscard]] std::size_t marker_bytes(std::size_t ranges);

/// Encodes {layout, phase} into `out` (appends). Returns false if the
/// layout has too many ranges to fit a marker payload.
bool encode_marker(const Layout& layout, std::uint32_t phase,
                   std::vector<std::byte>& out);

/// Decodes a marker payload. Returns false on malformed input.
bool decode_marker(std::span<const std::byte> in, Layout& layout,
                   std::uint32_t& phase);

}  // namespace heron::reconfig
