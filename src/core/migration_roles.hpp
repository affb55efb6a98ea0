// A replica's roles in a live key-range migration (heron::reconfig): the
// source copies the outbound range to the destination group, which waits
// for its SEAL. A value type: it never awaits and knows nothing of its
// replica, whose copier and watcher coroutines drive it. Volatile: a
// restart resets it to {} and rejoin re-arms it from the adopted layout.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "durable/record.hpp"
#include "reconfig/layout.hpp"

namespace heron::core {

struct MigrationRoles {
  /// `epoch` and `range` survive the FLIP so the pull server knows which
  /// stream it re-seals.
  struct Source {
    bool active = false;      // PREPARE seen, FLIP not yet processed
    bool flipped = false;     // FLIP processed; serving pulls only
    std::uint64_t epoch = 0;  // PREPARE epoch of the migration
    reconfig::Migration range;
    std::set<Oid> dirty;         // written since the last drained pass
    std::set<Oid> pass_pending;  // collected for a pass, not yet on wire
    bool caught_up = false;
    /// The handed-off range (+ all sessions/tombstones) as of the FLIP,
    /// kept to serve idempotent pull resends after the objects retired.
    durable::RecordBuffer final_image;
  };
  /// Seal knowledge and stream taint live in the copy stream.
  struct Dest {
    std::uint64_t epoch = 0;  // PREPARE epoch; 0 = none inbound
    reconfig::Migration range;
    sim::Nanos progress_at = 0;
  };
  Source source;
  Dest dest;

  void arm_source(const reconfig::Migration& mig, std::uint64_t epoch) {
    source = Source{};
    source.active = true;
    source.epoch = epoch;
    source.range = mig;
  }
  void arm_dest(const reconfig::Migration& mig, std::uint64_t epoch,
                sim::Nanos now) {
    dest = Dest{epoch, mig, now};
  }
  [[nodiscard]] bool copying() const { return source.active && !source.flipped; }
  /// Dirty tracking: a write into the range while copying re-marks the
  /// object for the next delta pass (or the FLIP's final delta).
  void note_write(Oid oid) {
    if (copying() && source.range.contains(oid)) source.dirty.insert(oid);
  }
  /// A delta pass's objects, ascending.
  [[nodiscard]] std::vector<Oid> take_dirty() {
    std::vector<Oid> out(source.dirty.begin(), source.dirty.end());
    source.dirty.clear();
    return out;
  }
  /// The FLIP's final delta: dirtied, or collected but not yet on the wire.
  [[nodiscard]] std::set<Oid> take_final_delta() {
    std::set<Oid> out = std::exchange(source.dirty, {});
    out.merge(source.pass_pending);
    source.pass_pending.clear();
    return out;
  }
};

}  // namespace heron::core
