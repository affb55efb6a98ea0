// Client-side address cache of the leased one-sided fast paths: where an
// object's slot lives at one replica, keyed by oid.
//
// Every fast read and fast write looks its oid up here before its first
// verb, so the table is flat: entries sit in the slot array itself (no
// node per entry), a Fibonacci hash picks the home slot, collisions probe
// linearly, and erase() deletes by backward shift, so no tombstones ever
// sit in the probe chains. The load factor stays at or below 1/2. This is
// the scheme of ObjectStore's index, minus the indirection through an
// entry vector (nothing here needs creation order).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace heron::core {

/// Where one object's slot lives, as an ordered-read reply reported it.
/// Per-rank coherent: slot offsets can diverge across replicas after a
/// state transfer, so the offset is only used against `rank`.
struct FastLoc {
  std::uint64_t offset = 0;
  /// Layout epoch the entry was seeded under: an entry from a superseded
  /// layout may point at a replica that handed the range off, so the fast
  /// path skips it and the next wrong-epoch reply purges all such entries
  /// at once.
  std::uint64_t epoch = 0;
  std::uint32_t size = 0;
  std::int32_t rank = 0;
  /// The object is stored serialized (ReadAnswerWire rank bit 31): the
  /// fast-write path skips it — a one-sided overwrite of the raw value
  /// cannot re-serialize. Fast reads are unaffected.
  bool serialized = false;
};

/// Open-addressing map Oid -> FastLoc (see the file comment).
class FastLocIndex {
 public:
  /// The entry of `oid`, or nullptr. Valid until the next put/erase/purge.
  [[nodiscard]] const FastLoc* find(Oid oid) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[probe(oid, home_of(oid))];
    return s.used ? &s.loc : nullptr;
  }

  /// Inserts or overwrites the entry of `oid`.
  void put(Oid oid, const FastLoc& loc) {
    if (!slots_.empty()) {
      Slot& s = slots_[probe(oid, home_of(oid))];
      if (s.used) {
        s.loc = loc;
        return;
      }
    }
    if (2 * (size_ + 1) > slots_.size()) {
      rebuild(std::max<std::size_t>(16, 2 * slots_.size()),
              [](const FastLoc&) { return true; });
    }
    slots_[probe(oid, home_of(oid))] = Slot{oid, loc, true};
    ++size_;
  }

  /// Removes the entry of `oid`; false if there was none.
  bool erase(Oid oid) {
    if (slots_.empty()) return false;
    std::size_t hole = probe(oid, home_of(oid));
    if (!slots_[hole].used) return false;
    // Backward-shift deletion: pull later members of the probe chain into
    // the hole unless their home lies cyclically in (hole, i].
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (hole + 1) & mask; slots_[i].used;
         i = (i + 1) & mask) {
      const std::size_t home = home_of(slots_[i].oid);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].used = false;
    --size_;
    return true;
  }

  /// Drops every entry seeded under a layout epoch older than `epoch`.
  void purge_older_than(std::uint64_t epoch) {
    rebuild(slots_.size(),
            [epoch](const FastLoc& loc) { return loc.epoch >= epoch; });
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slot count: zero until the first put, then a power of two.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Home slot of `oid` at the current capacity (which must be nonzero).
  [[nodiscard]] std::size_t home_of(Oid oid) const {
    return static_cast<std::size_t>((oid * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:
  struct Slot {
    Oid oid = 0;
    FastLoc loc;
    bool used = false;
  };

  /// Slot holding `oid`, or the empty slot that ends its probe chain.
  [[nodiscard]] std::size_t probe(Oid oid, std::size_t i) const {
    const std::size_t mask = slots_.size() - 1;
    while (slots_[i].used && slots_[i].oid != oid) i = (i + 1) & mask;
    return i;
  }

  /// Re-inserts the entries `keep` accepts into `slot_count` fresh slots.
  template <typename Keep>
  void rebuild(std::size_t slot_count, Keep keep) {
    std::vector<Slot> old(slot_count);
    old.swap(slots_);
    shift_ = slot_count == 0 ? 64 : 64 - std::countr_zero(slot_count);
    size_ = 0;
    for (const Slot& s : old) {
      if (!s.used || !keep(s.loc)) continue;
      slots_[probe(s.oid, home_of(s.oid))] = s;
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace heron::core
