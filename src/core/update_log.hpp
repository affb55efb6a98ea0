// The update log (Algorithm 1 "Variables": log): the objects each executed
// request modified, for delta transfers and delta checkpoints. A value
// type: it never awaits and knows nothing of its replica.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "core/types.hpp"

namespace heron::core {

/// Object `oid` was modified by the request with timestamp `tmp`.
struct LogEntry {
  Tmp tmp;
  Oid oid;
};

/// Entries are tmp-sorted. Invariant: every update above floor() is in the
/// log, except those of objects that migrated away (erase_if).
class UpdateLog {
 public:
  explicit UpdateLog(std::size_t capacity) : capacity_(capacity) {}

  /// Past capacity the oldest entry is dropped (see capacity_dropped()).
  void append(Tmp tmp, Oid oid) {
    entries_.push_back(LogEntry{tmp, oid});
    if (entries_.size() > capacity_) {
      capacity_dropped_ = std::max(capacity_dropped_, entries_.front().tmp);
      drop_through(entries_.front().tmp, 1);
    }
  }
  /// The drop path of capacity pops and checkpoint truncation: pops up to
  /// `limit` entries at or below `t`, raising the floor past them.
  void drop_through(Tmp t, std::size_t limit = SIZE_MAX) {
    for (; limit > 0 && !entries_.empty() && entries_.front().tmp <= t;
         --limit) {
      floor_ = std::max(floor_, entries_.front().tmp);
      entries_.pop_front();
    }
  }
  /// Restart: the log is gone and the floor rises to `t`, the pre-crash
  /// watermark (not to the entries' tmps: a multi-partition request in
  /// Phase 4 has logged writes above it). Capacity drops of the previous
  /// incarnation no longer concern its checkpoints.
  void wipe(Tmp t) {
    floor_ = std::max(floor_, t);
    entries_.clear();
    capacity_dropped_ = 0;
  }
  /// Forgets the updates of objects that left this replica.
  template <typename Pred>
  void erase_if(Pred&& gone) {
    std::erase_if(entries_, [&gone](const LogEntry& e) { return gone(e.oid); });
  }

  /// The log still holds every update above `t`.
  [[nodiscard]] bool complete_after(Tmp t) const { return floor_ <= t; }
  /// Objects updated above `t`, each once, in first-occurrence order.
  [[nodiscard]] std::vector<Oid> oids_after(Tmp t) const {
    std::vector<Oid> out;
    std::set<Oid> seen;
    auto it = std::upper_bound(
        entries_.begin(), entries_.end(), t,
        [](Tmp x, const LogEntry& e) { return x < e.tmp; });
    for (; it != entries_.end(); ++it) {
      if (seen.insert(it->oid).second) out.push_back(it->oid);
    }
    return out;
  }
  /// Highest tmp ever dropped, by any path.
  [[nodiscard]] Tmp floor() const { return floor_; }
  /// Highest tmp dropped by a capacity pop: a delta checkpoint over an
  /// older base would miss it, so it is forced full.
  [[nodiscard]] Tmp capacity_dropped() const { return capacity_dropped_; }
  [[nodiscard]] const std::deque<LogEntry>& entries() const { return entries_; }

 private:
  std::deque<LogEntry> entries_;
  std::size_t capacity_;
  Tmp floor_ = 0;
  Tmp capacity_dropped_ = 0;
};

}  // namespace heron::core
