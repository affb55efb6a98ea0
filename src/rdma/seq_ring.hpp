// The striped ring of seq-tagged records that peers fill with one-sided
// WRITEs: amcast's client inboxes and proposal stripes, and the replica's
// address query and answer rings. Producer s writes its entry with seq n
// (counted from 1) into stripe s, slot n % slots. The consumer keeps a
// cursor per stripe and takes a slot whose seq is at least cursor + 1: a
// larger seq is the ring continuing past writes dropped while this node
// was down. DESIGN.md "Seq rings" has the rules for restarts. The memory
// is the caller's registered region; this type holds the geometry, the
// cursors and this node's counter toward each peer's ring of this shape.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "rdma/pod.hpp"

namespace heron::rdma {

/// `SeqAt` is the byte offset of the entry's u64 seq field.
template <class Entry, std::size_t SeqAt = offsetof(Entry, seq)>
class SeqRing {
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(SeqAt + sizeof(std::uint64_t) <= sizeof(Entry));

 public:
  SeqRing(std::uint32_t stripes, std::uint32_t slots)
      : slots_(slots), cursor_(stripes, 0), sent_(stripes, 0) {}

  [[nodiscard]] std::uint32_t stripes() const {
    return static_cast<std::uint32_t>(cursor_.size());
  }
  [[nodiscard]] std::uint64_t stripe_bytes() const {
    return std::uint64_t{slots_} * sizeof(Entry);
  }
  /// The size of the ring's registered region.
  [[nodiscard]] std::uint64_t bytes() const {
    return stripe_bytes() * stripes();
  }
  [[nodiscard]] std::uint64_t offset(std::uint32_t s, std::uint64_t seq) const {
    return (std::uint64_t{s} * slots_ + seq % slots_) * sizeof(Entry);
  }

  // --- consumer ----------------------------------------------------------
  [[nodiscard]] std::uint64_t cursor(std::uint32_t s) const {
    return cursor_[s];
  }
  [[nodiscard]] std::uint64_t next_offset(std::uint32_t s) const {
    return offset(s, cursor_[s] + 1);
  }
  /// The gap rule, for a caller that also reads other fields of stripe s's
  /// next slot, at `off`.
  [[nodiscard]] bool ready_at(std::span<const std::byte> ring, std::uint32_t s,
                              std::uint64_t off) const {
    return load_pod<std::uint64_t>(ring, off + SeqAt) >= cursor_[s] + 1;
  }
  [[nodiscard]] bool ready(std::span<const std::byte> ring,
                           std::uint32_t s) const {
    return ready_at(ring, s, next_offset(s));
  }
  [[nodiscard]] bool any_ready(std::span<const std::byte> ring) const {
    for (std::uint32_t s = 0; s < stripes(); ++s) {
      if (ready(ring, s)) return true;
    }
    return false;
  }
  /// Consumes stripe s's next entry, which the caller found ready.
  Entry take(std::span<const std::byte> ring, std::uint32_t s) {
    const std::uint64_t off = next_offset(s);
    cursor_[s] = load_pod<std::uint64_t>(ring, off + SeqAt);
    return load_pod<Entry>(ring, off);
  }
  std::optional<Entry> next(std::span<const std::byte> ring, std::uint32_t s) {
    if (!ready(ring, s)) return std::nullopt;
    return take(ring, s);
  }
  /// Restart: each cursor resumes at the highest seq in its stripe among
  /// the entries `keep(stripe, entry)` accepts.
  template <class Keep>
  void rebuild(std::span<const std::byte> ring, Keep keep) {
    for (std::uint32_t s = 0; s < stripes(); ++s) {
      cursor_[s] = max_seq(ring.subspan(offset(s, 0), stripe_bytes()),
                           [&keep, s](const Entry& e) { return keep(s, e); });
    }
  }
  void rebuild(std::span<const std::byte> ring) {
    rebuild(ring, [](std::uint32_t, const Entry&) { return true; });
  }
  void resume_at(std::uint32_t s, std::uint64_t seq) { cursor_[s] = seq; }

  // --- producer, toward peer stripe `peer`'s ring -------------------------
  [[nodiscard]] std::uint64_t sent(std::uint32_t peer) const {
    return sent_[peer];
  }
  std::uint64_t next_seq(std::uint32_t peer) { return ++sent_[peer]; }
  /// Restart: resumes at the highest seq in `stripe`, a READ of this node's
  /// stripe in the peer's ring, so that new writes continue the sequence
  /// the peer's cursor follows.
  void recover_sent(std::uint32_t peer, std::span<const std::byte> stripe) {
    sent_[peer] = max_seq(stripe, [](const Entry&) { return true; });
  }

 private:
  template <class Keep>
  static std::uint64_t max_seq(std::span<const std::byte> stripe, Keep keep) {
    std::uint64_t max = 0;
    for (std::uint64_t off = 0; off < stripe.size(); off += sizeof(Entry)) {
      if (!keep(load_pod<Entry>(stripe, off))) continue;
      max = std::max(max, load_pod<std::uint64_t>(stripe, off + SeqAt));
    }
    return max;
  }

  std::uint32_t slots_;
  std::vector<std::uint64_t> cursor_;  // per producer stripe
  std::vector<std::uint64_t> sent_;    // per peer stripe
};

}  // namespace heron::rdma
