// Dual-versioned object store backed by one RDMA-registered region.
//
// Implements the paper's object_list (§III-A, Algorithm 1 "Variables"):
// every object keeps two versions, each tagged with the timestamp of the
// request that created it.
//   * get()  returns the version with the higher timestamp;
//   * set()  overwrites the version with the lower timestamp and tags it;
//   * remote readers fetch the whole slot in one RDMA read and pick the
//     version with the highest timestamp smaller than their request's
//     (Algorithm 2 line 22) — finding none means they lag.
//
// Slot layout (so one read returns both versions, as in the paper):
//   [ lock : u64 | tmp_a : u64 | tmp_b : u64 | size : u32 | serialized : u32
//     | val_a : size bytes | val_b : size bytes ]
//
// `lock` is a per-object seqlock word for the one-sided fast-read path:
// the replica makes it odd (begin_write) for the duration of a request's
// write phase and even again (end_write) once the new version is applied
// and acknowledged safe, so a remote reader that samples the slot with a
// single RDMA READ can detect a torn/in-flight value and retry or fall
// back to the ordered path. Algorithm 2 remote readers (which want a
// *historical* version via version_before) ignore the lock on purpose.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "rdma/node.hpp"

namespace heron::core {

/// Parsed view of a raw object slot (also used by remote readers on the
/// bytes an RDMA read returned).
struct SlotView {
  std::uint64_t lock = 0;
  Tmp tmp_a = 0;
  Tmp tmp_b = 0;
  std::uint32_t size = 0;
  /// Packed word: bit 0 = stored serialized; bits 1-31 = oid_tag() of the
  /// owning object. The tag makes a slot self-describing to one-sided
  /// readers: a fast writer whose cached offset diverged from a replica's
  /// actual layout (possible after a lagger re-created objects during a
  /// state transfer) fails the tag check instead of corrupting whatever
  /// slot happens to live at that offset.
  std::uint32_t serialized = 0;
  std::span<const std::byte> val_a;
  std::span<const std::byte> val_b;

  [[nodiscard]] bool is_serialized_slot() const {
    return (serialized & 1) != 0;
  }
  [[nodiscard]] std::uint32_t tag() const { return serialized >> 1; }
  /// 31-bit identity tag. Exact for oids below 2^31 (every workload in
  /// this repo); a fold keeps larger oids distinguishable in practice.
  static constexpr std::uint32_t oid_tag(Oid oid) {
    return static_cast<std::uint32_t>((oid ^ (oid >> 31)) & 0x7FFFFFFFu);
  }
  /// The slot is `oid`'s, at `expect_size`: the identity check a one-sided
  /// reader or writer runs on a slot it reached through a cached offset.
  /// A retired slot fails it too (its size word is kRetiredSize).
  [[nodiscard]] bool holds(Oid oid, std::uint32_t expect_size) const {
    return size == expect_size && tag() == oid_tag(oid);
  }

  /// Odd seqlock word: a write phase (or a fast write's INVALIDATE) is in
  /// flight; a fast reader must retry or fall back.
  [[nodiscard]] bool torn() const { return (lock & 1) != 0; }

  /// A fast write's INVALIDATE is pending on this slot: the lock word is
  /// odd AND carries the fast-tmp tag. The pending version's tmp is
  /// `lock & ~1`; it commits when the writer's VALIDATE lands (lock
  /// becomes that tmp, even) and is discarded otherwise.
  [[nodiscard]] bool fast_pending() const {
    return (lock & kFastTmpBit) != 0 && (lock & 1) != 0;
  }

  /// Version validity: a fast-tagged version only counts while the lock
  /// word equals its tmp exactly (the writer's VALIDATE). Plain
  /// (stream-ordered) versions are always valid. Remnants of aborted or
  /// superseded fast writes fail this test and are skipped by current().
  [[nodiscard]] bool valid(Tmp t) const {
    return !is_fast_tmp(t) || lock == t;
  }

  /// Version with the highest tmp strictly smaller than `before`
  /// (Algorithm 2 line 22). nullopt => the reader lags.
  [[nodiscard]] std::optional<std::pair<Tmp, std::span<const std::byte>>>
  version_before(Tmp before) const {
    const bool a_ok = tmp_a < before;
    const bool b_ok = tmp_b < before;
    if (a_ok && (!b_ok || tmp_a >= tmp_b)) return {{tmp_a, val_a}};
    if (b_ok) return {{tmp_b, val_b}};
    return std::nullopt;
  }

  /// Current committed version; used for local reads. Among the valid()
  /// versions the higher tmp wins. When exactly one version is valid (the
  /// other is a pending/aborted fast remnant) that one is served
  /// regardless of tmp order. When neither is valid — a checkpoint or
  /// copy-stream install of a committed fast version under a plain lock
  /// tags BOTH slots with the fast tmp — fall back to the higher tmp:
  /// such installs hold one value in both slots, so the answer is right.
  /// A pending INVALIDATE never counts as current: unfenced local readers
  /// (checkpoint writer, copy machine) must keep serving the pre-image
  /// until the writer's VALIDATE lands, even when the pre-image is itself
  /// a committed fast version (both tmps fail valid() in that window, so
  /// the plain max-tmp fallback would leak the uncommitted value).
  [[nodiscard]] std::pair<Tmp, std::span<const std::byte>> current() const {
    if (fast_pending()) {
      const Tmp pend = lock & ~std::uint64_t{1};
      if (tmp_a == pend) return {tmp_b, val_b};
      if (tmp_b == pend) return {tmp_a, val_a};
      // Pending body never landed: the slot still holds its pre-INV
      // versions; fall through.
    }
    const bool a_ok = valid(tmp_a);
    if (a_ok != valid(tmp_b)) {
      return a_ok ? std::pair{tmp_a, val_a} : std::pair{tmp_b, val_b};
    }
    return tmp_a >= tmp_b ? std::pair{tmp_a, val_a} : std::pair{tmp_b, val_b};
  }

  /// Offsets of the header's size and packed serialized/tag words (see
  /// the slot layout above).
  static constexpr std::uint64_t kSizeOffset = 24;
  static constexpr std::uint64_t kWordOffset = 28;
  static constexpr std::uint64_t header_bytes() { return 32; }
  [[nodiscard]] std::uint64_t slot_bytes() const {
    return header_bytes() + 2ull * size;
  }
  /// The whole slot; `raw` must hold header_bytes() + 2 * size bytes.
  static SlotView parse(std::span<const std::byte> raw);
  /// The header words only (val_a / val_b stay empty); `raw` needs just
  /// header_bytes() bytes, and its size word is not trusted.
  static SlotView parse_header(std::span<const std::byte> raw);
};

class ObjectStore {
 public:
  /// A resolved object: the index of its entry, or empty for an unknown
  /// oid. A Ref is valid until the next create() or retire() on its store
  /// (either may compact the entries), so it is never held across a
  /// co_await. Sanitizer builds (HERON_SANITIZE) also stamp the store's
  /// generation into it and check that stamp at every use.
  class Ref {
   public:
    [[nodiscard]] bool found() const { return index_ != kAbsent; }

   private:
    friend class ObjectStore;
    static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;
    std::uint32_t index_ = kAbsent;
#ifdef HERON_SANITIZE
    std::uint64_t generation_ = 0;
#endif
  };

  /// Oids resolve() carries through its stages together.
  static constexpr std::size_t kResolveGroup = 16;

  /// Registers `region_bytes` of object memory on `node`.
  ObjectStore(rdma::Node& node, std::size_t region_bytes);

  /// Creates an object with fixed payload size. `serialized` marks rows
  /// stored in serialized form (TPC-C Stock/Customer): their state
  /// transfers skip receiver-side deserialization cost. Both versions are
  /// initialised to `init` at timestamp 0. Returns the slot offset.
  /// Throws std::logic_error if the oid exists.
  std::uint64_t create(Oid oid, std::span<const std::byte> init,
                       bool serialized = false);
  /// create() that leaves an existing object alone and returns nullopt.
  /// Either way it probes the index once: the probe that finds the oid
  /// absent ends at the slot the new entry goes into.
  std::optional<std::uint64_t> create_if_absent(
      Oid oid, std::span<const std::byte> init, bool serialized = false);

  [[nodiscard]] bool exists(Oid oid) const { return find(oid) != nullptr; }

  /// Batched lookup: out[i] becomes the Ref of oids[i] (empty if the oid
  /// is unknown); `out` must be as long as `oids`. Each group of
  /// kResolveGroup oids runs in stages (hash every oid and prefetch its
  /// index slot; prefetch the entries those slots name; finish the now
  /// warm probes and prefetch each slot header), so the cache misses of a
  /// group overlap instead of forming one dependent chain per oid.
  void resolve(std::span<const Oid> oids, std::span<Ref> out) const;

  /// Local read of the current version. The Ref overloads here and below
  /// throw std::out_of_range for an empty Ref, as the oid-keyed ones do
  /// for an unknown oid.
  [[nodiscard]] std::pair<Tmp, std::span<const std::byte>> get(Oid oid) const;
  [[nodiscard]] std::pair<Tmp, std::span<const std::byte>> get(Ref ref) const;

  /// Parsed slot (both versions), e.g. for version_before().
  [[nodiscard]] SlotView view(Oid oid) const;

  /// Dual-versioned update (Algorithm 2 lines 29-31): overwrites the
  /// older version and tags it with `tmp`. Does not touch the seqlock
  /// word; the caller brackets write phases with begin/end_write.
  void set(Oid oid, std::span<const std::byte> value, Tmp tmp);
  void set(Ref ref, std::span<const std::byte> value, Tmp tmp);

  /// Seqlock bracket around a request's write phase: begin_write makes
  /// the slot's lock word odd (fast readers see a torn slot), end_write
  /// makes it even again with a new generation count.
  void begin_write(Oid oid);
  void end_write(Oid oid);
  [[nodiscard]] std::uint64_t seqlock(Oid oid) const;

  // --- fast-write state machine (see SlotView::fast_pending) -----------
  /// An INVALIDATE is pending on the slot (lock odd + fast-tagged).
  [[nodiscard]] bool fast_pending(Oid oid) const;
  [[nodiscard]] bool fast_pending(Ref ref) const;
  /// Any fast-write residue on the slot: a fast-tagged lock word OR a
  /// fast-tagged version tmp. The ordered write path wipes such slots via
  /// install_version instead of set() so every replica converges on the
  /// same current version whether or not the one-sided traffic reached it.
  [[nodiscard]] bool has_fast_trace(Oid oid) const;
  [[nodiscard]] bool has_fast_trace(Ref ref) const;
  /// Resolves a pending INVALIDATE as aborted: restores the lock word so
  /// the slot's surviving version (the pre-image, or an earlier committed
  /// fast version) is valid again. No-op if the slot is not pending.
  void discard_pending(Oid oid);
  /// Resolves a pending INVALIDATE as committed (rejoin reconciliation:
  /// a peer proves the writer validated): lock <- tmp, even.
  void validate_fast(Oid oid, Tmp tmp);
  /// Strips the fast tag from the lock word, preserving bracket parity
  /// (odd stays odd). Used by the ordered wipe, which runs inside a
  /// begin_write/end_write bracket.
  void clear_fast_lock(Oid oid);

  /// Raw in-place slot overwrite (both versions + tags).
  void install_slot(Oid oid, std::span<const std::byte> slot_bytes,
                    std::uint32_t size, bool serialized);

  /// Installs a single version as the object's entire state (both slots
  /// set to it). Used by state transfer: the sender ships only the
  /// current version, the paper's "missing data" (§V-E2).
  void install_version(Oid oid, std::span<const std::byte> value, Tmp tmp,
                       bool serialized);

  /// Removes a migrated-away object and poisons its slot: the size word
  /// is overwritten with kRetiredSize so a stale fast reader (one-sided
  /// READ against a cached {offset, size}) fails its size check and
  /// falls back to the ordered path, which answers kStatusWrongEpoch.
  /// The slot space itself is leaked — the region is a bump allocator
  /// and reconfiguration is rare relative to region capacity.
  void retire(Oid oid);
  static constexpr std::uint32_t kRetiredSize = 0xFFFFFFFFu;

  /// Slot offset / size for the address-query protocol.
  [[nodiscard]] std::uint64_t offset_of(Oid oid) const;
  [[nodiscard]] std::uint32_t size_of(Oid oid) const;
  [[nodiscard]] bool is_serialized(Oid oid) const;
  [[nodiscard]] bool is_serialized(Ref ref) const;
  [[nodiscard]] std::span<const std::byte> raw_slot(Oid oid) const;

  [[nodiscard]] rdma::MrId mr() const { return mr_; }
  [[nodiscard]] std::size_t object_count() const { return live_; }
  [[nodiscard]] std::uint64_t bytes_used() const { return bump_; }

  /// Visits every object id in creation order, which is also slot-offset
  /// order (the region is a bump allocator); used by full-state transfers
  /// and checkpoints. `fn` must not create or retire objects.
  template <typename Fn>
  void for_each_oid(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.live) fn(e.oid);
    }
  }
  /// Every object id, in for_each_oid's order.
  [[nodiscard]] std::vector<Oid> oids() const {
    std::vector<Oid> out;
    out.reserve(object_count());
    for_each_oid([&out](Oid oid) { out.push_back(oid); });
    return out;
  }

 private:
  struct Entry {
    Oid oid;
    std::uint64_t offset;
    std::uint32_t size;
    bool serialized;
    bool live;  // false once retired; dropped at the next compaction
  };

  [[nodiscard]] std::span<std::byte> slot_span(const Entry& e);
  [[nodiscard]] std::span<const std::byte> slot_span(const Entry& e) const;

  // --- index: open addressing over entries_ ----------------------------
  // slots_ has a power-of-two size and holds entry index + 1 (0 = empty).
  // Fibonacci hashing picks the home slot, collisions probe linearly, and
  // retire() deletes by backward shift, so no tombstones ever sit in the
  // probe chains. The load factor stays at or below 1/2.
  [[nodiscard]] std::size_t home_of(Oid oid) const {
    return static_cast<std::size_t>((oid * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Slot holding `oid`, or the empty slot that ends its probe chain,
  /// probing from slot `i` (home_of(oid) for a lookup from scratch).
  /// Every lookup, batched or oid-keyed, goes through here.
  [[nodiscard]] std::size_t probe(Oid oid, std::size_t i) const;
  [[nodiscard]] const Entry* find(Oid oid) const;
  /// find() that throws std::out_of_range for an unknown oid.
  [[nodiscard]] const Entry& at(Oid oid) const;
  /// The entry `ref` names; throws std::out_of_range for an empty Ref
  /// (and std::logic_error for a stale one in sanitizer builds).
  [[nodiscard]] const Entry& at(Ref ref) const;
  void set_entry(const Entry& e, std::span<const std::byte> value, Tmp tmp);
  [[nodiscard]] bool fast_pending(const Entry& e) const;
  [[nodiscard]] bool has_fast_trace(const Entry& e) const;
  /// Rebuilds slots_ at `slot_count` slots over the live entries, dropping
  /// retired ones from entries_.
  void rebuild(std::size_t slot_count);

  rdma::Node* node_;
  rdma::MrId mr_;
  std::uint64_t bump_ = 0;
  std::vector<Entry> entries_;  // creation order
  std::vector<std::uint32_t> slots_;
  int shift_ = 64;
  std::size_t live_ = 0;
#ifdef HERON_SANITIZE
  std::uint64_t generation_ = 0;  // bumped by every create and retire
#endif
};

}  // namespace heron::core
