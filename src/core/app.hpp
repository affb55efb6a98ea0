// Application interface: what a service must provide to run on Heron.
//
// Heron assumes (§III-A) that the objects a request reads and writes can
// be estimated before execution, and that execution has a reading phase
// followed by a writing phase. The interface mirrors that: read_set() is
// queried up front, then execute() runs with all read values materialised
// and may only emit local writes.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <ranges>
#include <span>
#include <type_traits>
#include <vector>

#include "core/object_store.hpp"
#include "core/types.hpp"
#include "sim/time.hpp"

namespace heron::core {

/// Values materialised by the reading phase plus the write collector for
/// the writing phase.
///
/// Storage is two byte arenas indexed by flat {oid, offset, length}
/// slices: one for read values (kept sorted by oid), one for writes and
/// creates (kept in call order). The runtime fills the read arena before
/// Application::execute and never during it, so spans returned by value()
/// stay valid for the whole execution. Arenas are recycled across
/// contexts, so a warmed-up execution allocates nothing.
class ExecContext {
 public:
  ExecContext(GroupId my_partition, ObjectStore& store);
  ~ExecContext();
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  [[nodiscard]] GroupId my_partition() const { return partition_; }

  /// True if the reading phase obtained a value for `oid`.
  [[nodiscard]] bool has(Oid oid) const;

  /// Value read for `oid` (local or remote). Throws std::out_of_range
  /// unless has(oid).
  [[nodiscard]] std::span<const std::byte> value(Oid oid) const;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T value_as(Oid oid) const {
    T out;
    auto v = value(oid);
    std::memcpy(&out, v.data(), sizeof(T));
    return out;
  }

  /// Queues a local write (applied in the writing phase with the
  /// request's timestamp). Only objects of this partition may be written.
  void write(Oid oid, std::span<const std::byte> bytes) {
    arena_->writes.push_back(stash(oid, bytes, false));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void write_as(Oid oid, const T& value) {
    write(oid, std::span(reinterpret_cast<const std::byte*>(&value),
                         sizeof(T)));
  }

  /// Queues creation of a new local object (e.g. a TPC-C order row).
  void create(Oid oid, std::span<const std::byte> bytes,
              bool serialized = false) {
    arena_->creates.push_back(stash(oid, bytes, serialized));
  }

  /// Charges application CPU time (the execution-cost model).
  void charge(sim::Nanos cost) { cpu_cost_ += cost; }

  /// Direct read-only access to the local store (for existence checks and
  /// scans over local data that need no remote consistency).
  [[nodiscard]] const ObjectStore& local_store() const { return *store_; }

  // --- runtime-facing side ---------------------------------------------
  /// Reading phase: records the value read for `oid`, replacing an
  /// earlier one. Must not be called while Application::execute runs.
  void set_value(Oid oid, std::span<const std::byte> bytes);

  /// A queued write or create; `serialized` is only meaningful for
  /// creates.
  struct Item {
    Oid oid;
    std::span<const std::byte> bytes;
    bool serialized;
  };

 private:
  struct Slice {
    Oid oid;
    std::uint32_t off;
    std::uint32_t len;
    bool serialized;
  };

  /// Random-access view of `slices` as Items over the write arena.
  [[nodiscard]] auto items(const std::vector<Slice>& slices) const {
    const std::byte* base = arena_->write_bytes.data();
    return std::views::transform(slices, [base](const Slice& s) {
      return Item{s.oid, {base + s.off, s.len}, s.serialized};
    });
  }

 public:
  /// Queued writes and creates, in call order.
  [[nodiscard]] auto writes() const { return items(arena_->writes); }
  [[nodiscard]] auto creates() const { return items(arena_->creates); }
  [[nodiscard]] sim::Nanos cpu_cost() const { return cpu_cost_; }

 private:
  /// Recycled storage of one context (see the class comment).
  struct Arena {
    std::vector<std::byte> read_bytes;
    std::vector<Slice> reads;  // sorted by oid
    std::vector<std::byte> write_bytes;
    std::vector<Slice> writes;   // call order
    std::vector<Slice> creates;  // call order
  };
  /// This thread's idle arenas.
  static std::vector<std::unique_ptr<Arena>>& idle_arenas();

  Slice stash(Oid oid, std::span<const std::byte> bytes, bool serialized) {
    std::vector<std::byte>& arena = arena_->write_bytes;
    const Slice s{oid, static_cast<std::uint32_t>(arena.size()),
                  static_cast<std::uint32_t>(bytes.size()), serialized};
    arena.insert(arena.end(), bytes.begin(), bytes.end());
    return s;
  }
  [[nodiscard]] const Slice* find_read(Oid oid) const;

  GroupId partition_;
  ObjectStore* store_;
  Arena* arena_;
  sim::Nanos cpu_cost_ = 0;
};

/// The replicated service. One instance per replica; instances must be
/// deterministic functions of the delivered request sequence.
class Application {
 public:
  virtual ~Application() = default;

  /// Partition that stores `oid` (the paper's query_mapping).
  [[nodiscard]] virtual GroupId partition_of(Oid oid) const = 0;

  /// Objects the request reads when executed at `at_partition` (local and
  /// remote). Must be a deterministic function of the request.
  [[nodiscard]] virtual std::vector<Oid> read_set(
      const Request& r, GroupId at_partition) const = 0;

  /// Executes the request at this replica's partition: reads come from
  /// `ctx`, writes/creates go through `ctx` (local objects only). Returns
  /// the reply sent to the client (replicas of every involved partition
  /// reply; the client takes one per partition).
  virtual Reply execute(const Request& r, ExecContext& ctx) = 0;

  /// Populates the replica's store at startup (initial database load).
  virtual void bootstrap(GroupId partition, ObjectStore& store) = 0;

  /// §III-D1 extension (multi-threaded execution): keys two requests may
  /// contend on. Two single-partition requests run concurrently iff their
  /// key sets are disjoint. Must cover every object the request reads or
  /// writes (including reads through local_store()); the default assumes
  /// read_set() is complete. Only consulted when exec_threads > 1.
  [[nodiscard]] virtual std::vector<Oid> conflict_keys(
      const Request& r, GroupId at_partition) const {
    return read_set(r, at_partition);
  }

  /// heron::reconfig hook: layout-partitioned applications (partition_of
  /// derived from an epoch-versioned range layout instead of a static
  /// function) receive a pointer to their hosting replica's installed
  /// layout before bootstrap. The pointer stays valid for the replica's
  /// lifetime and tracks epoch bumps in place. Default: ignore (static
  /// partitioning, seed behaviour).
  virtual void bind_layout(const reconfig::Layout* layout) {
    (void)layout;
  }
};

}  // namespace heron::core
