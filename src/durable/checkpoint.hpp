// Checkpoint store: incremental snapshots on the paged device, committed
// atomically through a manifest chain.
//
// Layout (all in PageDevice pages):
//   * pages 0 and 1 — two superblock slots, written alternately with an
//     increasing sequence number. A reader takes the valid superblock
//     with the highest seq; writing the superblock is the commit point.
//   * data pages — packed state records (objects, sessions, tombstones)
//     in the shared record format (durable/record.hpp).
//   * manifest pages — one manifest per checkpoint, spanning a chain of
//     pages. The manifest carries {watermark, lease epoch/expiry, the
//     data-page list with per-page checksums, a link to the previous
//     checkpoint's manifest}. A delta checkpoint links back to its
//     predecessor; a full checkpoint links to nothing and, once its
//     superblock lands, frees every page of the older chain (compaction).
//
// Commit order is data pages -> manifest -> superblock, so a crash at any
// point leaves the previous checkpoint fully intact. Loading walks the
// chain head-to-base verifying every CRC (device-level and
// manifest-recorded); any failure invalidates the whole candidate and the
// loader falls back to the other superblock, then to "no checkpoint"
// (the caller recovers via a full state transfer instead).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "durable/page_device.hpp"
#include "durable/record.hpp"

namespace heron::durable {

/// Decoded newest-wins state of a checkpoint chain.
struct Image {
  std::uint64_t watermark = 0;
  std::uint64_t lease_epoch = 0;
  std::int64_t lease_expiry = 0;
  /// Partition-layout epoch (heron::reconfig) the owner served under
  /// when the checkpoint committed; a rejoining replica rejects images
  /// from a superseded layout (objects may have migrated away since).
  std::uint64_t layout_epoch = 0;
  std::vector<Record> records;  // deduped by (kind, id), newest wins
  std::uint64_t chain_length = 0;  // checkpoints walked (incl. the base)
  std::uint64_t pages_read = 0;
};

class CheckpointStore {
 public:
  CheckpointStore(sim::Simulator& sim, telemetry::MetricsRegistry& metrics,
                  const DurableConfig& cfg, const std::string& label);

  /// Persists one checkpoint and commits it atomically. `full` replaces
  /// the whole chain (and frees the old one); otherwise `records` is the
  /// dirty delta since the previous commit. Data pages are cut from
  /// `records` at record boundaries. `abort` is polled between page
  /// writes — when it returns true (owner crashed) the checkpoint is
  /// abandoned with the previous commit intact. Returns false when
  /// aborted or out of pages.
  sim::Task<bool> write_checkpoint(std::uint64_t watermark,
                                   std::uint64_t lease_epoch,
                                   std::int64_t lease_expiry, bool full,
                                   const RecordBuffer& records,
                                   std::function<bool()> abort = {},
                                   std::uint64_t layout_epoch = 0);

  /// Re-reads the newest valid checkpoint chain from the device (restart
  /// path) and resets the in-memory commit state to it. nullopt when no
  /// chain validates end-to-end.
  sim::Task<std::optional<Image>> load_latest();

  /// Reads back the newest persisted record for (kind, id) — the paging
  /// path for evicted session replies. nullopt when absent or the page
  /// fails its CRC.
  sim::Task<std::optional<Record>> fetch_record(std::uint32_t kind,
                                                std::uint64_t id);

  [[nodiscard]] bool has_checkpoint() const { return head_page_ != kNoPage; }
  [[nodiscard]] std::uint64_t watermark() const { return watermark_; }
  [[nodiscard]] std::uint64_t checkpoints_written() const {
    return ctr_checkpoints_->value();
  }
  [[nodiscard]] std::uint64_t full_checkpoints() const {
    return ctr_full_checkpoints_->value();
  }
  [[nodiscard]] std::uint64_t aborted_checkpoints() const {
    return ctr_aborted_->value();
  }
  [[nodiscard]] std::uint64_t chain_pages() const {
    return chain_pages_.size();
  }
  /// Pages on the allocator's free list (tests / diagnostics).
  [[nodiscard]] std::size_t free_pages() const { return free_.size(); }
  /// Fraction of device pages held by the committed chain.
  [[nodiscard]] double utilization() const;
  [[nodiscard]] bool should_compact() const {
    return utilization() > cfg_.compact_utilization;
  }

  [[nodiscard]] PageDevice& device() { return dev_; }

 private:
  static constexpr std::uint64_t kNoPage = ~0ull;

  struct RecordLoc {
    std::uint64_t page = 0;
    std::uint32_t offset = 0;  // of the record header within the payload
  };

  /// (kind, id) -> where its newest record sits. Open addressing with
  /// linear probing at load <= 3/4. Keys are only added or overwritten
  /// and clear() drops them all, so probe chains need no tombstones.
  class RecordIndex {
   public:
    [[nodiscard]] std::optional<RecordLoc> find(std::uint32_t kind,
                                                std::uint64_t id) const;
    /// Adds (kind, id) unless present; true when it was added.
    bool insert(std::uint32_t kind, std::uint64_t id, RecordLoc loc);
    void insert_or_assign(std::uint32_t kind, std::uint64_t id,
                          RecordLoc loc);
    void clear();

   private:
    struct Slot {
      std::uint64_t id = 0;
      std::uint64_t page = kNoPage;  // kNoPage: empty slot
      std::uint32_t offset = 0;
      std::uint32_t kind = 0;
    };
    /// Slot holding (kind, id), or the empty slot ending its probe chain.
    [[nodiscard]] std::size_t probe(std::uint32_t kind,
                                    std::uint64_t id) const;
    /// probe() after making room for one more key.
    std::size_t claim(std::uint32_t kind, std::uint64_t id);

    std::vector<Slot> slots_;  // power-of-two size once non-empty
    std::size_t used_ = 0;
  };

  std::uint64_t alloc_page();
  void free_page(std::uint64_t page);
  [[nodiscard]] std::uint32_t page_payload_capacity() const;

  sim::Simulator* sim_;
  DurableConfig cfg_;
  PageDevice dev_;

  // Committed chain state (mirrors what the superblock + manifests say).
  std::uint64_t super_seq_ = 0;
  std::uint64_t head_page_ = kNoPage;  // first manifest page of the head
  std::uint32_t head_crc_ = 0;
  std::uint64_t watermark_ = 0;
  std::vector<std::uint64_t> chain_pages_;  // every live page of the chain
  RecordIndex index_;

  // Page allocator: bump + free list; pages 0/1 are the superblocks.
  std::uint64_t next_page_ = 2;
  std::vector<std::uint64_t> free_;

  telemetry::Counter* ctr_checkpoints_;
  telemetry::Counter* ctr_full_checkpoints_;
  telemetry::Counter* ctr_aborted_;
  telemetry::Counter* ctr_pages_freed_;
};

}  // namespace heron::durable
