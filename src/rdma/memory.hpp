// RDMA-registered memory regions.
//
// A simulated host (Node) registers byte regions; remote peers address
// them as (node, region, offset). Each region carries a Notifier that
// fires whenever a remote write lands, standing in for the busy-poll loop
// a real Heron replica runs over its registered memory. An optional write
// watcher is told the byte range of each landed write first, so a poller
// can index what changed instead of rescanning the region (the simulated
// analogue of RDMA WRITE-with-immediate; it costs no virtual time).
//
// Registered memory is paid for when touched. Replicas register their
// regions up front and sized for the worst case, as real RDMA servers do,
// and most of those bytes are never written. A region of kMappedMin bytes
// or more is therefore a private anonymous mapping: its pages read as zero
// and take memory only once written. Its end lies against a PROT_NONE
// guard page, so a store past bytes().end() faults in every build (the
// start is 64-byte aligned, so a size that is not a multiple of 64 leaves
// up to 63 unguarded bytes). Smaller regions are zeroed heap arrays: a
// mapping each would cost a page, a guard page and two kernel mappings,
// and a cell registers a thousand or more of them (client reply slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "sim/notifier.hpp"

namespace heron::rdma {

/// Handle to a registered memory region (index within its node).
struct MrId {
  std::uint32_t value = UINT32_MAX;

  [[nodiscard]] bool valid() const { return value != UINT32_MAX; }
  bool operator==(const MrId&) const = default;
};

/// A remote (or local) RDMA address: node + region + byte offset.
struct RAddr {
  std::int32_t node = -1;
  MrId mr{};
  std::uint64_t offset = 0;

  bool operator==(const RAddr&) const = default;
};

/// One registered region: owned zero-initialised bytes + wake-on-write
/// notifier.
class MemoryRegion {
 public:
  /// Regions this large or larger are backed by demand-zero pages.
  static constexpr std::size_t kMappedMin = 64 * 1024;

  MemoryRegion(sim::Simulator& sim, std::size_t size);
  ~MemoryRegion();
  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<std::byte> bytes() { return {data_, size_}; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data_, size_};
  }

  /// Fired after every remote write into this region.
  [[nodiscard]] sim::Notifier& on_write() { return notifier_; }

  /// Called with (offset, length) of every fabric write that lands here.
  using WriteWatcher = std::function<void(std::uint64_t, std::uint64_t)>;
  void set_write_watcher(WriteWatcher watcher) {
    watcher_ = std::move(watcher);
  }

  /// A fabric write of [offset, offset + len) has landed: tells the
  /// watcher, then wakes the pollers.
  void landed(std::uint64_t offset, std::uint64_t len) {
    if (watcher_) watcher_(offset, len);
    notifier_.notify_all();
  }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_;
  std::unique_ptr<std::byte[]> heap_;  // below kMappedMin
  void* mapping_ = nullptr;            // kMappedMin and up, guard included
  std::size_t mapping_len_ = 0;
  sim::Notifier notifier_;
  WriteWatcher watcher_;
};

}  // namespace heron::rdma
