// RDMA-registered memory regions.
//
// A simulated host (Node) registers byte regions; remote peers address
// them as (node, region, offset). Each region carries a Notifier that
// fires whenever a remote write lands, standing in for the busy-poll loop
// a real Heron replica runs over its registered memory. An optional write
// watcher is told the byte range of each landed write first, so a poller
// can index what changed instead of rescanning the region (the simulated
// analogue of RDMA WRITE-with-immediate; it costs no virtual time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

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

/// One registered region: owned bytes + wake-on-write notifier.
class MemoryRegion {
 public:
  MemoryRegion(sim::Simulator& sim, std::size_t size)
      : bytes_(size), notifier_(sim) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::span<std::byte> bytes() { return bytes_; }
  [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }

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
  std::vector<std::byte> bytes_;
  sim::Notifier notifier_;
  WriteWatcher watcher_;
};

}  // namespace heron::rdma
