// Simulated paged persistent medium.
//
// Fixed-size pages, each stamped with a CRC32 of its payload at write
// time and verified on every read. Write/read latency and bandwidth are
// charged through the simulator on a single device channel (operations
// queue behind each other, like one NVMe submission queue), so durability
// costs show up in virtual time instead of being free.
//
// Fault-injection hooks model the two classic failure shapes:
//   * corrupt_page — medium corruption: payload bits flip, the stored CRC
//     does not, so the next read fails its check;
//   * tear_next_write — a torn write: the next write persists only half
//     its payload but records the CRC of the intended full payload
//     (exactly what a power cut mid-write leaves behind).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "durable/config.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "telemetry/registry.hpp"

namespace heron::durable {

/// Standard CRC-32 (reflected, poly 0xEDB88320), e.g. crc32("123456789")
/// == 0xCBF43926.
std::uint32_t crc32(std::span<const std::byte> bytes);

class PageDevice {
 public:
  /// Counts in `metrics`, under `label`.
  PageDevice(sim::Simulator& sim, telemetry::MetricsRegistry& metrics,
             const DeviceConfig& cfg, const std::string& label);

  /// Persists `payload` (<= page_bytes) into `page`, charging base +
  /// bandwidth cost on the device channel. The payload is committed at
  /// completion time, not submission time. Returns the CRC recorded with
  /// the page: that of the intended payload, even when the write tears.
  sim::Task<std::uint32_t> write_page(std::uint64_t page,
                                      std::vector<std::byte> payload);

  /// Reads `page` into `out` (resized to the stored payload length).
  /// Returns false — with `out` untouched beyond a resize — when the page
  /// was never written or its payload no longer matches the stored CRC.
  sim::Task<bool> read_page(std::uint64_t page, std::vector<std::byte>& out);

  // --- fault-injection hooks (faultlab / tests) ------------------------
  void corrupt_page(std::uint64_t page);
  void tear_next_write() { tear_next_ = true; }

  [[nodiscard]] std::uint32_t page_bytes() const { return cfg_.page_bytes; }
  [[nodiscard]] std::uint64_t page_count() const { return cfg_.page_count; }
  [[nodiscard]] std::uint64_t pages_written() const {
    return ctr_pages_written_->value();
  }
  [[nodiscard]] std::uint64_t pages_read() const {
    return ctr_pages_read_->value();
  }
  [[nodiscard]] std::uint64_t crc_failures() const {
    return ctr_crc_failures_->value();
  }

 private:
  struct Page {
    std::vector<std::byte> data;
    std::uint32_t crc = 0;
    bool written = false;
  };

  /// Occupies the device channel for base + bytes/bw, queueing behind
  /// earlier operations (same shape as sim::Cpu).
  sim::Task<void> charge(sim::Nanos base, double bw_bytes_per_ns,
                         std::size_t bytes);

  sim::Simulator* sim_;
  DeviceConfig cfg_;
  std::vector<Page> pages_;  // grown to the highest page written
  sim::Nanos free_at_ = 0;
  bool tear_next_ = false;

  telemetry::Counter* ctr_pages_written_;
  telemetry::Counter* ctr_bytes_written_;
  telemetry::Counter* ctr_pages_read_;
  telemetry::Counter* ctr_bytes_read_;
  telemetry::Counter* ctr_crc_failures_;
};

}  // namespace heron::durable
