#include "durable/page_device.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace heron::durable {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the byte-at-a-time table, and
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  const auto& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes per step: the register is folded into the low word,
    // then each byte indexes the table for its distance from the end.
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

PageDevice::PageDevice(sim::Simulator& sim, telemetry::MetricsRegistry& m,
                       const DeviceConfig& cfg, const std::string& label)
    : sim_(&sim), cfg_(cfg) {
  ctr_pages_written_ = &m.counter("durable", "pages_written", label);
  ctr_bytes_written_ = &m.counter("durable", "bytes_written", label);
  ctr_pages_read_ = &m.counter("durable", "pages_read", label);
  ctr_bytes_read_ = &m.counter("durable", "bytes_read", label);
  ctr_crc_failures_ = &m.counter("durable", "crc_failures", label);
}

sim::Task<void> PageDevice::charge(sim::Nanos base, double bw_bytes_per_ns,
                                   std::size_t bytes) {
  const auto cost =
      base + static_cast<sim::Nanos>(static_cast<double>(bytes) /
                                     bw_bytes_per_ns);
  const sim::Nanos start = std::max(sim_->now(), free_at_);
  free_at_ = start + cost;
  if (free_at_ > sim_->now()) co_await sim_->sleep(free_at_ - sim_->now());
}

sim::Task<std::uint32_t> PageDevice::write_page(
    std::uint64_t page, std::vector<std::byte> payload) {
  if (page >= cfg_.page_count) {
    throw std::out_of_range("durable: page index past device capacity");
  }
  if (payload.size() > cfg_.page_bytes) {
    throw std::invalid_argument("durable: payload larger than a page");
  }
  co_await charge(cfg_.write_base, cfg_.write_bw_bytes_per_ns, payload.size());

  // Committed at completion time: an operation still queued when the
  // owner crashes simply never happened (the caller's abort predicate
  // stops the stream before the next submission).
  if (page >= pages_.size()) pages_.resize(page + 1);
  Page& p = pages_[page];
  const std::uint32_t crc = crc32(payload);  // of the *intended* payload
  ctr_pages_written_->inc();
  ctr_bytes_written_->inc(payload.size());
  if (tear_next_) {
    tear_next_ = false;
    payload.resize(payload.size() / 2);
  }
  p.data = std::move(payload);
  p.crc = crc;
  p.written = true;
  co_return crc;
}

sim::Task<bool> PageDevice::read_page(std::uint64_t page,
                                      std::vector<std::byte>& out) {
  if (page >= cfg_.page_count) {
    throw std::out_of_range("durable: page index past device capacity");
  }
  co_await charge(cfg_.read_base, cfg_.read_bw_bytes_per_ns, cfg_.page_bytes);
  ctr_pages_read_->inc();
  ctr_bytes_read_->inc(cfg_.page_bytes);

  static const Page kUnwritten;
  const Page& p = page < pages_.size() ? pages_[page] : kUnwritten;
  if (!p.written || crc32(p.data) != p.crc) {
    ctr_crc_failures_->inc();
    co_return false;
  }
  out.assign(p.data.begin(), p.data.end());
  co_return true;
}

void PageDevice::corrupt_page(std::uint64_t page) {
  if (page >= pages_.size()) return;
  Page& p = pages_[page];
  if (!p.written || p.data.empty()) return;
  p.data[p.data.size() / 2] ^= std::byte{0xFF};
}

}  // namespace heron::durable
