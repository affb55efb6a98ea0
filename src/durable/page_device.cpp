#include "durable/page_device.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace heron::durable {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c = table[(c ^ static_cast<std::uint32_t>(b)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

PageDevice::PageDevice(sim::Simulator& sim, telemetry::MetricsRegistry& m,
                       const DeviceConfig& cfg, const std::string& label)
    : sim_(&sim), cfg_(cfg), pages_(cfg.page_count) {
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

sim::Task<void> PageDevice::write_page(std::uint64_t page,
                                       std::span<const std::byte> payload) {
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
  Page& p = pages_[page];
  p.crc = crc32(payload);  // CRC of the *intended* payload
  if (tear_next_) {
    tear_next_ = false;
    const std::size_t half = payload.size() / 2;
    p.data.assign(payload.begin(),
                  payload.begin() + static_cast<std::ptrdiff_t>(half));
  } else {
    p.data.assign(payload.begin(), payload.end());
  }
  p.written = true;
  ctr_pages_written_->inc();
  ctr_bytes_written_->inc(payload.size());
}

sim::Task<bool> PageDevice::read_page(std::uint64_t page,
                                      std::vector<std::byte>& out) {
  if (page >= cfg_.page_count) {
    throw std::out_of_range("durable: page index past device capacity");
  }
  co_await charge(cfg_.read_base, cfg_.read_bw_bytes_per_ns, cfg_.page_bytes);
  ctr_pages_read_->inc();
  ctr_bytes_read_->inc(cfg_.page_bytes);

  const Page& p = pages_[page];
  if (!p.written || crc32(p.data) != p.crc) {
    ctr_crc_failures_->inc();
    co_return false;
  }
  out.assign(p.data.begin(), p.data.end());
  co_return true;
}

void PageDevice::corrupt_page(std::uint64_t page) {
  if (page >= cfg_.page_count) return;
  Page& p = pages_[page];
  if (!p.written || p.data.empty()) return;
  p.data[p.data.size() / 2] ^= std::byte{0xFF};
}

}  // namespace heron::durable
