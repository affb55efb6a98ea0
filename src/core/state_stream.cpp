#include "core/state_stream.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "durable/page_device.hpp"  // durable::crc32
#include "rdma/pod.hpp"

namespace heron::core {

namespace {

/// Back-off between cursor READs while the window is full.
constexpr sim::Nanos kWindowPoll = sim::us(5);

}  // namespace

sim::Nanos StateStream::Costs::of(const durable::RecordView& r) const {
  double rate = 0.0;
  if (r.kind == durable::kRecordObject) {
    rate = r.serialized() ? memcpy_ns_per_byte : serialize_ns_per_byte;
  } else if (r.kind == durable::kRecordSession) {
    rate = memcpy_ns_per_byte;
  }
  return static_cast<sim::Nanos>(static_cast<double>(r.value.size()) * rate);
}

StateStream::StateStream(rdma::Fabric& fabric, rdma::Node& node,
                         rdma::MrId mr, Geometry geometry, int rank,
                         Costs costs, sim::Rng& rng, double corrupt_rate,
                         const std::string& name, const std::string& label)
    : fabric_(&fabric),
      node_(&node),
      mr_(mr),
      geo_(geometry),
      rank_(rank),
      costs_(costs),
      rng_(&rng),
      corrupt_rate_(corrupt_rate),
      ring_gen_(static_cast<std::size_t>(geometry.senders), -1),
      progress_(fabric.simulator()) {
  static constexpr const char* kNames[kStatCount] = {
      "chunks_sent",        "bytes_sent",          "chunks_received",
      "chunks_corrupt",     "applied_full_bytes",  "applied_delta_bytes",
      "resends",            "resends_served"};
  for (std::size_t s = 0; s < kStatCount; ++s) {
    stats_[s] = &fabric.telemetry().metrics.counter(name, kNames[s], label);
  }
}

void StateStream::restart() {
  ++gen_;
  for (auto& [node, st] : send_) lose_cursor(st);
  std::fill(ring_gen_.begin(), ring_gen_.end(), -1);
}

void StateStream::lose_cursor(SendState& st) {
  st.known = false;
  ++st.resyncs;  // abandons every stream still writing with the old one
}

sim::Task<bool> StateStream::read_cursor(Target to, SendState& st,
                                         std::uint64_t gen) {
  st.reading = true;
  std::uint64_t word = 0;
  const auto cc = co_await fabric_->read(
      node_->id(), rdma::RAddr{to.node, to.mr, geo_.cursor_offset(rank_)},
      std::as_writable_bytes(std::span(&word, 1)));
  st.reading = false;
  st.read_done->notify_all();
  if (stale(gen) || !cc.ok()) co_return false;
  st.acked = std::max(st.acked, word);
  co_return true;
}

sim::Task<bool> StateStream::send(Target to, std::uint64_t stream,
                                  durable::RecordBuffer records,
                                  SendOptions opts) {
  const std::uint64_t gen = gen_;
  auto& sim = fabric_->simulator();
  auto [it, fresh] = send_.try_emplace(to.node);
  SendState& st = it->second;
  if (fresh) {
    st.read_done = std::make_unique<sim::Notifier>(sim);
    st.known = gen_ == 0;  // never restarted: every ring starts empty
  }
  st.stream = std::max(st.stream, stream);
  // Abandon when the owner restarted, the cursor was lost or recovered
  // by another stream, or a newer stream to this receiver started.
  std::uint64_t resyncs = st.resyncs;
  const auto abandoned = [&] {
    return stale(gen) || st.resyncs != resyncs || st.stream > stream;
  };

  // The pending chunk is records [first, first + nrec), `fill` bytes.
  std::vector<std::byte> chunk(sizeof(ChunkHeader) + geo_.chunk_bytes);
  std::size_t first = 0;
  std::uint32_t fill = 0;
  std::uint32_t nrec = 0;
  sim::Nanos cpu = 0;
  auto flush = [&](bool last) -> sim::Task<bool> {
    const bool seal = last && opts.seal;
    if (nrec == 0 && !seal) co_return true;
    for (sim::Nanos d = opts.defer ? opts.defer() : 0; d > 0; d = opts.defer()) {
      co_await sim.sleep(d);
      if (abandoned()) co_return false;
    }
    if (costs_.send_memcpy) {
      cpu = static_cast<sim::Nanos>(static_cast<double>(fill) *
                                    costs_.memcpy_ns_per_byte);
    }
    if (cpu > 0) {
      co_await node_->cpu().use(cpu);
      cpu = 0;
      if (abandoned()) co_return false;
    }
    if (!st.known) {
      // Recover the send cursor; leftovers beyond it get overwritten.
      const bool read = co_await read_cursor(to, st, gen);
      if (!read || abandoned()) co_return false;
      st.sent = st.acked;
      st.known = st.first = true;
      resyncs = ++st.resyncs;
    }
    while (st.sent + 1 > st.acked + window()) {  // window full
      if (st.reading) {
        co_await st.read_done->wait();
      } else {
        const bool read = co_await read_cursor(to, st, gen);
        if (!read) {
          if (!stale(gen)) lose_cursor(st);  // receiver down
          co_return false;
        }
        if (st.sent + 1 > st.acked + window()) co_await sim.sleep(kWindowPoll);
      }
      if (abandoned()) co_return false;
    }
    if (!st.reading && st.sent - st.acked >= window() / 2) {
      sim.spawn([](StateStream& self, Target t, SendState& s,
                   std::uint64_t g) -> sim::Task<void> {
        co_await self.read_cursor(t, s, g);
      }(*this, to, st, gen));
    }

    if (fill > 0) {
      std::memcpy(chunk.data() + sizeof(ChunkHeader),
                  records.encoded(first, first + nrec).data(), fill);
    }
    ChunkHeader hdr{++st.sent, stream, nrec, fill,
                    static_cast<std::uint16_t>(opts.flags |
                                               (seal ? kChunkSeal : 0) |
                                               (st.first ? kChunkFirst : 0)),
                    static_cast<std::uint16_t>(gen), 0};
    hdr.crc = durable::crc32(
        std::span<const std::byte>(chunk).subspan(sizeof(hdr), fill));
    st.first = false;
    if (corrupt_rate_ > 0 && fill > 0 && rng_->chance(corrupt_rate_)) {
      chunk[sizeof(hdr) + rng_->bounded(fill)] ^= std::byte{0x40};
    }
    rdma::store_pod(std::span(chunk), 0, hdr);
    const auto cc = co_await fabric_->write(
        node_->id(),
        rdma::RAddr{to.node, to.mr, geo_.slot_offset(rank_, hdr.seq)},
        std::span<const std::byte>(chunk).first(sizeof(hdr) + fill));
    if (stale(gen)) co_return false;
    if (!cc.ok()) {
      lose_cursor(st);  // never landed: recover the cursor, leave no gap
      co_return false;
    }
    count(kChunksSent);
    count(kBytesSent, sizeof(hdr) + fill);
    first += nrec;
    fill = nrec = 0;
    co_return true;
  };

  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t len = records.encoded_size(i);
    if (len > geo_.chunk_bytes) {
      throw std::runtime_error("state stream: record larger than a chunk");
    }
    if (fill + len > geo_.chunk_bytes) {
      const bool flushed = co_await flush(false);
      if (!flushed) co_return false;
    }
    fill += static_cast<std::uint32_t>(len);
    ++nrec;
    if (!costs_.send_memcpy) cpu += costs_.of(records[i]);
  }
  co_return co_await flush(true);
}

std::uint64_t StateStream::cursor(int sender) const {
  return rdma::load_pod<std::uint64_t>(node_->region(mr_).bytes(),
                                       geo_.cursor_offset(sender));
}

bool StateStream::pending(int sender) const {
  const std::uint64_t next = cursor(sender) + 1;
  return rdma::load_pod<ChunkHeader>(node_->region(mr_).bytes(),
                                     geo_.slot_offset(sender, next))
             .seq >= next;
}

bool StateStream::idle() const {
  for (int s = 0; s < geo_.senders; ++s) {
    if (pending(s)) return false;
  }
  return true;
}

sim::Task<void> StateStream::receive_loop(Accept accept, Apply apply) {
  const std::uint64_t gen = gen_;
  auto& region = node_->region(mr_);
  auto& sim = fabric_->simulator();
  while (true) {
    co_await sim::wait_until(region.on_write(), [this] { return !idle(); });
    if (stale(gen)) co_return;
    for (int s = 0; s < geo_.senders; ++s) {
      while (pending(s)) {
        const std::uint64_t next = cursor(s) + 1;
        const std::uint64_t base = geo_.slot_offset(s, next);
        const auto hdr = rdma::load_pod<ChunkHeader>(region.bytes(), base);
        if (hdr.seq > next) ++taints_;  // lapped: chunks in between lost
        rdma::store_pod(region.bytes(), geo_.cursor_offset(s), hdr.seq);
        progress_at_ = sim.now();
        // A new sender generation must start with kChunkFirst; otherwise
        // chunks of it may have landed in slots we had already drained.
        int& ring_gen = ring_gen_[static_cast<std::size_t>(s)];
        const bool gen_break = ring_gen >= 0 && ring_gen != hdr.gen &&
                               (hdr.flags & kChunkFirst) == 0;
        ring_gen = hdr.gen;
        if (!accept(hdr.stream)) {  // stale stream: consumed, not applied
          progress_.notify_all();
          continue;
        }
        if (gen_break) ++taints_;

        sim::Nanos cpu = 0;
        bool ok = hdr.bytes <= geo_.chunk_bytes;
        if (ok) {
          const auto payload =
              region.bytes().subspan(base + sizeof(ChunkHeader), hdr.bytes);
          ok = durable::crc32(payload) == hdr.crc &&
               durable::for_each_record(
                   payload, hdr.count,
                   [&](const durable::RecordView& r) {
                     if (apply(r)) cpu += costs_.of(r);
                   });
        }
        if (ok) {
          count(kChunksReceived);
          count((hdr.flags & kChunkFull) != 0 ? kAppliedFullBytes
                                              : kAppliedDeltaBytes,
                hdr.bytes);
        } else {
          count(kChunksCorrupt);
          ++taints_;
        }
        if ((hdr.flags & kChunkSeal) != 0) {
          if (taints_ == seal_taints_) note_sealed(hdr.stream);
          seal_taints_ = taints_;
        }
        if (cpu > 0) {
          co_await node_->cpu().use(cpu);
          if (stale(gen)) co_return;
        }
        progress_.notify_all();
      }
    }
  }
}

}  // namespace heron::core
