// Focused tests for Algorithm 3 (state transfer): the protocol floor,
// correctness of transferred state, handler selection and its timeout
// fallback when the first candidate has crashed, full transfers after
// log truncation, the serialized/non-serialized cost asymmetry, and the
// state stream underneath (flow control against a slow lagger, torn and
// malformed chunks, sender crash/restart).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/state_stream.hpp"
#include "core/system.hpp"
#include "rdma/fabric.hpp"
#include "rdma/pod.hpp"

namespace heron::core {
namespace {

using sim::Nanos;
using sim::Task;

enum Kind : std::uint32_t { kNoop = 0, kTouch = 1, kTouchOne = 2, kPut = 3 };

/// Synthetic app over `count` fixed-size objects.
class SyncApp : public Application {
 public:
  SyncApp(std::uint64_t count, std::uint32_t size, bool serialized)
      : count_(count), size_(size), serialized_(serialized) {}

  GroupId partition_of(Oid) const override { return 0; }
  std::vector<Oid> read_set(const Request&, GroupId) const override {
    return {};
  }
  Reply execute(const Request& r, ExecContext& ctx) override {
    if (r.header.kind == kTouch) {
      std::vector<std::byte> value(size_);
      std::memcpy(value.data(), &r.tmp, sizeof(r.tmp));
      for (std::uint64_t i = 0; i < count_; ++i) ctx.write(i + 1, value);
    } else if (r.header.kind == kTouchOne) {
      std::vector<std::byte> value(size_);
      std::memcpy(value.data(), &r.tmp, sizeof(r.tmp));
      ctx.write(1, value);
    } else if (r.header.kind == kPut) {
      Oid oid = 0;
      std::memcpy(&oid, r.payload.data(), sizeof(oid));
      std::vector<std::byte> value(size_);
      std::memcpy(value.data(), &r.tmp, sizeof(r.tmp));
      ctx.write(oid, value);
    }
    return Reply{};
  }
  void bootstrap(GroupId, ObjectStore& store) override {
    std::vector<std::byte> init(size_);
    for (std::uint64_t i = 0; i < count_; ++i) {
      store.create(i + 1, init, serialized_);
    }
  }

 private:
  std::uint64_t count_;
  std::uint32_t size_;
  bool serialized_;
};

struct Env {
  sim::Simulator sim;
  rdma::Fabric fabric{sim, rdma::LatencyModel{}, 3};
  std::unique_ptr<System> sys;
  Client* client = nullptr;

  Env(std::uint64_t count, std::uint32_t size, bool serialized,
      HeronConfig cfg = {}) {
    cfg.object_region_bytes =
        static_cast<std::size_t>(count + 4) * (2 * size + 64) + (1u << 20);
    sys = std::make_unique<System>(
        fabric, 1, 3,
        [count, size, serialized] {
          return std::make_unique<SyncApp>(count, size, serialized);
        },
        cfg);
    sys->start();
    client = &sys->add_client();
  }

  void submit(std::uint32_t kind) {
    sim.spawn([](Client& c, std::uint32_t k) -> Task<void> {
      co_await c.submit(amcast::dst_of(0), k, {});
    }(*client, kind));
    sim.run_for(sim::ms(2));
  }

  /// Submits a kPut touching exactly `oid` (distinct tmps, distinct oids
  /// — the shape the truncation-boundary tests need).
  void submit_put(Oid oid) {
    sim.spawn([](Client& c, Oid o) -> Task<void> {
      std::vector<std::byte> payload(sizeof(o));
      std::memcpy(payload.data(), &o, sizeof(o));
      co_await c.submit(amcast::dst_of(0), kPut, payload);
    }(*client, oid));
    sim.run_for(sim::ms(2));
  }

  /// Occupies the lagger's CPU (stalling its chunk applier) for `d` at
  /// each of `bursts` bursts, `gap` apart.
  void hold_lagger_cpu(Nanos d, int bursts = 1, Nanos gap = 0) {
    sim.spawn([](sim::Simulator& s, sim::Cpu& cpu, Nanos busy, int n,
                 Nanos idle) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        co_await cpu.use(busy);
        if (idle > 0) co_await s.sleep(idle);
      }
    }(sim, sys->replica(0, 2).node().cpu(), d, bursts, gap));
  }

  /// Overwrites every object at the lagger with garbage at version 1, so
  /// any object a transfer fails to ship stays visibly stale.
  void wipe_lagger(std::uint64_t count, std::uint32_t size) {
    std::vector<std::byte> garbage(size, std::byte{0xee});
    for (Oid oid = 1; oid <= count; ++oid) {
      sys->replica(0, 2).store().install_version(oid, garbage, 1, false);
    }
  }

  /// Objects whose version or bytes differ between the lagger and `donor`.
  int stale_objects(std::uint64_t count, int donor = 0) {
    int stale = 0;
    for (Oid oid = 1; oid <= count; ++oid) {
      const auto [dt, dv] = sys->replica(0, donor).store().get(oid);
      const auto [lt, lv] = sys->replica(0, 2).store().get(oid);
      if (dt != lt || !std::equal(dv.begin(), dv.end(), lv.begin(), lv.end())) {
        ++stale;
      }
    }
    return stale;
  }

  /// Forces a transfer at replica (0,2) covering everything from `from`,
  /// returning the measured duration. `held` requests delta semantics
  /// (the requester certifies state held through `from` inclusive).
  Nanos force(Tmp from, bool held = false) {
    Nanos duration = -1;
    sim.spawn([](sim::Simulator& s, Replica& lagger, Tmp f, bool h,
                 Nanos& out) -> Task<void> {
      const Nanos t0 = s.now();
      co_await lagger.force_state_transfer(f, h);
      out = s.now() - t0;
    }(sim, sys->replica(0, 2), from, held, duration));
    sim.run_for(sim::ms(50));
    return duration;
  }
};

TEST(StateTransfer, ProtocolOnlyIsTwoWritesFast) {
  Env env(4, 64, false);
  env.submit(kNoop);
  const Tmp from = env.sys->replica(0, 2).last_req();
  const Nanos d = env.force(from + 1 > from ? from : from);
  ASSERT_GE(d, 0) << "transfer never completed";
  // Two RDMA writes + handler turnaround: a handful of microseconds.
  EXPECT_LT(d, sim::us(50));
  EXPECT_EQ(env.sys->replica(0, 2).state_transfers(), 1u);
}

TEST(StateTransfer, TransfersLoggedObjectsExactly) {
  Env env(16, 128, false);
  env.submit(kTouch);  // all 16 objects written at tmp T
  auto& lagger = env.sys->replica(0, 2);
  auto& donor = env.sys->replica(0, 0);

  // Wipe the lagger's view of object 5 to prove the transfer restores it.
  std::vector<std::byte> garbage(128, std::byte{0xee});
  lagger.store().install_version(5, garbage, 1, false);

  const Nanos d = env.force(donor.last_req());
  ASSERT_GE(d, 0);
  // Object 5 now equals the donor's state, including the version tag.
  auto [donor_tmp, donor_val] = donor.store().get(5);
  auto [lag_tmp, lag_val] = lagger.store().get(5);
  EXPECT_EQ(lag_tmp, donor_tmp);
  EXPECT_TRUE(std::equal(donor_val.begin(), donor_val.end(), lag_val.begin()));
}

TEST(StateTransfer, LargerDataTakesProportionallyLonger) {
  Env small(8, 8 << 10, true);
  small.submit(kTouch);
  const Nanos d_small = small.force(small.sys->replica(0, 0).last_req());

  Env big(80, 8 << 10, true);
  big.submit(kTouch);
  const Nanos d_big = big.force(big.sys->replica(0, 0).last_req());

  ASSERT_GE(d_small, 0);
  ASSERT_GE(d_big, 0);
  // 10x the data: several times longer (bandwidth-bound path).
  EXPECT_GT(d_big, 4 * d_small);
  EXPECT_LT(d_big, 40 * d_small);
}

TEST(StateTransfer, NonSerializedCostsMoreThanSerialized) {
  Env ser(64, 8 << 10, /*serialized=*/true);
  ser.submit(kTouch);
  const Nanos d_ser = ser.force(ser.sys->replica(0, 0).last_req());

  Env raw(64, 8 << 10, /*serialized=*/false);
  raw.submit(kTouch);
  const Nanos d_raw = raw.force(raw.sys->replica(0, 0).last_req());

  ASSERT_GE(d_ser, 0);
  ASSERT_GE(d_raw, 0);
  // The non-serialized path pays serialize + deserialize (§V-E2).
  EXPECT_GT(d_raw, d_ser + sim::us(100));
}

TEST(StateTransfer, HandlerFallsBackWhenFirstCandidateCrashed) {
  HeronConfig cfg;
  cfg.statesync_timeout = sim::us(200);
  Env env(8, 256, false, cfg);
  env.submit(kTouch);

  // Candidate order for lagger rank 2 is (rank 0, rank 1). Crash rank 0:
  // rank 1 must take over after the suspicion timeout.
  env.sys->replica(0, 0).node().crash();
  const Tmp from = env.sys->replica(0, 1).last_req();
  const Nanos d = env.force(from);
  ASSERT_GE(d, 0) << "no fallback handler served the transfer";
  EXPECT_EQ(env.sys->replica(0, 1).transfers_served(), 1u);
  // The fallback waited at least one suspicion timeout.
  EXPECT_GE(d, cfg.statesync_timeout);
}

TEST(StateTransfer, FullTransferAfterLogTruncation) {
  HeronConfig cfg;
  cfg.update_log_capacity = 4;  // tiny log: most updates fall out
  Env env(16, 128, false, cfg);
  for (int i = 0; i < 3; ++i) env.submit(kTouch);  // 48 log entries > 4

  // Corrupt several objects at the lagger; a log-ranged transfer from a
  // truncated log could miss them — the full-transfer path must not.
  auto& lagger = env.sys->replica(0, 2);
  std::vector<std::byte> garbage(128, std::byte{0x11});
  for (Oid oid = 1; oid <= 16; ++oid) {
    lagger.store().install_version(oid, garbage, 1, false);
  }

  const Nanos d = env.force(2);  // far older than the log tail
  ASSERT_GE(d, 0);
  auto& donor = env.sys->replica(0, 0);
  for (Oid oid = 1; oid <= 16; ++oid) {
    auto [dt, dv] = donor.store().get(oid);
    auto [lt, lv] = lagger.store().get(oid);
    EXPECT_EQ(lt, dt) << "oid " << oid;
  }
}

TEST(StateTransfer, TruncationBoundaries) {
  // Exercises log_objects_since at the truncated-log head H and the drop
  // floor F (highest tmp ever popped, F < H) under both request
  // semantics: plain/failed-request (status 1: full iff floor >= from,
  // ships >= from) and delta/held-through (status 2: full iff
  // floor > from, ships > from).
  HeronConfig cfg;
  cfg.update_log_capacity = 4;
  Env env(8, 128, false, cfg);
  for (Oid oid = 1; oid <= 8; ++oid) env.submit_put(oid);

  auto& donor = env.sys->replica(0, 0);
  auto& lagger = env.sys->replica(0, 2);
  ASSERT_EQ(donor.update_log().size(), 4u);  // oids 5..8 survive
  const Tmp head = donor.update_log().front().tmp;
  const Tmp floor = donor.log_floor();  // tmp of the 4th put
  ASSERT_GT(floor, 0u);
  ASSERT_LT(floor, head);

  // Runs one forced transfer and returns {full, delta} applied-byte
  // deltas at the lagger — which arm moved classifies the transfer.
  auto run = [&](Tmp from, bool held) {
    const auto full0 = lagger.xfer_applied_full_bytes();
    const auto delta0 = lagger.xfer_applied_delta_bytes();
    const Nanos d = env.force(from, held);
    EXPECT_GE(d, 0) << "transfer from " << from << " never completed";
    return std::pair{lagger.xfer_applied_full_bytes() - full0,
                     lagger.xfer_applied_delta_bytes() - delta0};
  };

  // Plain: exactly at the head is serveable (ships >= H)...
  auto [f_at, d_at] = run(head, false);
  EXPECT_EQ(f_at, 0u);
  EXPECT_GT(d_at, 0u);
  // ...one above ships one object fewer...
  auto [f_above, d_above] = run(head + 1, false);
  EXPECT_EQ(f_above, 0u);
  EXPECT_GT(d_above, 0u);
  EXPECT_LT(d_above, d_at);
  // ...and at the floor (below the retained window) the donor cannot
  // prove coverage of `from` itself: full transfer.
  auto [f_floor, d_floor] = run(floor, false);
  EXPECT_GT(f_floor, 0u);
  EXPECT_EQ(d_floor, 0u);

  // Delta: holding through the floor inclusive is exactly enough...
  auto [f_held, d_held] = run(floor, true);
  EXPECT_EQ(f_held, 0u);
  EXPECT_GT(d_held, 0u);
  // ...one below it is not...
  auto [f_low, d_low] = run(floor - 1, true);
  EXPECT_GT(f_low, 0u);
  EXPECT_EQ(d_low, 0u);
  // ...and at the head the donor ships strictly-newer entries only.
  auto [f_h2, d_h2] = run(head, true);
  EXPECT_EQ(f_h2, 0u);
  EXPECT_GT(d_h2, 0u);
  EXPECT_LT(d_h2, d_at);
}

TEST(StateTransfer, LaggerSkipsCoveredRequests) {
  Env env(8, 128, false);
  env.submit(kTouchOne);
  auto& lagger = env.sys->replica(0, 2);
  const Tmp before = lagger.last_req();

  const Nanos d = env.force(before);
  ASSERT_GE(d, 0);
  // last_req advanced to (at least) the handler's rid; the lagger would
  // skip any delivery at or below it.
  EXPECT_GE(lagger.last_req(), before);
  env.submit(kTouchOne);  // a new request still executes normally
  auto [t0, v0] = env.sys->replica(0, 0).store().get(1);
  auto [t2, v2] = lagger.store().get(1);
  EXPECT_EQ(t0, t2);
}

/// A small ring, a lagger whose CPU is busy while the donor streams: the
/// donor must stay within the ring window. A donor that laps unapplied
/// chunks leaves most objects stale behind a "successful" transfer.
TEST(StateTransfer, RingLapUnderCpuHoldLosesNothing) {
  HeronConfig cfg;
  cfg.statesync_ring_slots = 4;
  cfg.statesync_chunk_bytes = 4u << 10;
  Env env(64, 1u << 10, false, cfg);
  env.submit(kTouch);
  env.wipe_lagger(64, 1u << 10);
  ASSERT_EQ(env.stale_objects(64), 64);

  env.hold_lagger_cpu(sim::ms(2));
  const Nanos d = env.force(env.sys->replica(0, 0).last_req());
  ASSERT_GE(d, 0) << "transfer never completed";
  EXPECT_GE(d, sim::ms(2));  // it did wait out the lagger
  EXPECT_EQ(env.stale_objects(64), 0);
  const auto& xfer = env.sys->replica(0, 2).xfer_stream();
  EXPECT_EQ(xfer.stat(StateStream::kChunksCorrupt), 0u);
  EXPECT_EQ(xfer.stat(StateStream::kResends), 0u);
}

/// A transfer of many ring-fulls to a lagger whose CPU is held in
/// repeated bursts completes and converges: the window keeps making
/// progress, with no resend loop.
TEST(StateTransfer, SlowLaggerMakesProgressWithoutResends) {
  HeronConfig cfg;
  cfg.statesync_ring_slots = 4;
  cfg.statesync_chunk_bytes = 4u << 10;
  Env env(128, 1u << 10, false, cfg);
  env.submit(kTouch);
  env.wipe_lagger(128, 1u << 10);

  env.hold_lagger_cpu(sim::us(300), /*bursts=*/12, /*gap=*/sim::us(100));
  const Nanos d = env.force(env.sys->replica(0, 0).last_req());
  ASSERT_GE(d, 0) << "transfer never completed";
  EXPECT_EQ(env.stale_objects(128), 0);
  const auto& sent = env.sys->replica(0, 0).xfer_stream();
  const auto& got = env.sys->replica(0, 2).xfer_stream();
  // 128 records of ~1 KiB, three per 4 KiB chunk: 43 chunks, >= 10 rings.
  EXPECT_GE(sent.stat(StateStream::kChunksSent), 4u * cfg.statesync_ring_slots);
  EXPECT_EQ(got.stat(StateStream::kChunksReceived), sent.stat(StateStream::kChunksSent));
  EXPECT_EQ(got.stat(StateStream::kResends), 0u);
}

/// Torn chunks (a payload byte flipped after the CRC) are detected by the
/// lagger, which re-issues its request until a clean stream lands.
TEST(StateTransfer, TornChunksAreReRequested) {
  HeronConfig cfg;
  cfg.reconfig.chunk_corrupt_rate = 0.6;
  Env env(40, 1u << 10, false, cfg);  // two 32 KiB chunks per transfer
  env.submit(kTouch);
  env.wipe_lagger(40, 1u << 10);

  const Nanos d = env.force(env.sys->replica(0, 0).last_req());
  ASSERT_GE(d, 0) << "transfer never completed";
  EXPECT_EQ(env.stale_objects(40), 0);
  const auto& xfer = env.sys->replica(0, 2).xfer_stream();
  EXPECT_GT(xfer.stat(StateStream::kChunksCorrupt), 0u);
  EXPECT_GT(xfer.stat(StateStream::kResends), 0u);
}

/// The donor crashes mid-transfer (its chunks stuck behind a busy lagger),
/// restarts, and serves the lagger's next request: it recovers its send
/// cursor from the lagger's cursor word, and the new transfer applies
/// cleanly — the donor's newer values, none of the abandoned stream's.
TEST(StateTransfer, RestartedSenderResumesItsRing) {
  HeronConfig cfg;
  cfg.statesync_ring_slots = 8;
  cfg.statesync_chunk_bytes = 4u << 10;
  cfg.statesync_timeout = sim::us(300);
  Env env(48, 1u << 10, false, cfg);
  env.submit(kTouch);
  env.wipe_lagger(48, 1u << 10);

  // First request: rank 0 streams until it crashes; rank 1 takes over
  // after the suspicion timeout.
  env.hold_lagger_cpu(sim::ms(1));
  Nanos first = -1;
  env.sim.spawn([](sim::Simulator& s, Replica& lagger, Tmp f,
                   Nanos& out) -> Task<void> {
    const Nanos t0 = s.now();
    co_await lagger.force_state_transfer(f);
    out = s.now() - t0;
  }(env.sim, env.sys->replica(0, 2), env.sys->replica(0, 0).last_req(),
             first));
  env.sim.run_for(sim::us(40));
  ASSERT_GT(env.sys->replica(0, 0).xfer_stream().stat(StateStream::kChunksSent), 0u);
  env.sys->replica(0, 0).node().crash();
  env.sim.run_for(sim::ms(10));
  ASSERT_GE(first, 0) << "fallback handler never completed the transfer";
  EXPECT_EQ(env.stale_objects(48, /*donor=*/1), 0);

  env.sys->restart_replica(0, 0);
  env.sim.run_for(sim::ms(5));
  ASSERT_FALSE(env.sys->replica(0, 0).rejoining());

  // New values everywhere, then a wiped lagger asks again: rank 0 (first
  // candidate) serves with a recovered cursor.
  env.submit(kTouch);
  env.wipe_lagger(48, 1u << 10);
  const auto sent_before = env.sys->replica(0, 0).xfer_stream().stat(StateStream::kChunksSent);
  const auto taints_before = env.sys->replica(0, 2).xfer_stream().taints();
  const Nanos d = env.force(env.sys->replica(0, 0).last_req());
  ASSERT_GE(d, 0) << "transfer never completed";
  EXPECT_GT(env.sys->replica(0, 0).xfer_stream().stat(StateStream::kChunksSent), sent_before);
  EXPECT_EQ(env.sys->replica(0, 2).xfer_stream().taints(), taints_before);
  EXPECT_EQ(env.stale_objects(48), 0);
}

/// Stream-level check of the same property: chunks an abandoned stream
/// left in a ring are never applied once a restarted sender has started
/// a newer stream over them.
TEST(StateStream, LeftoverChunksOfAnAbandonedStreamAreNotApplied) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 5);
  rdma::Node& a = fabric.add_node();
  rdma::Node& b = fabric.add_node();
  const StateStream::Geometry geo{8, 1024, 1};
  const rdma::MrId a_mr = a.register_region(geo.bytes());
  const rdma::MrId b_mr = b.register_region(geo.bytes());
  sim::Rng rng(1);
  StateStream sender(fabric, a, a_mr, geo, 0, {0.05, 1.0}, rng, 0.0, "tx",
                     "a");
  StateStream receiver(fabric, b, b_mr, geo, 0, {0.05, 1.0}, rng, 0.0, "rx",
                       "b");

  // Six one-record chunks per stream; record ids say which stream.
  auto stream_of = [](std::uint64_t base, std::uint64_t n = 6) {
    durable::RecordBuffer out;
    for (std::uint64_t i = 0; i < n; ++i) {
      out.append(durable::kRecordObject, 0, base + i, 1, 900);
    }
    return out;
  };
  std::uint64_t expect = 1;
  std::vector<std::uint64_t> applied;
  auto run = [&](std::uint64_t stream, std::uint64_t base) {
    bool ok = false;
    sim.spawn([](StateStream& s, StateStream::Target t, std::uint64_t id,
                 durable::RecordBuffer recs, bool& out) -> Task<void> {
      out = co_await s.send(t, id, std::move(recs), {});
    }(sender, {b.id(), b_mr}, stream, stream_of(base), ok));
    sim.run_for(sim::ms(1));
    return ok;
  };

  // Stream 1 lands whole while the receiver is not draining; then the
  // sender restarts and the receiver moves on to stream 2.
  ASSERT_TRUE(run(1, 100));
  sender.restart();
  expect = 2;
  sim.spawn([](StateStream& s, StateStream::Target t,
               durable::RecordBuffer recs) -> Task<void> {
    co_await s.send(t, 2, std::move(recs), {});
  }(sender, {b.id(), b_mr}, stream_of(200, 5)));
  sim.run_for(sim::ms(1));
  sim.spawn(receiver.receive_loop(
      [&expect](std::uint64_t s) { return s == expect; },
      [&applied](const durable::RecordView& r) {
        applied.push_back(r.id);
        return sim::Nanos{0};
      }));
  sim.run_for(sim::ms(1));

  // The restarted sender recovered cursor 0 and overwrote slots 1-5; the
  // sixth slot still holds stream 1's last chunk, which is dropped.
  const std::vector<std::uint64_t> want{200, 201, 202, 203, 204};
  EXPECT_EQ(applied, want);
  EXPECT_TRUE(receiver.idle());
  EXPECT_EQ(receiver.taints(), 0u);
}

/// A record whose length runs past the CRC'd payload is rejected as
/// malformed; nothing of the chunk is applied and the stream is tainted.
TEST(StateStream, RecordOverrunningThePayloadIsRejected) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 5);
  rdma::Node& b = fabric.add_node();
  const StateStream::Geometry geo{4, 256, 1};
  const rdma::MrId mr = b.register_region(geo.bytes());
  sim::Rng rng(1);
  StateStream receiver(fabric, b, mr, geo, 0, {0.05, 1.0}, rng, 0.0, "rx",
                       "b");
  int applied = 0;
  sim.spawn(receiver.receive_loop(
      [](std::uint64_t) { return true; },
      [&applied](const durable::RecordView&) {
        ++applied;
        return sim::Nanos{0};
      }));

  // One good record followed by one whose header claims 200 value bytes
  // where only 8 follow; the chunk CRC covers exactly these 80 bytes.
  durable::RecordBuffer good;
  const auto value = good.append(durable::kRecordObject, 0, 7, 3, 8);
  std::fill(value.begin(), value.end(), std::byte{1});
  std::vector<std::byte> payload(good.encoded(0, 1).begin(),
                                 good.encoded(0, 1).end());
  payload.resize(2 * sizeof(durable::RecordHeader) + 16);
  const durable::RecordHeader bad{durable::kRecordObject, 0, 8, 3, 200, 0};
  std::memcpy(payload.data() + good.encoded_size(0), &bad, sizeof(bad));
  ChunkHeader hdr;
  hdr.seq = 1;
  hdr.stream = 1;
  hdr.count = 2;
  hdr.bytes = static_cast<std::uint32_t>(payload.size());
  hdr.crc = durable::crc32(payload);
  auto region = b.region(mr).bytes();
  std::memcpy(region.data() + geo.slot_offset(0, 1) + sizeof(hdr),
              payload.data(), payload.size());
  rdma::store_pod(region, geo.slot_offset(0, 1), hdr);
  b.region(mr).on_write().notify_all();
  sim.run_for(sim::us(10));

  EXPECT_EQ(applied, 0);
  EXPECT_EQ(receiver.stat(StateStream::kChunksCorrupt), 1u);
  EXPECT_EQ(receiver.stat(StateStream::kChunksReceived), 0u);
  EXPECT_EQ(receiver.taints(), 1u);
  EXPECT_TRUE(receiver.idle());
}

}  // namespace
}  // namespace heron::core
