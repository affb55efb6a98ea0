// Unit tests for the simulated RDMA fabric: one-sided read/write
// semantics, latency model, in-order channels, crash behaviour and the
// wake-on-write notifier.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"

namespace heron::rdma {
namespace {

using sim::Nanos;
using sim::Simulator;
using sim::Task;
using sim::us;

std::span<const std::byte> as_bytes(const std::vector<std::uint8_t>& v) {
  return std::as_bytes(std::span(v));
}

struct Env {
  Simulator sim;
  LatencyModel model;
  Fabric fabric;
  Node* a;
  Node* b;
  MrId mr_b;

  explicit Env(LatencyModel m = {}) : model(m), fabric(sim, m) {
    a = &fabric.add_node();
    b = &fabric.add_node();
    mr_b = b->register_region(4096);
  }
};

TEST(Fabric, WriteThenReadRoundTrip) {
  Env env;
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  std::vector<std::byte> readback(5);
  Status write_status = Status::kBadAddress;
  Status read_status = Status::kBadAddress;

  env.sim.spawn([](Env& e, const std::vector<std::uint8_t>& p,
                   std::vector<std::byte>& out, Status& ws,
                   Status& rs) -> Task<void> {
    const RAddr addr{e.b->id(), e.mr_b, 100};
    ws = (co_await e.fabric.write(e.a->id(), addr, as_bytes(p))).status;
    rs = (co_await e.fabric.read(e.a->id(), addr, out)).status;
  }(env, payload, readback, write_status, read_status));
  env.sim.run();

  EXPECT_EQ(write_status, Status::kOk);
  EXPECT_EQ(read_status, Status::kOk);
  for (size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(readback[i]), payload[i]);
  }
}

TEST(Fabric, ReadLatencyMatchesModel) {
  Env env;
  Nanos elapsed = 0;
  env.sim.spawn([](Env& e, Nanos& out) -> Task<void> {
    std::vector<std::byte> buf(8);
    const Nanos start = e.sim.now();
    co_await e.fabric.read(e.a->id(), RAddr{e.b->id(), e.mr_b, 0}, buf);
    out = e.sim.now() - start;
  }(env, elapsed));
  env.sim.run();

  const Nanos expected = env.model.post_overhead + env.model.read_base +
                         env.model.transfer_time(8);
  EXPECT_EQ(elapsed, expected);
}

TEST(Fabric, WriteLatencyIncludesBandwidthTerm) {
  Env env;
  MrId big_mr = env.b->register_region(64 * 1024);
  Nanos small_lat = 0, big_lat = 0;
  env.sim.spawn([](Env& e, MrId mr, Nanos& small_out,
                   Nanos& big_out) -> Task<void> {
    std::vector<std::uint8_t> small(8), big(32 * 1024);
    Nanos start = e.sim.now();
    co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), mr, 0},
                            as_bytes(small));
    small_out = e.sim.now() - start;
    start = e.sim.now();
    co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), mr, 0},
                            as_bytes(big));
    big_out = e.sim.now() - start;
  }(env, big_mr, small_lat, big_lat));
  env.sim.run();
  // 32KB at 25Gbps adds ~10.5us over the small write.
  EXPECT_GT(big_lat, small_lat);
  EXPECT_NEAR(static_cast<double>(big_lat - small_lat),
              static_cast<double>(env.model.transfer_time(32 * 1024)),
              static_cast<double>(sim::us(1)));
}

TEST(Fabric, OutOfBoundsAccessReturnsBadAddress) {
  Env env;
  Status st = Status::kOk;
  env.sim.spawn([](Env& e, Status& out) -> Task<void> {
    std::vector<std::byte> buf(64);
    out = (co_await e.fabric.read(e.a->id(),
                                  RAddr{e.b->id(), e.mr_b, 4096 - 32}, buf))
              .status;
  }(env, st));
  env.sim.run();
  EXPECT_EQ(st, Status::kBadAddress);
}

TEST(Fabric, ReadFromCrashedNodeReturnsRemoteFailure) {
  Env env;
  Status st = Status::kOk;
  Nanos elapsed = 0;
  env.b->crash();
  env.sim.spawn([](Env& e, Status& out, Nanos& dur) -> Task<void> {
    std::vector<std::byte> buf(8);
    const Nanos start = e.sim.now();
    out = (co_await e.fabric.read(e.a->id(), RAddr{e.b->id(), e.mr_b, 0}, buf))
              .status;
    dur = e.sim.now() - start;
  }(env, st, elapsed));
  env.sim.run();
  EXPECT_EQ(st, Status::kRemoteFailure);
  // Error is detected after the configured failure-detect latency.
  EXPECT_GE(elapsed, env.model.failure_detect);
}

TEST(Fabric, WriteToCrashedNodeDoesNotMutateMemory) {
  Env env;
  env.b->crash();
  Status st = Status::kOk;
  env.sim.spawn([](Env& e, Status& out) -> Task<void> {
    std::vector<std::uint8_t> payload{9, 9, 9};
    out = (co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), e.mr_b, 0},
                                   as_bytes(payload)))
              .status;
  }(env, st));
  env.sim.run();
  EXPECT_EQ(st, Status::kRemoteFailure);
  EXPECT_EQ(static_cast<std::uint8_t>(env.b->region(env.mr_b).bytes()[0]), 0);
}

TEST(Fabric, RestartAfterCrashServesReadsAgain) {
  Env env;
  env.b->crash();
  env.b->restart();
  Status st = Status::kRemoteFailure;
  env.sim.spawn([](Env& e, Status& out) -> Task<void> {
    std::vector<std::byte> buf(8);
    out = (co_await e.fabric.read(e.a->id(), RAddr{e.b->id(), e.mr_b, 0}, buf))
              .status;
  }(env, st));
  env.sim.run();
  EXPECT_EQ(st, Status::kOk);
}

TEST(Fabric, AsyncWriteDeliversAndNotifies) {
  Env env;
  int notified = 0;
  env.sim.spawn([](Env& e, int& n) -> Task<void> {
    co_await e.b->region(e.mr_b).on_write().wait();
    ++n;
  }(env, notified));
  env.sim.run();
  EXPECT_EQ(notified, 0);

  const std::vector<std::uint8_t> payload{7};
  env.fabric.write_async(env.a->id(), RAddr{env.b->id(), env.mr_b, 10},
                         as_bytes(payload));
  env.sim.run();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(static_cast<std::uint8_t>(env.b->region(env.mr_b).bytes()[10]), 7);
}

TEST(Fabric, AsyncWriteToCrashedNodeIsDropped) {
  Env env;
  env.b->crash();
  const std::vector<std::uint8_t> payload{7};
  env.fabric.write_async(env.a->id(), RAddr{env.b->id(), env.mr_b, 10},
                         as_bytes(payload));
  env.sim.run();
  EXPECT_EQ(static_cast<std::uint8_t>(env.b->region(env.mr_b).bytes()[10]), 0);
  EXPECT_EQ(env.fabric.stats().failures, 1u);
}

TEST(Fabric, InOrderDeliveryOnChannel) {
  // A large write posted before a small write must still land first
  // (RC queue pairs deliver in order). Waiters are predicate-based, the
  // same pattern the Heron replicas use over coordination memory.
  Env env;
  MrId big_mr = env.b->register_region(1 << 20);
  std::vector<std::uint8_t> big(256 * 1024, 0xAA);
  std::vector<std::uint8_t> small{0xBB};

  Nanos big_seen_at = -1;
  Nanos small_seen_at = -1;
  env.sim.spawn([](Env& e, MrId mr, Nanos& t_big, Nanos& t_small)
                    -> Task<void> {
    auto& region = e.b->region(mr);
    co_await sim::wait_until(region.on_write(), [&region] {
      return static_cast<std::uint8_t>(region.bytes()[0]) == 0xAA;
    });
    t_big = e.sim.now();
    co_await sim::wait_until(region.on_write(), [&region] {
      return static_cast<std::uint8_t>(region.bytes()[512 * 1024]) == 0xBB;
    });
    t_small = e.sim.now();
  }(env, big_mr, big_seen_at, small_seen_at));

  env.fabric.write_async(env.a->id(), RAddr{env.b->id(), big_mr, 0},
                         as_bytes(big));
  env.fabric.write_async(env.a->id(), RAddr{env.b->id(), big_mr, 512 * 1024},
                         as_bytes(small));
  env.sim.run();

  // Both landed, and the small write did not overtake the big one.
  ASSERT_GE(big_seen_at, 0);
  ASSERT_GE(small_seen_at, 0);
  EXPECT_LE(big_seen_at, small_seen_at);
  // The small write alone would have arrived far earlier than the big
  // transfer takes; in-order channels must have held it back.
  EXPECT_GE(small_seen_at, env.model.transfer_time(256 * 1024));
}

TEST(Fabric, NicSerializesBackToBackSends) {
  // Two concurrent writers on the same initiator NIC serialize their
  // departures; total elapsed exceeds a single write's latency.
  Env env;
  MrId big_mr = env.b->register_region(1 << 20);
  Nanos t_single = 0, t_double = 0;

  {
    Env e1;
    MrId mr = e1.b->register_region(1 << 20);
    e1.sim.spawn([](Env& e, MrId m, Nanos& out) -> Task<void> {
      std::vector<std::uint8_t> big(256 * 1024, 1);
      const Nanos start = e.sim.now();
      co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), m, 0}, as_bytes(big));
      out = e.sim.now() - start;
    }(e1, mr, t_single));
    e1.sim.run();
  }

  std::vector<std::uint8_t> big(256 * 1024, 1);
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    env.sim.spawn([](Env& e, MrId m, const std::vector<std::uint8_t>& payload,
                     int offset, int& d, Nanos& out) -> Task<void> {
      co_await e.fabric.write(e.a->id(),
                              RAddr{e.b->id(), m, static_cast<std::uint64_t>(offset)},
                              as_bytes(payload));
      if (++d == 2) out = e.sim.now();
    }(env, big_mr, big, i * 300 * 1024, done, t_double));
  }
  env.sim.run();
  EXPECT_GT(t_double, t_single + env.model.transfer_time(128 * 1024));
}

TEST(Fabric, StatsCountOps) {
  Env env;
  env.sim.spawn([](Env& e) -> Task<void> {
    std::vector<std::byte> buf(16);
    std::vector<std::uint8_t> payload(32);
    co_await e.fabric.read(e.a->id(), RAddr{e.b->id(), e.mr_b, 0}, buf);
    co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), e.mr_b, 0},
                            as_bytes(payload));
  }(env));
  env.sim.run();
  EXPECT_EQ(env.fabric.stats().reads, 1u);
  EXPECT_EQ(env.fabric.stats().writes, 1u);
  EXPECT_EQ(env.fabric.stats().read_bytes, 16u);
  EXPECT_EQ(env.fabric.stats().write_bytes, 32u);
}

TEST(Fabric, JitterKeepsDeterminismPerSeed) {
  LatencyModel jittery;
  jittery.jitter_sigma = 0.2;

  auto run_once = [&]() {
    Simulator sim;
    Fabric fabric(sim, jittery, /*seed=*/7);
    Node& a = fabric.add_node();
    Node& b = fabric.add_node();
    MrId mr = b.register_region(64);
    Nanos total = 0;
    sim.spawn([](Simulator& s, Fabric& f, Node& from, Node& to, MrId m,
                 Nanos& out) -> Task<void> {
      std::vector<std::byte> buf(8);
      for (int i = 0; i < 10; ++i) {
        co_await f.read(from.id(), RAddr{to.id(), m, 0}, buf);
      }
      out = s.now();
    }(sim, fabric, a, b, mr, total));
    sim.run();
    return total;
  };

  const Nanos first = run_once();
  const Nanos second = run_once();
  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0);
}

TEST(Fabric, ConcurrentReadersObserveAtomicSnapshot) {
  // Two 8-byte slots written in one RDMA write are observed together:
  // a reader never sees a torn pair. We interleave a writer flipping
  // both slots between (1,1) and (2,2) with readers.
  Env env;
  struct Pair {
    std::uint64_t a;
    std::uint64_t b;
  };
  bool torn = false;

  env.sim.spawn([](Env& e, bool& torn_flag) -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      Pair p{};
      std::span<std::byte> buf(reinterpret_cast<std::byte*>(&p), sizeof(p));
      co_await e.fabric.read(e.a->id(), RAddr{e.b->id(), e.mr_b, 0}, buf);
      if (p.a != p.b) torn_flag = true;
    }
  }(env, torn));

  env.sim.spawn([](Env& e) -> Task<void> {
    Node& writer = e.fabric.add_node();
    for (std::uint64_t v = 1; v <= 100; ++v) {
      Pair p{v, v};
      co_await e.fabric.write(
          writer.id(), RAddr{e.b->id(), e.mr_b, 0},
          std::as_bytes(std::span(&p, 1)));
    }
  }(env));

  env.sim.run();
  EXPECT_FALSE(torn);
}

TEST(LatencyModel, TransferTimeRoundsUpToWholeNanos) {
  LatencyModel m;  // 3.125 bytes/ns
  EXPECT_EQ(m.transfer_time(0), 0);
  // Sub-byte-time transfers must cost at least 1 ns (truncation used to
  // charge 0, letting tiny writes pipeline for free).
  EXPECT_EQ(m.transfer_time(1), 1);
  EXPECT_EQ(m.transfer_time(3), 1);
  // Exact multiples stay exact; fractional times round up, never down.
  EXPECT_EQ(m.transfer_time(25), 8);
  EXPECT_EQ(m.transfer_time(26), 9);

  LatencyModel fast = m;
  fast.bandwidth_bytes_per_ns = 8.0;
  EXPECT_EQ(fast.transfer_time(16), 2);
  EXPECT_EQ(fast.transfer_time(17), 3);
}

TEST(Fabric, ResetStatsClearsCountersAndHistograms) {
  Env env;
  env.fabric.telemetry().enable_all();
  env.sim.spawn([](Env& e) -> Task<void> {
    std::vector<std::uint8_t> payload(4 * 1024);
    // Back-to-back posts on one NIC: the second waits, populating the
    // nic_queue_wait histogram.
    e.fabric.write_async(e.a->id(), RAddr{e.b->id(), e.mr_b, 0},
                         as_bytes(payload));
    co_await e.fabric.write(e.a->id(), RAddr{e.b->id(), e.mr_b, 0},
                            as_bytes(payload));
  }(env));
  env.sim.run();

  auto& hist =
      env.fabric.telemetry().metrics.histogram("rdma", "nic_queue_wait_ns");
  ASSERT_GT(env.fabric.stats().writes, 0u);
  ASSERT_GT(hist.count(), 0u);

  env.fabric.reset_stats();
  EXPECT_EQ(env.fabric.stats().writes, 0u);
  EXPECT_EQ(env.fabric.stats().write_bytes, 0u);
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.sum(), 0);
  EXPECT_EQ(
      env.fabric.telemetry().metrics.histogram("rdma", "credit_wait_ns").count(),
      0u);
}

TEST(Fabric, CreditWindowQueuesExcessVerbs) {
  LatencyModel m;
  m.credit_window = 1;
  Simulator sim;
  Fabric fabric(sim, m);
  Node& a = fabric.add_node();
  Node& b = fabric.add_node();
  MrId mr = b.register_region(1 << 20);

  std::vector<std::uint8_t> big(128 * 1024, 0xCC);
  for (int i = 0; i < 3; ++i) {
    fabric.write_async(a.id(), RAddr{b.id(), mr, static_cast<std::uint64_t>(i) * 256 * 1024},
                       as_bytes(big));
  }
  // Only the first post holds a credit; the others sit in the software
  // queue until completions return credits.
  EXPECT_EQ(fabric.stats().credit_stalls, 2u);
  EXPECT_EQ(fabric.credit_queue_depth(a.id()), 2u);
  EXPECT_EQ(fabric.credit_stalls(a.id()), 2u);

  sim.run();
  EXPECT_EQ(fabric.credit_queue_depth(a.id()), 0u);
  // FIFO credit handoff preserved RC ordering: all three landed.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(static_cast<std::uint8_t>(
                  b.region(mr).bytes()[static_cast<std::size_t>(i) * 256 * 1024]),
              0xCC);
  }
}

TEST(Fabric, QueuedAsyncWritesLandWithTheirOwnBytesInPostOrder) {
  LatencyModel m;
  m.credit_window = 1;
  Simulator sim;
  Fabric fabric(sim, m);
  Node& a = fabric.add_node();
  Node& b = fabric.add_node();
  MrId mr = b.register_region(4096);
  // Every post targets the same 64 bytes; the watcher samples what each
  // landing left there.
  std::vector<std::uint8_t> landed;
  b.region(mr).set_write_watcher([&](std::uint64_t off, std::uint64_t len) {
    EXPECT_EQ(off, 0u);
    EXPECT_EQ(len, 64u);
    const auto bytes = b.region(mr).bytes();
    for (std::size_t i = 1; i < len; ++i) EXPECT_EQ(bytes[i], bytes[0]);
    landed.push_back(static_cast<std::uint8_t>(bytes[0]));
  });

  std::vector<std::uint8_t> src(64);
  auto post_batch = [&](std::uint8_t first) {
    for (std::uint8_t k = 0; k < 8; ++k) {
      // The caller's buffer is reused at once: a post owns a copy.
      std::fill(src.begin(), src.end(), static_cast<std::uint8_t>(first + k));
      fabric.write_async(a.id(), RAddr{b.id(), mr, 0}, as_bytes(src));
    }
    std::fill(src.begin(), src.end(), std::uint8_t{0xEE});
  };

  post_batch(1);
  EXPECT_EQ(fabric.credit_queue_depth(a.id()), 7u);  // behind one credit
  sim.run();
  post_batch(9);
  sim.run();

  std::vector<std::uint8_t> expected(16);
  std::iota(expected.begin(), expected.end(), std::uint8_t{1});
  EXPECT_EQ(landed, expected);
  EXPECT_EQ(fabric.stats().credit_stalls, 14u);
  // The second batch reused the first batch's freed buffers.
  EXPECT_EQ(fabric.payload_buffers(), 8u);
}

TEST(Fabric, TorTopologyChargesCrossRackTraffic) {
  LatencyModel m;
  m.rack_size = 2;
  m.oversub_ratio = 4.0;  // uplink = 2 * 3.125 / 4 — slower than a NIC
  Simulator sim;
  Fabric fabric(sim, m);
  Node& a = fabric.add_node();  // rack 0
  Node& b = fabric.add_node();  // rack 0
  Node& c = fabric.add_node();  // rack 1
  MrId mr_b = b.register_region(1 << 20);
  MrId mr_c = c.register_region(1 << 20);
  EXPECT_EQ(fabric.rack_of(a.id()), 0);
  EXPECT_EQ(fabric.rack_of(c.id()), 1);

  Nanos same_rack = 0, cross_rack = 0;
  sim.spawn([](Simulator& s, Fabric& f, Node& from, Node& to_same, MrId m_same,
               Node& to_cross, MrId m_cross, Nanos& t_same,
               Nanos& t_cross) -> Task<void> {
    std::vector<std::uint8_t> payload(64 * 1024, 1);
    Nanos start = s.now();
    co_await f.write(from.id(), RAddr{to_same.id(), m_same, 0},
                     as_bytes(payload));
    t_same = s.now() - start;
    start = s.now();
    co_await f.write(from.id(), RAddr{to_cross.id(), m_cross, 0},
                     as_bytes(payload));
    t_cross = s.now() - start;
  }(sim, fabric, a, b, mr_b, c, mr_c, same_rack, cross_rack));
  sim.run();

  // Crossing racks pays the ToR hop plus the oversubscribed uplink rate.
  EXPECT_GT(cross_rack, same_rack + m.tor_hop);
  EXPECT_GT(fabric.uplink_bytes(0), 0u);
  EXPECT_GT(fabric.uplink_bytes(1), 0u);
  EXPECT_GT(fabric.uplink_busy_ns(0), 0u);
}

TEST(Fabric, IncastSerializesOnTargetRackUplink) {
  LatencyModel m;
  m.rack_size = 1;  // every node is its own rack: worst-case incast
  m.oversub_ratio = 2.0;
  Simulator sim;
  Fabric fabric(sim, m);
  Node& target = fabric.add_node();
  Node& s1 = fabric.add_node();
  Node& s2 = fabric.add_node();
  MrId mr = target.register_region(1 << 20);

  std::vector<std::uint8_t> big(128 * 1024, 2);
  fabric.write_async(s1.id(), RAddr{target.id(), mr, 0}, as_bytes(big));
  fabric.write_async(s2.id(), RAddr{target.id(), mr, 256 * 1024},
                     as_bytes(big));
  sim.run();

  // Distinct initiator NICs, but the flows converge on the target rack's
  // downlink: one of them had to wait in the FIFO.
  EXPECT_GE(fabric.stats().uplink_queued, 1u);
  EXPECT_GT(fabric.uplink_busy_ns(fabric.rack_of(target.id())), 0u);
}

TEST(Fabric, ControlLaneBypassesCongestedUplink) {
  LatencyModel m;
  m.rack_size = 1;
  m.oversub_ratio = 2.0;
  auto run_probe = [&](bool priority) {
    LatencyModel lm = m;
    lm.priority_lanes = priority;
    Simulator sim;
    Fabric fabric(sim, lm);
    Node& target = fabric.add_node();
    Node& prober = fabric.add_node();
    Node& aggressor = fabric.add_node();
    MrId mr = target.register_region(4096);
    // Saturate the target rack's link with a phantom bulk flow, then
    // issue a small control-lane probe read against it.
    fabric.inject_flow(aggressor.id(), target.id(), 4 * 1024 * 1024);
    Nanos probe_lat = 0;
    sim.spawn([](Simulator& s, Fabric& f, Node& from, Node& to, MrId reg,
                 Nanos& out) -> Task<void> {
      std::vector<std::byte> buf(8);
      const Nanos start = s.now();
      co_await f.read(from.id(), RAddr{to.id(), reg, 0}, buf,
                      Lane::kControl);
      out = s.now() - start;
    }(sim, fabric, prober, target, mr, probe_lat));
    sim.run();
    return probe_lat;
  };

  const Nanos with_priority = run_probe(true);
  const Nanos without_priority = run_probe(false);
  // With priority lanes the probe ignores the bulk flow entirely; without
  // them it queues behind ~1.3ms of phantom transfer.
  EXPECT_LT(with_priority * 10, without_priority);
}

TEST(Fabric, InjectFlowNeedsNoMemoryRegion) {
  LatencyModel m;
  m.rack_size = 1;
  Simulator sim;
  Fabric fabric(sim, m);
  Node& src = fabric.add_node();
  Node& dst = fabric.add_node();  // bare: no registered regions

  fabric.inject_flow(src.id(), dst.id(), 64 * 1024);
  sim.run();
  EXPECT_EQ(fabric.stats().injected_ops, 1u);
  EXPECT_EQ(fabric.stats().injected_bytes, 64u * 1024u);
  EXPECT_GT(fabric.uplink_bytes(fabric.rack_of(dst.id())), 0u);
}

// One fabric WRITE of `payload` to `addr` from node `src`; returns its status.
Status write_once(Simulator& sim, Fabric& fabric, std::int32_t src, RAddr addr,
                  std::span<const std::byte> payload) {
  Status st = Status::kRemoteFailure;
  sim.spawn([](Fabric& f, std::int32_t from, RAddr to,
               std::span<const std::byte> p, Status& out) -> Task<void> {
    out = (co_await f.write(from, to, p)).status;
  }(fabric, src, addr, payload, st));
  sim.run();
  return st;
}

// Residency of each page of `region`, as mincore reports it.
std::vector<unsigned char> resident_pages(const MemoryRegion& region) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<std::uintptr_t>(region.bytes().data());
  const std::uintptr_t start = lo / page * page;
  const std::uintptr_t end = (lo + region.size() + page - 1) / page * page;
  std::vector<unsigned char> vec((end - start) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(start), end - start, vec.data()),
            0);
  for (auto& v : vec) v &= 1;
  return vec;
}

TEST(MemoryRegion, LargeRegionIsDemandZero) {
  constexpr std::size_t kSize = 64u << 20;
  constexpr std::uint64_t kAt = 37'000'000;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  Simulator sim;
  Fabric fabric(sim, LatencyModel{});
  Node& a = fabric.add_node();
  Node& b = fabric.add_node();
  const MrId mr = b.register_region(kSize);
  const MemoryRegion& region = b.region(mr);
  ASSERT_EQ(region.size(), kSize);
  ASSERT_EQ(reinterpret_cast<std::uintptr_t>(region.bytes().data()) % page,
            0u);  // a multiple of the page size starts on a page

  std::vector<unsigned char> res = resident_pages(region);
  EXPECT_EQ(std::count(res.begin(), res.end(), 1), 0)
      << "registration touched the region";

  const std::uint64_t word = 0x0123'4567'89ab'cdefULL;
  ASSERT_EQ(write_once(sim, fabric, a.id(), RAddr{b.id(), mr, kAt},
                       std::as_bytes(std::span(&word, 1))),
            Status::kOk);
  res = resident_pages(region);
  const std::size_t hit = kAt / page;
  EXPECT_EQ(res[hit], 1);
  // Outside the 2 MiB block around the write nothing is resident; a host
  // with transparent huge pages always on may back that whole block.
  const std::size_t huge = (2u << 20) / page;
  for (std::size_t i = 0; i < res.size(); ++i) {
    if (i / huge == hit / huge) continue;
    ASSERT_EQ(res[i], 0) << "page " << i << " resident";
  }

  // Reading maps the shared zero page; it reads as zero everywhere but k.
  const auto bytes = region.bytes();
  EXPECT_EQ(bytes.front(), std::byte{0});
  EXPECT_EQ(bytes.back(), std::byte{0});
  for (std::size_t off = 0; off < kSize; off += 1'000'003) {
    if (off >= kAt && off < kAt + sizeof word) continue;
    ASSERT_EQ(bytes[off], std::byte{0}) << "offset " << off;
  }
  std::uint64_t got = 0;
  std::memcpy(&got, bytes.data() + kAt, sizeof got);
  EXPECT_EQ(got, word);
}

TEST(MemoryRegion, MappedRegionStartsOnACacheLine) {
  Simulator sim;
  for (const std::size_t size :
       {MemoryRegion::kMappedMin, MemoryRegion::kMappedMin + 1,
        std::size_t{1u << 20} + 40, std::size_t{3u << 20} + 4095}) {
    const MemoryRegion region(sim, size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.bytes().data()) % 64,
              0u)
        << "size " << size;
    EXPECT_EQ(region.size(), size);
  }
}

TEST(MemoryRegion, StorePastTheEndOfAMappedRegionFaults) {
  Simulator sim;
  // Not a whole number of pages: the region must still end at the guard.
  MemoryRegion region(sim, (1u << 20) + 64);
  std::byte* end = region.bytes().data() + region.size();
  *(end - 1) = std::byte{1};  // the last byte is writable
  EXPECT_EQ(region.bytes().back(), std::byte{1});
  EXPECT_DEATH(*static_cast<volatile std::byte*>(end) = std::byte{1}, "");
}

TEST(MemoryRegion, SmallAndEmptyRegionsAreZeroedAndUsable) {
  Simulator sim;
  Fabric fabric(sim, LatencyModel{});
  Node& a = fabric.add_node();
  Node& b = fabric.add_node();
  for (const std::size_t size : {std::size_t{320}, MemoryRegion::kMappedMin - 1}) {
    const MrId mr = b.register_region(size);
    const auto bytes = b.region(mr).bytes();
    ASSERT_EQ(bytes.size(), size);
    EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(),
                            [](std::byte x) { return x == std::byte{0}; }));
    const std::vector<std::uint8_t> payload{7, 8, 9};
    EXPECT_EQ(write_once(sim, fabric, a.id(), RAddr{b.id(), mr, size - 3},
                         as_bytes(payload)),
              Status::kOk);
    EXPECT_EQ(bytes[size - 4], std::byte{0});
    EXPECT_EQ(bytes[size - 1], std::byte{9});
  }
  const MrId empty = b.register_region(0);
  EXPECT_EQ(b.region(empty).size(), 0u);
  EXPECT_TRUE(b.region(empty).bytes().empty());
  const std::vector<std::uint8_t> one{1};
  EXPECT_EQ(write_once(sim, fabric, a.id(), RAddr{b.id(), empty, 0},
                       as_bytes(one)),
            Status::kBadAddress);
}

}  // namespace
}  // namespace heron::rdma
