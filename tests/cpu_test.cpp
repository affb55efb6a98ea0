// Unit tests for the per-node CPU resource and the ExecContext helpers.
#include <gtest/gtest.h>

#include "core/app.hpp"
#include "rdma/fabric.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace heron {
namespace {

using sim::Cpu;
using sim::Nanos;
using sim::Simulator;
using sim::Task;
using sim::us;

TEST(Cpu, SingleUserPaysItsCost) {
  Simulator sim;
  Cpu cpu(sim);
  Nanos done_at = -1;
  sim.spawn([](Simulator& s, Cpu& c, Nanos& out) -> Task<void> {
    co_await c.use(us(10));
    out = s.now();
  }(sim, cpu, done_at));
  sim.run();
  EXPECT_EQ(done_at, us(10));
  EXPECT_EQ(cpu.busy_total(), us(10));
}

TEST(Cpu, ConcurrentUsersSerialize) {
  Simulator sim;
  Cpu cpu(sim);
  std::vector<Nanos> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulator& s, Cpu& c, std::vector<Nanos>& out) -> Task<void> {
      co_await c.use(us(10));
      out.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], us(10));
  EXPECT_EQ(done[1], us(20));
  EXPECT_EQ(done[2], us(30));
}

TEST(Cpu, IdleGapsDoNotAccumulate) {
  Simulator sim;
  Cpu cpu(sim);
  Nanos done_at = -1;
  sim.spawn([](Simulator& s, Cpu& c, Nanos& out) -> Task<void> {
    co_await c.use(us(5));
    co_await s.sleep(us(100));  // CPU idle meanwhile
    co_await c.use(us(5));
    out = s.now();
  }(sim, cpu, done_at));
  sim.run();
  EXPECT_EQ(done_at, us(110));
  EXPECT_EQ(cpu.busy_total(), us(10));
}

TEST(Cpu, TwoCpusRunInParallel) {
  Simulator sim;
  Cpu a(sim), b(sim);
  Nanos done_a = -1, done_b = -1;
  sim.spawn([](Simulator& s, Cpu& c, Nanos& out) -> Task<void> {
    co_await c.use(us(10));
    out = s.now();
  }(sim, a, done_a));
  sim.spawn([](Simulator& s, Cpu& c, Nanos& out) -> Task<void> {
    co_await c.use(us(10));
    out = s.now();
  }(sim, b, done_b));
  sim.run();
  EXPECT_EQ(done_a, us(10));
  EXPECT_EQ(done_b, us(10));  // no serialization across distinct cores
}

// A charge on an idle CPU of zero length returns to its caller at once:
// no event, no time.
TEST(Cpu, ZeroLengthChargePushesNoEvent) {
  Simulator sim;
  Cpu cpu(sim);
  bool done = false;
  sim.spawn([](Cpu& c, bool& out) -> Task<void> {
    co_await c.use(0);
    out = true;
  }(cpu, done));
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(cpu.free_at(), 0);
}

// Charges queue FIFO behind a busy CPU, each one sleeping once until its
// turn ends; a zero-length charge behind them still waits its turn.
TEST(Cpu, ChargeQueuedBehindBusyCpuSleepsUntilItsTurnEnds) {
  Simulator sim;
  Cpu cpu(sim);
  std::vector<std::pair<int, Nanos>> done;
  auto charge = [&](int id, Nanos cost) {
    sim.spawn([](Simulator& s, Cpu& c, int who, Nanos d,
                 std::vector<std::pair<int, Nanos>>& out) -> Task<void> {
      co_await c.use(d);
      out.emplace_back(who, s.now());
    }(sim, cpu, id, cost, done));
  };
  charge(0, us(10));
  charge(1, us(5));
  charge(2, 0);
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(cpu.free_at(), us(15));

  sim.run_until(us(4));
  charge(3, us(1));  // queued at 4 us behind 11 us of work
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run();

  const std::vector<std::pair<int, Nanos>> want{
      {0, us(10)}, {1, us(15)}, {2, us(15)}, {3, us(16)}};
  EXPECT_EQ(done, want);
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(cpu.busy_total(), us(16));
}

TEST(ExecContext, ValueAndWriteHelpers) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& node = fabric.add_node();
  core::ObjectStore store(node, 1 << 16);

  core::ExecContext ctx(0, store);
  const std::uint64_t v = 0xdeadbeef;
  ctx.set_value(7, std::span(reinterpret_cast<const std::byte*>(&v),
                             sizeof(v)));

  EXPECT_TRUE(ctx.has(7));
  EXPECT_FALSE(ctx.has(8));
  EXPECT_EQ(ctx.value_as<std::uint64_t>(7), v);

  ctx.write_as<std::uint64_t>(9, 42);
  ASSERT_EQ(ctx.writes().size(), 1u);
  EXPECT_EQ(ctx.writes()[0].oid, 9u);
  std::uint64_t w;
  std::memcpy(&w, ctx.writes()[0].bytes.data(), sizeof(w));
  EXPECT_EQ(w, 42u);

  ctx.charge(us(3));
  ctx.charge(us(2));
  EXPECT_EQ(ctx.cpu_cost(), us(5));

  std::vector<std::byte> blob(16, std::byte{1});
  ctx.create(11, blob, /*serialized=*/true);
  ASSERT_EQ(ctx.creates().size(), 1u);
  EXPECT_TRUE(ctx.creates()[0].serialized);
  EXPECT_EQ(ctx.creates()[0].oid, 11u);
}

}  // namespace
}  // namespace heron
