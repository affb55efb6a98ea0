// Substrate microbenchmarks (google-benchmark): simulated-RDMA verb
// latencies, atomic multicast delivery latency, and object-store
// operations. These document the calibrated cost model underlying every
// figure (values are *simulated* time per operation, reported as
// microseconds via the Lat counter; wall time measures simulator speed).
// Arguments other than --seed go to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>

#include "amcast/system.hpp"
#include "common/cli.hpp"
#include "core/object_store.hpp"
#include "rdma/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

using namespace heron;

namespace {

std::uint64_t g_seed = 5;

void BM_RdmaReadLatency(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& a = fabric.add_node();
  auto& b = fabric.add_node();
  auto mr = b.register_region(bytes);
  sim::Nanos total = 0;
  std::uint64_t ops = 0;

  for (auto _ : state) {
    sim::Nanos t = 0;
    sim.spawn([](sim::Simulator& s, rdma::Fabric& f, rdma::Node& from,
                 rdma::Node& to, rdma::MrId m, std::size_t n,
                 sim::Nanos& out) -> sim::Task<void> {
      std::vector<std::byte> buf(n);
      const sim::Nanos start = s.now();
      co_await f.read(from.id(), rdma::RAddr{to.id(), m, 0}, buf);
      out = s.now() - start;
    }(sim, fabric, a, b, mr, bytes, t));
    sim.run();
    total += t;
    ++ops;
  }
  state.counters["sim_lat_us"] = sim::to_us(total / static_cast<sim::Nanos>(ops));
}
BENCHMARK(BM_RdmaReadLatency)->Arg(8)->Arg(1024)->Arg(32768);

void BM_RdmaWriteLatency(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& a = fabric.add_node();
  auto& b = fabric.add_node();
  auto mr = b.register_region(bytes);
  sim::Nanos total = 0;
  std::uint64_t ops = 0;

  for (auto _ : state) {
    sim::Nanos t = 0;
    sim.spawn([](sim::Simulator& s, rdma::Fabric& f, rdma::Node& from,
                 rdma::Node& to, rdma::MrId m, std::size_t n,
                 sim::Nanos& out) -> sim::Task<void> {
      std::vector<std::byte> buf(n, std::byte{1});
      const sim::Nanos start = s.now();
      co_await f.write(from.id(), rdma::RAddr{to.id(), m, 0}, buf);
      out = s.now() - start;
    }(sim, fabric, a, b, mr, bytes, t));
    sim.run();
    total += t;
    ++ops;
  }
  state.counters["sim_lat_us"] = sim::to_us(total / static_cast<sim::Nanos>(ops));
}
BENCHMARK(BM_RdmaWriteLatency)->Arg(8)->Arg(1024)->Arg(32768);

void BM_AmcastDelivery(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  sim::Nanos total = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    rdma::Fabric fabric(sim, {}, g_seed);
    amcast::System sys(fabric, groups, 3);
    sys.start();
    auto& client = sys.add_client();
    amcast::DstMask dst = 0;
    for (int g = 0; g < groups; ++g) dst |= amcast::dst_of(g);
    sim::Nanos t = 0;
    sim.spawn([](sim::Simulator& s, amcast::System& system,
                 amcast::ClientEndpoint& cl, amcast::DstMask d,
                 sim::Nanos& out) -> sim::Task<void> {
      std::uint32_t v = 7;
      const sim::Nanos start = s.now();
      co_await cl.multicast(d, std::as_bytes(std::span(&v, 1)));
      while (system.endpoint(0, 0).delivered_count() == 0) {
        co_await s.sleep(sim::us(1));
      }
      out = s.now() - start;
    }(sim, sys, client, dst, t));
    sim.run_for(sim::ms(5));
    total += t;
    ++ops;
  }
  state.counters["sim_lat_us"] = sim::to_us(total / static_cast<sim::Nanos>(ops));
}
BENCHMARK(BM_AmcastDelivery)->Arg(1)->Arg(2)->Arg(4)->Iterations(20);

void BM_ObjectStoreSet(benchmark::State& state) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& node = fabric.add_node();
  core::ObjectStore store(node, 1u << 20);
  std::vector<std::byte> value(640);
  store.create(1, value, true);
  core::Tmp tmp = 1;
  for (auto _ : state) {
    store.set(1, value, tmp++);
    benchmark::DoNotOptimize(store.get(1));
  }
}
BENCHMARK(BM_ObjectStoreSet);

// A self-rescheduling event: each run schedules its successor 1-4096 ns
// later (about the spread of the fabric's verb latencies) until `left`
// runs out.
struct Chain {
  sim::Simulator* sim;
  sim::Rng* rng;
  std::int64_t* left;
  void operator()() const {
    if (--*left >= 0) {
      sim->schedule(static_cast<sim::Nanos>(1 + (rng->next() & 4095)), *this);
    }
  }
};

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // Wall-clock events/second of the DES engine itself at a fixed queue
  // depth: range(0) chains. The chains stop once the event budget is
  // spent, so the last `depth` events drain a shrinking queue; the budget
  // keeps that tail under 6%.
  const auto depth = static_cast<std::int64_t>(state.range(0));
  const std::int64_t budget = std::max<std::int64_t>(1 << 18, 16 * depth);
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Rng rng(g_seed);
    std::int64_t left = budget;
    for (std::int64_t i = 0; i < depth; ++i) {
      sim.schedule(static_cast<sim::Nanos>(rng.next() & 4095),
                   Chain{&sim, &rng, &left});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
    events += sim.events_executed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorEventThroughput)
    ->Arg(32)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536);

void BM_TimerArmCancel(benchmark::State& state) {
  // The retry client's kernel cost: each iteration is one request that
  // arms a 100 ms deadline, lets ~125 events of other work run (1 us over
  // 256 chains) and cancels the deadline when its reply lands.
  sim::Simulator sim;
  sim::Rng rng(g_seed);
  std::int64_t left = INT64_MAX;
  for (int i = 0; i < 256; ++i) {
    sim.schedule(static_cast<sim::Nanos>(rng.next() & 4095),
                 Chain{&sim, &rng, &left});
  }
  for (auto _ : state) {
    auto timer = sim.schedule_at(sim.now() + sim::ms(100), [] {});
    sim.run_for(sim::us(1));
    benchmark::DoNotOptimize(sim.cancel_timer(timer));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pending"] = static_cast<double>(sim.pending_events());
}
BENCHMARK(BM_TimerArmCancel);

}  // namespace

int main(int argc, char** argv) {
  argc = bench::Cli()
             .flag("--seed", g_seed, "<n>",
                   "fabric seed of the randomized cases")
             .parse_known(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
