// Layer isolation runs: each times one layer on its own, so a change
// to the simulator's wall speed can name the layer its gain came from.
//   kernel  — self-rescheduling Simulator::schedule chains;
//   fabric  — one-sided read/write/cas verbs over many QPs;
//   ladder  — the TPC-C cluster in order-only, null and app replica modes
//             (fig4's experiment ladder): the differences between rungs
//             are the core and tpcc shares of the wall cost per op.
#include <array>
#include <chrono>

#include "bench.hpp"
#include "harness/runner.hpp"
#include "rdma/fabric.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

using namespace heron;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One step of a self-rescheduling chain: a 24-byte capture and a
/// near-horizon delay drawn from the chain's own hash.
void chain_step(sim::Simulator& sim, std::uint64_t h, std::uint32_t left) {
  if (left == 0) return;
  std::uint64_t state = h;
  const std::uint64_t next = sim::splitmix64(state);
  const Nanos delay = 50 + static_cast<Nanos>(next & 0x3FF);
  sim::Simulator* s = &sim;
  sim.schedule(delay, sim::EventFn([s, next, left] {
                 chain_step(*s, next, left - 1);
               }));
}

double time_chains(std::size_t depth, std::uint32_t steps, std::uint64_t seed) {
  sim::Simulator sim;
  std::uint64_t s = seed;
  for (std::size_t c = 0; c < depth; ++c) {
    chain_step(sim, sim::splitmix64(s), steps);
  }
  const auto t0 = Clock::now();
  sim.run();
  const double wall = seconds_since(t0);
  return wall * 1e9 / static_cast<double>(sim.events_executed());
}

sim::Task<void> verb_loop(rdma::Fabric& f, std::int32_t me, std::size_t nodes,
                          std::size_t fanout, rdma::MrId mr,
                          std::uint32_t verbs) {
  std::array<std::byte, 64> buf{};
  std::uint64_t observed = 0;
  for (std::uint32_t k = 0; k < verbs; ++k) {
    const auto target = static_cast<std::int32_t>(
        (static_cast<std::size_t>(me) + 1 + k % fanout) % nodes);
    const rdma::RAddr addr{target, mr, (k % 32) * 64u};
    switch (k % 3) {
      case 0:
        (void)co_await f.read(me, addr, buf);
        break;
      case 1:
        (void)co_await f.write(me, addr, buf);
        break;
      default:
        (void)co_await f.cas(me, addr, observed, observed + 1, &observed);
        break;
    }
  }
}

}  // namespace

double kernel_ns_per_event(std::size_t depth, std::uint64_t seed) {
  depth = std::max<std::size_t>(depth, 1);
  constexpr std::uint64_t kEvents = 3'000'000;
  const auto steps = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(kEvents / depth, 1));
  (void)time_chains(std::min<std::size_t>(depth, 64), 64, seed + 1);  // warm
  return time_chains(depth, steps, seed);
}

double fabric_ns_per_verb(std::size_t nodes, std::size_t fanout,
                          std::uint64_t seed) {
  nodes = std::max<std::size_t>(nodes, 2);
  fanout = std::clamp<std::size_t>(fanout, 1, nodes - 1);
  constexpr std::uint64_t kVerbs = 600'000;
  const auto per_node = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(kVerbs / nodes, 3));
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  rdma::MrId mr{};
  for (std::size_t n = 0; n < nodes; ++n) {
    mr = fabric.add_node().register_region(32 * 64);
  }
  for (std::size_t n = 0; n < nodes; ++n) {
    sim.spawn(verb_loop(fabric, static_cast<std::int32_t>(n), nodes, fanout,
                        mr, per_node));
  }
  const auto t0 = Clock::now();
  sim.run();
  const double wall = seconds_since(t0);
  const auto& st = fabric.stats();
  return wall * 1e9 / static_cast<double>(st.reads + st.writes);
}

Ladder mode_ladder(std::uint64_t seed) {
  constexpr int kPartitions = 4;
  constexpr int kReplicas = 3;
  const tpcc::TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  Ladder out;
  for (const core::Mode mode :
       {core::Mode::kOrderOnly, core::Mode::kNull, core::Mode::kApp}) {
    core::HeronConfig cfg;
    cfg.mode = mode;
    harness::TpccCluster cluster(kPartitions, kReplicas, scale, cfg,
                                 amcast::Config{}, seed, rdma::LatencyModel{});
    cluster.add_clients(8, tpcc::WorkloadConfig{});
    cluster.simulator().run_for(sim::ms(3));
    auto delivered = [&] {
      std::uint64_t n = 0;
      for (int g = 0; g < kPartitions; ++g) {
        for (int r = 0; r < kReplicas; ++r) {
          n += cluster.system().amcast().endpoint(g, r).delivered_count();
        }
      }
      return n;
    };
    const std::uint64_t d0 = delivered();
    const auto t0 = Clock::now();
    const harness::RunResult res = cluster.run(0, sim::ms(40));
    const double ns_per_op = seconds_since(t0) * 1e9 /
                             static_cast<double>(std::max<std::uint64_t>(
                                 res.completed, 1));
    switch (mode) {
      case core::Mode::kOrderOnly:
        out.order_only_ns_per_op = ns_per_op;
        out.deliveries_per_op = static_cast<double>(delivered() - d0) /
                                static_cast<double>(std::max<std::uint64_t>(
                                    res.completed, 1));
        break;
      case core::Mode::kNull:
        out.null_ns_per_op = ns_per_op;
        break;
      case core::Mode::kApp:
        out.app_ns_per_op = ns_per_op;
        break;
    }
  }
  return out;
}

}  // namespace perfbench
