// Parameterized property sweeps across cluster shapes and seeds.
//
// These are the repository's broad invariant checks: for every
// (partitions, replicas, seed) combination we run a randomized workload
// and assert the system-level properties the paper's correctness argument
// (§III-C) promises — conservation under multi-partition updates, replica
// convergence within partitions, and atomic multicast's delivery
// properties.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "amcast/system.hpp"
#include "core/system.hpp"
#include "rdma/fabric.hpp"
#include "sim/random.hpp"
#include "test_app.hpp"

namespace heron {
namespace {

using sim::Task;

// ----------------------------------------------------------------------
// Heron conservation sweep: partitions x replicas x seed.
// ----------------------------------------------------------------------

using HeronShape = std::tuple<int /*partitions*/, int /*replicas*/,
                              std::uint64_t /*seed*/>;

class HeronConservationSweep : public ::testing::TestWithParam<HeronShape> {};

TEST_P(HeronConservationSweep, TotalBalancePreservedAndReplicasConverge) {
  const auto [partitions, replicas, seed] = GetParam();
  constexpr std::uint64_t kAccounts = 6;
  constexpr int kClients = 3;
  constexpr int kOps = 12;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  core::System sys(
      fabric, partitions, replicas,
      [partitions, n = kAccounts] {
        return std::make_unique<testapp::BankApp>(partitions, n);
      },
      cfg);
  sys.start();

  for (int i = 0; i < kClients; ++i) {
    auto& client = sys.add_client();
    sim.spawn([](core::System& s, core::Client& cl, std::uint64_t sd,
                 int idx) -> Task<void> {
      sim::Rng rng(sd * 31 + static_cast<std::uint64_t>(idx));
      const auto total = static_cast<std::uint64_t>(s.partitions()) * kAccounts;
      for (int k = 0; k < kOps; ++k) {
        const std::uint64_t a = rng.bounded(total);
        std::uint64_t b = rng.bounded(total);
        if (b == a) b = (a + 1) % total;
        testapp::TransferReq req{a, b, rng.uniform_int(1, 9)};
        const auto dst =
            amcast::dst_of(static_cast<amcast::GroupId>(
                a % static_cast<std::uint64_t>(s.partitions()))) |
            amcast::dst_of(static_cast<amcast::GroupId>(
                b % static_cast<std::uint64_t>(s.partitions())));
        co_await cl.submit(dst, testapp::kTransfer,
                           std::as_bytes(std::span(&req, 1)));
      }
    }(sys, client, seed, i));
  }
  sim.run_for(sim::sec(1));

  ASSERT_EQ(sys.total_completed(),
            static_cast<std::uint64_t>(kClients) * kOps);

  const std::int64_t expected =
      static_cast<std::int64_t>(partitions) * kAccounts * 1000;
  for (int rank = 0; rank < replicas; ++rank) {
    std::int64_t total = 0;
    for (int p = 0; p < partitions; ++p) {
      for (std::uint64_t k = 0; k < kAccounts; ++k) {
        const core::Oid oid = static_cast<core::Oid>(p) +
                              k * static_cast<core::Oid>(partitions);
        total += testapp::stored_balance(sys.replica(p, rank), oid);
      }
    }
    EXPECT_EQ(total, expected) << "rank " << rank;
  }
  // Convergence per partition.
  for (int p = 0; p < partitions; ++p) {
    for (std::uint64_t k = 0; k < kAccounts; ++k) {
      const core::Oid oid =
          static_cast<core::Oid>(p) + k * static_cast<core::Oid>(partitions);
      const auto v0 = testapp::stored_balance(sys.replica(p, 0), oid);
      for (int r = 1; r < replicas; ++r) {
        EXPECT_EQ(testapp::stored_balance(sys.replica(p, r), oid), v0)
            << "p" << p << " r" << r << " oid " << oid;
      }
    }
  }
}

std::string heron_shape_name(
    const ::testing::TestParamInfo<HeronShape>& info) {
  std::ostringstream name;
  name << "p" << std::get<0>(info.param) << "_r" << std::get<1>(info.param)
       << "_s" << std::get<2>(info.param);
  return name.str();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HeronConservationSweep,
    ::testing::Values(HeronShape{2, 3, 21}, HeronShape{2, 3, 22},
                      HeronShape{3, 3, 23}, HeronShape{4, 3, 24},
                      HeronShape{2, 5, 25}, HeronShape{3, 5, 26},
                      HeronShape{5, 3, 27}, HeronShape{6, 3, 28}),
    heron_shape_name);

// ----------------------------------------------------------------------
// Atomic multicast delivery-property sweep.
// ----------------------------------------------------------------------

using AmcastShape =
    std::tuple<int /*groups*/, int /*replicas*/, std::uint64_t /*seed*/>;

class AmcastPropertySweep : public ::testing::TestWithParam<AmcastShape> {};

TEST_P(AmcastPropertySweep, OrderAgreementIntegrityHold) {
  const auto [groups, replicas, seed] = GetParam();

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  amcast::System sys(fabric, groups, replicas);
  sys.start();

  std::map<std::pair<int, int>, std::vector<amcast::Delivery>> log;
  for (int g = 0; g < groups; ++g) {
    for (int r = 0; r < replicas; ++r) {
      sim.spawn([](amcast::Endpoint& ep,
                   std::vector<amcast::Delivery>& out) -> Task<void> {
        while (true) out.push_back(co_await ep.next_delivery());
      }(sys.endpoint(g, r), log[{g, r}]));
    }
  }

  std::vector<std::pair<amcast::MsgUid, amcast::DstMask>> sent;
  for (int c = 0; c < 4; ++c) {
    auto& client = sys.add_client();
    sim.spawn([](sim::Simulator& s, amcast::ClientEndpoint& cl, int idx,
                 std::uint64_t sd, int ngroups,
                 std::vector<std::pair<amcast::MsgUid, amcast::DstMask>>&
                     sent_log) -> Task<void> {
      sim::Rng rng(sd * 7 + static_cast<std::uint64_t>(idx));
      for (int k = 0; k < 15; ++k) {
        amcast::DstMask dst = 0;
        const int span = 1 + static_cast<int>(rng.bounded(
                                  std::min(3, ngroups)));
        while (amcast::dst_count(dst) < span) {
          dst |= amcast::dst_of(static_cast<amcast::GroupId>(
              rng.bounded(static_cast<std::uint64_t>(ngroups))));
        }
        std::uint32_t v = static_cast<std::uint32_t>(k);
        const auto uid =
            co_await cl.multicast(dst, std::as_bytes(std::span(&v, 1)));
        sent_log.emplace_back(uid, dst);
        co_await s.sleep(sim::us(60));
      }
    }(sim, client, c, seed, groups, sent));
  }
  sim.run_for(sim::ms(80));

  // Validity + Integrity + agreement + timestamp-order.
  std::map<amcast::MsgUid, std::uint64_t> ts;
  for (const auto& [key, seq] : log) {
    std::set<amcast::MsgUid> seen;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_TRUE(seen.insert(seq[i].uid).second);
      if (i > 0) {
        EXPECT_LT(seq[i - 1].tmp, seq[i].tmp);
      }
      auto [it, fresh] = ts.emplace(seq[i].uid, seq[i].tmp);
      if (!fresh) {
        EXPECT_EQ(it->second, seq[i].tmp);
      }
    }
  }
  for (const auto& [uid, dst] : sent) {
    for (int g = 0; g < groups; ++g) {
      if (!amcast::dst_contains(dst, g)) continue;
      for (int r = 0; r < replicas; ++r) {
        const auto& seq = log[{g, r}];
        EXPECT_TRUE(std::any_of(seq.begin(), seq.end(),
                                [uid](const auto& d) { return d.uid == uid; }))
            << "uid " << uid << " missing at (" << g << "," << r << ")";
      }
    }
  }
  // Same delivery sequence within each group.
  for (int g = 0; g < groups; ++g) {
    const auto& ref = log[{g, 0}];
    for (int r = 1; r < replicas; ++r) {
      const auto& seq = log[{g, r}];
      ASSERT_EQ(seq.size(), ref.size()) << "group " << g << " rank " << r;
      for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].uid, ref[i].uid);
      }
    }
  }
}

std::string amcast_shape_name(
    const ::testing::TestParamInfo<AmcastShape>& info) {
  std::ostringstream name;
  name << "g" << std::get<0>(info.param) << "_r" << std::get<1>(info.param)
       << "_s" << std::get<2>(info.param);
  return name.str();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AmcastPropertySweep,
    ::testing::Values(AmcastShape{1, 3, 31}, AmcastShape{2, 3, 32},
                      AmcastShape{3, 3, 33}, AmcastShape{4, 3, 34},
                      AmcastShape{2, 5, 35}, AmcastShape{4, 5, 36},
                      AmcastShape{6, 3, 37}, AmcastShape{8, 3, 38}),
    amcast_shape_name);

// ----------------------------------------------------------------------
// RDMA latency-model sweep: read/write latency formulae across sizes.
// ----------------------------------------------------------------------

class RdmaSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RdmaSizeSweep, ReadAndWriteLatencyFollowModel) {
  const std::size_t bytes = GetParam();
  sim::Simulator sim;
  rdma::LatencyModel model;
  rdma::Fabric fabric(sim, model);
  auto& a = fabric.add_node();
  auto& b = fabric.add_node();
  auto mr = b.register_region(bytes);

  sim::Nanos read_lat = 0, write_lat = 0;
  sim.spawn([](sim::Simulator& s, rdma::Fabric& f, rdma::Node& from,
               rdma::Node& to, rdma::MrId m, std::size_t n, sim::Nanos& rl,
               sim::Nanos& wl) -> Task<void> {
    std::vector<std::byte> buf(n);
    sim::Nanos t0 = s.now();
    co_await f.read(from.id(), rdma::RAddr{to.id(), m, 0}, buf);
    rl = s.now() - t0;
    t0 = s.now();
    co_await f.write(from.id(), rdma::RAddr{to.id(), m, 0}, buf);
    wl = s.now() - t0;
  }(sim, fabric, a, b, mr, bytes, read_lat, write_lat));
  sim.run();

  EXPECT_EQ(read_lat, model.post_overhead + model.read_base +
                          model.transfer_time(bytes));
  EXPECT_EQ(write_lat, model.post_overhead + model.write_base +
                           model.transfer_time(bytes));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RdmaSizeSweep,
                         ::testing::Values(8, 64, 512, 4096, 32768, 262144));

}  // namespace
}  // namespace heron
