// Integration tests for the Heron replica runtime (Algorithms 1-3) using
// the bank test application: correctness of single- and multi-partition
// execution, convergence of replicas, the conservation invariant under
// randomized load, lagger detection plus state transfer, and behaviour
// under replica failure.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/system.hpp"
#include "rdma/fabric.hpp"
#include "rdma/pod.hpp"
#include "sim/notifier.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_app.hpp"

namespace heron::core {
namespace {

using sim::Nanos;
using sim::Task;
using sim::us;
using testapp::Account;
using testapp::BankApp;

struct Cluster {
  sim::Simulator sim;
  rdma::Fabric fabric;
  System sys;
  int partitions;
  int replicas;
  std::uint64_t accounts_per_partition;

  Cluster(int parts, int reps, std::uint64_t accounts = 8,
          HeronConfig cfg = {})
      : fabric(sim, rdma::LatencyModel{}, /*seed=*/77),
        sys(fabric, parts, reps,
            [parts, accounts] {
              return std::make_unique<BankApp>(parts, accounts);
            },
            cfg),
        partitions(parts),
        replicas(reps),
        accounts_per_partition(accounts) {
    sys.start();
  }

  [[nodiscard]] DstMask dst_for(std::initializer_list<Oid> oids) const {
    DstMask mask = 0;
    for (Oid oid : oids) {
      mask |= amcast::dst_of(
          static_cast<GroupId>(oid % static_cast<std::uint64_t>(partitions)));
    }
    return mask;
  }

  /// Total balance across all accounts as stored on replica `rank` of
  /// every partition.
  [[nodiscard]] std::int64_t total_balance(int rank = 0) {
    std::int64_t total = 0;
    for (GroupId g = 0; g < partitions; ++g) {
      for (std::uint64_t k = 0; k < accounts_per_partition; ++k) {
        const Oid oid = static_cast<std::uint64_t>(g) +
                        k * static_cast<std::uint64_t>(partitions);
        total += testapp::stored_balance(sys.replica(g, rank), oid);
      }
    }
    return total;
  }

  void expect_replicas_converged() {
    for (GroupId g = 0; g < partitions; ++g) {
      for (std::uint64_t k = 0; k < accounts_per_partition; ++k) {
        const Oid oid = static_cast<std::uint64_t>(g) +
                        k * static_cast<std::uint64_t>(partitions);
        const auto expected = testapp::stored_balance(sys.replica(g, 0), oid);
        for (int r = 1; r < replicas; ++r) {
          if (!sys.replica(g, r).node().alive()) continue;
          EXPECT_EQ(testapp::stored_balance(sys.replica(g, r), oid), expected)
              << "oid " << oid << " replica " << r;
        }
      }
    }
  }
};

Task<void> run_deposit(Cluster& c, Client& client, std::uint64_t account,
                       std::int64_t amount, std::int64_t* out = nullptr) {
  testapp::DepositReq req{account, amount};
  const DstMask dst = c.dst_for({account});
  auto result = co_await client.submit(dst, testapp::kDeposit,
                                       std::as_bytes(std::span(&req, 1)));
  if (out) std::memcpy(out, result.reply.payload.data(), sizeof(*out));
}

Task<void> run_transfer(Cluster& c, Client& client, std::uint64_t from,
                        std::uint64_t to, std::int64_t amount) {
  testapp::TransferReq req{from, to, amount};
  const DstMask dst = c.dst_for({from, to});
  co_await client.submit(dst, testapp::kTransfer,
                         std::as_bytes(std::span(&req, 1)));
}

// --- basic paths -------------------------------------------------------

TEST(HeronCore, SinglePartitionDepositRoundTrip) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  std::int64_t new_balance = 0;
  c.sim.spawn(run_deposit(c, client, /*account=*/0, /*amount=*/50,
                          &new_balance));
  c.sim.run_for(sim::ms(5));

  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(new_balance, 1050);
  // All replicas of partition 0 applied the write; partition 1 untouched.
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, r), 0), 1050);
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(1, r), 1), 1000);
  }
}

TEST(HeronCore, MultiPartitionTransferMovesMoney) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  // Account 0 lives in partition 0; account 1 in partition 1.
  c.sim.spawn(run_transfer(c, client, 0, 1, 200));
  c.sim.run_for(sim::ms(5));

  EXPECT_EQ(client.completed(), 1u);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, r), 0), 800);
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(1, r), 1), 1200);
  }
  EXPECT_EQ(c.total_balance(), 2 * 8 * 1000);
}

TEST(HeronCore, TransferWithinOnePartitionIsSinglePartition) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  // Accounts 0 and 2 both live in partition 0.
  c.sim.spawn(run_transfer(c, client, 0, 2, 100));
  c.sim.run_for(sim::ms(5));
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, 0), 0), 900);
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, 0), 2), 1100);
  // No coordination should have happened (single-partition request).
  EXPECT_EQ(c.sys.replica(0, 0).coord_stats().multi_partition, 0u);
}

TEST(HeronCore, RepliesCarryApplicationPayload) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  std::int64_t balance = 0;
  c.sim.spawn([](Cluster& cl, Client& cli, std::int64_t& out) -> Task<void> {
    testapp::ReadReq req{4};  // partition 0
    const DstMask dst = cl.dst_for({4});
    auto result = co_await cli.submit(dst, testapp::kRead,
                                      std::as_bytes(std::span(&req, 1)));
    std::memcpy(&out, result.reply.payload.data(), sizeof(out));
  }(c, client, balance));
  c.sim.run_for(sim::ms(5));
  EXPECT_EQ(balance, 1000);
}

TEST(HeronCore, SequentialRequestsFromOneClient) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await run_deposit(cl, cli, 0, 10);
    }
  }(c, client));
  c.sim.run_for(sim::ms(20));
  EXPECT_EQ(client.completed(), 20u);
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, 0), 0), 1200);
  c.expect_replicas_converged();
}

// --- randomized conservation property ----------------------------------

void conservation_run(int partitions, int replicas, int clients, int ops,
                      std::uint64_t seed) {
  Cluster c(partitions, replicas, /*accounts=*/8);
  const std::int64_t expected_total =
      static_cast<std::int64_t>(partitions) * 8 * 1000;

  for (int i = 0; i < clients; ++i) {
    auto& client = c.sys.add_client();
    c.sim.spawn([](Cluster& cl, Client& cli, std::uint64_t sd, int n,
                   int idx) -> Task<void> {
      sim::Rng rng(sd * 1000003 + static_cast<std::uint64_t>(idx));
      const auto total_accounts =
          static_cast<std::uint64_t>(cl.partitions) * cl.accounts_per_partition;
      for (int k = 0; k < n; ++k) {
        const auto a = rng.bounded(total_accounts);
        if (rng.chance(0.5)) {
          auto b = rng.bounded(total_accounts);
          if (b == a) b = (a + 1) % total_accounts;
          co_await run_transfer(cl, cli, a, b,
                                rng.uniform_int(1, 50));
        } else {
          co_await run_deposit(cl, cli, a, 0);  // no-op deposit: pure churn
        }
      }
    }(c, client, seed, ops, i));
  }
  c.sim.run_for(sim::sec(1));

  std::uint64_t completed = 0;
  for (std::uint32_t i = 0; i < c.sys.client_count(); ++i) {
    completed += c.sys.client(i).completed();
  }
  ASSERT_EQ(completed, static_cast<std::uint64_t>(clients) * ops)
      << "workload did not finish";
  for (int r = 0; r < replicas; ++r) {
    EXPECT_EQ(c.total_balance(r), expected_total) << "replica rank " << r;
  }
  c.expect_replicas_converged();
}

TEST(HeronCoreProperty, ConservationTwoPartitions) {
  conservation_run(2, 3, /*clients=*/4, /*ops=*/30, /*seed=*/1);
}

TEST(HeronCoreProperty, ConservationFourPartitions) {
  conservation_run(4, 3, /*clients=*/6, /*ops=*/25, /*seed=*/2);
}

TEST(HeronCoreProperty, ConservationFiveReplicas) {
  conservation_run(2, 5, /*clients=*/4, /*ops=*/20, /*seed=*/3);
}

TEST(HeronCoreProperty, ConservationManySeeds) {
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    conservation_run(3, 3, /*clients=*/3, /*ops=*/15, seed);
  }
}

// --- modes --------------------------------------------------------------

TEST(HeronCore, OrderOnlyModeRepliesWithoutExecuting) {
  HeronConfig cfg;
  cfg.mode = Mode::kOrderOnly;
  Cluster c(2, 3, 8, cfg);
  auto& client = c.sys.add_client();
  c.sim.spawn(run_deposit(c, client, 0, 500));
  c.sim.run_for(sim::ms(5));
  EXPECT_EQ(client.completed(), 1u);
  // Nothing executed: balance untouched.
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, 0), 0), 1000);
}

TEST(HeronCore, NullModeCoordinatesButDoesNotExecute)
{
  HeronConfig cfg;
  cfg.mode = Mode::kNull;
  Cluster c(2, 3, 8, cfg);
  auto& client = c.sys.add_client();
  c.sim.spawn(run_transfer(c, client, 0, 1, 100));
  c.sim.run_for(sim::ms(5));
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, 0), 0), 1000);
  EXPECT_EQ(c.sys.replica(0, 0).coord_stats().multi_partition, 1u);
}

// --- latency sanity ------------------------------------------------------

TEST(HeronCore, LatencyIsMicrosecondScale) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    for (int i = 0; i < 10; ++i) co_await run_deposit(cl, cli, 0, 1);
    for (int i = 0; i < 10; ++i) co_await run_transfer(cl, cli, 0, 1, 1);
  }(c, client));
  c.sim.run_for(sim::ms(20));
  ASSERT_EQ(client.completed(), 20u);
  // The paper reports ~19us single-partition / ~35us multi-partition for
  // TPC-C; the bank app is lighter but must be the same order of
  // magnitude, and far below a millisecond.
  EXPECT_LT(client.latencies().mean(), static_cast<double>(us(120)));
  EXPECT_GT(client.latencies().mean(), static_cast<double>(us(5)));
}

TEST(HeronCore, MultiPartitionCostsMoreThanSinglePartition) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  Nanos single = 0, multi = 0;
  c.sim.spawn([](Cluster& cl, Client& cli, Nanos& s, Nanos& m) -> Task<void> {
    // Warm up (address queries etc).
    co_await run_transfer(cl, cli, 0, 1, 1);
    sim::LatencyRecorder rs, rm;
    for (int i = 0; i < 20; ++i) {
      testapp::DepositReq d{0, 1};
      const DstMask dst_s = cl.dst_for({0});
      auto res = co_await cli.submit(dst_s, testapp::kDeposit,
                                     std::as_bytes(std::span(&d, 1)));
      rs.record(res.latency);
      testapp::TransferReq t{0, 1, 1};
      const DstMask dst_m = cl.dst_for({0, 1});
      auto res2 = co_await cli.submit(dst_m, testapp::kTransfer,
                                      std::as_bytes(std::span(&t, 1)));
      rm.record(res2.latency);
    }
    s = static_cast<Nanos>(rs.mean());
    m = static_cast<Nanos>(rm.mean());
  }(c, client, single, multi));
  c.sim.run_for(sim::ms(50));
  EXPECT_GT(multi, single);
}

// --- stage stats ---------------------------------------------------------

TEST(HeronCore, StageBreakdownRecorded) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    for (int i = 0; i < 5; ++i) co_await run_transfer(cl, cli, 0, 1, 1);
  }(c, client));
  c.sim.run_for(sim::ms(20));

  auto& rep = c.sys.replica(0, 0);
  EXPECT_EQ(rep.ordering_lat().count(), 5u);
  EXPECT_EQ(rep.coord_lat().count(), 5u);
  EXPECT_EQ(rep.exec_lat().count(), 5u);
  EXPECT_GT(rep.ordering_lat().mean(), 0.0);
  EXPECT_GT(rep.coord_lat().mean(), 0.0);
  // Coordination is a few microseconds (the paper: ~2-3us).
  EXPECT_LT(rep.coord_lat().mean(), static_cast<double>(us(15)));
}

// --- failures ------------------------------------------------------------

TEST(HeronCoreFailure, ReplicaCrashDoesNotBlockClients) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    co_await run_transfer(cl, cli, 0, 1, 10);
    // Crash a follower replica in partition 1, then keep going.
    cl.sys.replica(1, 2).node().crash();
    for (int i = 0; i < 10; ++i) {
      co_await run_transfer(cl, cli, 0, 1, 10);
      co_await run_deposit(cl, cli, 1, 5);
    }
  }(c, client));
  c.sim.run_for(sim::ms(60));
  EXPECT_EQ(client.completed(), 21u);
  EXPECT_EQ(testapp::stored_balance(c.sys.replica(1, 0), 1),
            1000 + 11 * 10 + 10 * 5);
}

TEST(HeronCoreFailure, RestartDuringRemoteReadAbandonsStaleExecution) {
  // Replica (0, 2) executes a 0 -> 1 transfer and waits on its remote
  // read of account 1: every partition-1 replica crashes right after
  // Phase 2, so the RDMA READ only fails after the failure-detection
  // delay. Meanwhile (0, 2) crashes and restarts, and the suspended
  // execution must be dropped. Executing it would run the application
  // without account 1's value and write account 0 (and its update-log
  // entry) into the restarted replica. The rejoin state transfer later
  // overwrites the object, so the store is sampled until then.
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  Replica& victim = c.sys.replica(0, 2);
  Tmp first = 0;
  bool stale_version_seen = false;
  c.sim.spawn([](Cluster& cl, Client& cli, Replica& v, Tmp& first,
                 bool& stale_seen) -> Task<void> {
    co_await run_transfer(cl, cli, 0, 1, 100);  // warms the address cache
    const auto coord = v.node().region(v.coord_mr()).bytes();
    auto p1_entry = [&](int q) {
      return rdma::load_pod<CoordEntry>(coord, v.coord_offset(1, q));
    };
    for (int q = 0; q < cl.replicas; ++q) {
      first = std::max(first, p1_entry(q).tmp);
    }
    cl.sim.spawn(run_transfer(cl, cli, 0, 1, 100));
    // Phase 2 of the second transfer is complete at (0, 2) once a
    // majority of partition 1 has written its entry there.
    co_await sim::wait_until(v.node().region(v.coord_mr()).on_write(), [&] {
      int coordinated = 0;
      for (int q = 0; q < cl.replicas; ++q) {
        const auto e = p1_entry(q);
        if (e.tmp > first && e.state >= 1) ++coordinated;
      }
      return coordinated > cl.replicas / 2;
    });
    for (int q = 0; q < cl.replicas; ++q) cl.sys.replica(1, q).node().crash();
    co_await cl.sim.sleep(us(50));  // (0, 2)'s READ is in flight
    v.node().crash();
    co_await cl.sim.sleep(us(50));
    cl.sys.restart_replica(0, 2);
    for (int i = 0; i < 400; ++i) {
      const SlotView slot = v.store().view(0);
      if (std::max(slot.tmp_a, slot.tmp_b) > first) stale_seen = true;
      co_await cl.sim.sleep(us(5));
    }
  }(c, client, victim, first, stale_version_seen));
  c.sim.run_for(sim::ms(5));

  ASSERT_GT(first, 0u);
  EXPECT_TRUE(victim.node().alive());
  EXPECT_EQ(client.completed(), 1u);  // partition 1 never answers again
  EXPECT_FALSE(stale_version_seen);
  for (const auto& e : victim.update_log()) EXPECT_LE(e.tmp, first);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, r), 0), 900)
        << "replica " << r;
  }
}

// --- address rings ----------------------------------------------------------

/// Replica (g, r)'s registry counter core/<name>.
std::uint64_t core_counter(Cluster& c, GroupId g, int r, const char* name) {
  std::string label = "g";
  label.append(std::to_string(g)).append(".r").append(std::to_string(r));
  return c.fabric.telemetry().metrics.counter("core", name, label).value();
}

TEST(AddrRings, RestartedAskerResolvesAfterItsAnswersWereDropped) {
  // Replica (0, 2) crashes the instant it posts its address queries for
  // account 3: the queries land at every partition-1 replica and every
  // answer to them is dropped. After its restart, (0, 2) must still
  // resolve a new remote account, and so execute what its group executes.
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  Replica& asker = c.sys.replica(0, 2);
  bool crashed_mid_query = false;
  c.sim.spawn([](Cluster& cl, Client& cli, Replica& v,
                 bool& mid_query) -> Task<void> {
    co_await run_transfer(cl, cli, 0, 1, 10);
    const auto misses = core_counter(cl, 0, 2, "addr_cache_misses");
    cl.sim.spawn(run_transfer(cl, cli, 0, 3, 10));
    while (core_counter(cl, 0, 2, "addr_cache_misses") == misses) {
      co_await cl.sim.sleep(20);
    }
    mid_query = true;
    v.node().crash();
    co_await cl.sim.sleep(us(200));
    cl.sys.restart_replica(0, 2);
    while (v.rejoining()) co_await cl.sim.sleep(us(10));
    co_await run_transfer(cl, cli, 0, 5, 10);
    co_await run_transfer(cl, cli, 0, 7, 10);
  }(c, client, asker, crashed_mid_query));
  c.sim.run_for(sim::ms(30));

  ASSERT_TRUE(crashed_mid_query);
  EXPECT_EQ(client.completed(), 4u);
  EXPECT_EQ(asker.last_executed(), c.sys.replica(0, 0).last_executed());
  EXPECT_EQ(testapp::stored_balance(asker, 0), 960);
}

TEST(AddrRings, RestartedHomeAnswersPastItsRingGap) {
  // Replica (1, 1) misses two address queries from every partition-0
  // replica while it is down, so after its restart each query cursor sits
  // before a gap. Partition 0 keeps resolving new accounts until its
  // queries lap (1, 1)'s rings; then (1, 2) crashes and every new address
  // needs (1, 1)'s answer.
  constexpr std::uint64_t kAccounts = 300;  // more remote accounts than slots
  Cluster c(2, 3, kAccounts);
  auto& client = c.sys.add_client();
  std::uint64_t sent = 0;
  c.sim.spawn([](Cluster& cl, Client& cli, std::uint64_t& n) -> Task<void> {
    // Transfer n reads account 2n + 1, a partition-1 account no
    // partition-0 replica has resolved yet.
    auto transfer_to_new = [&cl, &cli, &n] {
      return run_transfer(cl, cli, 0, 2 * n++ + 1, 1);
    };
    co_await transfer_to_new();
    cl.sys.replica(1, 1).node().crash();
    for (int i = 0; i < 2; ++i) co_await transfer_to_new();
    cl.sys.restart_replica(1, 1);
    while (cl.sys.replica(1, 1).rejoining()) co_await cl.sim.sleep(us(10));
    for (int i = 0; i < 260; ++i) co_await transfer_to_new();
    cl.sys.replica(1, 2).node().crash();
    for (int i = 0; i < 4; ++i) co_await transfer_to_new();
  }(c, client, sent));
  c.sim.run_for(sim::ms(200));

  ASSERT_EQ(sent, 267u);
  EXPECT_EQ(client.completed(), sent);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(testapp::stored_balance(c.sys.replica(0, r), 0),
              1000 - static_cast<std::int64_t>(sent))
        << "replica " << r;
  }
}

TEST(AddrRings, RestartedAskerContinuesAHomesQuerySequence) {
  // Replica (0, 2) restarts twice. Between the restarts it queries (1, 1)
  // while (1, 1) is down, so (1, 1) comes back with its cursor for
  // (0, 2)'s queries one below (0, 2)'s counter. The second rejoin must
  // take the counter back from (1, 1)'s ring. Then (1, 2) crashes, and
  // (0, 2), whose restart emptied its address cache, needs (1, 1)'s answer.
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  Replica& asker = c.sys.replica(0, 2);
  c.sim.spawn([](Cluster& cl, Client& cli, Replica& v) -> Task<void> {
    auto restart_asker = [&]() -> Task<void> {
      v.node().crash();
      co_await cl.sim.sleep(us(100));
      cl.sys.restart_replica(0, 2);
      while (v.rejoining()) co_await cl.sim.sleep(us(10));
    };
    co_await run_transfer(cl, cli, 0, 1, 10);
    co_await run_transfer(cl, cli, 0, 3, 10);
    cl.sys.replica(1, 1).node().crash();
    co_await restart_asker();
    co_await run_transfer(cl, cli, 0, 1, 10);  // only (0, 2) queries
    cl.sys.restart_replica(1, 1);
    while (cl.sys.replica(1, 1).rejoining()) co_await cl.sim.sleep(us(10));
    co_await restart_asker();
    cl.sys.replica(1, 2).node().crash();
    co_await run_transfer(cl, cli, 0, 3, 10);
    co_await run_transfer(cl, cli, 0, 5, 10);
  }(c, client, asker));
  c.sim.run_for(sim::ms(50));

  EXPECT_EQ(client.completed(), 5u);
  EXPECT_EQ(asker.last_executed(), c.sys.replica(0, 0).last_executed());
  EXPECT_EQ(testapp::stored_balance(asker, 0), 950);
}

// --- laggers and state transfer -------------------------------------------

TEST(HeronCoreLagger, HoggedReplicaCatchesUpViaStateTransfer) {
  // Make replica (0, 2) fall behind by hogging its CPU while the rest of
  // the system keeps executing multi-partition transfers that repeatedly
  // update the same objects. When it resumes and executes an old request,
  // its remote reads find only post-dated versions -> it must request a
  // state transfer and skip the covered requests.
  Cluster c(2, 3);
  auto& client = c.sys.add_client();

  c.sim.spawn([](Cluster& cl) -> Task<void> {
    // Hog starts immediately and lasts 3ms.
    co_await cl.sys.replica(0, 2).node().cpu().use(sim::ms(3));
  }(c));

  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    for (int i = 0; i < 40; ++i) {
      co_await run_transfer(cl, cli, 0, 1, 1);   // p0 <-> p1
      co_await run_transfer(cl, cli, 1, 0, 1);   // p1 <-> p0
    }
  }(c, client));

  c.sim.run_for(sim::ms(100));
  ASSERT_EQ(client.completed(), 80u);

  auto& lagger = c.sys.replica(0, 2);
  EXPECT_GE(lagger.state_transfers(), 1u)
      << "hogged replica never detected lagging";
  EXPECT_GT(lagger.skipped_count(), 0u);
  // After the transfer it converged to its peers.
  c.expect_replicas_converged();
  EXPECT_EQ(c.total_balance(0), 2 * 8 * 1000);
  EXPECT_EQ(c.total_balance(2), 2 * 8 * 1000);

  // Some peer served the transfer.
  const auto served = c.sys.replica(0, 0).transfers_served() +
                      c.sys.replica(0, 1).transfers_served();
  EXPECT_GE(served, 1u);
}

TEST(HeronCoreLagger, WaitForAllStatsAreCollected) {
  Cluster c(2, 3);
  auto& client = c.sys.add_client();
  c.sim.spawn([](Cluster& cl, Client& cli) -> Task<void> {
    for (int i = 0; i < 30; ++i) co_await run_transfer(cl, cli, 0, 1, 1);
  }(c, client));
  c.sim.run_for(sim::ms(60));

  const auto& stats = c.sys.replica(0, 0).coord_stats();
  EXPECT_EQ(stats.multi_partition, 30u);
  // delayed <= total; fractions well-formed.
  EXPECT_LE(stats.delayed, stats.multi_partition);
  EXPECT_GE(stats.delayed_fraction(), 0.0);
  EXPECT_LE(stats.delayed_fraction(), 1.0);
}


// --- sessions ------------------------------------------------------------

/// The members of `w` at or above its floor, ascending.
std::vector<std::uint64_t> above_seqs(const sim::SeqWindow& w) {
  std::vector<std::uint64_t> out;
  w.for_each_above([&out](std::uint64_t seq) { out.push_back(seq); });
  return out;
}

TEST(HeronSession, InclusiveWatermarkIgnoresSeqZero) {
  Replica::Session s;
  EXPECT_EQ(s.watermark(), 0u);
  EXPECT_FALSE(s.executed(0));
  s.mark(0);  // sessionless: never recorded
  EXPECT_FALSE(s.executed(0));
  EXPECT_EQ(s.watermark(), 0u);
  s.mark(1);
  EXPECT_EQ(s.watermark(), 1u);
  s.mark(3);
  EXPECT_EQ(s.watermark(), 1u);
  EXPECT_TRUE(s.executed(3));
  EXPECT_FALSE(s.executed(2));
  s.mark(2);
  EXPECT_EQ(s.watermark(), 3u);
  EXPECT_EQ(above_seqs(s.seqs).size(), 0u);
}

TEST(HeronSession, MergeIsAUnionAndKeepsTheNewerReply) {
  Replica::Session mine;
  for (const std::uint64_t seq : {1u, 2u, 5u, 9u}) mine.mark(seq);
  mine.cached_seq = 9;
  mine.cached_reply = Reply{7, {std::byte{9}}};
  mine.last_tmp = 40;

  Replica::Session theirs;
  for (const std::uint64_t seq : {1u, 2u, 3u, 4u, 6u, 12u}) theirs.mark(seq);
  theirs.cached_seq = 12;
  theirs.cached_reply = Reply{8, {std::byte{12}}};
  theirs.reply_paged_out = true;
  theirs.last_tmp = 30;
  theirs.last_active = 777;

  mine.merge(std::move(theirs));
  EXPECT_EQ(mine.watermark(), 6u);  // 1..6 from the two halves
  std::vector<std::uint64_t> above;
  mine.seqs.for_each_above(
      [&above](std::uint64_t seq) { above.push_back(seq); });
  EXPECT_EQ(above, (std::vector<std::uint64_t>{9, 12}));
  EXPECT_EQ(mine.cached_seq, 12u);
  EXPECT_EQ(mine.cached_reply.status, 8u);
  EXPECT_TRUE(mine.reply_paged_out);
  EXPECT_EQ(mine.last_tmp, 40u);
  EXPECT_EQ(mine.last_active, 777);
}

/// The record value append_session writes for `s`.
std::vector<std::byte> encode_session(const Replica::Session& s,
                                      const Reply* paged_in = nullptr) {
  durable::RecordBuffer buf;
  append_session(buf, 9, s, paged_in);
  const durable::RecordView rec = buf[0];
  EXPECT_EQ(rec.kind, durable::kRecordSession);
  EXPECT_EQ(rec.id, 9u);
  EXPECT_EQ(rec.tmp, s.last_tmp);
  return {rec.value.begin(), rec.value.end()};
}

TEST(HeronSession, EncodeSessionBytesAreUnchanged) {
  // Golden bytes of the session wire form shared by state transfer,
  // migration copy and checkpoints: {u64 watermark, u64 cached_seq, u64
  // last_tmp, u32 status, u32 cached_len, u32 extra_count, u32 paged_out},
  // the cached payload, then extra_count u64 words of the executed-seq
  // window (bit i of word w is seq ((watermark + 1) & ~63) + 64w + i, the
  // bits below the floor set), little-endian.
  Replica::Session s;
  for (const std::uint64_t seq : {1u, 2u, 70u, 5u, 200u}) s.mark(seq);
  s.cached_seq = 200;
  s.cached_reply =
      Reply{7, {std::byte{0xaa}, std::byte{0xbb}, std::byte{0xcc}}};
  s.last_tmp = 99;
  s.last_active = 123456;  // local clock: stays off the wire

  const std::vector<std::uint8_t> golden = {
      2,    0,    0,    0,    0, 0, 0, 0,  // watermark
      200,  0,    0,    0,    0, 0, 0, 0,  // cached_seq
      99,   0,    0,    0,    0, 0, 0, 0,  // last_tmp
      7,    0,    0,    0,                 // cached status
      3,    0,    0,    0,                 // cached_len
      4,    0,    0,    0,                 // extra_count: window words
      0,    0,    0,    0,                 // paged_out
      0xaa, 0xbb, 0xcc,                    // cached payload
      0x27, 0,    0,    0,    0, 0, 0, 0,  // seqs 0-2 (below floor), 5
      0x40, 0,    0,    0,    0, 0, 0, 0,  // seq 70
      0,    0,    0,    0,    0, 0, 0, 0,  // seqs 128-191: none
      0,    1,    0,    0,    0, 0, 0, 0};  // seq 200
  const std::vector<std::byte> bytes = encode_session(s);
  ASSERT_EQ(bytes.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(std::to_integer<std::uint8_t>(bytes[i]), golden[i])
        << "byte " << i;
  }

  const Replica::Session back = decode_session(bytes);
  EXPECT_EQ(back.watermark(), 2u);
  EXPECT_TRUE(back.seqs == s.seqs);
  EXPECT_EQ(back.cached_seq, 200u);
  EXPECT_EQ(back.cached_reply.payload, s.cached_reply.payload);
  EXPECT_EQ(encode_session(back), bytes);

  // A paged-out session encodes with the reply fetched back from the
  // device standing in for its cached one, and says it is in memory.
  Replica::Session paged = s;
  paged.cached_reply.payload.clear();
  paged.reply_paged_out = true;
  EXPECT_EQ(encode_session(paged)[36], std::byte{1});  // paged_out
  EXPECT_EQ(encode_session(paged, &s.cached_reply), bytes);

  // The floor's own bit set marks a corrupt blob: empty session.
  std::vector<std::byte> corrupt = bytes;
  corrupt[43] |= std::byte{0x08};  // seq 3 = the floor
  const Replica::Session bad = decode_session(corrupt);
  EXPECT_EQ(bad.watermark(), 0u);
  EXPECT_EQ(above_seqs(bad.seqs).size(), 0u);
  EXPECT_EQ(bad.cached_seq, 0u);

  // Nothing executed above the watermark: no words at all.
  Replica::Session dense;
  for (std::uint64_t seq = 1; seq <= 100; ++seq) dense.mark(seq);
  const std::vector<std::byte> dense_bytes = encode_session(dense);
  EXPECT_EQ(dense_bytes.size(), 40u);
  EXPECT_EQ(dense_bytes[32], std::byte{0});  // extra_count
  EXPECT_EQ(decode_session(dense_bytes).watermark(), 100u);
}

/// decode_session(encode(s)) holds exactly s's window, and re-encodes to
/// the same bytes.
void expect_round_trip(const Replica::Session& s) {
  const std::vector<std::byte> bytes = encode_session(s);
  const Replica::Session back = decode_session(bytes);
  EXPECT_TRUE(back.seqs == s.seqs);
  EXPECT_EQ(back.watermark(), s.watermark());
  EXPECT_EQ(above_seqs(back.seqs), above_seqs(s.seqs));
  EXPECT_EQ(back.seqs.end(), s.seqs.end());
  for (std::uint64_t seq = 0; seq < s.seqs.end() + 70; ++seq) {
    ASSERT_EQ(back.executed(seq), s.executed(seq)) << "seq " << seq;
  }
  EXPECT_EQ(encode_session(back), bytes);
}

TEST(HeronSession, WindowWordsRoundTripAgainstSeqWindow) {
  // Floors either side of a word boundary, with and without members
  // above them.
  for (const std::uint64_t floor : {63u, 64u, 65u}) {
    Replica::Session s;
    s.seqs = sim::SeqWindow(floor);
    expect_round_trip(s);  // empty above-set
    EXPECT_EQ(encode_session(s).size(), 40u);
    s.mark(floor + 1);
    expect_round_trip(s);
    s.mark(floor + 64 * 70);  // a gap of more than 64 words
    s.mark(floor + 64 * 70 + 63);
    expect_round_trip(s);
    s.mark(floor);  // closes the floor: the window slides
    expect_round_trip(s);
  }

  // Random windows: a stalled floor with a random member density above it.
  sim::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    Replica::Session s;
    const std::uint64_t start = 1 + rng.next() % 300;
    for (std::uint64_t seq = 1; seq < start; ++seq) s.mark(seq);
    const std::uint64_t span = 1 + rng.next() % 2000;
    const std::uint64_t density = 1 + rng.next() % 8;
    for (std::uint64_t k = 0; k < span; ++k) {
      const std::uint64_t seq = start + 1 + rng.next() % span;
      if (rng.next() % density == 0) s.mark(seq);
    }
    expect_round_trip(s);
  }
}

TEST(HeronSession, MalformedWindowWordsDecodeToAnEmptySession) {
  Replica::Session s;
  for (const std::uint64_t seq : {1u, 2u, 3u, 9u, 80u}) s.mark(seq);
  const std::vector<std::byte> bytes = encode_session(s);  // floor 4
  ASSERT_EQ(bytes.size(), 40u + 16u);
  ASSERT_EQ(decode_session(bytes).watermark(), 3u);

  auto expect_empty = [](std::span<const std::byte> blob) {
    const Replica::Session bad = decode_session(blob);
    EXPECT_EQ(bad.watermark(), 0u);
    EXPECT_EQ(above_seqs(bad.seqs).size(), 0u);
    EXPECT_EQ(bad.cached_seq, 0u);
    EXPECT_FALSE(bad.executed(1));
  };
  std::vector<std::byte> floor_bit = bytes;
  floor_bit[40] |= std::byte{0x10};  // seq 4, the floor
  expect_empty(floor_bit);
  std::vector<std::byte> hole_below = bytes;
  hole_below[40] &= ~std::byte{0x04};  // seq 2, below the floor
  expect_empty(hole_below);
  expect_empty(std::span(bytes).first(bytes.size() - 1));  // truncated word
  std::vector<std::byte> extra_word = bytes;
  extra_word[32] = std::byte{3};  // declares a word the blob lacks
  expect_empty(extra_word);
}

TEST(HeronSession, RotatingSessionEncodesInWindowWordsNotSeqs) {
  // A client's seqs rotate over 4 partitions; this one executes every
  // fourth, so its floor stalls at the first seq sent elsewhere.
  constexpr std::uint64_t kCommands = 4000;
  Replica::Session s;
  s.cached_reply = Reply{0, std::vector<std::byte>(24, std::byte{1})};
  for (std::uint64_t seq = 2; seq <= kCommands; seq += 4) s.mark(seq);
  ASSERT_EQ(s.watermark(), 0u);
  ASSERT_EQ(above_seqs(s.seqs).size(), kCommands / 4);

  const std::size_t header = encode_session(Replica::Session{}).size();
  const std::uint64_t span = s.seqs.end() - (s.seqs.floor() & ~63ull);
  const std::size_t bound =
      header + s.cached_reply.payload.size() + 8 * ((span + 63) / 64);
  const std::vector<std::byte> bytes = encode_session(s);
  EXPECT_LE(bytes.size(), bound);
  expect_round_trip(s);
}

/// A delivered command of `client`'s session, as the session table sees it.
Request session_cmd(std::uint32_t client, std::uint64_t seq, Tmp tmp) {
  Request r;
  r.uid = amcast::make_uid(client, static_cast<std::uint32_t>(tmp));
  r.tmp = tmp;
  r.header.session_seq = seq;
  return r;
}

TEST(SessionTable, PagedOutReplyAnswersOnlyItsOwnSeq) {
  SessionTable t;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    t.mark(session_cmd(3, seq, seq * 10), 0);
  }
  t.cache_reply(session_cmd(3, 5, 50), Reply{7, {std::byte{1}}});
  t.compact(/*w=*/50, /*now=*/0, /*ttl=*/0);  // pages the reply out

  const Request retry = session_cmd(3, 5, 60);
  const Request stale = session_cmd(3, 4, 61);  // executed, not cached
  EXPECT_TRUE(t.executed(retry));
  EXPECT_TRUE(t.executed(stale));
  EXPECT_TRUE(t.paged_out(retry));
  EXPECT_EQ(t.cached(retry), nullptr);
  EXPECT_FALSE(t.paged_out(stale));
  EXPECT_EQ(t.cached(stale), nullptr);

  // Re-caching the reply paged back in answers the retry from memory.
  t.cache_reply(retry, Reply{7, {std::byte{1}}});
  ASSERT_NE(t.cached(retry), nullptr);
  EXPECT_EQ(t.cached(retry)->status, 7u);
  EXPECT_FALSE(t.paged_out(retry));
  EXPECT_EQ(t.cached(stale), nullptr);
}

TEST(SessionTable, TtlTombstoneFloorIsHighestExecutedOrCachedSeq) {
  SessionTable t;
  // Client 1 executed up to seq 7 and caches seq 5; client 2's cached seq
  // 9 lies above everything its window holds (a merged session).
  for (const std::uint64_t seq : {1u, 2u, 5u, 7u}) {
    t.mark(session_cmd(1, seq, 10), 0);
  }
  t.cache_reply(session_cmd(1, 5, 10), Reply{});
  t.mark(session_cmd(2, 1, 10), 0);
  t.cache_reply(session_cmd(2, 9, 10), Reply{});
  // Client 3 is idle but not covered by the checkpoint watermark.
  t.mark(session_cmd(3, 1, 99), 0);

  EXPECT_EQ(t.compact(/*w=*/50, /*now=*/1000, /*ttl=*/100), 2u);
  EXPECT_EQ(t.entries().size(), 1u);
  EXPECT_TRUE(t.tombstoned(session_cmd(1, 7, 200)));
  EXPECT_FALSE(t.tombstoned(session_cmd(1, 8, 200)));
  EXPECT_TRUE(t.tombstoned(session_cmd(2, 9, 200)));
  EXPECT_FALSE(t.tombstoned(session_cmd(2, 10, 200)));
  EXPECT_FALSE(t.tombstoned(session_cmd(1, 0, 200)));  // sessionless
  EXPECT_FALSE(t.tombstoned(session_cmd(3, 1, 200)));

  // A tombstone record below the floor does not lower it.
  durable::RecordBuffer buf;
  buf.append(durable::kRecordTombstone, 0, 1, 3, 0);
  t.install(buf[0], /*merge=*/false, 0);
  EXPECT_TRUE(t.tombstoned(session_cmd(1, 7, 200)));
}

TEST(SessionTable, RecordsSizeIsWhatAppendRecordsAppends) {
  SessionTable t;
  // Clients 1-4 with replies of different lengths; 2 and 3 stall their
  // floors (window words); 1 and 2 go idle below the checkpoint at 50
  // and have their replies paged out; client 9 leaves a tombstone.
  for (std::uint32_t c = 1; c <= 4; ++c) {
    const Tmp tmp = c <= 2 ? 10 * c : 100 * c;
    for (std::uint64_t seq = 1; seq <= 3 * c; seq += c % 2 == 0 ? 2 : 1) {
      t.mark(session_cmd(c, seq, tmp), 0);
    }
    t.cache_reply(session_cmd(c, 3 * c, tmp),
                  Reply{c, std::vector<std::byte>(7 * c, std::byte{1})});
  }
  t.mark(session_cmd(9, 1, 5), 0);
  t.compact(/*w=*/50, /*now=*/1000, /*ttl=*/0);
  t.compact(/*w=*/9, /*now=*/1000, /*ttl=*/1);  // evicts client 9
  const std::map<std::uint32_t, Reply> paged_in{
      {1, Reply{1, std::vector<std::byte>(33, std::byte{2})}}};

  for (const Tmp after : {Tmp{0}, Tmp{15}, Tmp{50}}) {
    for (const auto* paged : {&paged_in, static_cast<decltype(&paged_in)>(
                                              nullptr)}) {
      durable::RecordBuffer out;
      t.append_records(out, after, paged);
      const auto [records, value_bytes] = t.records_size(after, paged);
      EXPECT_EQ(records, out.size()) << after;
      EXPECT_EQ(value_bytes, out.value_bytes()) << after;

      // Reserved exactly, the encoder never reallocates.
      durable::RecordBuffer reserved;
      reserved.append(durable::kRecordObject, 0, 1, 1, 5);
      reserved.reserve(records, value_bytes);
      const std::byte* data = reserved.encoded(0, 1).data();
      t.append_records(reserved, after, paged);
      EXPECT_EQ(reserved.encoded(0, 1).data(), data) << after;
    }
  }
}

TEST(UpdateLog, EachDropPathRaisesTheFloor) {
  UpdateLog log(/*capacity=*/3);
  log.append(10, 1);
  log.append(20, 2);
  log.append(20, 3);
  EXPECT_EQ(log.floor(), 0u);
  log.append(30, 4);  // capacity pop of (10, 1)
  EXPECT_EQ(log.floor(), 10u);
  EXPECT_FALSE(log.complete_after(9));
  ASSERT_EQ(log.entries().size(), 3u);
  EXPECT_EQ(log.entries().front().oid, 2u);

  log.drop_through(25);  // checkpoint truncation: drops both tmp-20s
  EXPECT_EQ(log.floor(), 20u);  // the highest dropped tmp, not 25
  ASSERT_EQ(log.entries().size(), 1u);

  log.skip_through(35);  // a transfer installed updates through 35
  EXPECT_EQ(log.floor(), 35u);
  EXPECT_FALSE(log.complete_after(30));
  ASSERT_EQ(log.entries().size(), 1u);

  log.wipe(50);  // restart: the floor rises to the watermark
  EXPECT_EQ(log.floor(), 50u);
  EXPECT_TRUE(log.entries().empty());
  log.wipe(40);
  EXPECT_EQ(log.floor(), 50u);
}

TEST(UpdateLog, OidsAfterKeepFirstOccurrenceOrderAboveTheBoundary) {
  UpdateLog log(/*capacity=*/16);
  log.append(10, 7);
  log.append(10, 8);
  log.append(20, 7);
  log.append(30, 9);
  log.append(30, 8);
  EXPECT_EQ(log.oids_after(5), (std::vector<Oid>{7, 8, 9}));
  EXPECT_EQ(log.oids_after(10), (std::vector<Oid>{7, 9, 8}));
  EXPECT_EQ(log.oids_after(30), std::vector<Oid>{});

  // held_through boundary: a delta that already holds tmp 20 needs only
  // what lies above it; one that failed at 20 needs 20 itself (after 19).
  log.drop_through(20);
  EXPECT_TRUE(log.complete_after(20));
  EXPECT_FALSE(log.complete_after(19));
  EXPECT_EQ(log.oids_after(20), (std::vector<Oid>{9, 8}));
}

}  // namespace
}  // namespace heron::core
