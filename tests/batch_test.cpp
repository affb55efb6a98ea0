// Tests for leader-side batching in the atomic multicast: the multicast
// properties must be bit-for-bit preserved with max_batch > 1 (batching
// only amortizes software costs), including across leader failover, BUSY
// shedding, duplicate suppression, and partial batches flushed by the
// batch timeout.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "amcast/system.hpp"
#include "rdma/fabric.hpp"
#include "rdma/pod.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace heron::amcast {
namespace {

using sim::Nanos;
using sim::Simulator;
using sim::Task;
using sim::us;

struct DeliveryLog {
  std::map<std::pair<GroupId, int>, std::vector<Delivery>> by_replica;

  void attach(Simulator& sim, System& sys) {
    for (GroupId g = 0; g < sys.group_count(); ++g) {
      for (int r = 0; r < sys.replicas_per_group(); ++r) {
        sim.spawn(consume(sys.endpoint(g, r), by_replica[{g, r}]));
      }
    }
  }

  // Consumes via the span path so the tests exercise the pipelined
  // delivery interface the application uses.
  static Task<void> consume(Endpoint& ep, std::vector<Delivery>& out) {
    while (true) {
      std::vector<Delivery> span = co_await ep.next_deliveries();
      for (Delivery& d : span) out.push_back(d);
    }
  }

  [[nodiscard]] std::set<MsgUid> uids_at(GroupId g, int r) const {
    std::set<MsgUid> out;
    auto it = by_replica.find({g, r});
    if (it == by_replica.end()) return out;
    for (const auto& d : it->second) out.insert(d.uid);
    return out;
  }
};

struct Cluster {
  Simulator sim;
  rdma::Fabric fabric;
  System sys;
  DeliveryLog log;

  Cluster(int groups, int replicas, Config cfg = {},
          std::uint64_t fabric_seed = 1234)
      : fabric(sim, rdma::LatencyModel{}, fabric_seed),
        sys(fabric, groups, replicas, cfg) {
    sys.start();
    log.attach(sim, sys);
  }
};

Config batching_config(std::uint32_t max_batch = 8,
                       Nanos batch_timeout = us(20)) {
  Config cfg;
  cfg.max_batch = max_batch;
  cfg.batch_timeout = batch_timeout;
  return cfg;
}

/// Spawns `clients` closed-ish loops sending `per_client` messages each,
/// bursty enough that the leader's propose queue actually builds batches.
void spawn_workload(Cluster& c, int clients, int per_client,
                    std::uint64_t seed,
                    std::vector<std::pair<MsgUid, DstMask>>& sent) {
  const int groups = c.sys.group_count();
  for (int i = 0; i < clients; ++i) {
    auto& client = c.sys.add_client();
    c.sim.spawn([](Simulator& sim, ClientEndpoint& cl, int idx,
                   std::uint64_t sd, int n, int ngroups,
                   std::vector<std::pair<MsgUid, DstMask>>& sent_log)
                    -> Task<void> {
      sim::Rng rng(sd + static_cast<std::uint64_t>(idx) * 7919);
      for (int k = 0; k < n; ++k) {
        DstMask dst = 0;
        if (rng.bounded(10) < 3 && ngroups > 1) {
          const auto a = static_cast<GroupId>(
              rng.bounded(static_cast<std::uint64_t>(ngroups)));
          auto b = static_cast<GroupId>(
              rng.bounded(static_cast<std::uint64_t>(ngroups)));
          if (b == a) b = static_cast<GroupId>((a + 1) % ngroups);
          dst = dst_of(a) | dst_of(b);
        } else {
          dst = dst_of(static_cast<GroupId>(
              rng.bounded(static_cast<std::uint64_t>(ngroups))));
        }
        std::uint32_t v = static_cast<std::uint32_t>(k);
        const MsgUid uid =
            co_await cl.multicast(dst, std::as_bytes(std::span(&v, 1)));
        sent_log.emplace_back(uid, dst);
        // Burst 8, then breathe: keeps the inbox rings within capacity
        // while still piling arrivals onto the leader between proposals.
        if (k % 8 == 7) co_await sim.sleep(us(200));
      }
    }(c.sim, client, i, seed, per_client, groups, sent));
  }
}

void check_properties(Cluster& c,
                      const std::vector<std::pair<MsgUid, DstMask>>& sent) {
  const int groups = c.sys.group_count();
  const int replicas = c.sys.replicas_per_group();

  // Validity at every correct destination replica.
  for (const auto& [uid, dst] : sent) {
    for (GroupId g = 0; g < groups; ++g) {
      if (!dst_contains(dst, g)) continue;
      for (int r = 0; r < replicas; ++r) {
        if (!c.sys.endpoint(g, r).node().alive()) continue;
        EXPECT_TRUE(c.log.uids_at(g, r).contains(uid))
            << "uid " << uid << " missing at group " << g << " rank " << r;
      }
    }
  }

  // Integrity, timestamp consistency, timestamp-ordered delivery.
  std::map<MsgUid, std::uint64_t> ts_of;
  for (const auto& [key, seq] : c.log.by_replica) {
    std::set<MsgUid> seen_here;
    for (const auto& d : seq) {
      EXPECT_TRUE(seen_here.insert(d.uid).second)
          << "duplicate delivery of " << d.uid;
      EXPECT_TRUE(dst_contains(d.dst, key.first))
          << "delivered outside destination set";
      auto [it, inserted] = ts_of.emplace(d.uid, d.tmp);
      if (!inserted) {
        EXPECT_EQ(it->second, d.tmp);
      }
    }
    for (size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1].tmp, seq[i].tmp);
    }
  }

  // Uniform agreement within each group.
  for (GroupId g = 0; g < groups; ++g) {
    const std::vector<Delivery>* longest = nullptr;
    for (int r = 0; r < replicas; ++r) {
      const auto& seq = c.log.by_replica[{g, r}];
      if (!longest || seq.size() > longest->size()) longest = &seq;
    }
    for (int r = 0; r < replicas; ++r) {
      const auto& seq = c.log.by_replica[{g, r}];
      if (c.sys.endpoint(g, r).node().alive()) {
        ASSERT_EQ(seq.size(), longest->size())
            << "correct replica behind in group " << g;
      }
      for (size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].uid, (*longest)[i].uid)
            << "group " << g << " rank " << r << " diverges at " << i;
      }
    }
  }
}

TEST(Batch, PropertiesHoldWithBatching) {
  Cluster c(2, 3, batching_config());
  c.fabric.telemetry().metrics.enable(true);
  std::vector<std::pair<MsgUid, DstMask>> sent;
  spawn_workload(c, /*clients=*/6, /*per_client=*/25, /*seed=*/41, sent);
  c.sim.run_for(sim::ms(60));

  ASSERT_EQ(sent.size(), 6u * 25u);
  check_properties(c, sent);

  // The workload is bursty enough that batches of more than one message
  // actually formed — otherwise this test checks nothing new.
  auto& hist = c.fabric.telemetry().metrics.histogram(
      "amcast", "batch_size", "g0.r0", {1, 2, 4, 8, 16, 32, 64});
  EXPECT_GT(hist.count(), 0u);
  EXPECT_GT(hist.max(), 1);
}

TEST(Batch, LeaderCrashMidBatchFailsOver) {
  // Crash the group-0 leader while batches are in flight: the new leader
  // must recover or re-propose every in-flight message, record-granular,
  // and the surviving replicas must still satisfy all properties.
  Cluster c(2, 3, batching_config());
  std::vector<std::pair<MsgUid, DstMask>> sent;
  spawn_workload(c, /*clients=*/6, /*per_client=*/25, /*seed=*/42, sent);
  c.sim.schedule(sim::ms(1), [&c] { c.sys.endpoint(0, 0).node().crash(); });
  c.sim.run_for(sim::ms(60));

  check_properties(c, sent);
  EXPECT_NE(c.sys.endpoint(0, 1).current_leader(), 0);
}

TEST(Batch, TimeoutFlushesPartialBatch) {
  // A lone client cannot fill max_batch = 8; the batch timeout must flush
  // the partial batch instead of holding it forever.
  Cluster c(1, 3, batching_config(8, us(50)));
  auto& client = c.sys.add_client();
  c.sim.spawn([](Simulator& sim, ClientEndpoint& cl) -> Task<void> {
    for (int k = 0; k < 3; ++k) {
      std::uint32_t v = static_cast<std::uint32_t>(k);
      co_await cl.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
      co_await sim.sleep(us(300));
    }
  }(c.sim, client));
  c.sim.run_for(sim::ms(5));

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ((c.log.by_replica[{0, r}].size()), 3u) << "replica " << r;
  }
}

TEST(Batch, SheddingAgreesAcrossReplicasUnderBatching) {
  // Admission accounting moved to batch granularity; the BUSY contract is
  // unchanged: every replica of every destination sees the same per-uid
  // shed verdict, under a burst that overruns the window.
  Config cfg = batching_config();
  cfg.admission_window = 4;
  Cluster c(2, 3, cfg);
  std::vector<std::pair<MsgUid, DstMask>> sent;
  spawn_workload(c, /*clients=*/6, /*per_client=*/20, /*seed=*/43, sent);
  c.sim.run_for(sim::ms(60));

  check_properties(c, sent);

  std::map<MsgUid, bool> shed_of;
  std::size_t shed_count = 0;
  for (const auto& [key, seq] : c.log.by_replica) {
    for (const auto& d : seq) {
      auto [it, inserted] = shed_of.emplace(d.uid, d.shed);
      if (inserted) {
        shed_count += d.shed ? 1 : 0;
      } else {
        EXPECT_EQ(it->second, d.shed)
            << "shed verdict diverges for uid " << d.uid;
      }
    }
  }
  EXPECT_GT(shed_count, 0u) << "burst never overran the admission window";
  EXPECT_LT(shed_count, shed_of.size()) << "everything was shed";
}

TEST(Batch, DuplicateInboxWriteDeliveredOnce) {
  // A client retry re-writes the same uid into a later inbox slot. With
  // batching the leader must still propose and deliver it exactly once.
  Cluster c(1, 3, batching_config());
  auto& client = c.sys.add_client();

  WireMessage msg;
  msg.uid = make_uid(0, 1);
  msg.dst = dst_of(0);
  const std::vector<std::uint8_t> payload{5};
  msg.set_payload(std::as_bytes(std::span(payload)));

  c.sim.spawn([](Cluster& cl, ClientEndpoint& from,
                 WireMessage m) -> Task<void> {
    for (std::uint64_t ring_seq = 1; ring_seq <= 2; ++ring_seq) {
      m.ring_seq = ring_seq;
      for (int r = 0; r < 3; ++r) {
        Endpoint& ep = cl.sys.endpoint(0, r);
        cl.fabric.write_async(
            from.node().id(),
            rdma::RAddr{ep.node().id(), ep.inbox_mr(),
                        ep.inbox_slot_offset(0, ring_seq)},
            rdma::pod_bytes(m));
      }
      co_await cl.sim.sleep(us(500));
    }
  }(c, client, msg));
  c.sim.run_for(sim::ms(5));

  for (int r = 0; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), 1u) << "replica " << r;
    EXPECT_EQ(seq[0].uid, make_uid(0, 1));
  }
}

TEST(Batch, SameSeedRunsAreDeterministic) {
  // Two independent clusters, same seeds, same workload: the per-replica
  // delivery sequences (uid and timestamp) must match exactly.
  auto run = [](std::map<std::pair<GroupId, int>,
                         std::vector<std::pair<MsgUid, std::uint64_t>>>& out) {
    Cluster c(2, 3, batching_config(), /*fabric_seed=*/777);
    std::vector<std::pair<MsgUid, DstMask>> sent;
    spawn_workload(c, /*clients=*/4, /*per_client=*/15, /*seed=*/44, sent);
    c.sim.run_for(sim::ms(40));
    for (const auto& [key, seq] : c.log.by_replica) {
      for (const auto& d : seq) out[key].emplace_back(d.uid, d.tmp);
    }
  };
  std::map<std::pair<GroupId, int>,
           std::vector<std::pair<MsgUid, std::uint64_t>>> a, b;
  run(a);
  run(b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace heron::amcast
