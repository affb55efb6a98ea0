// Tests for the atomic multicast substrate. These validate, empirically,
// the five properties Heron consumes (§II-B of the paper) plus timestamp
// uniqueness/monotonicity, under single- and multi-group workloads, and
// under leader failover.
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
  // per (group, rank): the sequence of deliveries
  std::map<std::pair<GroupId, int>, std::vector<Delivery>> by_replica;

  void attach(Simulator& sim, System& sys) {
    for (GroupId g = 0; g < sys.group_count(); ++g) {
      for (int r = 0; r < sys.replicas_per_group(); ++r) {
        sim.spawn(consume(sys.endpoint(g, r), by_replica[{g, r}]));
      }
    }
  }

  static Task<void> consume(Endpoint& ep, std::vector<Delivery>& out) {
    while (true) {
      const std::vector<Delivery> span = co_await ep.next_deliveries();
      out.insert(out.end(), span.begin(), span.end());
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

  Cluster(int groups, int replicas, Config cfg = {})
      : fabric(sim, rdma::LatencyModel{}, /*seed=*/1234),
        sys(fabric, groups, replicas, cfg) {
    sys.start();
    log.attach(sim, sys);
  }
};

// --- encoding regression tests ---------------------------------------

TEST(AmcastTypes, UidEncodingNeverCollidesWithSentinel) {
  // uid 0 is the inbox empty-slot / stale-waiter sentinel. The unbiased
  // encoding mapped (client 0, seq 0) onto it, silently dropping that
  // message; the biased encoding must keep every valid pair nonzero.
  EXPECT_NE(make_uid(0, 0), MsgUid{0});

  // Round-trips, including the corners.
  const std::pair<std::uint32_t, std::uint32_t> cases[] = {
      {0, 0}, {0, 1}, {0, 0xffffffffu}, {1, 0}, {17, 42},
      {0xfffffffeu, 0}, {0xfffffffeu, 0xffffffffu}};
  for (const auto& [client, seq] : cases) {
    const MsgUid uid = make_uid(client, seq);
    EXPECT_NE(uid, MsgUid{0}) << client << "," << seq;
    EXPECT_EQ(uid_client(uid), client);
    EXPECT_EQ(uid_seq(uid), seq);
  }

  // The bias preserves per-client uid order.
  EXPECT_LT(make_uid(3, 5), make_uid(3, 6));
  EXPECT_LT(make_uid(3, 0xffffffffu), make_uid(4, 0));
}

TEST(AmcastTypes, PackTsBoundary) {
  // The largest representable clock packs exactly to the top of the
  // 64-bit range; anything below stays strictly monotone.
  EXPECT_EQ(pack_ts(kMaxTsClock, static_cast<GroupId>(kMaxGroups - 1)),
            ~std::uint64_t{0});
  EXPECT_EQ(ts_clock(pack_ts(kMaxTsClock, 5)), kMaxTsClock);
  EXPECT_EQ(ts_group(pack_ts(kMaxTsClock, 5)), 5);
  EXPECT_LT(pack_ts(kMaxTsClock - 1, static_cast<GroupId>(kMaxGroups - 1)),
            pack_ts(kMaxTsClock, 0));

#ifdef NDEBUG
  // Release builds saturate instead of silently wrapping: pre-fix,
  // pack_ts(kMaxTsClock + 1, 0) wrapped to a tiny value and broke
  // timestamp monotonicity.
  EXPECT_EQ(pack_ts(kMaxTsClock + 1, 0), pack_ts(kMaxTsClock, 0));
  EXPECT_GE(pack_ts(kMaxTsClock + 1, 5), pack_ts(kMaxTsClock, 0));
#else
  EXPECT_DEATH(pack_ts(kMaxTsClock + 1, 5), "kMaxTsClock");
#endif
}

TEST(Amcast, ClientZeroFirstSequenceIsDeliverable) {
  // End-to-end regression for the sentinel collision: a message carrying
  // uid make_uid(0, 0) written straight into the inbox rings must still
  // be ordered and delivered. Pre-fix its uid was 0, so the inbox scan
  // treated the slot as empty forever.
  Cluster c(1, 3);
  auto& client = c.sys.add_client();  // client id 0

  WireMessage msg;
  msg.uid = make_uid(0, 0);
  msg.ring_seq = 1;
  msg.dst = dst_of(0);
  const std::vector<std::uint8_t> payload{9, 8, 7};
  msg.set_payload(std::as_bytes(std::span(payload)));

  c.sim.spawn([](Cluster& cl, ClientEndpoint& from,
                 WireMessage m) -> Task<void> {
    for (int r = 0; r < 3; ++r) {
      Endpoint& ep = cl.sys.endpoint(0, r);
      cl.fabric.write_async(
          from.node().id(),
          rdma::RAddr{ep.node().id(), ep.inbox_mr(),
                      ep.inbox().offset(0, m.ring_seq)},
          rdma::pod_bytes(m));
    }
    co_return;
  }(c, client, msg));
  c.sim.run_for(sim::ms(5));

  for (int r = 0; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), 1u) << "replica " << r;
    EXPECT_EQ(seq[0].uid, make_uid(0, 0));
    EXPECT_EQ(seq[0].payload_len, 3u);
  }
}

// --- basic single-group behaviour ------------------------------------

TEST(Amcast, SingleGroupSingleMessageDeliversEverywhere) {
  Cluster c(1, 3);
  auto& client = c.sys.add_client();
  const std::vector<std::uint8_t> payload{1, 2, 3};

  c.sim.spawn([](ClientEndpoint& cl, const std::vector<std::uint8_t>& p)
                  -> Task<void> {
    co_await cl.multicast(dst_of(0), std::as_bytes(std::span(p)));
  }(client, payload));
  c.sim.run_for(sim::ms(5));

  for (int r = 0; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), 1u) << "replica " << r;
    EXPECT_EQ(seq[0].payload_len, 3u);
    EXPECT_EQ(static_cast<std::uint8_t>(seq[0].payload[1]), 2);
    EXPECT_EQ(seq[0].dst, dst_of(0));
  }
  // All replicas agree on the timestamp.
  EXPECT_EQ((c.log.by_replica[{0, 0}][0].tmp), (c.log.by_replica[{0, 1}][0].tmp));
  EXPECT_EQ((c.log.by_replica[{0, 0}][0].tmp), (c.log.by_replica[{0, 2}][0].tmp));
}

TEST(Amcast, SingleGroupOrdersManyClientsIdentically) {
  Cluster c(1, 3);
  constexpr int kClients = 8;
  constexpr int kPerClient = 20;
  for (int i = 0; i < kClients; ++i) {
    auto& client = c.sys.add_client();
    c.sim.spawn([](Simulator& sim, ClientEndpoint& cl) -> Task<void> {
      for (int k = 0; k < kPerClient; ++k) {
        std::uint32_t v = static_cast<std::uint32_t>(k);
        co_await cl.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
        co_await sim.sleep(us(30));  // pace below ring capacity
      }
    }(c.sim, client));
  }
  c.sim.run_for(sim::ms(20));

  const auto& seq0 = c.log.by_replica[{0, 0}];
  ASSERT_EQ(seq0.size(), static_cast<size_t>(kClients * kPerClient));
  for (int r = 1; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), seq0.size()) << "replica " << r;
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].uid, seq0[i].uid) << "divergence at " << i;
      EXPECT_EQ(seq[i].tmp, seq0[i].tmp);
    }
  }
}

TEST(Amcast, TimestampsStrictlyIncreaseInDeliveryOrder) {
  Cluster c(2, 3);
  for (int i = 0; i < 4; ++i) {
    auto& client = c.sys.add_client();
    c.sim.spawn([](Simulator& sim, ClientEndpoint& cl, int idx) -> Task<void> {
      sim::Rng rng(static_cast<std::uint64_t>(idx) + 99);
      for (int k = 0; k < 15; ++k) {
        const DstMask dst =
            (rng.bounded(3) == 0) ? (dst_of(0) | dst_of(1))
                                  : dst_of(static_cast<GroupId>(rng.bounded(2)));
        std::uint32_t v = static_cast<std::uint32_t>(k);
        co_await cl.multicast(dst, std::as_bytes(std::span(&v, 1)));
        co_await sim.sleep(us(40));
      }
    }(c.sim, client, i));
  }
  c.sim.run_for(sim::ms(20));

  for (const auto& [key, seq] : c.log.by_replica) {
    for (size_t i = 1; i < seq.size(); ++i) {
      EXPECT_LT(seq[i - 1].tmp, seq[i].tmp)
          << "group " << key.first << " rank " << key.second << " pos " << i;
    }
  }
}

// --- the real content: multi-group ordering properties ----------------

struct PropertyHarness {
  // Runs a randomized workload and then checks all properties.
  static void run(int groups, int replicas, int clients, int per_client,
                  std::uint64_t seed, bool crash_leader = false) {
    Config cfg;
    Cluster c(groups, replicas, cfg);
    std::vector<std::pair<MsgUid, DstMask>> sent;

    for (int i = 0; i < clients; ++i) {
      auto& client = c.sys.add_client();
      c.sim.spawn([](Simulator& sim, ClientEndpoint& cl, int idx,
                     std::uint64_t sd, int n, int ngroups,
                     std::vector<std::pair<MsgUid, DstMask>>& sent_log)
                      -> Task<void> {
        sim::Rng rng(sd + static_cast<std::uint64_t>(idx) * 7919);
        for (int k = 0; k < n; ++k) {
          DstMask dst = 0;
          // ~30% multi-group, like TPC-C's multi-partition share (scaled up)
          if (rng.bounded(10) < 3 && ngroups > 1) {
            const auto a = static_cast<GroupId>(rng.bounded(
                static_cast<std::uint64_t>(ngroups)));
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
          co_await sim.sleep(us(50));  // paced: rings never overrun
        }
      }(c.sim, client, i, seed, per_client, groups, sent));
    }

    if (crash_leader) {
      c.sim.schedule(sim::ms(1), [&c] {
        c.sys.endpoint(0, 0).node().crash();
      });
    }

    c.sim.run_for(sim::ms(60));
    check(c, sent, crash_leader);
  }

  static void check(Cluster& c,
                    const std::vector<std::pair<MsgUid, DstMask>>& sent,
                    bool crashed) {
    const int groups = c.sys.group_count();
    const int replicas = c.sys.replicas_per_group();

    // Validity: every multicast message is delivered by every correct
    // replica of every destination group.
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

    std::map<MsgUid, std::uint64_t> ts_of;
    for (const auto& [key, seq] : c.log.by_replica) {
      std::set<MsgUid> seen_here;
      for (const auto& d : seq) {
        // Integrity: at-most-once per replica, and only at destinations.
        EXPECT_TRUE(seen_here.insert(d.uid).second)
            << "duplicate delivery of " << d.uid;
        EXPECT_TRUE(dst_contains(d.dst, key.first))
            << "delivered outside destination set";
        // Timestamp consistency across all replicas.
        auto [it, inserted] = ts_of.emplace(d.uid, d.tmp);
        if (!inserted) {
          EXPECT_EQ(it->second, d.tmp);
        }
      }
      // Delivery in timestamp order (also implies uniform acyclic order:
      // the timestamp order is a global total order).
      for (size_t i = 1; i < seq.size(); ++i) {
        EXPECT_LT(seq[i - 1].tmp, seq[i].tmp);
      }
    }

    // Uniform agreement within each group: correct replicas of a group
    // deliver the same sequence (a crashed replica's log must be a prefix).
    for (GroupId g = 0; g < groups; ++g) {
      const std::vector<Delivery>* longest = nullptr;
      for (int r = 0; r < replicas; ++r) {
        const auto& seq = c.log.by_replica[{g, r}];
        if (!longest || seq.size() > longest->size()) longest = &seq;
      }
      for (int r = 0; r < replicas; ++r) {
        const auto& seq = c.log.by_replica[{g, r}];
        const bool alive = c.sys.endpoint(g, r).node().alive();
        if (alive) {
          ASSERT_EQ(seq.size(), longest->size())
              << "correct replica behind in group " << g;
        }
        for (size_t i = 0; i < seq.size(); ++i) {
          EXPECT_EQ(seq[i].uid, (*longest)[i].uid)
              << "group " << g << " rank " << r << " diverges at " << i;
        }
      }
    }

    // Uniform prefix order across groups follows from the shared unique
    // timestamps plus per-replica timestamp-ordered delivery, which we
    // asserted above.
    if (!crashed) {
      // Sanity: something actually ran.
      EXPECT_FALSE(sent.empty());
    }
  }
};

TEST(Amcast, PropertiesTwoGroups) {
  PropertyHarness::run(/*groups=*/2, /*replicas=*/3, /*clients=*/6,
                       /*per_client=*/25, /*seed=*/1);
}

TEST(Amcast, PropertiesFourGroups) {
  PropertyHarness::run(/*groups=*/4, /*replicas=*/3, /*clients=*/8,
                       /*per_client=*/20, /*seed=*/2);
}

TEST(Amcast, PropertiesFiveReplicasPerGroup) {
  PropertyHarness::run(/*groups=*/2, /*replicas=*/5, /*clients=*/6,
                       /*per_client=*/15, /*seed=*/3);
}

TEST(Amcast, PropertiesManySeeds) {
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    PropertyHarness::run(/*groups=*/3, /*replicas=*/3, /*clients=*/4,
                         /*per_client=*/12, seed);
  }
}

// --- failover ---------------------------------------------------------

TEST(AmcastFailover, LeaderCrashStillDeliversEverything) {
  PropertyHarness::run(/*groups=*/2, /*replicas=*/3, /*clients=*/4,
                       /*per_client=*/25, /*seed=*/5, /*crash_leader=*/true);
}

TEST(AmcastFailover, NewLeaderTakesOverAndServesNewMessages) {
  Cluster c(1, 3);
  auto& client = c.sys.add_client();

  // Send one message, crash the leader, then send another.
  c.sim.spawn([](Simulator& sim, Cluster& cl, ClientEndpoint& cli)
                  -> Task<void> {
    std::uint32_t v = 1;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(0, 0).node().crash();
    co_await sim.sleep(sim::ms(5));  // allow suspicion + takeover
    v = 2;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
  }(c.sim, c, client));
  c.sim.run_for(sim::ms(30));

  // Replicas 1 and 2 must have delivered both messages, in order.
  for (int r = 1; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), 2u) << "rank " << r;
    std::uint32_t first, second;
    std::memcpy(&first, seq[0].payload.data(), 4);
    std::memcpy(&second, seq[1].payload.data(), 4);
    EXPECT_EQ(first, 1u);
    EXPECT_EQ(second, 2u);
  }
  // Exactly one of them is the new leader.
  const bool l1 = c.sys.endpoint(0, 1).is_leader();
  const bool l2 = c.sys.endpoint(0, 2).is_leader();
  EXPECT_TRUE(l1 || l2);
}

TEST(AmcastFailover, MessageInFlightAtCrashIsNotLost) {
  // The client writes to all replicas, so even if the leader dies before
  // proposing, the new leader finds the message in its inbox.
  Cluster c(1, 3);
  auto& client = c.sys.add_client();

  c.sim.spawn([](Simulator& sim, Cluster& cl, ClientEndpoint& cli)
                  -> Task<void> {
    // Crash the leader at the instant the message is still in flight.
    cl.sys.endpoint(0, 0).node().crash();
    std::uint32_t v = 42;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
    co_await sim.sleep(sim::ms(1));
  }(c.sim, c, client));
  c.sim.run_for(sim::ms(30));

  for (int r = 1; r < 3; ++r) {
    const auto& seq = c.log.by_replica[{0, r}];
    ASSERT_EQ(seq.size(), 1u) << "rank " << r;
  }
}

// --- latency sanity ----------------------------------------------------

TEST(Amcast, SingleGroupDeliveryLatencyIsMicroseconds) {
  Cluster c(1, 3);
  auto& client = c.sys.add_client();
  Nanos sent_at = 0;
  c.sim.spawn([](Simulator& sim, ClientEndpoint& cl, Nanos& t) -> Task<void> {
    t = sim.now();
    std::uint32_t v = 7;
    co_await cl.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
  }(c.sim, client, sent_at));
  c.sim.run_for(sim::ms(5));

  ASSERT_EQ((c.log.by_replica[{0, 0}].size()), 1u);
  // Leader delivery happens within tens of microseconds (the paper's
  // ordering stage is ~18us); our pre-calibration bound is generous.
  EXPECT_LT(c.sim.now(), sim::ms(5) + 1);
  // (Exact latency calibration is exercised by bench/fig6.)
}

TEST(Amcast, MultiGroupCostsMoreThanSingleGroup) {
  auto measure = [](DstMask dst, int groups) {
    Cluster c(groups, 3);
    auto& client = c.sys.add_client();
    Nanos delivered_at = 0;
    c.sim.spawn([](Simulator& sim, Cluster& cl, ClientEndpoint& cli,
                   DstMask d, Nanos& out) -> Task<void> {
      std::uint32_t v = 7;
      co_await cli.multicast(d, std::as_bytes(std::span(&v, 1)));
      // Wait until the first destination group's leader delivers.
      while (cl.sys.endpoint(0, 0).delivered_count() == 0) {
        co_await sim.sleep(us(1));
      }
      out = sim.now();
    }(c.sim, c, client, dst, delivered_at));
    c.sim.run_for(sim::ms(10));
    return delivered_at;
  };

  const Nanos single = measure(dst_of(0), 2);
  const Nanos dual = measure(dst_of(0) | dst_of(1), 2);
  EXPECT_GT(dual, single);
}

// --- inbox doorbells ----------------------------------------------------

std::vector<MsgUid> delivered_uids(const DeliveryLog& log, GroupId g, int r) {
  std::vector<MsgUid> out;
  const auto it = log.by_replica.find({g, r});
  if (it == log.by_replica.end()) return out;
  for (const auto& d : it->second) {
    // uid 0: the sentinel a consumer parked across a restart gets back.
    if (d.uid != 0) out.push_back(d.uid);
  }
  return out;
}

Task<void> post_at(Simulator& sim, ClientEndpoint& cl, Nanos at,
                   std::uint32_t v) {
  co_await sim.sleep(at);
  co_await cl.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
}

TEST(AmcastInbox, LowerClientWrittenDuringHigherDrainIsDelivered) {
  // Client 5's message lands first and the inbox drain starts on it; client
  // 1's write lands while that drain is still charging inbox_proc. The
  // drain has already passed id 1, so the loop must come back for it.
  Config cfg;
  cfg.inbox_proc = us(20);
  Cluster c(1, 3, cfg);
  std::vector<ClientEndpoint*> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(&c.sys.add_client());
  c.sim.spawn(post_at(c.sim, *clients[5], 0, 5));
  c.sim.spawn(post_at(c.sim, *clients[1], us(5), 1));
  c.sim.run_for(sim::ms(5));

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(delivered_uids(c.log, 0, r),
              (std::vector<MsgUid>{make_uid(5, 1), make_uid(1, 1)}))
        << "rank " << r;
  }
}

TEST(AmcastInbox, SimultaneousPostsFromAllClientsDeliverInOneOrder) {
  Cluster c(1, 3);
  const std::uint32_t n = c.sys.config().max_clients;
  for (std::uint32_t i = 0; i < n; ++i) {
    c.sim.spawn(post_at(c.sim, c.sys.add_client(), 0, i));
  }
  c.sim.run_for(sim::ms(20));

  const std::vector<MsgUid> order = delivered_uids(c.log, 0, 0);
  EXPECT_EQ(order.size(), n);
  EXPECT_EQ(std::set<MsgUid>(order.begin(), order.end()).size(), n);
  for (int r = 1; r < 3; ++r) {
    EXPECT_EQ(delivered_uids(c.log, 0, r), order) << "rank " << r;
  }
}

TEST(AmcastInbox, RestartedEndpointReadsPastTheRingGap) {
  // Rank 1 misses one inbox write while down. After restart its cursor
  // sits before the dropped slot, and later writes fill the ring around
  // the hole; once the ring laps it, rank 1 must resume past the gap.
  // Then rank 1 takes over and must propose a fresh message from its
  // inbox.
  Cluster c(1, 3);
  auto& client = c.sys.add_client();
  const std::uint32_t slots = c.sys.config().inbox_slots_per_client;
  c.sim.spawn([](Simulator& sim, Cluster& cl, ClientEndpoint& cli,
                 std::uint32_t ring) -> Task<void> {
    std::uint32_t v = 0;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(0, 1).node().crash();
    ++v;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(0, 1).restart();
    co_await sim.sleep(sim::ms(1));
    for (std::uint32_t i = 0; i <= ring; ++i) {
      ++v;
      co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
      co_await sim.sleep(us(100));
    }
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(0, 0).node().crash();
    co_await sim.sleep(sim::ms(5));  // suspicion + takeover by rank 1
    ++v;
    co_await cli.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
  }(c.sim, c, client, slots));
  c.sim.run_for(sim::ms(40));

  ASSERT_TRUE(c.sys.endpoint(0, 1).is_leader());
  const std::uint32_t sent = slots + 4;
  const MsgUid last = make_uid(0, sent);
  for (int r = 1; r < 3; ++r) {
    const auto uids = delivered_uids(c.log, 0, r);
    EXPECT_EQ(uids.size(), sent) << "rank " << r;
    ASSERT_FALSE(uids.empty());
    EXPECT_EQ(uids.back(), last) << "rank " << r;
  }
}

TEST(AmcastRestart, LeaderRedrivesAnAckedProposalItNeverCommitted) {
  // The leader crashes after a follower's ack of its PROPOSE landed but
  // before it committed the message; with failover off it restarts as the
  // leader. Its rejoin finds the acked proposal in its replayed log, and
  // the re-drive commits and delivers it at once, which erases the entry
  // from the pending table the re-drive was iterating. The message must
  // still be delivered exactly once everywhere.
  Config cfg;
  cfg.enable_failover = false;
  Cluster c(1, 3, cfg);
  auto& client = c.sys.add_client();
  Endpoint& leader = c.sys.endpoint(0, 0);
  // Parked before the leader's ack wait, so this wakes first on the ack
  // and crashes the leader before it can commit (the acks region holds
  // rank r's applied seq at offset 8 * r).
  c.sim.spawn([](Endpoint& ep) -> Task<void> {
    auto& acks = ep.node().region(ep.acks_mr());
    co_await sim::wait_until(acks.on_write(), [&acks] {
      return rdma::load_pod<std::uint64_t>(acks.bytes(), 8) >= 1 ||
             rdma::load_pod<std::uint64_t>(acks.bytes(), 16) >= 1;
    });
    ep.node().crash();
  }(leader));
  MsgUid uid = 0;
  c.sim.spawn([](Simulator& sim, ClientEndpoint& cl, Endpoint& ep,
                 MsgUid& out) -> Task<void> {
    std::uint32_t v = 7;
    out = co_await cl.multicast(dst_of(0), std::as_bytes(std::span(&v, 1)));
    co_await sim.sleep(sim::ms(1));
    EXPECT_FALSE(ep.node().alive());
    ep.restart();
  }(c.sim, client, leader, uid));
  c.sim.run_for(sim::ms(10));

  ASSERT_NE(uid, 0u);
  EXPECT_TRUE(leader.is_leader());
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(delivered_uids(c.log, 0, r), std::vector<MsgUid>{uid})
        << "rank " << r;
  }
}

TEST(AmcastRestart, RestartedLeaderContinuesAReceiversProposalRing) {
  // g1.r1 misses two of g0's proposals while it is down, so after its
  // restart its cursor for g0.r0's stripe sits two below g0.r0's counter.
  // g0.r0 then restarts before any follower suspects it, so it rejoins as
  // the leader and must take its counter back from g1.r1's ring. Once
  // g1.r0 crashes, g1.r1 leads group 1 and needs g0.r0's next proposal.
  Cluster c(2, 3);
  auto& early = c.sys.add_client();
  auto& late = c.sys.add_client();
  MsgUid last = 0;
  c.sim.spawn([](Simulator& sim, Cluster& cl, ClientEndpoint& a,
                 ClientEndpoint& b, MsgUid& out) -> Task<void> {
    const DstMask both = dst_of(0) | dst_of(1);
    std::uint32_t v = 0;
    for (int i = 0; i < 3; ++i) {
      if (i == 1) cl.sys.endpoint(1, 1).node().crash();
      co_await a.multicast(both, std::as_bytes(std::span(&v, 1)));
      ++v;
      co_await sim.sleep(sim::ms(1));
    }
    cl.sys.endpoint(1, 1).restart();
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(0, 0).node().crash();
    co_await sim.sleep(us(5));
    cl.sys.endpoint(0, 0).restart();
    co_await sim.sleep(sim::ms(1));
    cl.sys.endpoint(1, 0).node().crash();
    co_await sim.sleep(sim::ms(5));  // suspicion + takeover by g1.r1
    out = co_await b.multicast(both, std::as_bytes(std::span(&v, 1)));
  }(c.sim, c, early, late, last));
  c.sim.run_for(sim::ms(30));

  ASSERT_TRUE(c.sys.endpoint(0, 0).is_leader());
  ASSERT_EQ(c.sys.endpoint(0, 0).epoch(), 0u);  // no takeover in group 0
  ASSERT_TRUE(c.sys.endpoint(1, 1).is_leader());
  ASSERT_NE(last, 0u);
  for (const auto& [g, r] : {std::pair{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}}) {
    const auto uids = delivered_uids(c.log, g, r);
    EXPECT_EQ(uids.size(), 4u) << "g" << g << ".r" << r;
    ASSERT_FALSE(uids.empty());
    EXPECT_EQ(uids.back(), last) << "g" << g << ".r" << r;
  }
}

}  // namespace
}  // namespace heron::amcast
