// Lease-based linearizable fast reads: warm-cache one-sided hits, torn-
// slot retries, lease expiry, fallback + cache reseed on remote failure,
// the slot identity check, overlapping reads through one client, the
// flat address cache against a reference map, crash/restart
// linearizability under the LinearChecker oracle, and same-seed
// determinism of the whole read path.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/linear.hpp"
#include "faultlab/plan.hpp"
#include "rdma/fabric.hpp"

namespace heron::faultlab {
namespace {

constexpr std::uint64_t kAccounts = 8;

core::HeronConfig lease_config(sim::Nanos lease_duration) {
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.lease_duration = lease_duration;
  return cfg;
}

/// Single-client scripted scenario harness: builds a 1x3 bank deployment
/// with leases on, runs `script` to completion, and asserts it finished.
template <typename Script>
void run_script(std::uint64_t seed, sim::Nanos lease_duration,
                Script script) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<BankApp>(1, kAccounts); },
      lease_config(lease_duration));
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(script(sys, client, done));
  sim.run_for(sim::ms(50));
  EXPECT_TRUE(done) << "script did not finish";
}

sim::Task<void> deposit(core::Client& client, core::Oid account,
                        std::int64_t amount) {
  DepositReq req{account, amount};
  const auto res = co_await client.submit(amcast::dst_of(0), kDeposit,
                                          std::as_bytes(std::span(&req, 1)));
  EXPECT_EQ(res.status, core::SubmitStatus::kOk);
}

std::int64_t balance_of(const core::Client::ReadResult& res) {
  Account a{};
  EXPECT_EQ(res.value.size(), sizeof(a));
  if (res.value.size() == sizeof(a)) {
    std::memcpy(&a, res.value.data(), sizeof(a));
  }
  return a.balance;
}

// ---------------------------------------------------------------------
// Directed scenarios
// ---------------------------------------------------------------------

sim::Task<void> warm_cache_script(core::System&, core::Client& client,
                                  bool& done) {
  co_await deposit(client, 0, 25);
  // Cold cache: the first read takes the ordered path and seeds the
  // per-oid slot address from the reply.
  const auto r1 = co_await client.read(0, 0);
  EXPECT_FALSE(r1.fast);
  EXPECT_EQ(r1.status, 0u);
  EXPECT_EQ(balance_of(r1), 1025);
  EXPECT_TRUE(client.fastread_cached_rank(0).has_value());
  EXPECT_EQ(client.fastread_fallbacks(), 1u);
  // Warm cache + valid lease: served by two one-sided READs.
  const auto r2 = co_await client.read(0, 0);
  EXPECT_TRUE(r2.fast);
  EXPECT_EQ(r2.tmp, r1.tmp);
  EXPECT_EQ(balance_of(r2), 1025);
  EXPECT_EQ(client.fastread_hits(), 1u);
  EXPECT_EQ(client.fastread_fallbacks(), 1u);
  // A later write is visible to a later fast read (write-gate freshness).
  co_await deposit(client, 0, 10);
  const auto r3 = co_await client.read(0, 0);
  EXPECT_TRUE(r3.fast);
  EXPECT_GT(r3.tmp, r2.tmp);
  EXPECT_EQ(balance_of(r3), 1035);
  done = true;
}

TEST(FastRead, WarmCacheServesOneSidedReads) {
  run_script(7, sim::ms(1), warm_cache_script);
}

sim::Task<void> torn_slot_script(core::System& sys, core::Client& client,
                                 bool& done) {
  co_await deposit(client, 0, 5);
  (void)co_await client.read(0, 0);  // seed the cache
  const auto hits_before = client.fastread_hits();
  // Hold every replica's slot torn so the fast read sees an odd seqlock
  // regardless of which rank the cache points at; after the retry budget
  // it must fall back to the ordered path and still return the value.
  for (int r = 0; r < 3; ++r) sys.replica(0, r).store().begin_write(0);
  const auto r1 = co_await client.read(0, 0);
  EXPECT_FALSE(r1.fast);
  EXPECT_EQ(r1.status, 0u);
  EXPECT_EQ(balance_of(r1), 1005);
  EXPECT_EQ(client.fastread_hits(), hits_before);
  EXPECT_GE(client.fastread_torn_retries(),
            static_cast<std::uint64_t>(
                sys.config().fastread_torn_retries + 1));
  // Slot released: the next read is one-sided again.
  for (int r = 0; r < 3; ++r) sys.replica(0, r).store().end_write(0);
  const auto r2 = co_await client.read(0, 0);
  EXPECT_TRUE(r2.fast);
  EXPECT_EQ(r2.tmp, r1.tmp);
  done = true;
}

TEST(FastRead, TornSlotRetriesThenFallsBack) {
  run_script(11, sim::ms(1), torn_slot_script);
}

sim::Task<void> expired_lease_script(core::System&, core::Client& client,
                                     bool& done) {
  co_await deposit(client, 0, 5);
  (void)co_await client.read(0, 0);  // seed the cache
  // The lease duration is shorter than the ordering latency, so every
  // grant a replica installs is already expired: the fast path must
  // reject at READ 1 and fall back, and must never report a hit.
  const auto r1 = co_await client.read(0, 0);
  EXPECT_FALSE(r1.fast);
  EXPECT_EQ(r1.status, 0u);
  EXPECT_EQ(balance_of(r1), 1005);
  EXPECT_EQ(client.fastread_hits(), 0u);
  EXPECT_GE(client.fastread_lease_rejects(), 1u);
  done = true;
}

TEST(FastRead, ExpiredLeaseForcesOrderedFallback) {
  run_script(13, sim::us(4), expired_lease_script);
}

sim::Task<void> crashed_target_script(core::System& sys,
                                      core::Client& client, bool& done) {
  co_await deposit(client, 0, 5);
  (void)co_await client.read(0, 0);  // seed the cache
  const auto cached = client.fastread_cached_rank(0);
  EXPECT_TRUE(cached.has_value());
  if (!cached.has_value()) co_return;
  // Crash the cached replica; the two survivors keep a majority so the
  // ordered fallback still completes, and its reply reseeds the cache
  // onto a live rank.
  sys.amcast().endpoint(0, *cached).node().crash();
  const auto r1 = co_await client.read(0, 0);
  EXPECT_FALSE(r1.fast);
  EXPECT_EQ(r1.status, 0u);
  EXPECT_EQ(balance_of(r1), 1005);
  const auto reseeded = client.fastread_cached_rank(0);
  EXPECT_TRUE(reseeded.has_value());
  if (!reseeded.has_value()) co_return;
  EXPECT_NE(*reseeded, *cached);
  const auto r2 = co_await client.read(0, 0);
  EXPECT_TRUE(r2.fast);
  EXPECT_EQ(balance_of(r2), 1005);
  done = true;
}

TEST(FastRead, RemoteFailureFallsBackAndReseedsCache) {
  run_script(17, sim::ms(1), crashed_target_script);
}

sim::Task<void> diverged_offset_script(core::System& sys,
                                       core::Client& client, bool& done) {
  co_await deposit(client, 0, 25);
  co_await deposit(client, 1, 70);
  (void)co_await client.read(0, 0);  // seed both cache entries
  (void)co_await client.read(0, 1);
  const auto rank = client.fastread_cached_rank(0);
  EXPECT_TRUE(rank.has_value());
  if (!rank.has_value()) co_return;
  // Point oid 0's entry at account 1's slot on the same replica: a cached
  // offset that no longer matches the replica's layout, landing on a
  // same-size neighbour under a valid lease. Only the slot's oid tag can
  // tell the two apart.
  client.fastread_repoint(0, sys.replica(0, *rank).store().offset_of(1));
  const auto fallbacks = client.fastread_fallbacks();
  const auto r1 = co_await client.read(0, 0);
  EXPECT_FALSE(r1.fast) << "a neighbour's slot was served as oid 0";
  EXPECT_EQ(r1.status, 0u);
  EXPECT_EQ(balance_of(r1), 1025);
  EXPECT_EQ(client.fastread_fallbacks(), fallbacks + 1);
  // The ordered reply re-seeded the entry with the real offset.
  const auto r2 = co_await client.read(0, 0);
  EXPECT_TRUE(r2.fast);
  EXPECT_EQ(balance_of(r2), 1025);
  done = true;
}

TEST(FastRead, DivergedOffsetFailsTheTagCheckAndFallsBack) {
  run_script(19, sim::ms(1), diverged_offset_script);
}

// ---------------------------------------------------------------------
// Overlapping reads through one client
// ---------------------------------------------------------------------

/// Two objects of different sizes, each filled with its own byte value.
class BlobApp : public core::Application {
 public:
  static constexpr std::uint32_t kSmall = 8;
  static constexpr std::uint32_t kLarge = 120;  // beyond the reply slot
  static std::vector<std::byte> contents(core::Oid oid) {
    return std::vector<std::byte>(oid == 0 ? kSmall : kLarge,
                                  std::byte{static_cast<unsigned char>(
                                      0xA0 + oid)});
  }

  [[nodiscard]] core::GroupId partition_of(core::Oid) const override {
    return 0;
  }
  [[nodiscard]] std::vector<core::Oid> read_set(
      const core::Request&, core::GroupId) const override {
    return {};
  }
  core::Reply execute(const core::Request&, core::ExecContext&) override {
    return core::Reply{.status = 1};
  }
  void bootstrap(core::GroupId, core::ObjectStore& store) override {
    for (core::Oid oid : {core::Oid{0}, core::Oid{1}}) {
      store.create(oid, contents(oid));
    }
  }
};

struct TimedRead {
  core::Client::ReadResult res;
  sim::Nanos start = 0;
  sim::Nanos end = -1;
};

sim::Task<void> timed_read(core::System& sys, core::Client& client,
                           core::Oid oid, TimedRead& out) {
  out.start = sys.simulator().now();
  out.res = co_await client.read(0, oid);
  out.end = sys.simulator().now();
}

sim::Task<void> overlapping_reads_script(core::System& sys,
                                         core::Client& client, bool& done) {
  // Warm both cache entries (the large object's first read is clipped by
  // the reply slot and retried on the fast path).
  for (core::Oid oid : {core::Oid{0}, core::Oid{1}}) {
    const auto seed = co_await client.read(0, oid);
    EXPECT_EQ(seed.value, BlobApp::contents(oid));
  }
  TimedRead small;
  TimedRead large;
  sys.simulator().spawn(timed_read(sys, client, 0, small));
  sys.simulator().spawn(timed_read(sys, client, 1, large));
  co_await sys.simulator().sleep(sim::us(100));
  EXPECT_GE(small.end, 0) << "small read did not finish";
  EXPECT_GE(large.end, 0) << "large read did not finish";
  // Both one-sided and in flight at once: each one's slot sample landed
  // while the other was still waiting for its completion.
  EXPECT_TRUE(small.res.fast);
  EXPECT_TRUE(large.res.fast);
  EXPECT_LT(small.start, large.end);
  EXPECT_LT(large.start, small.end);
  EXPECT_EQ(small.res.value, BlobApp::contents(0));
  EXPECT_EQ(large.res.value, BlobApp::contents(1));
  done = true;
}

TEST(FastRead, OverlappingReadsOnOneClientKeepTheirOwnBytes) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 37);
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<BlobApp>(); }, lease_config(sim::ms(1)));
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(overlapping_reads_script(sys, client, done));
  sim.run_for(sim::ms(50));
  EXPECT_TRUE(done) << "script did not finish";
}

// ---------------------------------------------------------------------
// The flat address cache
// ---------------------------------------------------------------------

bool same_entry(const core::FastLocIndex& idx,
                const std::unordered_map<core::Oid, core::FastLoc>& ref,
                core::Oid oid) {
  const core::FastLoc* got = idx.find(oid);
  const auto it = ref.find(oid);
  if (got == nullptr || it == ref.end()) {
    return got == nullptr && it == ref.end();
  }
  // rank and epoch are what Client's two test hooks report.
  return got->rank == it->second.rank && got->epoch == it->second.epoch &&
         got->offset == it->second.offset && got->size == it->second.size &&
         got->serialized == it->second.serialized;
}

void expect_same(const core::FastLocIndex& idx,
                 const std::unordered_map<core::Oid, core::FastLoc>& ref,
                 core::Oid oid) {
  EXPECT_TRUE(same_entry(idx, ref, oid))
      << "oid " << oid << ": index " << (idx.find(oid) ? "has" : "lacks")
      << " it, reference " << (ref.contains(oid) ? "has" : "lacks") << " it";
}

TEST(FastLocIndex, MatchesAReferenceMapUnderRandomOps) {
  // The oid pool: random 64-bit oids (Fibonacci hashing spreads
  // consecutive ones so evenly that they would hardly ever collide), a
  // quarter of them homed at the table's last slot and an eighth at slot
  // 0 at every capacity up to 128. The table stays that small, so chains
  // that wrap past its end, and erases inside them, come up constantly.
  sim::Rng rng(41);
  core::FastLocIndex sized;  // only lends home_of() at capacity 128
  for (core::Oid o = 0; o < 64; ++o) sized.put(o, core::FastLoc{});
  EXPECT_EQ(sized.capacity(), 128u);
  std::vector<core::Oid> oids;
  std::size_t at_last = 0;
  std::size_t at_zero = 0;
  while (oids.size() < 64) {
    const core::Oid o = rng.next();
    const std::size_t home = sized.home_of(o);
    if (home == 127 && at_last < 16) {
      ++at_last;
    } else if (home == 0 && at_zero < 8) {
      ++at_zero;
    } else if (oids.size() - at_last - at_zero >= 40) {
      continue;
    }
    oids.push_back(o);
  }
  core::FastLocIndex idx;
  std::unordered_map<core::Oid, core::FastLoc> ref;
  std::uint64_t epoch = 1;
  std::size_t max_capacity = 0;
  for (int step = 0; step < 50000; ++step) {
    const core::Oid oid = oids[rng.bounded(oids.size())];
    const auto op = rng.bounded(100);
    if (op < 55) {
      const core::FastLoc loc{
          .offset = rng.bounded(1u << 20),
          .epoch = epoch - rng.bounded(std::min<std::uint64_t>(epoch, 3)),
          .size = static_cast<std::uint32_t>(rng.bounded(512)),
          .rank = static_cast<std::int32_t>(rng.bounded(3)),
          .serialized = rng.chance(0.5)};
      idx.put(oid, loc);
      ref[oid] = loc;
    } else if (op < 99) {
      EXPECT_EQ(idx.erase(oid), ref.erase(oid) == 1) << "oid " << oid;
    } else {
      idx.purge_older_than(epoch);
      std::erase_if(ref, [epoch](const auto& kv) {
        return kv.second.epoch < epoch;
      });
      ++epoch;
    }
    ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    max_capacity = std::max(max_capacity, idx.capacity());
    // Every entry must stay reachable after every operation: a broken
    // shift strands an entry behind a hole in its probe chain.
    for (const core::Oid o : oids) {
      if (!same_entry(idx, ref, o)) {
        expect_same(idx, ref, o);
        FAIL() << "diverged at step " << step;
      }
    }
  }
  EXPECT_GE(max_capacity, 64u) << "the run never grew the table";
  EXPECT_LE(2 * idx.size(), idx.capacity());
}

TEST(FastLocIndex, EraseShiftsProbeChainsThatWrapPastTheEnd) {
  core::FastLocIndex idx;
  idx.put(1'000'000, core::FastLoc{});  // allocates 16 slots
  ASSERT_TRUE(idx.erase(1'000'000));    // which stay allocated
  ASSERT_EQ(idx.capacity(), 16u);
  const std::size_t last = idx.capacity() - 1;
  // Oids homed at the last slot and at slot 0: a chain that starts at
  // the end of the table and continues at its front.
  std::vector<core::Oid> at_last;
  std::vector<core::Oid> at_zero;
  for (core::Oid oid = 0; at_last.size() < 3 || at_zero.size() < 2; ++oid) {
    if (idx.home_of(oid) == last && at_last.size() < 3) at_last.push_back(oid);
    if (idx.home_of(oid) == 0 && at_zero.size() < 2) at_zero.push_back(oid);
  }
  std::unordered_map<core::Oid, core::FastLoc> ref;
  auto put = [&](core::Oid oid) {
    const core::FastLoc loc{.offset = oid * 64,
                            .epoch = oid,
                            .size = 8,
                            .rank = static_cast<std::int32_t>(oid % 3)};
    idx.put(oid, loc);
    ref[oid] = loc;
  };
  // Slots 15, 0, 1, 2, 3 in this order; capacity stays 16 because the
  // table is at most half full.
  put(at_last[0]);
  put(at_zero[0]);
  put(at_last[1]);
  put(at_zero[1]);
  put(at_last[2]);
  ASSERT_EQ(idx.capacity(), 16u);
  auto check_all = [&] {
    for (const auto& [oid, loc] : ref) expect_same(idx, ref, oid);
    for (core::Oid oid : at_last) expect_same(idx, ref, oid);
    for (core::Oid oid : at_zero) expect_same(idx, ref, oid);
  };
  check_all();
  // Erasing the chain's head must pull the wrapped members homed at the
  // last slot back across the end, and leave the slot-0 members alone.
  for (core::Oid oid : {at_last[0], at_zero[0], at_last[2], at_last[1],
                        at_zero[1]}) {
    EXPECT_TRUE(idx.erase(oid));
    ref.erase(oid);
    EXPECT_FALSE(idx.erase(oid));
    check_all();
  }
  EXPECT_EQ(idx.size(), 0u);
}

// ---------------------------------------------------------------------
// Mixed workload cells: linearizability under faults + determinism
// ---------------------------------------------------------------------

struct ReadCellResult {
  std::uint64_t completed = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t torn_retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t lease_rejects = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t gate_waits = 0;
  std::size_t reads_checked = 0;
  std::size_t writes_checked = 0;
  std::vector<std::uint64_t> digests;
  std::vector<Violation> violations;
};

/// Closed-loop mixed read/deposit client; every completed operation is
/// reported to the LinearChecker.
sim::Task<void> mixed_loop(core::System& sys, core::Client& client,
                           LinearChecker& lin, std::uint64_t seed, int ops,
                           double read_ratio) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  const auto partitions = static_cast<std::uint64_t>(sys.partitions());
  const auto total = partitions * kAccounts;
  for (int k = 0; k < ops; ++k) {
    const core::Oid oid = rng.bounded(total);
    const auto home = static_cast<amcast::GroupId>(oid % partitions);
    if (rng.chance(read_ratio)) {
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.read(home, oid);
      if (res.submit_status == core::SubmitStatus::kOk && res.status == 0) {
        lin.note_read(oid, res.tmp, t0, sim.now(), res.fast);
      }
    } else {
      DepositReq req{oid, 5};
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.submit(
          amcast::dst_of(home), kDeposit, std::as_bytes(std::span(&req, 1)));
      lin.note_write(oid, client.id(), res.session_seq, t0, sim.now(),
                     res.status);
    }
  }
}

ReadCellResult run_read_cell(std::uint64_t seed, int partitions, int clients,
                             int ops, double read_ratio,
                             sim::Nanos lease_duration,
                             const std::string& plan_text = "") {
  constexpr int kReplicas = 3;
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  // Crash plans lose in-flight requests; retries (session-deduped) let
  // every client loop run to completion across the fault window.
  core::HeronConfig cfg = lease_config(lease_duration);
  cfg.client_attempt_timeout = sim::us(200);
  cfg.client_max_retries = 12;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_retry_backoff_max = sim::us(500);
  core::System sys(
      fabric, partitions, kReplicas,
      [partitions] {
        return std::make_unique<BankApp>(partitions, kAccounts);
      },
      cfg);
  HistoryRecorder history;
  history.attach(sys);
  sys.start();

  LinearChecker lin;
  for (int c = 0; c < clients; ++c) {
    sim.spawn(mixed_loop(sys, sys.add_client(),
                         lin, seed * 1000 + static_cast<std::uint64_t>(c),
                         ops, read_ratio));
  }
  Injector injector(sys);
  injector.run(FaultPlan::parse("plan", plan_text));
  sim.run_for(sim::ms(100));

  ReadCellResult out;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.completed += cl.completed();
    out.fast_hits += cl.fastread_hits();
    out.torn_retries += cl.fastread_torn_retries();
    out.fallbacks += cl.fastread_fallbacks();
    out.lease_rejects += cl.fastread_lease_rejects();
    EXPECT_FALSE(cl.in_flight()) << "client " << c << " hung";
  }
  for (core::GroupId g = 0; g < partitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.lease_grants += sys.replica(g, r).lease_grants();
      out.gate_waits += sys.replica(g, r).gate_waits();
      if (!sys.replica(g, r).node().alive()) continue;
      out.digests.push_back(store_digest(sys.replica(g, r)));
    }
  }
  out.reads_checked = lin.read_count();
  out.writes_checked = lin.write_count();
  out.violations =
      check_amcast_properties(history, sys, injector.ever_crashed());
  check_exactly_once(history, out.violations);
  check_store_convergence(sys, out.violations);
  for (auto& v : lin.check(history)) out.violations.push_back(std::move(v));
  return out;
}

TEST(FastRead, MixedWorkloadIsLinearizableAndMostlyOneSided) {
  const auto res = run_read_cell(23, /*partitions=*/2, /*clients=*/3,
                                 /*ops=*/60, /*read_ratio=*/0.9,
                                 sim::ms(1));
  EXPECT_GT(res.reads_checked, 0u);
  EXPECT_GT(res.writes_checked, 0u);
  EXPECT_GT(res.lease_grants, 0u);
  // With healthy leases the steady state is one-sided: fallbacks are
  // confined to cold-cache seeds and the occasional torn slot.
  EXPECT_GT(res.fast_hits, res.fallbacks);
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

TEST(FastRead, LeaderCrashDuringOpenLeaseStaysLinearizable) {
  const auto res = run_read_cell(29, /*partitions=*/2, /*clients=*/3,
                                 /*ops=*/40, /*read_ratio=*/0.7,
                                 sim::ms(1),
                                 "crash g0.r0 @ 500us; restart g0.r0 @ 5ms");
  // Every closed-loop command eventually completed despite the crash.
  // Fast-read hits answer without touching the ordered submit path, so
  // they count separately from Client::completed().
  EXPECT_EQ(res.completed + res.fast_hits, 3u * 40u);
  EXPECT_GT(res.reads_checked, 0u);
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

TEST(FastRead, ReadPathIsDeterministic) {
  const auto a = run_read_cell(31, 2, 3, 30, 0.8, sim::ms(1),
                               "crash g0.r1 @ 1ms; restart g0.r1 @ 4ms");
  const auto b = run_read_cell(31, 2, 3, 30, 0.8, sim::ms(1),
                               "crash g0.r1 @ 1ms; restart g0.r1 @ 4ms");
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fast_hits, b.fast_hits);
  EXPECT_EQ(a.torn_retries, b.torn_retries);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.lease_rejects, b.lease_rejects);
  EXPECT_EQ(a.lease_grants, b.lease_grants);
  EXPECT_EQ(a.gate_waits, b.gate_waits);
  EXPECT_EQ(a.digests, b.digests);
}

}  // namespace
}  // namespace heron::faultlab
