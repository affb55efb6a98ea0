// heron::reconfig integration tests: epoch-versioned layouts installed
// through ordered kWireFlagEpoch markers, the throttled background copy
// machine, dual-epoch serving, client re-routing on kStatusWrongEpoch,
// and layout-stamped durable checkpoints. The RangeKv oracles check the
// headline properties of a range move under load: no lost object, no
// duplicated object, exactly-once execution across the split.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/linear.hpp"
#include "faultlab/plan.hpp"
#include "faultlab/rangekv.hpp"
#include "rdma/fabric.hpp"
#include "reconfig/layout.hpp"

namespace heron::faultlab {
namespace {

constexpr std::uint64_t kKeys = 32;
constexpr int kReplicas = 3;

// ---------------------------------------------------------------------
// Layout unit tests
// ---------------------------------------------------------------------

TEST(Layout, UniformSplitAndOwnership) {
  const auto l = reconfig::Layout::uniform(2, kKeys);
  EXPECT_EQ(l.epoch, 1u);
  ASSERT_EQ(l.ranges.size(), 2u);
  EXPECT_EQ(l.owner_of(0), 0);
  EXPECT_EQ(l.owner_of(15), 0);
  EXPECT_EQ(l.owner_of(16), 1);
  EXPECT_EQ(l.owner_of(31), 1);
  // Oids past the keyspace belong to the last range.
  EXPECT_EQ(l.owner_of(1u << 20), 1);
}

TEST(Layout, ApplyMoveSplitsMergesAndBumpsEpoch) {
  auto l = reconfig::Layout::uniform(2, kKeys);
  l.apply_move(0, 8, 1, 2);
  EXPECT_EQ(l.epoch, 2u);
  EXPECT_FALSE(l.migration.active());
  EXPECT_EQ(l.owner_of(0), 1);
  EXPECT_EQ(l.owner_of(7), 1);
  EXPECT_EQ(l.owner_of(8), 0);
  EXPECT_EQ(l.owner_of(16), 1);
  // Moving the rest of g0's range back merges everything into one range.
  l.apply_move(8, 16, 1, 3);
  EXPECT_EQ(l.ranges.size(), 1u);
  EXPECT_EQ(l.owner_of(0), 1);
  // Epoch never regresses.
  l.apply_move(0, 4, 0, 2);
  EXPECT_EQ(l.epoch, 3u);
}

TEST(Layout, MarkerWireRoundtrip) {
  auto l = reconfig::Layout::uniform(3, 30);
  l.epoch = 7;
  l.migration = reconfig::Migration{10, 20, 1, 2};
  std::vector<std::byte> wire;
  ASSERT_TRUE(encode_marker(l, reconfig::kEpochPrepare, wire));
  EXPECT_EQ(wire.size(), reconfig::marker_bytes(l.ranges.size()));

  reconfig::Layout out;
  std::uint32_t phase = 0;
  ASSERT_TRUE(decode_marker(wire, out, phase));
  EXPECT_EQ(phase, reconfig::kEpochPrepare);
  EXPECT_EQ(out.epoch, 7u);
  ASSERT_EQ(out.ranges.size(), l.ranges.size());
  for (std::size_t i = 0; i < l.ranges.size(); ++i) {
    EXPECT_EQ(out.ranges[i].lo, l.ranges[i].lo);
    EXPECT_EQ(out.ranges[i].owner, l.ranges[i].owner);
  }
  EXPECT_TRUE(out.migration.active());
  EXPECT_EQ(out.migration.lo, 10u);
  EXPECT_EQ(out.migration.hi, 20u);
  EXPECT_EQ(out.migration.from, 1);
  EXPECT_EQ(out.migration.to, 2);

  // Malformed input is rejected, not trusted.
  reconfig::Layout junk;
  EXPECT_FALSE(decode_marker(std::span(wire).subspan(0, 10), junk, phase));
}

// ---------------------------------------------------------------------
// Migration cell harness
// ---------------------------------------------------------------------

core::HeronConfig kv_config() {
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.reconfig_keys = kKeys;
  // Dual-epoch quiesce windows and WrongEpoch re-routing stretch a few
  // requests; retries (session-deduped) keep the closed loops moving.
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 16;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_retry_backoff_max = sim::us(500);
  return cfg;
}

struct CellResult {
  std::uint64_t executed = 0;       // distinct commands session-marked
  std::uint64_t completed = 0;      // client-side completions
  std::uint64_t wrong_epoch_replies = 0;
  std::uint64_t wrong_epoch_retries = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_corrupt = 0;
  std::uint64_t pulls = 0;
  std::uint64_t migrated_out = 0;
  std::uint64_t migrated_in = 0;
  std::uint64_t final_epoch = 0;
  sim::Nanos sealed_at = 0;
  std::vector<std::uint64_t> digests;
  std::vector<Violation> violations;
};

/// Runs a 2-partition RangeKv deployment, migrates [0, 8) from g0 to g1
/// at 2ms while closed-loop clients hammer the keyspace, and applies the
/// full oracle stack once every loop finished and the move sealed.
CellResult run_split_cell(std::uint64_t seed, int clients, int ops,
                          core::HeronConfig cfg,
                          const std::string& plan_text = "") {
  constexpr int kPartitions = 2;
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] { return std::make_unique<RangeKv>(kKeys); }, cfg);
  HistoryRecorder history;
  history.attach(sys);
  ExecTracker tracker;
  tracker.attach(sys);
  sys.start();

  for (int c = 0; c < clients; ++c) {
    sim.spawn(rangekv_client_loop(sys, sys.add_client(),
                                  seed * 1000 + static_cast<std::uint64_t>(c),
                                  ops, kKeys));
  }
  sys.schedule_migration(
      reconfig::Plan{sim::ms(1), /*lo=*/0, /*hi=*/8, /*from=*/0, /*to=*/1});
  Injector injector(sys);
  injector.run(FaultPlan::parse("plan", plan_text));

  // Run until the move seals and every client loop drains (slices so a
  // wedged run fails the assertions instead of spinning forever).
  auto settled = [&sys] {
    if (sys.migration_times().empty() ||
        sys.migration_times().front().sealed == 0) {
      return false;
    }
    for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
      if (sys.client(c).in_flight()) return false;
    }
    return true;
  };
  for (int i = 0; i < 400 && !settled(); ++i) sim.run_for(sim::ms(1));
  sim.run_for(sim::ms(5));  // let copy/pull tails quiesce

  CellResult out;
  EXPECT_FALSE(sys.migration_times().empty());
  if (!sys.migration_times().empty()) {
    const auto& mt = sys.migration_times().front();
    EXPECT_GT(mt.prepare, 0);
    EXPECT_GT(mt.flip, mt.prepare);
    EXPECT_GT(mt.sealed, 0) << "migration never sealed";
    out.sealed_at = mt.sealed;
  }
  out.executed = tracker.distinct_executed();
  out.final_epoch = sys.cluster_layout().epoch;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.completed += cl.completed();
    out.wrong_epoch_retries += cl.wrong_epoch_retries();
    EXPECT_FALSE(cl.in_flight()) << "client " << c << " hung";
  }
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      auto& rep = sys.replica(g, r);
      out.wrong_epoch_replies += rep.wrong_epoch_replies();
      out.chunks_sent += rep.copy_chunks_sent();
      out.chunks_corrupt += rep.copy_chunks_corrupt();
      out.pulls += rep.copy_pulls();
      out.migrated_out += rep.migrated_out();
      out.migrated_in += rep.migrated_in();
      if (!rep.node().alive()) continue;
      out.digests.push_back(store_digest(rep));
    }
  }

  out.violations =
      check_amcast_properties(history, sys, injector.ever_crashed());
  check_exactly_once(history, out.violations);
  check_store_convergence(sys, out.violations);
  tracker.check(out.violations);
  check_kv_placement(sys, /*rank=*/0, kKeys, sys.cluster_layout(),
                     out.violations);
  check_kv_sum(sys, /*rank=*/0, kKeys, /*delta=*/1, out.executed,
               out.violations);
  return out;
}

void expect_clean(const CellResult& res) {
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

// ---------------------------------------------------------------------
// Headline cells
// ---------------------------------------------------------------------

TEST(Reconfig, SplitUnderLoadMovesObjectsExactlyOnce) {
  const auto res = run_split_cell(41, /*clients=*/3, /*ops=*/120, kv_config());
  expect_clean(res);
  // PREPARE bumped to 2, FLIP to 3.
  EXPECT_EQ(res.final_epoch, 3u);
  EXPECT_EQ(res.completed, 3u * 120u);
  // The move actually moved data over the copy rings.
  EXPECT_GT(res.chunks_sent, 0u);
  EXPECT_GT(res.migrated_in, 0u);
  // Post-flip, stale-routed commands were bounced and re-routed instead
  // of executed in the wrong group.
  EXPECT_GT(res.wrong_epoch_replies, 0u);
  EXPECT_GT(res.wrong_epoch_retries, 0u);
}

TEST(Reconfig, LeaderCrashMidMigrationKeepsOracles) {
  // Crash source rank 0 right after PREPARE (1ms) and bring it back
  // while the move is still settling: its pair destination must recover
  // the stream by pulling from flipped survivors or the rejoined source.
  const auto res =
      run_split_cell(43, /*clients=*/3, /*ops=*/120, kv_config(),
                     "crash g0.r0 @ 1050us; restart g0.r0 @ 8ms");
  expect_clean(res);
  EXPECT_EQ(res.final_epoch, 3u);
  EXPECT_EQ(res.completed, 3u * 120u);
}

TEST(Reconfig, DestCrashDuringFirstPassStillFlipsAndSeals) {
  // Destination rank 0 is down while its pair source runs pass 0, so
  // every copy chunk to it fails. The source's copier must keep going
  // (the dest pulls the final image after it rejoins); if it stopped,
  // the controller would wait forever for it to catch up and never FLIP.
  const auto res =
      run_split_cell(59, /*clients=*/3, /*ops=*/120, kv_config(),
                     "crash g1.r0 @ 1005us; restart g1.r0 @ 8ms");
  expect_clean(res);
  EXPECT_EQ(res.final_epoch, 3u);
  EXPECT_EQ(res.completed, 3u * 120u);
}

TEST(Reconfig, TornCopyChunksAreDetectedAndRecovered) {
  auto cfg = kv_config();
  cfg.reconfig.chunk_corrupt_rate = 0.6;
  const auto res = run_split_cell(47, /*clients=*/3, /*ops=*/80, cfg);
  expect_clean(res);
  // Corruption was injected, detected by the chunk CRC, and repaired by
  // dest-driven pulls — and the move still sealed.
  EXPECT_GT(res.chunks_corrupt, 0u);
  EXPECT_GT(res.pulls, 0u);
  EXPECT_GT(res.sealed_at, 0u);
}

TEST(Reconfig, MigrationIsDeterministic) {
  const auto a = run_split_cell(53, 3, 30, kv_config(),
                                "crash g0.r1 @ 3ms; restart g0.r1 @ 7ms");
  const auto b = run_split_cell(53, 3, 30, kv_config(),
                                "crash g0.r1 @ 3ms; restart g0.r1 @ 7ms");
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.wrong_epoch_replies, b.wrong_epoch_replies);
  EXPECT_EQ(a.chunks_sent, b.chunks_sent);
  EXPECT_EQ(a.pulls, b.pulls);
  EXPECT_EQ(a.sealed_at, b.sealed_at);
  EXPECT_EQ(a.digests, b.digests);
}

// ---------------------------------------------------------------------
// Linearizability across the epoch bump (mixed fast reads + writes)
// ---------------------------------------------------------------------

sim::Task<void> mixed_kv_loop(core::System& sys, core::Client& client,
                              LinearChecker& lin, std::uint64_t seed,
                              int ops, double read_ratio) {
  sim::Rng rng(seed);
  auto& sim = sys.simulator();
  for (int k = 0; k < ops; ++k) {
    const core::Oid key = rng.bounded(kKeys);
    const auto home = client.layout().owner_of(key);
    if (rng.chance(read_ratio)) {
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.read(home, key);
      if (res.submit_status == core::SubmitStatus::kOk && res.status == 0) {
        lin.note_read(key, res.tmp, t0, sim.now(), res.fast);
      }
    } else {
      KvAddReq req{key, 1};
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.submit_routed(
          key, home, kKvAdd, std::as_bytes(std::span(&req, 1)));
      lin.note_write(key, client.id(), res.session_seq, t0, sim.now(),
                     res.status);
    }
  }
}

TEST(Reconfig, MixedHistoryAcrossEpochBumpIsLinearizable) {
  constexpr int kPartitions = 2;
  constexpr int kClients = 3;
  constexpr int kOps = 40;
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 59);
  auto cfg = kv_config();
  cfg.lease_duration = sim::ms(1);  // fast reads on
  core::System sys(
      fabric, kPartitions, kReplicas,
      [] { return std::make_unique<RangeKv>(kKeys); }, cfg);
  HistoryRecorder history;
  history.attach(sys);
  ExecTracker tracker;
  tracker.attach(sys);
  sys.start();

  LinearChecker lin;
  for (int c = 0; c < kClients; ++c) {
    sim.spawn(mixed_kv_loop(sys, sys.add_client(), lin,
                            59 * 1000 + static_cast<std::uint64_t>(c), kOps,
                            /*read_ratio=*/0.6));
  }
  sys.schedule_migration(reconfig::Plan{sim::ms(2), 0, 8, 0, 1});
  sim.run_for(sim::ms(120));

  EXPECT_FALSE(sys.migration_times().empty());
  if (!sys.migration_times().empty()) {
    EXPECT_GT(sys.migration_times().front().sealed, 0)
        << "migration never sealed";
  }
  EXPECT_GT(lin.read_count(), 0u);
  EXPECT_GT(lin.write_count(), 0u);
  std::vector<Violation> violations =
      check_amcast_properties(history, sys, CrashSet{});
  check_exactly_once(history, violations);
  check_store_convergence(sys, violations);
  tracker.check(violations);
  for (auto& v : lin.check(history)) violations.push_back(std::move(v));
  for (const auto& v : violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

// ---------------------------------------------------------------------
// Directed satellite regressions
// ---------------------------------------------------------------------

sim::Task<void> kv_add(core::Client& client, core::Oid key,
                       std::int64_t delta) {
  KvAddReq req{key, delta};
  const auto res =
      co_await client.submit_routed(key, client.layout().owner_of(key),
                                    kKvAdd, std::as_bytes(std::span(&req, 1)));
  EXPECT_EQ(res.status, core::SubmitStatus::kOk);
}

sim::Task<void> wait_sealed(core::System& sys) {
  auto& sim = sys.simulator();
  while (sys.migration_times().empty() ||
         sys.migration_times().front().sealed == 0) {
    co_await sim.sleep(sim::us(100));
  }
}

/// Satellite 1: one kStatusWrongEpoch reply must invalidate EVERY
/// fast-read cache entry seeded under the old layout epoch — including
/// entries for keys whose range did not move (their slot addresses may
/// still be rewritten by the owner sweep / compaction on other groups).
sim::Task<void> cache_invalidation_script(core::System& sys,
                                          core::Client& client, bool& done) {
  co_await kv_add(client, 0, 5);    // moving range [0, 8)
  co_await kv_add(client, 20, 7);   // stable range, owner g1
  (void)co_await client.read(0, 0);
  (void)co_await client.read(1, 20);
  EXPECT_EQ(client.fastread_cached_epoch(0), std::make_optional(1ull));
  EXPECT_EQ(client.fastread_cached_epoch(20), std::make_optional(1ull));

  sys.schedule_migration(
      reconfig::Plan{sys.simulator().now() + sim::us(50), 0, 8, 0, 1});
  co_await wait_sealed(sys);

  // The client has not heard about the move yet: its layout is stale.
  EXPECT_EQ(client.layout().epoch, 1u);
  // One routed write to the moved range bounces off g0 with WrongEpoch.
  co_await kv_add(client, 0, 1);
  EXPECT_GE(client.wrong_epoch_retries(), 1u);
  EXPECT_GE(client.layout().epoch, 3u);
  // Regression (pre-fix: entries had no epoch and survived): both cached
  // slots — moved AND unmoved key — are gone.
  EXPECT_EQ(client.fastread_cached_epoch(0), std::nullopt);
  EXPECT_EQ(client.fastread_cached_epoch(20), std::nullopt);
  done = true;
}

TEST(Reconfig, WrongEpochInvalidatesWholeFastReadCache) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 61);
  auto cfg = kv_config();
  cfg.lease_duration = sim::ms(1);
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      cfg);
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(cache_invalidation_script(sys, client, done));
  sim.run_for(sim::ms(200));
  EXPECT_TRUE(done) << "script did not finish";
}

/// Satellite 2: after FLIP the old owner's lease word is zeroed and the
/// moved slots retired, so a client with a stale cache entry (same epoch
/// as its stale layout — the epoch guard does not help it) must fail the
/// one-sided fast path and fall back to the ordered path, which bounces
/// it to the new owner. Pre-fix, the un-zeroed lease let the fast read
/// return the retired (stale) value.
sim::Task<void> stale_owner_script(core::System& sys, core::Client& client,
                                   bool& done) {
  co_await kv_add(client, 2, 5);
  (void)co_await client.read(0, 2);  // seed cache against g0
  const auto r1 = co_await client.read(0, 2);
  EXPECT_TRUE(r1.fast);  // warm: one-sided against the old owner

  sys.schedule_migration(
      reconfig::Plan{sys.simulator().now() + sim::us(50), 0, 8, 0, 1});
  co_await wait_sealed(sys);

  // A second client (sole writer post-move) advances the value at g1;
  // the stale-cached client must never see the old value again.
  auto& other = sys.add_client();
  co_await kv_add(other, 2, 10);

  const auto r2 = co_await client.read(0, 2);
  EXPECT_FALSE(r2.fast) << "fast read served by the retired owner";
  EXPECT_EQ(r2.status, 0u);
  std::int64_t v = 0;
  EXPECT_EQ(r2.value.size(), sizeof(v));
  if (r2.value.size() == sizeof(v)) {
    std::memcpy(&v, r2.value.data(), sizeof(v));
    EXPECT_EQ(v, 15);
  }
  done = true;
}

TEST(Reconfig, StaleOwnerCannotServeFastReadsAfterFlip) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 67);
  auto cfg = kv_config();
  cfg.lease_duration = sim::ms(1);
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      cfg);
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(stale_owner_script(sys, client, done));
  sim.run_for(sim::ms(200));
  EXPECT_TRUE(done) << "script did not finish";
}

/// Review regression: a client that slept through TWO migrations learns
/// the newest epoch from its first wrong-epoch bounce; the bounce for the
/// OTHER stale range then arrives carrying that same (now-current) epoch
/// and must still patch its range. Pre-fix, apply_wrong_epoch required
/// wire.epoch > layout_.epoch, dropped the second fix, and the client
/// looped to kMaxHops and failed for every oid in that range. The two
/// overlapping schedule_migration calls also exercise the controller
/// ticket serialization (the second plan fires before the first seals).
sim::Task<void> two_move_stale_client_script(core::System& sys,
                                             core::Client& client,
                                             bool& done) {
  auto& sim = sys.simulator();
  co_await kv_add(client, 0, 1);
  co_await kv_add(client, 16, 1);

  // Two moves in opposite directions so the final layout keeps distinct
  // ranges (same-direction moves would merge into one range and the
  // first bounce alone would fix everything).
  sys.schedule_migration(
      reconfig::Plan{sim.now() + sim::us(50), 0, 8, 0, 1});
  sys.schedule_migration(
      reconfig::Plan{sim.now() + sim::us(60), 16, 24, 1, 0});
  while (sys.migration_times().size() < 2 ||
         sys.migration_times()[1].sealed == 0) {
    co_await sim.sleep(sim::us(100));
  }
  EXPECT_EQ(client.layout().epoch, 1u);  // fully stale: missed both moves

  // First bounce (for moved range [0,8)) jumps the client straight to
  // the newest epoch and patches that one range...
  co_await kv_add(client, 0, 1);
  EXPECT_EQ(client.layout().epoch, 5u);
  EXPECT_EQ(client.layout().owner_of(0), 1);
  EXPECT_EQ(client.layout().owner_of(16), 1);  // other range still stale

  // ...so the bounce for key 16 arrives with wire.epoch == layout_.epoch
  // and must still be applied for the retry to reach the new owner.
  KvAddReq req{16, 1};
  const auto res = co_await client.submit_routed(
      16, client.layout().owner_of(16), kKvAdd,
      std::as_bytes(std::span(&req, 1)));
  EXPECT_EQ(res.status, core::SubmitStatus::kOk);
  EXPECT_EQ(res.reply.status, 0u) << "same-epoch range fix was dropped";
  EXPECT_EQ(client.layout().owner_of(16), 0);
  done = true;
}

TEST(Reconfig, StaleClientRecoversAcrossTwoMigrations) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 79);
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      kv_config());
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(two_move_stale_client_script(sys, client, done));
  for (int i = 0; i < 400 && !done; ++i) sim.run_for(sim::ms(1));
  EXPECT_TRUE(done) << "script did not finish";
}

/// Review regression: PREPARE/FLIP markers are multicast exactly once, so
/// the ordering leader must exempt kWireFlagEpoch from admission
/// shedding. Pre-fix, a tiny admission window under client load shed the
/// marker cluster-wide and the controller spun forever waiting for
/// copy/seal progress that could never start.
TEST(Reconfig, EpochMarkersAreExemptFromAdmissionShedding) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 83);
  amcast::Config acfg;
  acfg.admission_window = 1;  // shed (almost) everything under load
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      kv_config(), acfg);
  sys.start();
  for (int c = 0; c < 3; ++c) {
    sim.spawn(rangekv_client_loop(sys, sys.add_client(),
                                  83000 + static_cast<std::uint64_t>(c),
                                  /*ops=*/60, kKeys));
  }
  sys.schedule_migration(reconfig::Plan{sim::ms(1), 0, 8, 0, 1});
  auto sealed = [&sys] {
    return !sys.migration_times().empty() &&
           sys.migration_times().front().sealed != 0;
  };
  for (int i = 0; i < 400 && !sealed(); ++i) sim.run_for(sim::ms(1));
  EXPECT_TRUE(sealed()) << "migration wedged: epoch marker lost to shedding";
  EXPECT_EQ(sys.cluster_layout().epoch, 3u);
}

/// Checkpoints are stamped with the layout epoch they were taken under;
/// a replica restarting with a checkpoint from a superseded layout must
/// reject it (the image straddles ranges it no longer owns) and fall
/// back to a full transfer.
TEST(Reconfig, CheckpointFromSupersededLayoutIsRejected) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 71);
  auto cfg = kv_config();
  cfg.durable.checkpoint_interval = sim::us(500);
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      cfg);
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  auto script = [](core::System& sys, core::Client& client,
                   bool& done) -> sim::Task<void> {
    auto& sim = sys.simulator();
    for (core::Oid k = 0; k < 8; ++k) co_await kv_add(client, k, 1);
    // Let g0.r2 cover the writes with an epoch-1 checkpoint.
    auto& victim = sys.replica(0, 2);
    while (victim.checkpoint_watermark() < victim.last_executed()) {
      co_await sim.sleep(sim::us(200));
    }
    sys.amcast().endpoint(0, 2).node().crash();
    // Move [0, 8) away while the victim is down: its checkpoint now
    // describes a layout that no longer exists.
    sys.schedule_migration(reconfig::Plan{sim.now() + sim::us(50), 0, 8, 0, 1});
    while (sys.migration_times().empty() ||
           sys.migration_times().front().sealed == 0) {
      co_await sim.sleep(sim::us(100));
    }
    sys.restart_replica(0, 2);
    while (victim.rejoining()) co_await sim.sleep(sim::us(100));
    // The stale image was detected by its layout-epoch stamp and dropped.
    EXPECT_GE(victim.checkpoints_rejected_layout(), 1u);
    EXPECT_FALSE(victim.restored_from_checkpoint());
    EXPECT_EQ(victim.layout().epoch, 3u);
    // And the rejoined replica holds no key it no longer owns.
    for (core::Oid k = 0; k < 8; ++k) {
      EXPECT_FALSE(victim.store().exists(k)) << "key " << k;
    }
    done = true;
  };
  sim.spawn(script(sys, client, done));
  for (int i = 0; i < 400 && !done; ++i) sim.run_for(sim::ms(1));
  EXPECT_TRUE(done) << "script did not finish";
}

// ---------------------------------------------------------------------
// Foreground throttle of the background writers
// ---------------------------------------------------------------------

struct ThrottleRun {
  std::uint64_t checkpoints_deferred = 0;
  std::uint64_t copy_deferred = 0;
  std::size_t max_propose_backlog = 0;  // g0's leader, sampled
  bool sealed = false;
};

/// 2x3 RangeKv with checkpoints every 200us and [0, 16) moving g0 -> g1
/// at 1ms, while `clients` closed loops of `ops` increments all start at
/// once. Leaders hold a partial batch of up to 64 for 100us, so a burst
/// queues in their propose queues. Returns the throttle counters summed
/// over every replica.
ThrottleRun run_throttle_cell(int clients, int ops) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 61);
  auto cfg = kv_config();
  cfg.durable.checkpoint_interval = sim::us(200);
  amcast::Config acfg;
  acfg.max_batch = 64;
  acfg.batch_timeout = sim::us(100);
  core::System sys(
      fabric, 2, kReplicas, [] { return std::make_unique<RangeKv>(kKeys); },
      cfg, acfg);
  sys.start();
  for (int c = 0; c < clients; ++c) {
    sim.spawn(rangekv_client_loop(sys, sys.add_client(),
                                  61000 + static_cast<std::uint64_t>(c), ops,
                                  kKeys));
  }
  sys.schedule_migration(reconfig::Plan{sim::ms(1), 0, 16, 0, 1});

  ThrottleRun out;
  auto idle = [&sys] {
    for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
      if (sys.client(c).in_flight()) return false;
    }
    return true;
  };
  for (int i = 0; i < 4000 && !(out.sealed && idle()); ++i) {
    sim.run_for(sim::us(50));
    out.max_propose_backlog = std::max(
        out.max_propose_backlog, sys.amcast().endpoint(0, 0).propose_backlog());
    out.sealed = !sys.migration_times().empty() &&
                 sys.migration_times().front().sealed != 0;
  }
  for (core::GroupId g = 0; g < 2; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.checkpoints_deferred += sys.replica(g, r).checkpoints_deferred();
      out.copy_deferred += sys.replica(g, r).copy_deferred();
    }
  }
  return out;
}

TEST(ForegroundThrottle, BurstDefersCheckpointsAndMigrationCopy) {
  const ThrottleRun run = run_throttle_cell(/*clients=*/192, /*ops=*/10);
  ASSERT_TRUE(run.sealed) << "migration never sealed";
  // The burst is what makes the foreground busy: more than 16 proposals
  // waiting at g0's leader.
  EXPECT_GT(run.max_propose_backlog, 16u);
  EXPECT_GT(run.checkpoints_deferred, 0u);
  EXPECT_GT(run.copy_deferred, 0u);
}

TEST(ForegroundThrottle, IdleRunDefersNothing) {
  const ThrottleRun run = run_throttle_cell(/*clients=*/0, /*ops=*/0);
  ASSERT_TRUE(run.sealed) << "migration never sealed";
  EXPECT_EQ(run.checkpoints_deferred, 0u);
  EXPECT_EQ(run.copy_deferred, 0u);
}

}  // namespace
}  // namespace heron::faultlab
