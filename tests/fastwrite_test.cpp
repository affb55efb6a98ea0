// Hermes-style leased fast writes: warm-cache one-sided commits, every
// fallback trigger, orphaned-INVALIDATE repair, the write-gate takeover
// bugfix, stats-reset hygiene, truncated-read recovery, and mixed
// fast-read/fast-write chaos cells under the LinearChecker oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <regex>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/linear.hpp"
#include "faultlab/plan.hpp"
#include "faultlab/rangekv.hpp"
#include "rdma/fabric.hpp"

namespace heron::faultlab {
namespace {

constexpr std::uint64_t kAccounts = 8;
constexpr std::uint64_t kKvKeys = 16;

core::HeronConfig write_config(sim::Nanos lease_duration,
                               bool fast_writes = true) {
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.lease_duration = lease_duration;
  cfg.fast_writes = fast_writes;
  return cfg;
}

/// Single-client scripted scenario harness: builds a 1x3 bank deployment
/// with leases + fast writes on, runs `script` to completion, and asserts
/// it finished.
template <typename Script>
void run_script(std::uint64_t seed, const core::HeronConfig& cfg,
                Script script, sim::Nanos run_for = sim::ms(50)) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<BankApp>(1, kAccounts); }, cfg);
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn(script(sys, client, done));
  sim.run_for(run_for);
  EXPECT_TRUE(done) << "script did not finish";
}

sim::Task<void> deposit(core::Client& client, core::Oid account,
                        std::int64_t amount) {
  DepositReq req{account, amount};
  const auto res = co_await client.submit(amcast::dst_of(0), kDeposit,
                                          std::as_bytes(std::span(&req, 1)));
  EXPECT_EQ(res.status, core::SubmitStatus::kOk);
}

/// Blind absolute-balance write through the fast path (ordered fallback:
/// BankApp kSet with the same semantics).
sim::Task<core::Client::WriteResult> set_balance(core::Client& client,
                                                 core::Oid account,
                                                 std::int64_t balance) {
  const Account value{balance};
  const DepositReq ordered{account, balance};
  co_return co_await client.write(0, account,
                                  std::as_bytes(std::span(&value, 1)), kSet,
                                  std::as_bytes(std::span(&ordered, 1)));
}

std::int64_t balance_of(const core::Client::ReadResult& res) {
  Account a{};
  EXPECT_EQ(res.value.size(), sizeof(a));
  if (res.value.size() == sizeof(a)) {
    std::memcpy(&a, res.value.data(), sizeof(a));
  }
  return a.balance;
}

std::int64_t stored_balance(core::System& sys, int rank, core::Oid oid) {
  auto [tmp, bytes] = sys.replica(0, rank).store().get(oid);
  Account a{};
  std::memcpy(&a, bytes.data(), sizeof(a));
  return a.balance;
}

// ---------------------------------------------------------------------
// Directed scenarios: the tentpole state machine
// ---------------------------------------------------------------------

sim::Task<void> warm_commit_script(core::System& sys, core::Client& client,
                                   bool& done) {
  co_await deposit(client, 0, 25);
  // Cold cache: the first read is ordered and seeds the slot address.
  const auto r1 = co_await client.read(0, 0);
  EXPECT_EQ(balance_of(r1), 1025);
  // Warm cache + live lease: the write commits one-sided.
  const auto w = co_await set_balance(client, 0, 500);
  EXPECT_TRUE(w.fast);
  EXPECT_EQ(w.fallback_reason, core::kFastWriteNone);
  EXPECT_TRUE(core::is_fast_tmp(w.tmp));
  EXPECT_EQ(w.base_tmp, r1.tmp);  // chained on the version the read saw
  EXPECT_EQ(client.fastwrite_commits(), 1u);
  EXPECT_EQ(client.fastwrite_fallbacks(), 0u);
  // The write completed at INVALIDATE-ack time; the VALIDATE posts are
  // fire-and-forget, so give them a moment to land before peeking at raw
  // replica memory. (Client-visible reads never need this: a fast read
  // spins past the odd seqlock and an ordered read fences on it.)
  co_await sys.simulator().sleep(sim::us(50));
  // The committed value is the current version at EVERY replica, each
  // slot's seqlock is even (no stranded invalidation)...
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(stored_balance(sys, r, 0), 500) << "replica " << r;
    EXPECT_EQ(sys.replica(0, r).store().seqlock(0) & 1, 0u) << "replica " << r;
  }
  // ...and both fast and ordered reads serve it.
  const auto r2 = co_await client.read(0, 0);
  EXPECT_TRUE(r2.fast);
  EXPECT_EQ(r2.tmp, w.tmp);
  EXPECT_EQ(balance_of(r2), 500);
  // A second fast write chains on the first one's fast tmp.
  const auto w2 = co_await set_balance(client, 0, 600);
  EXPECT_TRUE(w2.fast);
  EXPECT_EQ(w2.base_tmp, w.tmp);
  EXPECT_EQ(balance_of(co_await client.read(0, 0)), 600);
  // The ordered stream still wins over fast residue: a deposit after the
  // chain reads the committed 600 and wipes the fast tags everywhere.
  co_await deposit(client, 0, 7);
  const auto r3 = co_await client.read(0, 0);
  EXPECT_EQ(balance_of(r3), 607);
  EXPECT_FALSE(core::is_fast_tmp(r3.tmp));
  co_await sys.simulator().sleep(sim::us(50));  // let followers apply
  for (int r = 0; r < 3; ++r) {
    EXPECT_FALSE(sys.replica(0, r).store().has_fast_trace(0))
        << "replica " << r;
  }
  done = true;
}

TEST(FastWrite, WarmCacheCommitsOneSidedAndConverges) {
  run_script(101, write_config(sim::ms(1)), warm_commit_script);
}

sim::Task<void> fallback_reasons_script(core::System& sys,
                                        core::Client& client, bool& done) {
  co_await deposit(client, 0, 1);
  // Cold cache: no slot address yet.
  const auto w1 = co_await set_balance(client, 0, 50);
  EXPECT_FALSE(w1.fast);
  EXPECT_EQ(w1.fallback_reason, core::kFastWriteColdCache);
  EXPECT_EQ(w1.status, core::SubmitStatus::kOk);
  EXPECT_EQ(stored_balance(sys, 0, 0), 50);  // ordered twin executed
  (void)co_await client.read(0, 0);  // seed the cache
  // Wrong-size value: the one-sided overwrite must match the slot size.
  const std::uint32_t half = 1;
  const DepositReq ordered{0, 60};
  const auto w2 = co_await client.write(0, 0,
                                        std::as_bytes(std::span(&half, 1)),
                                        kSet,
                                        std::as_bytes(std::span(&ordered, 1)));
  EXPECT_FALSE(w2.fast);
  EXPECT_EQ(w2.fallback_reason, core::kFastWriteSizeMismatch);
  EXPECT_EQ(stored_balance(sys, 0, 0), 60);
  // Torn slot at one replica: the probe sees an odd seqlock there and the
  // write falls back as a conflict (the ordered twin's own write bracket
  // re-evens the lock).
  sys.replica(0, 1).store().begin_write(0);
  const auto w3 = co_await set_balance(client, 0, 70);
  EXPECT_FALSE(w3.fast);
  EXPECT_EQ(w3.fallback_reason, core::kFastWriteConflict);
  EXPECT_EQ(client.fastwrite_conflicts(), 1u);
  EXPECT_EQ(stored_balance(sys, 0, 0), 70);
  EXPECT_EQ(client.fastwrite_commits(), 0u);
  EXPECT_EQ(client.fastwrite_fallbacks(), 3u);
  done = true;
}

TEST(FastWrite, FallbacksKeepTheWriteAndRecordTheReason) {
  run_script(103, write_config(sim::ms(1)), fallback_reasons_script);
}

sim::Task<void> disabled_script(core::System&, core::Client& client,
                                bool& done) {
  co_await deposit(client, 0, 1);
  (void)co_await client.read(0, 0);
  const auto w = co_await set_balance(client, 0, 90);
  EXPECT_FALSE(w.fast);
  EXPECT_EQ(w.fallback_reason, core::kFastWriteDisabled);
  EXPECT_EQ(w.status, core::SubmitStatus::kOk);
  done = true;
}

TEST(FastWrite, FeatureFlagOffAlwaysTakesOrderedPath) {
  run_script(107, write_config(sim::ms(1), /*fast_writes=*/false),
             disabled_script);
}

sim::Task<void> expired_lease_script(core::System&, core::Client& client,
                                     bool& done) {
  co_await deposit(client, 0, 1);
  (void)co_await client.read(0, 0);
  // The lease duration is shorter than the ordering latency, so every
  // grant is already expired when sampled: the probe rejects and the
  // write falls back without ever invalidating a slot.
  const auto w = co_await set_balance(client, 0, 90);
  EXPECT_FALSE(w.fast);
  EXPECT_EQ(w.fallback_reason, core::kFastWriteNoLease);
  EXPECT_GE(client.fastwrite_lease_rejects(), 1u);
  EXPECT_EQ(w.status, core::SubmitStatus::kOk);
  done = true;
}

TEST(FastWrite, ExpiredLeaseForcesOrderedFallback) {
  run_script(109, write_config(sim::us(4)), expired_lease_script);
}

/// A writer that invalidated and then died: its INVALIDATE (odd,
/// fast-tagged seqlock) sits on every replica with no VALIDATE coming.
/// Unfenced local readers keep serving the pre-image; the next ordered
/// write to the oid fences on the pending slot, waits out the lease, and
/// its apply-side wipe repairs the residue on every replica.
sim::Task<void> orphan_script(core::System& sys, core::Client& client,
                              bool& done) {
  co_await deposit(client, 0, 25);  // balance 1025
  (void)co_await client.read(0, 0);
  const auto before = stored_balance(sys, 0, 0);
  // Forge the dead writer's INVALIDATE with the same one-sided CAS the
  // real fast path uses (no body write: the crash hit between CAS and
  // the value landing).
  auto& fabric = sys.fabric();
  const auto initiator = client.node().id();
  for (int r = 0; r < 3; ++r) {
    auto& rep = sys.replica(0, r);
    const auto lock = rep.store().seqlock(0);
    const auto [tmp, val] = rep.store().get(0);
    const core::Tmp ftmp = core::next_fast_tmp(tmp, 999);
    std::uint64_t observed = 0;
    const auto cc = co_await fabric.cas(
        initiator,
        rdma::RAddr{rep.node().id(), rep.store().mr(),
                    rep.store().offset_of(0)},
        lock, ftmp | 1, &observed);
    EXPECT_TRUE(cc.ok());
    EXPECT_EQ(observed, lock) << "CAS lost on replica " << r;
    if (!cc.ok() || observed != lock) co_return;
    EXPECT_TRUE(rep.store().fast_pending(0));
    // The pending invalidation is invisible to unfenced local readers.
    EXPECT_EQ(stored_balance(sys, r, 0), before);
  }
  // The next ordered write fences (waits out the lease on the pending
  // slot), discards the orphan, executes, and wipes the residue.
  co_await deposit(client, 0, 10);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(stored_balance(sys, r, 0), 1035) << "replica " << r;
    EXPECT_EQ(sys.replica(0, r).store().seqlock(0) & 1, 0u) << "replica " << r;
    EXPECT_FALSE(sys.replica(0, r).store().has_fast_trace(0))
        << "replica " << r;
  }
  // Fast reads work again.
  const auto r2 = co_await client.read(0, 0);
  EXPECT_EQ(balance_of(r2), 1035);
  done = true;
}

TEST(FastWrite, OrphanedInvalidateIsFencedAndRepaired) {
  run_script(113, write_config(sim::ms(1)), orphan_script);
}

// ---------------------------------------------------------------------
// Satellite: takeover mid-gate must not strand an odd seqlock
// ---------------------------------------------------------------------

/// Regression: Replica::write_gate used to early-return when its
/// incarnation went stale mid-wait, leaving the request's write brackets
/// (odd seqlocks) permanently stranded — every later fast read of those
/// oids saw a torn slot forever. A takeover is an incarnation bump
/// WITHOUT a restart, so no restart sweep ever repaired them.
sim::Task<void> takeover_script(core::System& sys, core::Client& client,
                                bool& done) {
  auto& sim = sys.simulator();
  co_await deposit(client, 0, 5);
  // Crash a follower: its applied-word mirror at the leader stops
  // advancing, so the next write's gate must wait (capped by the lease).
  sys.amcast().endpoint(0, 2).node().crash();
  co_await sim.sleep(sim::us(50));
  auto& leader = sys.replica(0, 0);
  const auto waits_before = leader.gate_waits();
  sim.spawn([](core::Client& client) -> sim::Task<void> {
    DepositReq req{0, 7};
    // The takeover stalls the leader's main loop mid-request; the
    // submit's terminal status is irrelevant here — only the bracket
    // hygiene below is.
    (void)co_await client.submit(amcast::dst_of(0), kDeposit,
                                 std::as_bytes(std::span(&req, 1)));
  }(client));
  while (leader.gate_waits() == waits_before) co_await sim.sleep(sim::us(2));
  // Mid-gate: the slot is bracketed (odd) and the gate is waiting.
  EXPECT_GT(leader.open_bracket_count(), 0u);
  leader.debug_bump_incarnation();  // takeover, no restart
  // Let the capped gate wait run out (the lease is 1 ms).
  co_await sim.sleep(sim::ms(3));
  EXPECT_EQ(leader.open_bracket_count(), 0u)
      << "takeover mid-gate stranded a write bracket";
  EXPECT_EQ(leader.store().seqlock(0) & 1, 0u)
      << "takeover mid-gate left the seqlock permanently odd";
  done = true;
}

TEST(FastWrite, TakeoverMidGateReleasesWriteBrackets) {
  run_script(127, write_config(sim::ms(1)), takeover_script);
}

// ---------------------------------------------------------------------
// System::reset_stats is the one reset, and every statistic has one home
// ---------------------------------------------------------------------

/// Fast reads and fast writes on a warm cache, so the one-sided paths run
/// next to the bank transfers.
sim::Task<void> fast_path_loop(core::Client& client, int ops) {
  for (int k = 0; k < ops; ++k) {
    const auto oid = static_cast<core::Oid>(k % kAccounts);
    co_await client.read(0, oid);
    co_await set_balance(client, oid, 1000 + k);
  }
}

/// Counters of a registry snapshot whose value is not 0, as
/// "subsystem/name/label=value" (walks every counter; no name list).
std::vector<std::string> nonzero_counters(
    const telemetry::MetricsRegistry& metrics) {
  const std::string json = metrics.to_json();
  const std::size_t end = json.find("\"gauges\"");
  static const std::regex kCounter(
      R"re(\{"subsystem":"([^"]*)","name":"([^"]*)",)re"
      R"re("label":"([^"]*)","value":(\d+)\})re");
  std::vector<std::string> out;
  std::size_t seen = 0;
  for (auto it = std::sregex_iterator(json.begin(), json.begin() + end,
                                      kCounter);
       it != std::sregex_iterator(); ++it) {
    ++seen;
    const auto& m = *it;
    if (m[4].str() != "0") {
      out.push_back(m[1].str() + "/" + m[2].str() + "/" + m[3].str() + "=" +
                    m[4].str());
    }
  }
  EXPECT_GT(seen, 100u) << "counter snapshot did not parse";
  return out;
}

/// One statistic read through its accessor and through its registry
/// counter; `exercised` statistics must also be non-zero.
struct StatPair {
  std::string what;
  std::uint64_t accessor;
  std::uint64_t counter;
  bool exercised;
};

std::vector<StatPair> stat_pairs(core::System& sys, rdma::Fabric& fabric) {
  auto& m = fabric.telemetry().metrics;
  std::vector<StatPair> out;
  auto add = [&](std::string what, std::uint64_t accessor,
                 std::uint64_t counter, bool exercised) {
    out.push_back({std::move(what), accessor, counter, exercised});
  };
  auto ctr = [&](const char* sub, const char* name, const std::string& label) {
    return m.counter(sub, name, label).value();
  };
  for (int r = 0; r < 3; ++r) {
    auto& rep = sys.replica(0, r);
    const std::string l = "g0.r" + std::to_string(r);
    const core::CoordStats cs = rep.coord_stats();
    add(l + " executed", rep.executed_count(), ctr("core", "executed", l),
        true);
    add(l + " skipped", rep.skipped_count(), ctr("core", "skipped", l), false);
    add(l + " state_transfers", rep.state_transfers(),
        ctr("core", "state_transfers", l), false);
    add(l + " transfers_served", rep.transfers_served(),
        ctr("core", "transfers_served", l), false);
    add(l + " dedup_hits", rep.dedup_hits(),
        ctr("core", "session_dedup_hits", l), false);
    add(l + " shed_replies", rep.shed_replies(), ctr("core", "shed_replies", l),
        false);
    add(l + " lease_grants", rep.lease_grants(), ctr("core", "lease_grants", l),
        true);
    add(l + " gate_waits", rep.gate_waits(), ctr("core", "gate_waits", l),
        true);
    add(l + " fast_fence_waits", rep.stat(core::Replica::kFastFenceWaits),
        ctr("core", "fastwrite_fence_waits", l), true);
    add(l + " fast_discards", rep.stat(core::Replica::kFastDiscards),
        ctr("core", "fastwrite_discards", l), false);
    add(l + " fast_repairs", rep.fast_repairs(),
        ctr("core", "fastwrite_repairs", l), true);
    add(l + " fast_adopted", rep.stat(core::Replica::kFastAdopted),
        ctr("core", "fastwrite_reconciled_adopted", l), false);
    add(l + " fast_rediscarded", rep.stat(core::Replica::kFastRediscarded),
        ctr("core", "fastwrite_reconciled_discarded", l), false);
    add(l + " coord multi_partition", cs.multi_partition,
        ctr("core", "coord_multi_partition", l), false);
    add(l + " coord delayed", cs.delayed, ctr("core", "coord_delayed", l),
        false);
    add(l + " coord delay_sum", static_cast<std::uint64_t>(cs.delay_sum),
        ctr("core", "coord_delay_ns", l), false);
    add(l + " coord gave_up", cs.gave_up, ctr("core", "coord_gave_up", l),
        false);
    add(l + " checkpoints_completed", rep.checkpoints_completed(),
        ctr("durable", "replica_checkpoints", l), false);
    add(l + " checkpoints_deferred", rep.checkpoints_deferred(),
        ctr("durable", "checkpoints_deferred", l), false);
    add(l + " sessions_evicted", rep.sessions_evicted(),
        ctr("durable", "sessions_evicted", l), false);
    add(l + " stale_session_replies", rep.stale_session_replies(),
        ctr("durable", "stale_session_replies", l), false);
    add(l + " xfer_applied_full_bytes", rep.xfer_applied_full_bytes(),
        ctr("xfer", "applied_full_bytes", l), false);
    add(l + " xfer_applied_delta_bytes", rep.xfer_applied_delta_bytes(),
        ctr("xfer", "applied_delta_bytes", l), false);
    add(l + " copy_chunks_sent", rep.copy_chunks_sent(),
        ctr("copy", "chunks_sent", l), false);
    add(l + " copy_chunks_received", rep.copy_chunks_received(),
        ctr("copy", "chunks_received", l), false);
    add(l + " copy_chunks_corrupt", rep.copy_chunks_corrupt(),
        ctr("copy", "chunks_corrupt", l), false);
    add(l + " copy_pulls", rep.copy_pulls(), ctr("copy", "resends", l), false);
    add(l + " copy_pulls_served", rep.copy_pulls_served(),
        ctr("copy", "resends_served", l), false);
    add(l + " copy_deferred", rep.copy_deferred(),
        ctr("reconfig", "copy_deferred", l), false);
    add(l + " wrong_epoch_replies", rep.wrong_epoch_replies(),
        ctr("reconfig", "wrong_epoch_replies", l), false);
    add(l + " quiesce_deferred", rep.quiesce_deferred(),
        ctr("reconfig", "quiesce_deferred", l), false);
    add(l + " migrated_out", rep.migrated_out(),
        ctr("reconfig", "migrated_out", l), false);
    add(l + " migrated_in", rep.migrated_in(),
        ctr("reconfig", "migrated_in", l), false);
    add(l + " checkpoints_rejected_layout", rep.checkpoints_rejected_layout(),
        ctr("reconfig", "checkpoints_rejected_layout", l), false);
  }
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    const std::string l = "c" + std::to_string(cl.id());
    add(l + " completed", cl.completed(), ctr("client", "completed", l), true);
    add(l + " retries", cl.retries(), ctr("client", "retries", l), false);
    add(l + " timeouts", cl.timeouts(), ctr("client", "timeouts", l), false);
    add(l + " overloaded", cl.overloaded(), ctr("client", "overloaded", l),
        false);
    add(l + " busy_replies", cl.busy_replies(),
        ctr("client", "busy_replies", l), false);
    add(l + " fastread_hits", cl.fastread_hits(),
        ctr("core", "fastread_hits", l), false);
    add(l + " fastread_torn_retries", cl.fastread_torn_retries(),
        ctr("core", "fastread_torn_retries", l), false);
    add(l + " fastread_fallbacks", cl.fastread_fallbacks(),
        ctr("core", "fastread_fallbacks", l), false);
    add(l + " fastread_lease_rejects", cl.fastread_lease_rejects(),
        ctr("core", "fastread_lease_rejects", l), false);
    add(l + " fastwrite_commits", cl.fastwrite_commits(),
        ctr("core", "fastwrite_commits", l), false);
    add(l + " fastwrite_conflicts", cl.fastwrite_conflicts(),
        ctr("core", "fastwrite_conflicts", l), false);
    add(l + " fastwrite_fallbacks", cl.fastwrite_fallbacks(),
        ctr("core", "fastwrite_fallbacks", l), false);
    add(l + " fastwrite_lease_rejects", cl.fastwrite_lease_rejects(),
        ctr("core", "fastwrite_lease_rejects", l), false);
    add(l + " wrong_epoch_retries", cl.wrong_epoch_retries(),
        ctr("reconfig", "client_wrong_epoch", l), false);
  }
  const rdma::FabricStats fs = fabric.stats();
  add("fabric reads", fs.reads, ctr("rdma", "read_ops", ""), true);
  add("fabric writes", fs.writes,
      ctr("rdma", "write_ops", "") + ctr("rdma", "write_async_ops", ""), true);
  add("fabric read_bytes", fs.read_bytes, ctr("rdma", "read_bytes", ""), true);
  add("fabric write_bytes", fs.write_bytes, ctr("rdma", "write_bytes", ""),
      true);
  add("fabric failures", fs.failures,
      ctr("rdma", "completion_errors", "") + ctr("rdma", "bad_address", ""),
      false);
  add("fabric credit_stalls", fs.credit_stalls,
      ctr("rdma", "credit_stalls", ""), true);
  add("fabric uplink_queued", fs.uplink_queued,
      ctr("rdma", "uplink_queued", ""), true);
  add("fabric priority_ops", fs.priority_ops, ctr("rdma", "priority_ops", ""),
      true);
  add("fabric injected_ops", fs.injected_ops, ctr("rdma", "injected_ops", ""),
      true);
  add("fabric injected_bytes", fs.injected_bytes,
      ctr("rdma", "injected_bytes", ""), true);
  add("lease_renewals_skipped", sys.lease_renewals_skipped(),
      ctr("core", "lease_renewals_skipped", "g0"), true);
  return out;
}

/// Regression: reset_stats once missed lease_renewals_skipped_, so every
/// report that reset after a warm-up phase carried the warm-up's skip
/// count forever. Now every statistic is a registry counter: with
/// telemetry off, each accessor reads its counter, and one reset zeroes
/// them all. Drive a faulted run (congestion window, fast reads and
/// writes), check every accessor against its counter, reset, and require
/// every counter in the registry to read 0.
TEST(FastWrite, ResetStatsClearsLeaseRenewalSkips) {
  sim::Simulator sim;
  // All three replicas share one oversubscribed rack uplink so the incast
  // actually builds backlog the renewal gate can see (the flat default
  // model never queues enough to trip it).
  rdma::LatencyModel congested;
  congested.rack_size = 3;
  congested.oversub_ratio = 2.0;
  congested.credit_window = 4;
  rdma::Fabric fabric(sim, congested, 131);
  core::HeronConfig cfg = write_config(sim::us(400));
  cfg.lease_backpressure_threshold = sim::us(50);
  cfg.client_attempt_timeout = sim::ms(2);
  cfg.client_max_retries = 12;
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<BankApp>(1, kAccounts); }, cfg);
  sys.start();
  auto& client = sys.add_client();
  sim.spawn(bank_client_loop(sys, client, 131, /*ops=*/40, kAccounts));
  sim.spawn(fast_path_loop(sys.add_client(), /*ops=*/40));
  Injector injector(sys);
  injector.run(FaultPlan::parse("plan", "incast g0.r0 f8 b32768 p20us "
                                        "@ 2ms for 4ms"));
  sim.run_for(sim::ms(20));

  ASSERT_FALSE(fabric.telemetry().metrics.enabled());
  for (const StatPair& p : stat_pairs(sys, fabric)) {
    EXPECT_EQ(p.accessor, p.counter) << p.what;
    if (p.exercised) {
      EXPECT_GT(p.accessor, 0u) << p.what;
    }
  }
  auto& reader = sys.client(1);
  EXPECT_GT(reader.fastread_hits(), 0u);
  EXPECT_GT(reader.fastread_fallbacks(), 0u);
  EXPECT_GT(reader.fastwrite_commits(), 0u);
  EXPECT_GT(reader.fastwrite_fallbacks(), 0u);

  sys.reset_stats();
  EXPECT_EQ(nonzero_counters(fabric.telemetry().metrics),
            std::vector<std::string>{});
  for (const StatPair& p : stat_pairs(sys, fabric)) {
    EXPECT_EQ(p.accessor, 0u) << p.what;
  }
  EXPECT_EQ(client.latencies().count(), 0u);
  EXPECT_EQ(sys.replica(0, 0).exec_lat().count(), 0u);
}

// ---------------------------------------------------------------------
// Satellite: first read of a large object must not stay truncated
// ---------------------------------------------------------------------

constexpr std::size_t kBigSize = core::kMaxReadInline + 64;

/// One partition, one object of kBigSize bytes — larger than an ordered
/// read reply can carry inline.
class BigObjectApp : public core::Application {
 public:
  [[nodiscard]] core::GroupId partition_of(core::Oid) const override {
    return 0;
  }
  [[nodiscard]] std::vector<core::Oid> read_set(
      const core::Request&, core::GroupId) const override {
    return {};
  }
  core::Reply execute(const core::Request&, core::ExecContext& ctx) override {
    ctx.charge(sim::us(1));
    return core::Reply{};
  }
  void bootstrap(core::GroupId, core::ObjectStore& store) override {
    std::vector<std::byte> init(kBigSize);
    for (std::size_t i = 0; i < init.size(); ++i) {
      init[i] = static_cast<std::byte>(i & 0xFF);
    }
    store.create(0, init);
  }
};

/// Regression: the FIRST read of an object wider than the inline reply
/// budget returned the clipped ordered value even with leases on — the
/// truncated reply had just seeded the address cache, but read() never
/// looped back to the (uncapped) fast path.
TEST(FastWrite, FirstReadOfLargeObjectReturnsFullValue) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 137);
  core::HeronConfig cfg = write_config(sim::ms(1));
  cfg.object_region_bytes = 1u << 22;
  core::System sys(
      fabric, /*partitions=*/1, /*replicas=*/3,
      [] { return std::make_unique<BigObjectApp>(); }, cfg);
  sys.start();
  auto& client = sys.add_client();
  bool done = false;
  sim.spawn([](core::Client& client, bool& done) -> sim::Task<void> {
    const auto r1 = co_await client.read(0, 0);
    EXPECT_EQ(r1.status, 0u) << "first read stayed truncated";
    EXPECT_TRUE(r1.fast) << "retry did not land on the fast path";
    EXPECT_EQ(r1.value.size(), kBigSize);
    if (r1.value.size() == kBigSize) {
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < kBigSize; ++i) {
        if (r1.value[i] != static_cast<std::byte>(i & 0xFF)) ++mismatches;
      }
      EXPECT_EQ(mismatches, 0u) << "returned value is corrupt";
    }
    done = true;
  }(client, done));
  sim.run_for(sim::ms(20));
  EXPECT_TRUE(done) << "script did not finish";
  // Without a live lease the truncated ordered answer is still returned
  // honestly (correctly flagged) rather than looping forever.
  EXPECT_GE(client.fastread_fallbacks(), 1u);
}

// ---------------------------------------------------------------------
// Chaos cells: mixed fast-read/fast-write histories under faults
// ---------------------------------------------------------------------

struct WriteCellResult {
  std::uint64_t completed = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t fw_commits = 0;
  std::uint64_t fw_conflicts = 0;
  std::uint64_t fw_fallbacks = 0;
  std::uint64_t fw_lease_rejects = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t fast_repairs = 0;
  std::size_t reads_checked = 0;
  std::size_t writes_checked = 0;
  std::vector<std::uint64_t> digests;
  std::vector<Violation> violations;
};

/// Closed-loop mixed client: fast reads, blind fast writes (kSet), and
/// ordered read-modify-write deposits on the same keys. Every completed
/// operation is reported to the LinearChecker.
sim::Task<void> mixed_rw_loop(core::System& sys, core::Client& client,
                              LinearChecker& lin, std::uint64_t seed, int ops,
                              double read_ratio, double fast_write_ratio) {
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
    } else if (rng.chance(fast_write_ratio)) {
      const auto bal = static_cast<std::int64_t>(rng.bounded(100000));
      const Account value{bal};
      const DepositReq ordered{oid, bal};
      const sim::Nanos t0 = sim.now();
      const auto res = co_await client.write(
          home, oid, std::as_bytes(std::span(&value, 1)), kSet,
          std::as_bytes(std::span(&ordered, 1)));
      if (res.fast) {
        lin.note_fast_write(oid, res.tmp, res.base_tmp, t0, sim.now());
      } else {
        lin.note_write(oid, client.id(), res.session_seq, t0, sim.now(),
                       res.status);
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

WriteCellResult run_write_cell(std::uint64_t seed, int partitions,
                               int clients, int ops,
                               sim::Nanos lease_duration,
                               const std::string& plan_text = "") {
  constexpr int kReplicas = 3;
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::HeronConfig cfg = write_config(lease_duration);
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
    sim.spawn(mixed_rw_loop(sys, sys.add_client(), lin,
                            seed * 1000 + static_cast<std::uint64_t>(c), ops,
                            /*read_ratio=*/0.5, /*fast_write_ratio=*/0.6));
  }
  Injector injector(sys);
  injector.run(FaultPlan::parse("plan", plan_text));
  sim.run_for(sim::ms(100));

  WriteCellResult out;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.completed += cl.completed();
    out.fast_hits += cl.fastread_hits();
    out.fw_commits += cl.fastwrite_commits();
    out.fw_conflicts += cl.fastwrite_conflicts();
    out.fw_fallbacks += cl.fastwrite_fallbacks();
    out.fw_lease_rejects += cl.fastwrite_lease_rejects();
    EXPECT_FALSE(cl.in_flight()) << "client " << c << " hung";
  }
  for (core::GroupId g = 0; g < partitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.lease_grants += sys.replica(g, r).lease_grants();
      out.fast_repairs += sys.replica(g, r).fast_repairs();
      if (!sys.replica(g, r).node().alive()) continue;
      out.digests.push_back(store_digest(sys.replica(g, r)));
      // No cell may end with a stranded invalidation: every slot's
      // seqlock must be even once the workload drains.
      sys.replica(g, r).store().for_each_oid([&](core::Oid oid) {
        EXPECT_EQ(sys.replica(g, r).store().seqlock(oid) & 1, 0u)
            << "g" << g << ".r" << r << " oid " << oid
            << " left with an odd seqlock";
      });
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

void expect_clean(const WriteCellResult& res) {
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

/// Regression: the version-order walk stopped after 64 fast-write links,
/// so a read at the end of a longer unbroken chain got a truncated key
/// that matched no write, and a clean history reported violations.
TEST(LinearChecker, LongFastWriteChainIsClean) {
  constexpr int kLinks = 120;
  constexpr core::Oid kKey = 3;
  LinearChecker lin;
  core::Tmp base = 0;  // the bootstrap version
  for (int i = 1; i <= kLinks; ++i) {
    const core::Tmp tmp = core::next_fast_tmp(base, /*client_id=*/1);
    const sim::Nanos at = 100 * i;
    lin.note_fast_write(kKey, tmp, base, at, at + 10);
    // Each version is read back right after it committed.
    lin.note_read(kKey, tmp, at + 20, at + 30, /*fast=*/true);
    base = tmp;
  }
  ASSERT_EQ(lin.write_count(), static_cast<std::size_t>(kLinks));
  const HistoryRecorder history;
  const auto violations = lin.check(history);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << violations.front().detail;
}

TEST(FastWrite, MixedWorkloadIsLinearizableAndMostlyOneSided) {
  const auto res = run_write_cell(139, /*partitions=*/2, /*clients=*/3,
                                  /*ops=*/60, sim::ms(1));
  expect_clean(res);
  EXPECT_GT(res.reads_checked, 0u);
  EXPECT_GT(res.writes_checked, 0u);
  EXPECT_GT(res.fw_commits, 0u);
  // Healthy leases: commits dominate fallbacks (cold-cache seeds aside).
  EXPECT_GT(res.fw_commits, res.fw_fallbacks);
}

TEST(FastWrite, LeaderCrashDuringFastWritesStaysLinearizable) {
  const auto res = run_write_cell(149, /*partitions=*/2, /*clients=*/3,
                                  /*ops=*/40, sim::ms(1),
                                  "crash g0.r0 @ 500us; restart g0.r0 @ 5ms");
  expect_clean(res);
  EXPECT_GT(res.fw_commits, 0u);
  EXPECT_GT(res.reads_checked, 0u);
  // Every closed-loop command completed despite the crash window (fast
  // ops answer outside the ordered submit path, so they count apart).
  // Fast-write commits count in completed() too, so the closed-loop
  // identity is completed + fast-read hits == total ops.
  EXPECT_EQ(res.completed + res.fast_hits, 3u * 40u);
}

TEST(FastWrite, LeaseExpiryMidWriteStaysLinearizable) {
  // Leases one order shorter than in the healthy cell: grants spend most
  // of their life near expiry, so probes and the pre-VALIDATE margin
  // check constantly race lease churn mid-flight.
  const auto res = run_write_cell(151, /*partitions=*/2, /*clients=*/3,
                                  /*ops=*/40, sim::us(60));
  expect_clean(res);
  EXPECT_GT(res.fw_fallbacks + res.fw_lease_rejects, 0u);
}

TEST(FastWrite, ChaosMixIsDeterministic) {
  const auto a = run_write_cell(157, 2, 3, 30, sim::ms(1),
                                "crash g0.r1 @ 1ms; restart g0.r1 @ 4ms");
  const auto b = run_write_cell(157, 2, 3, 30, sim::ms(1),
                                "crash g0.r1 @ 1ms; restart g0.r1 @ 4ms");
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fast_hits, b.fast_hits);
  EXPECT_EQ(a.fw_commits, b.fw_commits);
  EXPECT_EQ(a.fw_conflicts, b.fw_conflicts);
  EXPECT_EQ(a.fw_fallbacks, b.fw_fallbacks);
  EXPECT_EQ(a.fw_lease_rejects, b.fw_lease_rejects);
  EXPECT_EQ(a.lease_grants, b.lease_grants);
  EXPECT_EQ(a.fast_repairs, b.fast_repairs);
  EXPECT_EQ(a.digests, b.digests);
}

// ---------------------------------------------------------------------
// Chaos cell: reconfiguration epoch bump mid-write
// ---------------------------------------------------------------------

/// Layout-routed RangeKv mix: fast reads, blind fast writes (kKvSet),
/// and ordered increments, while the controller migrates a key range to
/// another group mid-run. Fast writes racing the bump must either commit
/// before the flip (and be carried by the copy stream) or fall back and
/// re-route via WrongEpoch.
TEST(FastWrite, EpochBumpMidFastWriteStaysLinearizable) {
  constexpr int kPartitions = 2;
  constexpr int kClients = 3;
  constexpr int kOps = 40;
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 163);
  core::HeronConfig cfg = write_config(sim::ms(1));
  cfg.reconfig_keys = kKvKeys;  // epoch-versioned layout routing on
  cfg.client_attempt_timeout = sim::us(500);
  cfg.client_max_retries = 12;
  core::System sys(
      fabric, kPartitions, /*replicas=*/3,
      [] { return std::make_unique<RangeKv>(kKvKeys); }, cfg);
  HistoryRecorder history;
  history.attach(sys);
  ExecTracker tracker;
  tracker.attach(sys);
  sys.start();

  LinearChecker lin;
  for (int c = 0; c < kClients; ++c) {
    sim.spawn([](core::System& sys, core::Client& client, LinearChecker& lin,
                 std::uint64_t seed, int ops) -> sim::Task<void> {
      sim::Rng rng(seed);
      auto& sim = sys.simulator();
      for (int k = 0; k < ops; ++k) {
        const core::Oid key = rng.bounded(kKvKeys);
        const auto home = client.layout().owner_of(key);
        if (rng.chance(0.4)) {
          const sim::Nanos t0 = sim.now();
          const auto res = co_await client.read(home, key);
          if (res.submit_status == core::SubmitStatus::kOk &&
              res.status == 0) {
            lin.note_read(key, res.tmp, t0, sim.now(), res.fast);
          }
        } else if (rng.chance(0.7)) {
          const KvCell value{static_cast<std::int64_t>(rng.bounded(100000))};
          const KvAddReq ordered{key, value.value};
          const sim::Nanos t0 = sim.now();
          const auto res = co_await client.write(
              home, key, std::as_bytes(std::span(&value, 1)), kKvSet,
              std::as_bytes(std::span(&ordered, 1)));
          if (res.fast) {
            lin.note_fast_write(key, res.tmp, res.base_tmp, t0, sim.now());
          } else {
            lin.note_write(key, client.id(), res.session_seq, t0, sim.now(),
                           res.status);
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
    }(sys, sys.add_client(), lin, 163 * 1000 + static_cast<std::uint64_t>(c),
      kOps));
  }
  sys.schedule_migration(reconfig::Plan{sim::ms(2), 0, 8, 0, 1});
  sim.run_for(sim::ms(120));

  EXPECT_FALSE(sys.migration_times().empty());
  if (!sys.migration_times().empty()) {
    EXPECT_GT(sys.migration_times().front().sealed, 0)
        << "migration never sealed";
  }
  std::uint64_t commits = 0;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    commits += sys.client(c).fastwrite_commits();
    EXPECT_FALSE(sys.client(c).in_flight()) << "client " << c << " hung";
  }
  EXPECT_GT(commits, 0u);
  EXPECT_GT(lin.read_count(), 0u);
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

}  // namespace
}  // namespace heron::faultlab
