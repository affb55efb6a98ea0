// Robust client lifecycle end to end: retries with session dedup
// (at-least-once delivery, at-most-once execution), BUSY shedding under
// admission control, explicit timeouts when a group stalls, the
// overlapping-submit guard, and session recovery via Algorithm 3 state
// transfer after a crash.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/system.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "faultlab/injector.hpp"
#include "faultlab/plan.hpp"
#include "rdma/fabric.hpp"

namespace heron::faultlab {
namespace {

constexpr std::uint64_t kAccounts = 8;

/// Aggregate outcome of a retry-enabled bank run, for assertions and
/// determinism comparison.
struct RetryCellResult {
  std::uint64_t completed = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t dedup_hits = 0;
  std::uint64_t shed_replies = 0;
  std::vector<std::uint64_t> digests;
  std::vector<Violation> violations;
};

/// Bank run with the robust lifecycle and a deliberately tight attempt
/// timeout, so retries (and hence replica-side dedup) actually happen.
RetryCellResult run_retry_cell(std::uint64_t seed, int partitions,
                               int clients, int ops,
                               std::uint32_t admission_window,
                               const std::string& plan_text = "") {
  constexpr int kReplicas = 3;

  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, seed);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.client_attempt_timeout = sim::us(20);  // tighter than a typical op
  cfg.client_max_retries = 12;
  cfg.client_retry_backoff = sim::us(10);
  cfg.client_retry_backoff_max = sim::us(200);
  cfg.client_deadline = sim::ms(50);
  amcast::Config acfg;
  acfg.admission_window = admission_window;
  core::System sys(
      fabric, partitions, kReplicas,
      [partitions] {
        return std::make_unique<BankApp>(partitions, kAccounts);
      },
      cfg, acfg);
  HistoryRecorder history;
  history.attach(sys);
  sys.start();

  for (int c = 0; c < clients; ++c) {
    sim.spawn(bank_client_loop(sys, sys.add_client(),
                               seed * 1000 + static_cast<std::uint64_t>(c),
                               ops, kAccounts));
  }
  Injector injector(sys);
  injector.run(FaultPlan::parse("plan", plan_text));
  sim.run_for(sim::ms(400));

  RetryCellResult out;
  for (std::uint32_t c = 0; c < sys.client_count(); ++c) {
    auto& cl = sys.client(c);
    out.completed += cl.completed();
    out.retries += cl.retries();
    out.timeouts += cl.timeouts();
    out.overloaded += cl.overloaded();
    EXPECT_FALSE(cl.in_flight()) << "client " << c << " hung";
  }
  for (core::GroupId g = 0; g < partitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      out.dedup_hits += sys.replica(g, r).dedup_hits();
      out.shed_replies += sys.replica(g, r).shed_replies();
      if (!sys.replica(g, r).node().alive()) continue;
      out.digests.push_back(store_digest(sys.replica(g, r)));
    }
  }
  out.violations =
      check_amcast_properties(history, sys, injector.ever_crashed());
  check_exactly_once(history, out.violations);
  check_store_convergence(sys, out.violations);

  // Bank conservation: transfers move money, never create it. Retried
  // commands must not execute twice anywhere.
  const std::int64_t want = static_cast<std::int64_t>(partitions) *
                            static_cast<std::int64_t>(kAccounts) * 1000;
  for (int r = 0; r < kReplicas; ++r) {
    if (!sys.replica(0, r).node().alive()) continue;
    EXPECT_EQ(bank_total(sys, r, kAccounts), want) << "rank " << r;
  }
  return out;
}

TEST(ClientRobustness, RetriesAreDedupedAndConserveMoney) {
  const auto res = run_retry_cell(31, /*partitions=*/2, /*clients=*/3,
                                  /*ops=*/20, /*admission_window=*/0);
  // Every command eventually succeeded despite the tight attempt timeout.
  EXPECT_EQ(res.completed, 3u * 20u);
  EXPECT_EQ(res.timeouts, 0u);
  EXPECT_EQ(res.overloaded, 0u);
  // The timeout was tight enough to force retries, and some retried
  // attempts reached replicas after the original executed.
  EXPECT_GT(res.retries, 0u);
  EXPECT_GT(res.dedup_hits, 0u);
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

TEST(ClientRobustness, RetryLifecycleIsDeterministic) {
  const auto a = run_retry_cell(47, 2, 3, 15, 0);
  const auto b = run_retry_cell(47, 2, 3, 15, 0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dedup_hits, b.dedup_hits);
  EXPECT_EQ(a.digests, b.digests);
}

TEST(ClientRobustness, AdmissionWindowShedsAndClientsRecover) {
  // A tiny admission window under 8 concurrent clients on one group:
  // leaders shed, replicas answer BUSY without executing, clients back
  // off and either finish or give up explicitly — never hang — and the
  // shed commands leave no trace in the balances.
  const auto res = run_retry_cell(13, /*partitions=*/1, /*clients=*/8,
                                  /*ops=*/10, /*admission_window=*/2);
  EXPECT_GT(res.shed_replies, 0u);
  EXPECT_EQ(res.completed + res.timeouts + res.overloaded, 8u * 10u);
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }
}

TEST(ClientRobustness, StalledGroupYieldsExplicitTimeout) {
  // Failover off + dead leader: the group can never order the command.
  // The legacy client would hang forever; the robust client burns its
  // retry budget and reports kTimeout within the deadline.
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 3);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.client_attempt_timeout = sim::us(200);
  cfg.client_max_retries = 3;
  cfg.client_retry_backoff = sim::us(20);
  cfg.client_deadline = sim::ms(5);
  amcast::Config acfg;
  acfg.enable_failover = false;
  core::System sys(
      fabric, 1, 3, [] { return std::make_unique<BankApp>(1, kAccounts); },
      cfg, acfg);
  sys.start();
  core::Client& client = sys.add_client();

  core::Client::Result result;
  bool finished = false;
  sim.spawn([](core::System& s, core::Client& c, core::Client::Result& out,
               bool& done) -> sim::Task<void> {
    // Submit only after the leader is gone, so no attempt sneaks through.
    co_await s.simulator().sleep(sim::us(100));
    DepositReq req{0, 5};
    out = co_await c.submit(amcast::dst_of(0), kDeposit,
                            std::as_bytes(std::span(&req, 1)));
    done = true;
  }(sys, client, result, finished));

  Injector injector(sys);
  injector.run(FaultPlan::parse("dead-leader", "crash g0.r0 @ 10us"));
  sim.run_for(sim::ms(20));

  ASSERT_TRUE(finished) << "submit never terminated";
  EXPECT_EQ(result.status, core::SubmitStatus::kTimeout);
  EXPECT_EQ(result.attempts, 4);  // 1 + client_max_retries
  EXPECT_LE(result.latency, cfg.client_deadline);
  EXPECT_EQ(client.completed(), 0u);
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST(ClientRobustness, OverlappingSubmitThrows) {
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 5);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  core::System sys(
      fabric, 1, 3, [] { return std::make_unique<BankApp>(1, kAccounts); },
      cfg);
  sys.start();
  core::Client& client = sys.add_client();

  bool first_done = false;
  bool threw = false;
  sim.spawn([](core::Client& c, bool& done) -> sim::Task<void> {
    DepositReq req{0, 1};
    co_await c.submit(amcast::dst_of(0), kDeposit,
                      std::as_bytes(std::span(&req, 1)));
    done = true;
  }(client, first_done));
  sim.spawn([](core::Client& c, bool& t) -> sim::Task<void> {
    DepositReq req{1, 1};
    try {
      co_await c.submit(amcast::dst_of(0), kDeposit,
                        std::as_bytes(std::span(&req, 1)));
    } catch (const std::logic_error&) {
      t = true;
    }
  }(client, threw));
  sim.run_for(sim::ms(10));

  EXPECT_TRUE(first_done);
  EXPECT_TRUE(threw) << "second concurrent submit must fail loudly";
  EXPECT_EQ(client.completed(), 1u);
}

TEST(ClientRobustness, SessionsSurviveCrashViaStateTransfer) {
  // Follower crashes mid-workload and restarts only after the workload
  // quiesced: every session entry it holds afterwards arrived via the
  // Algorithm 3 rejoin transfer, so the table must match the donor's
  // exactly — the rejoined replica keeps deduplicating retried commands.
  const auto res =
      run_retry_cell(61, /*partitions=*/2, /*clients=*/3, /*ops=*/20,
                     /*admission_window=*/0,
                     "crash g0.r1 @ 1ms; restart g0.r1 @ 80ms");
  EXPECT_EQ(res.completed, 3u * 20u);
  for (const auto& v : res.violations) {
    ADD_FAILURE() << "[" << v.oracle << "] " << v.detail;
  }

  // Re-run the same cell inline to inspect the session tables (the
  // helper tears its system down); cheaper: assert on a fresh run.
  sim::Simulator sim;
  rdma::Fabric fabric(sim, rdma::LatencyModel{}, 61);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.client_attempt_timeout = sim::us(20);
  cfg.client_max_retries = 12;
  cfg.client_retry_backoff = sim::us(10);
  cfg.client_retry_backoff_max = sim::us(200);
  cfg.client_deadline = sim::ms(50);
  core::System sys(
      fabric, 2, 3, [] { return std::make_unique<BankApp>(2, kAccounts); },
      cfg);
  sys.start();
  for (int c = 0; c < 3; ++c) {
    sim.spawn(bank_client_loop(sys, sys.add_client(),
                               61 * 1000 + static_cast<std::uint64_t>(c), 20,
                               kAccounts));
  }
  Injector injector(sys);
  injector.run(
      FaultPlan::parse("plan", "crash g0.r1 @ 1ms; restart g0.r1 @ 80ms"));
  sim.run_for(sim::ms(400));

  const auto& donor = sys.replica(0, 0).sessions();
  const auto& rejoined = sys.replica(0, 1).sessions();
  ASSERT_FALSE(donor.empty());
  ASSERT_EQ(rejoined.size(), donor.size());
  for (const auto& [client, s] : donor) {
    const auto it = rejoined.find(client);
    ASSERT_NE(it, rejoined.end()) << "client " << client;
    EXPECT_EQ(it->second.watermark(), s.watermark()) << "client " << client;
    EXPECT_TRUE(it->second.seqs == s.seqs) << "client " << client;
    EXPECT_EQ(it->second.cached_seq, s.cached_seq) << "client " << client;
  }
}

}  // namespace
}  // namespace heron::faultlab
