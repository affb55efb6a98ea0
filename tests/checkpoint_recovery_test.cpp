// Integration tests for heron::durable wired into core::Replica:
// checkpoint-restored restarts with O(delta) catch-up, fallback to a full
// transfer when the local checkpoint is corrupt, session-TTL eviction
// semantics (stale-session replies, never double-execution), and a soak
// run asserting the update log / session table / device chain all stay
// bounded under continuous load.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "core/system.hpp"
#include "faultlab/history.hpp"
#include "rdma/fabric.hpp"

namespace heron::core {
namespace {

using sim::Nanos;
using sim::Task;

enum Kind : std::uint32_t { kTouchAll = 1, kPut = 3, kEcho = 4 };

/// `count` non-serialized objects; kTouchAll rewrites every one, kPut
/// rewrites the oid named in the payload, kEcho writes nothing and
/// replies with the request payload (a reply worth caching).
class PutApp : public Application {
 public:
  PutApp(std::uint64_t count, std::uint32_t size)
      : count_(count), size_(size) {}

  GroupId partition_of(Oid) const override { return 0; }
  std::vector<Oid> read_set(const Request&, GroupId) const override {
    return {};
  }
  Reply execute(const Request& r, ExecContext& ctx) override {
    std::vector<std::byte> value(size_);
    std::memcpy(value.data(), &r.tmp, sizeof(r.tmp));
    if (r.header.kind == kTouchAll) {
      for (std::uint64_t i = 0; i < count_; ++i) ctx.write(i + 1, value);
    } else if (r.header.kind == kPut) {
      Oid oid = 0;
      std::memcpy(&oid, r.payload.data(), sizeof(oid));
      ctx.write(oid, value);
    } else if (r.header.kind == kEcho) {
      return Reply{0, r.payload};
    }
    return Reply{};
  }
  void bootstrap(GroupId, ObjectStore& store) override {
    std::vector<std::byte> init(size_);
    for (std::uint64_t i = 0; i < count_; ++i) {
      store.create(i + 1, init, /*serialized=*/false);
    }
  }

 private:
  std::uint64_t count_;
  std::uint32_t size_;
};

struct Env {
  sim::Simulator sim;
  rdma::Fabric fabric{sim, rdma::LatencyModel{}, 7};
  std::unique_ptr<System> sys;

  Env(std::uint64_t count, std::uint32_t size, HeronConfig cfg) {
    cfg.statesync_timeout = sim::sec(2);
    cfg.object_region_bytes =
        static_cast<std::size_t>(count + 4) * (2 * size + 64) + (1u << 20);
    sys = std::make_unique<System>(
        fabric, 1, 3,
        [count, size] { return std::make_unique<PutApp>(count, size); }, cfg);
    sys->start();
  }

  /// Drives virtual time until the script sets `done` (heartbeat loops
  /// never finish, so run_for in slices).
  void drive(bool& done, sim::Nanos slice = sim::ms(10), int slices = 3000) {
    for (int i = 0; i < slices && !done; ++i) sim.run_for(slice);
    ASSERT_TRUE(done) << "test script did not finish";
  }
};

Task<Client::Result> submit_put(Client& c, Oid oid) {
  std::vector<std::byte> payload(sizeof(oid));
  std::memcpy(payload.data(), &oid, sizeof(oid));
  co_return co_await c.submit(amcast::dst_of(0), kPut, payload);
}

/// Waits until (0,2) has left the rejoin path and caught up with (0,0).
Task<void> await_caught_up(System& sys) {
  auto& s = sys.simulator();
  auto& victim = sys.replica(0, 2);
  auto& survivor = sys.replica(0, 0);
  for (int i = 0; i < 400000 && (victim.rejoining() ||
                                 victim.last_executed() <
                                     survivor.last_executed());
       ++i) {
    co_await s.sleep(sim::us(50));
  }
}

void expect_stores_converged(System& sys) {
  std::vector<faultlab::Violation> v;
  faultlab::check_store_convergence(sys, v);
  faultlab::check_session_convergence(sys, v);
  for (const auto& viol : v) {
    ADD_FAILURE() << "[" << viol.oracle << "] " << viol.detail;
  }
}

TEST(CheckpointRecovery, RestartRestoresCheckpointAndCatchesUpViaDelta) {
  HeronConfig cfg;
  cfg.durable.checkpoint_interval = sim::ms(5);
  Env env(32, 4 << 10, cfg);
  auto& client = env.sys->add_client();

  bool done = false;
  env.sim.spawn([](Env& e, Client& cl, bool& flag) -> Task<void> {
    auto& s = e.sim;
    auto& victim = e.sys->replica(0, 2);
    for (int round = 0; round < 3; ++round) {
      co_await cl.submit(amcast::dst_of(0), kTouchAll, {});
      co_await s.sleep(sim::ms(1));
    }
    // Let the background writer durably cover everything executed.
    for (int i = 0;
         i < 60000 && victim.checkpoint_watermark() < victim.last_executed();
         ++i) {
      co_await s.sleep(sim::ms(1));
    }
    const Tmp covered = victim.checkpoint_watermark();
    EXPECT_GT(covered, 0u);  // gtest ASSERTs return; coroutines can't

    e.sys->amcast().endpoint(0, 2).node().crash();
    // The delta tail: commands the survivors execute while it is down.
    for (Oid oid = 1; oid <= 3; ++oid) co_await submit_put(cl, oid);
    co_await s.sleep(sim::ms(1));

    e.sys->restart_replica(0, 2);
    co_await await_caught_up(*e.sys);

    EXPECT_FALSE(victim.rejoining());
    EXPECT_TRUE(victim.restored_from_checkpoint());
    EXPECT_GE(victim.checkpoint_watermark(), covered);
    // O(delta): the rejoin pulled only the missed tail over the network,
    // never a full transfer.
    EXPECT_EQ(victim.xfer_applied_full_bytes(), 0u);
    EXPECT_GT(victim.xfer_applied_delta_bytes(), 0u);
    EXPECT_GT(victim.restart_catchup_bytes(), 0u);
    EXPECT_LT(victim.restart_catchup_bytes(), 32u * (4u << 10));
    flag = true;
  }(env, client, done));
  env.drive(done);
  expect_stores_converged(*env.sys);
}

TEST(CheckpointRecovery, CorruptCheckpointFallsBackToFullTransfer) {
  HeronConfig cfg;
  cfg.durable.checkpoint_interval = sim::ms(5);
  Env env(32, 4 << 10, cfg);
  auto& client = env.sys->add_client();

  bool done = false;
  env.sim.spawn([](Env& e, Client& cl, bool& flag) -> Task<void> {
    auto& s = e.sim;
    auto& victim = e.sys->replica(0, 2);
    for (int round = 0; round < 3; ++round) {
      co_await cl.submit(amcast::dst_of(0), kTouchAll, {});
      co_await s.sleep(sim::ms(1));
    }
    for (int i = 0;
         i < 60000 && victim.checkpoint_watermark() < victim.last_executed();
         ++i) {
      co_await s.sleep(sim::ms(1));
    }
    EXPECT_TRUE(victim.durable_store()->has_checkpoint());

    e.sys->amcast().endpoint(0, 2).node().crash();
    // Kill both superblock slots: no checkpoint chain can validate, so
    // the rejoin must fall back to a full Algorithm 3 transfer.
    victim.durable_store()->device().corrupt_page(0);
    victim.durable_store()->device().corrupt_page(1);
    co_await s.sleep(sim::ms(1));

    e.sys->restart_replica(0, 2);
    co_await await_caught_up(*e.sys);

    EXPECT_FALSE(victim.rejoining());
    EXPECT_FALSE(victim.restored_from_checkpoint());
    EXPECT_GT(victim.xfer_applied_full_bytes(), 0u);
    EXPECT_GE(victim.durable_store()->device().crc_failures(), 1u);
    flag = true;
  }(env, client, done));
  env.drive(done);
  expect_stores_converged(*env.sys);
}

TEST(CheckpointRecovery, EvictedSessionRetryGetsStaleReplyNotReexecution) {
  HeronConfig cfg;
  cfg.durable.checkpoint_interval = sim::us(500);
  cfg.durable.session_ttl = sim::ms(2);
  Env env(8, 128, cfg);
  auto& a = env.sys->add_client();
  auto& b = env.sys->add_client();

  // Executions per (amcast client id, session_seq) across all replicas.
  std::map<std::pair<std::uint32_t, std::uint64_t>, int> execs;
  env.sys->set_exec_observer([&execs](GroupId, int, std::uint32_t client,
                                      std::uint64_t seq, MsgUid, Tmp) {
    execs[{client, seq}]++;
  });

  bool done = false;
  env.sim.spawn([](Env& e, Client& a_cl, Client& b_cl,
                   std::map<std::pair<std::uint32_t, std::uint64_t>, int>& ex,
                   bool& flag) -> Task<void> {
    auto& s = e.sim;
    co_await submit_put(a_cl, 1);  // a's session_seq 1
    EXPECT_EQ(a_cl.session_seq(), 1u);

    // Keep the watermark moving with b so checkpoints (and with them the
    // TTL sweep) keep firing while a sits idle past its TTL.
    auto all_evicted = [&e] {
      for (int r = 0; r < 3; ++r) {
        if (e.sys->replica(0, r).sessions_evicted() == 0) return false;
      }
      return true;
    };
    for (int k = 0; k < 2000 && !all_evicted(); ++k) {
      co_await submit_put(b_cl, 2);
      co_await s.sleep(sim::us(200));
    }
    EXPECT_TRUE(all_evicted());

    const int executed_before = ex[{a_cl.id(), 1}];
    EXPECT_GT(executed_before, 0);

    // a retries its first command after server-side eviction: the reply
    // must be a distinguishable stale-session verdict, and no replica may
    // execute the command a second time.
    a_cl.rewind_session(0);
    const Client::Result res = co_await submit_put(a_cl, 1);
    EXPECT_EQ(res.status, SubmitStatus::kOk);
    EXPECT_EQ(res.reply.status, kStatusStaleSession);
    const int executed_after = ex[{a_cl.id(), 1}];
    EXPECT_EQ(executed_after, executed_before);

    std::uint64_t stale = 0;
    for (int r = 0; r < 3; ++r) {
      stale += e.sys->replica(0, r).stale_session_replies();
    }
    EXPECT_GE(stale, 1u);
    flag = true;
  }(env, a, b, execs, done));
  env.drive(done);
}

// Regression: a delta checkpoint snapshotting a session whose cached
// reply is paged out but whose last_tmp already advanced (session_mark
// runs at dispatch, before note_executed re-caches the reply) must fetch
// the paged-out payload back from the device before encoding. Otherwise
// the re-encoded record — which supersedes the one holding the real
// payload under newest-wins indexing — carries an empty payload, and a
// later retry of the cached seq is answered with an empty success reply.
TEST(CheckpointRecovery, DeltaCheckpointPreservesPagedOutReplyPayload) {
  HeronConfig cfg;
  cfg.durable.checkpoint_interval = sim::ms(1);
  Env env(8, 128, cfg);
  auto& a = env.sys->add_client();
  auto& b = env.sys->add_client();

  bool done = false;
  env.sim.spawn([](Env& e, Client& a_cl, Client& b_cl,
                   bool& flag) -> Task<void> {
    auto& s = e.sim;
    std::vector<std::byte> magic(32);
    for (std::size_t i = 0; i < magic.size(); ++i) {
      magic[i] = static_cast<std::byte>(0xA0 + i);
    }
    const Client::Result first =
        co_await a_cl.submit(amcast::dst_of(0), kEcho, magic);
    EXPECT_EQ(first.status, SubmitStatus::kOk);
    EXPECT_EQ(first.reply.payload, magic);

    // b keeps the watermark moving so checkpoints fire and page a's
    // cached reply out to the device on every replica.
    auto all_paged = [&e, &a_cl] {
      for (int r = 0; r < 3; ++r) {
        const auto& sess = e.sys->replica(0, r).sessions();
        const auto it = sess.find(a_cl.id());
        if (it == sess.end() || !it->second.reply_paged_out) return false;
      }
      return true;
    };
    for (int k = 0; k < 2000 && !all_paged(); ++k) {
      co_await submit_put(b_cl, 1);
      co_await s.sleep(sim::us(200));
    }
    EXPECT_TRUE(all_paged());

    // Dirty a's session while its reply is still paged out, then drive
    // delta checkpoints that must re-encode it.
    std::vector<std::uint64_t> ck(3);
    for (int r = 0; r < 3; ++r) {
      auto& rep = e.sys->replica(0, r);
      rep.test_touch_session(a_cl.id(), rep.last_executed() + 1'000'000);
      ck[r] = rep.checkpoints_completed();
    }
    auto all_checkpointed = [&e, &ck] {
      for (int r = 0; r < 3; ++r) {
        if (e.sys->replica(0, r).checkpoints_completed() <=
            ck[static_cast<std::size_t>(r)]) {
          return false;
        }
      }
      return true;
    };
    for (int k = 0; k < 2000 && !all_checkpointed(); ++k) {
      co_await submit_put(b_cl, 2);
      co_await s.sleep(sim::us(200));
    }
    EXPECT_TRUE(all_checkpointed());

    // Retry of the paged-out command: the reply must be the original
    // payload, paged back in from the device — never an empty success.
    a_cl.rewind_session(0);
    const Client::Result again =
        co_await a_cl.submit(amcast::dst_of(0), kEcho, magic);
    EXPECT_EQ(again.status, SubmitStatus::kOk);
    EXPECT_EQ(again.reply.status, first.reply.status);
    EXPECT_EQ(again.reply.payload, magic);
    flag = true;
  }(env, a, b, done));
  env.drive(done);
}

TEST(CheckpointRecovery, SoakKeepsLogSessionsAndDeviceBounded) {
  HeronConfig cfg;
  cfg.durable.checkpoint_interval = sim::us(500);
  cfg.durable.session_ttl = sim::ms(2);
  cfg.durable.device.page_count = 128;  // small device: compaction must fire
  Env env(16, 128, cfg);
  auto& a = env.sys->add_client();
  auto& b = env.sys->add_client();

  bool done = false;
  env.sim.spawn([](Env& e, Client& a_cl, Client& b_cl,
                   bool& flag) -> Task<void> {
    auto& s = e.sim;
    sim::Rng rng(99);
    // Phase 1: both clients churn.
    for (int k = 0; k < 300; ++k) {
      co_await submit_put(a_cl, rng.bounded(16) + 1);
      co_await submit_put(b_cl, rng.bounded(16) + 1);
      co_await s.sleep(sim::us(50));
    }
    // Phase 2: a goes idle past its TTL while b keeps the system (and its
    // checkpoint cadence) busy for a long virtual stretch.
    for (int k = 0; k < 600; ++k) {
      co_await submit_put(b_cl, rng.bounded(16) + 1);
      co_await s.sleep(sim::us(50));
    }
    flag = true;
  }(env, a, b, done));
  env.drive(done);

  for (int r = 0; r < 3; ++r) {
    auto& rep = env.sys->replica(0, r);
    SCOPED_TRACE("replica rank " + std::to_string(r));
    // ~1200 commands executed, but checkpoint truncation keeps only the
    // tail since the previous checkpoint in memory.
    EXPECT_GT(rep.executed_count(), 1000u);
    EXPECT_LT(rep.update_log_size(), 300u);
    EXPECT_GT(rep.log_floor(), 0u);  // entries were dropped
    // a's idle session was TTL-evicted; b's live one survives.
    EXPECT_EQ(rep.session_count(), 1u);
    EXPECT_GE(rep.sessions_evicted(), 1u);
    // The device chain was compacted (full checkpoints past the first)
    // and never approached capacity.
    auto* store = rep.durable_store();
    ASSERT_NE(store, nullptr);
    EXPECT_GE(store->full_checkpoints(), 2u);
    EXPECT_GT(store->checkpoints_written(), 10u);
    EXPECT_LT(store->chain_pages(), 128u);
  }
}

}  // namespace
}  // namespace heron::core
