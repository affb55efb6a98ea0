#include "dynastar/system.hpp"

#include <cassert>

#include "rdma/pod.hpp"

namespace heron::dynastar {

namespace {

/// Fixed header of a request as it travels between nodes.
struct ReqWire {
  std::uint64_t rid = 0;
  std::int32_t client_addr = -1;
  std::uint32_t kind = 0;
  std::uint32_t home = 0;            // executor partition
  std::uint32_t moves_expected = 0;  // only meaningful in kRouteExec
  std::uint32_t payload_len = 0;
};
static_assert(std::is_trivially_copyable_v<ReqWire>);

struct MoveWire {
  std::uint64_t rid = 0;
  std::int32_t executor_addr = -1;
  std::uint32_t count = 0;
};
static_assert(std::is_trivially_copyable_v<MoveWire>);

struct AcceptWire {
  std::uint64_t seq = 0;
  std::uint32_t op = 0;  // 1 = execute request, 2 = move-out (erase rows)
  std::uint32_t blob_len = 0;
};
static_assert(std::is_trivially_copyable_v<AcceptWire>);

struct ObjectRecord {
  core::Oid oid = 0;
  std::uint32_t len = 0;
  std::uint32_t serialized = 0;
};
static_assert(std::is_trivially_copyable_v<ObjectRecord>);

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_bytes(std::vector<std::byte>& out, std::span<const std::byte> b) {
  out.insert(out.end(), b.begin(), b.end());
}

template <typename T>
T read_pod(std::span<const std::byte> in, std::size_t& off) {
  T out;
  std::memcpy(&out, in.data() + off, sizeof(T));
  off += sizeof(T);
  return out;
}

core::Request decode_request(std::span<const std::byte> body,
                             std::size_t& off, ReqWire& wire) {
  wire = read_pod<ReqWire>(body, off);
  core::Request r;
  r.uid = wire.rid;
  r.header.kind = wire.kind;
  r.payload.assign(body.begin() + static_cast<std::ptrdiff_t>(off),
                   body.begin() + static_cast<std::ptrdiff_t>(off) +
                       wire.payload_len);
  off += wire.payload_len;
  return r;
}

}  // namespace

// Leader state for a request being assembled (route + moved objects).
struct Replica::PendingReq {
  std::vector<std::byte> route_body;  // the kRouteExec message body
  std::uint32_t moves_expected = 0;
  std::vector<std::vector<std::byte>> object_blobs;
  bool routed = false;
};

// ---------------------------------------------------------------------
// System wiring.
// ---------------------------------------------------------------------

DynastarSystem::DynastarSystem(sim::Simulator& sim, int partitions,
                               int replicas, core::AppFactory factory,
                               Config cfg)
    : sim_(&sim),
      cfg_(cfg),
      partitions_(partitions),
      replicas_(replicas),
      factory_(std::move(factory)) {
  node_owner_ = std::make_unique<rdma::Fabric>(sim);
  net_ = std::make_unique<Net>(sim, cfg.net);
  oracle_app_ = factory_();
  oracle_node_ = &node_owner_->add_node();
  oracle_addr_ = net_->attach(*oracle_node_);
  for (int p = 0; p < partitions; ++p) {
    for (int r = 0; r < replicas; ++r) {
      replicas_store_.push_back(std::make_unique<Replica>(*this, p, r));
    }
  }
}

void DynastarSystem::start() {
  sim_->spawn(oracle_loop());
  for (auto& r : replicas_store_) r->start();
}

Client& DynastarSystem::add_client() {
  clients_.push_back(std::make_unique<Client>(
      *this, static_cast<std::uint32_t>(clients_.size())));
  return *clients_.back();
}

std::uint64_t DynastarSystem::total_completed() const {
  std::uint64_t total = 0;
  for (const auto& c : clients_) total += c->completed();
  return total;
}

void DynastarSystem::reset_stats() {
  for (auto& c : clients_) c->reset_stats();
}

int DynastarSystem::mapped_partition(core::Oid oid) const {
  auto it = mapping_override_.find(oid);
  if (it != mapping_override_.end()) return it->second;
  return oracle_app_->partition_of(oid);
}

sim::Task<void> DynastarSystem::oracle_loop() {
  auto& mbox = net_->mailbox(oracle_addr_);
  while (true) {
    Message m = co_await mbox.recv(cfg_.net);
    if (m.type != kClientReq) continue;
    // Routing is pipelined: many requests ride the oracle's ordering ring
    // concurrently; only the CPU work serializes.
    sim_->spawn(route_request(std::move(m)));
  }
}

sim::Task<void> DynastarSystem::route_request(Message m) {
  co_await oracle_node_->cpu().use(
      cfg_.oracle_proc +
      static_cast<sim::Nanos>(static_cast<double>(m.body.size()) *
                              cfg_.msg_cpu_ns_per_byte));

  // Ordered delivery of the routing decision in the oracle's ring.
  co_await sim_->sleep(cfg_.order_latency);

  std::size_t off = 0;
  ReqWire wire{};
  core::Request r = decode_request(m.body, off, wire);
  const int home = static_cast<int>(wire.home);

  // Resolve the request's objects against the current mapping and update
  // the mapping in the same step (no awaits in between: the decision is
  // atomic in the oracle's replicated state).
  const auto read_set =
      oracle_app_->read_set(r, static_cast<core::GroupId>(home));
  std::map<int, std::vector<core::Oid>> moves;  // source -> oids
  for (core::Oid oid : read_set) {
    const int at = mapped_partition(oid);
    if (at != home) {
      moves[at].push_back(oid);
      mapping_override_[oid] = home;
    }
  }

  // A mapping update is itself an ordered write to the oracle's
  // replicated state.
  if (!moves.empty()) co_await sim_->sleep(cfg_.order_latency);

  Replica& exec_leader = replica(home, 0);
  for (const auto& [src, oids] : moves) {
    std::vector<std::byte> body;
    MoveWire mw{wire.rid, exec_leader.addr(),
                static_cast<std::uint32_t>(oids.size())};
    append_pod(body, mw);
    for (core::Oid oid : oids) append_pod(body, oid);
    Message cmd;
    cmd.type = kMoveCmd;
    cmd.body = std::move(body);
    co_await net_->send(oracle_addr_, replica(src, 0).addr(), std::move(cmd));
  }

  // Route the request itself to the executor leader.
  ReqWire routed = wire;
  routed.moves_expected = static_cast<std::uint32_t>(moves.size());
  std::vector<std::byte> body;
  append_pod(body, routed);
  append_bytes(body, r.payload);
  Message fwd;
  fwd.type = kRouteExec;
  fwd.body = std::move(body);
  co_await net_->send(oracle_addr_, exec_leader.addr(), std::move(fwd));
}

// ---------------------------------------------------------------------
// Replica.
// ---------------------------------------------------------------------

Replica::Replica(DynastarSystem& sys, int partition, int rank)
    : sys_(&sys), partition_(partition), rank_(rank) {
  auto& node = sys.node_owner_->add_node();
  addr_ = sys.net_->attach(node);
  app_ = sys.app_factory()();
  // DynaStar stores the same database; region sized by config.
  store_ = std::make_unique<core::ObjectStore>(node, sys.config().store_bytes);
  ack_notifier_ = std::make_unique<sim::Notifier>(sys.simulator());
  pending_notifier_ = std::make_unique<sim::Notifier>(sys.simulator());
}

Replica::~Replica() = default;

rdma::Node& Replica::node() { return sys_->net().mailbox(addr_).node(); }

void Replica::start() {
  app_->bootstrap(static_cast<core::GroupId>(partition_), *store_);
  sys_->simulator().spawn(loop());
}

sim::Task<void> Replica::loop() {
  auto& mbox = sys_->net().mailbox(addr_);
  const Config& cfg = sys_->config();

  while (true) {
    Message m = co_await mbox.recv(cfg.net);
    co_await node().cpu().use(static_cast<sim::Nanos>(
        static_cast<double>(m.body.size()) * cfg.msg_cpu_ns_per_byte));

    switch (m.type) {
      case kRouteExec: {
        std::size_t off = 0;
        ReqWire wire = read_pod<ReqWire>(m.body, off);
        PendingReq& p = pending_[wire.rid];
        p.route_body = m.body;
        p.moves_expected = wire.moves_expected;
        p.routed = true;
        sys_->simulator().spawn(drive(wire.rid));
        pending_notifier_->notify_all();
        break;
      }
      case kObjectData: {
        std::size_t off = 0;
        const auto rid = read_pod<std::uint64_t>(m.body, off);
        PendingReq& p = pending_[rid];
        p.object_blobs.emplace_back(m.body.begin() + static_cast<std::ptrdiff_t>(off),
                                    m.body.end());
        pending_notifier_->notify_all();
        break;
      }
      case kMoveCmd: {
        // Handled in its own coroutine: it blocks on follower acks, which
        // arrive through this very loop.
        sys_->simulator().spawn(handle_move(std::move(m)));
        break;
      }
      case kAccept: {
        std::size_t off = 0;
        AcceptWire aw = read_pod<AcceptWire>(m.body, off);
        co_await node().cpu().use(cfg.apply_proc);
        applied_seq_ = aw.seq;
        const auto blob = std::span<const std::byte>(m.body).subspan(
            off, aw.blob_len);
        if (aw.op == 2) {
          std::size_t boff = 0;
          const auto count = read_pod<std::uint32_t>(blob, boff);
          for (std::uint32_t i = 0; i < count; ++i) {
            tombstones_.insert(read_pod<core::Oid>(blob, boff));
          }
        } else {
          execute_locally(aw.seq, blob);
          co_await node().cpu().use(cfg.apply_proc);
        }
        Message ack;
        ack.type = kAck;
        ack.set(aw.seq);
        co_await sys_->net().send(addr_, sys_->replica(partition_, 0).addr(),
                                  std::move(ack));
        break;
      }
      case kAck: {
        const auto seq = m.as<std::uint64_t>();
        acks_[seq] += 1;
        ack_notifier_->notify_all();
        break;
      }
      default:
        break;
    }
  }
}

sim::Task<void> Replica::handle_move(Message m) {
  const Config& cfg = sys_->config();
  co_await node().cpu().use(cfg.leader_proc);
  std::size_t off = 0;
  MoveWire mw = read_pod<MoveWire>(m.body, off);
  std::vector<core::Oid> oids(mw.count);
  for (auto& oid : oids) oid = read_pod<core::Oid>(m.body, off);

  // The move command is delivered through the partition's multicast ring.
  co_await sys_->simulator().sleep(cfg.order_latency);

  // Rows being moved may still be in flight *to* this partition (the
  // oracle updated the mapping when it issued the earlier move); wait
  // briefly for them to land before extracting.
  const sim::Nanos deadline = sys_->simulator().now() + sim::ms(20);
  for (core::Oid oid : oids) {
    while ((!store_->exists(oid) || tombstones_.contains(oid)) &&
           sys_->simulator().now() < deadline) {
      co_await sys_->simulator().sleep(sim::us(50));
    }
  }

  // Order the move-out in this partition, then ship the rows.
  std::vector<std::byte> blob;
  append_pod(blob, static_cast<std::uint32_t>(oids.size()));
  std::vector<std::byte> data_blob;
  append_pod(data_blob, static_cast<std::uint32_t>(oids.size()));
  for (core::Oid oid : oids) {
    append_pod(blob, oid);
    ObjectRecord rec{oid, 0, 0};
    if (store_->exists(oid) && !tombstones_.contains(oid)) {
      auto [tmp, bytes] = store_->get(oid);
      rec.len = static_cast<std::uint32_t>(bytes.size());
      rec.serialized = store_->is_serialized(oid) ? 1 : 0;
      append_pod(data_blob, rec);
      append_bytes(data_blob, bytes);
    } else {
      append_pod(data_blob, rec);  // vanished: len 0
    }
  }

  const std::uint64_t seq = next_seq_++;
  AcceptWire aw{seq, /*op=*/2, static_cast<std::uint32_t>(blob.size())};
  std::vector<std::byte> body;
  append_pod(body, aw);
  append_bytes(body, blob);
  for (int r = 1; r < sys_->replicas(); ++r) {
    Message acc;
    acc.type = kAccept;
    acc.body = body;
    co_await sys_->net().send(addr_, sys_->replica(partition_, r).addr(),
                              Message(acc));
  }
  co_await sim::wait_until(*ack_notifier_, [this, seq] {
    return acks_[seq] + 1 >=
           static_cast<std::uint64_t>(sys_->replicas() / 2 + 1);
  });
  // Apply locally: drop the rows.
  for (core::Oid oid : oids) tombstones_.insert(oid);

  Message data;
  data.type = kObjectData;
  std::vector<std::byte> dbody;
  append_pod(dbody, mw.rid);
  append_bytes(dbody, data_blob);
  data.body = std::move(dbody);
  co_await sys_->net().send(addr_, mw.executor_addr, std::move(data));
}

sim::Task<void> Replica::drive(std::uint64_t rid) {
  // Wait until all expected object moves arrived, then order + execute.
  co_await sim::wait_until(*pending_notifier_, [this, rid] {
    auto it = pending_.find(rid);
    return it != pending_.end() && it->second.routed &&
           it->second.object_blobs.size() >= it->second.moves_expected;
  });
  co_await order_and_execute(rid);
}

sim::Task<void> Replica::order_and_execute(std::uint64_t rid) {
  const Config& cfg = sys_->config();
  co_await node().cpu().use(cfg.leader_proc);
  // Ordered delivery of the request in this partition's ring; a request
  // that waited for moved objects is delivered again once they arrived
  // (DynaStar's miss-and-retry shape).
  co_await sys_->simulator().sleep(cfg.order_latency);

  PendingReq p = std::move(pending_.at(rid));
  pending_.erase(rid);
  if (p.moves_expected > 0) {
    co_await sys_->simulator().sleep(cfg.order_latency);
  }

  // Build the replicated command: request + all moved objects.
  std::vector<std::byte> blob;
  std::size_t off = 0;
  ReqWire wire = read_pod<ReqWire>(p.route_body, off);
  append_bytes(blob, p.route_body);  // includes ReqWire + payload
  append_pod(blob, static_cast<std::uint32_t>(p.object_blobs.size()));
  for (const auto& ob : p.object_blobs) {
    append_pod(blob, static_cast<std::uint32_t>(ob.size()));
    append_bytes(blob, ob);
  }

  const std::uint64_t seq = next_seq_++;
  AcceptWire aw{seq, /*op=*/1, static_cast<std::uint32_t>(blob.size())};
  std::vector<std::byte> body;
  append_pod(body, aw);
  append_bytes(body, blob);
  for (int r = 1; r < sys_->replicas(); ++r) {
    Message acc;
    acc.type = kAccept;
    acc.body = body;
    co_await sys_->net().send(addr_, sys_->replica(partition_, r).addr(),
                              Message(acc));
  }
  co_await sim::wait_until(*ack_notifier_, [this, seq] {
    return acks_[seq] + 1 >=
           static_cast<std::uint64_t>(sys_->replicas() / 2 + 1);
  });

  execute_locally(seq, blob);
  const sim::Nanos exec_cpu = last_exec_cpu_;
  if (exec_cpu > 0) co_await node().cpu().use(exec_cpu);

  // Reply to the client.
  Message reply;
  reply.type = kReply;
  std::vector<std::byte> rbody;
  append_pod(rbody, rid);
  append_pod(rbody, static_cast<std::uint32_t>(last_reply_.status));
  append_pod(rbody, static_cast<std::uint32_t>(last_reply_.payload.size()));
  append_bytes(rbody, last_reply_.payload);
  reply.body = std::move(rbody);
  co_await sys_->net().send(addr_, wire.client_addr, std::move(reply));
}

void Replica::execute_locally(std::uint64_t seq,
                              std::span<const std::byte> blob) {
  std::size_t off = 0;
  ReqWire wire{};
  core::Request r = decode_request(blob, off, wire);
  // Moved-object installs and the transaction's own writes must carry
  // distinct store timestamps, or the dual-version get() ties.
  const std::uint64_t install_tmp = 2 * seq;
  r.tmp = 2 * seq + 1;

  // Install moved objects (and lift tombstones).
  const auto blob_count = read_pod<std::uint32_t>(blob, off);
  for (std::uint32_t b = 0; b < blob_count; ++b) {
    const auto len = read_pod<std::uint32_t>(blob, off);
    const auto sub = blob.subspan(off, len);
    off += len;
    std::size_t soff = 0;
    const auto count = read_pod<std::uint32_t>(sub, soff);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto rec = read_pod<ObjectRecord>(sub, soff);
      if (rec.len == 0) continue;
      const auto bytes = sub.subspan(soff, rec.len);
      soff += rec.len;
      tombstones_.erase(rec.oid);
      if (!store_->exists(rec.oid)) {
        store_->create(rec.oid, bytes, rec.serialized != 0);
      }
      store_->set(rec.oid, bytes, install_tmp);
    }
  }

  // Execute the transaction for every statically involved partition
  // identity (the single active partition runs the whole request,
  // §III-D2 of the Heron paper).
  const int home = static_cast<int>(wire.home);
  const auto read_set =
      app_->read_set(r, static_cast<core::GroupId>(home));
  std::set<int> identities{home};
  for (core::Oid oid : read_set) identities.insert(app_->partition_of(oid));

  sim::Nanos exec_cpu = 0;
  core::Reply home_reply;
  for (int identity : identities) {
    core::ExecContext ctx(static_cast<core::GroupId>(identity), *store_);
    bool missing = false;
    for (core::Oid oid : read_set) {
      if (store_->exists(oid) && !tombstones_.contains(oid)) {
        auto [tmp, bytes] = store_->get(oid);
        ctx.set_value(oid, bytes);
      } else {
        missing = true;  // row lost in a migration race; see handle_move
      }
    }
    if (missing) continue;  // skip this identity rather than crash
    core::Reply reply = app_->execute(r, ctx);
    if (identity == home) home_reply = std::move(reply);
    exec_cpu += static_cast<sim::Nanos>(
        static_cast<double>(ctx.cpu_cost()) * sys_->config().exec_factor);
    for (const auto& c : ctx.creates()) {
      if (!store_->exists(c.oid)) store_->create(c.oid, c.bytes, c.serialized);
      store_->set(c.oid, c.bytes, r.tmp);
    }
    for (const auto& w : ctx.writes()) {
      if (!store_->exists(w.oid)) {
        store_->create(w.oid, w.bytes, false);
      }
      store_->set(w.oid, w.bytes, r.tmp);
    }
  }
  last_exec_cpu_ = exec_cpu;
  last_reply_ = std::move(home_reply);
  ++executed_;
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

Client::Client(DynastarSystem& sys, std::uint32_t id) : sys_(&sys), id_(id) {
  auto& node = sys.node_owner_->add_node();
  addr_ = sys.net_->attach(node);
  reply_notifier_ = std::make_unique<sim::Notifier>(sys.simulator());
  sys.simulator().spawn([](Client& self) -> sim::Task<void> {
    auto& mbox = self.sys_->net().mailbox(self.addr_);
    while (true) {
      Message m = co_await mbox.recv(self.sys_->config().net);
      if (m.type != kReply) continue;
      std::size_t off = 0;
      const auto rid = read_pod<std::uint64_t>(m.body, off);
      core::Reply reply;
      reply.status = read_pod<std::uint32_t>(m.body, off);
      const auto len = read_pod<std::uint32_t>(m.body, off);
      reply.payload.assign(m.body.begin() + static_cast<std::ptrdiff_t>(off),
                           m.body.begin() + static_cast<std::ptrdiff_t>(off) +
                               len);
      self.replies_[rid] = std::move(reply);
      self.reply_notifier_->notify_all();
    }
  }(*this));
}

sim::Task<Client::Result> Client::submit(amcast::DstMask dst_hint,
                                         std::uint32_t kind,
                                         std::span<const std::byte> payload) {
  const sim::Nanos start = sys_->simulator().now();
  const std::uint64_t rid =
      (static_cast<std::uint64_t>(id_) << 32) | ++next_req_;

  // Home = lowest partition in the destination hint whose... the home
  // warehouse is encoded as the first payload word by every TPC-C
  // request type (w_id), which the generator guarantees.
  std::uint32_t home = 0;
  std::memcpy(&home, payload.data(), sizeof(home));

  ReqWire wire{rid, addr_, kind, home, 0,
               static_cast<std::uint32_t>(payload.size())};
  std::vector<std::byte> body;
  append_pod(body, wire);
  append_bytes(body, payload);
  Message m;
  m.type = kClientReq;
  m.body = std::move(body);
  co_await sys_->net().send(addr_, sys_->oracle_addr_, std::move(m));
  (void)dst_hint;

  co_await sim::wait_until(*reply_notifier_, [this, rid] {
    return replies_.contains(rid);
  });
  Result out;
  out.reply = std::move(replies_.at(rid));
  replies_.erase(rid);
  out.latency = sys_->simulator().now() - start;
  ++completed_;
  latencies_.record(out.latency);
  co_return out;
}

}  // namespace heron::dynastar
