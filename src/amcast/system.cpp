#include "amcast/system.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "rdma/pod.hpp"

namespace heron::amcast {

System::System(rdma::Fabric& fabric, int groups, int replicas_per_group,
               Config config)
    : fabric_(&fabric),
      config_(config),
      replicas_per_group_(replicas_per_group) {
  if (groups <= 0 || static_cast<std::uint64_t>(groups) > kMaxGroups) {
    throw std::invalid_argument("amcast: bad group count");
  }
  if (replicas_per_group <= 0) {
    throw std::invalid_argument("amcast: bad replica count");
  }
  groups_.resize(static_cast<std::size_t>(groups));
  for (GroupId g = 0; g < groups; ++g) {
    for (int r = 0; r < replicas_per_group; ++r) {
      auto& node = fabric.add_node();
      groups_[static_cast<std::size_t>(g)].push_back(
          std::make_unique<Endpoint>(*this, g, r, node));
    }
  }
}

void System::start() {
  for (auto& group : groups_) {
    for (auto& ep : group) ep->start();
  }
}

ClientEndpoint& System::add_client() {
  if (client_count() >= config_.max_clients) {
    throw std::runtime_error("amcast: client capacity exhausted");
  }
  auto& node = fabric_->add_node();
  clients_.push_back(
      std::make_unique<ClientEndpoint>(*this, client_count(), node));
  return *clients_.back();
}

ClientEndpoint::ClientEndpoint(System& system, std::uint32_t client_id,
                               rdma::Node& node)
    : system_(&system), client_id_(client_id), node_(&node) {
  system.fabric().telemetry().tracer.set_tid_name(
      node.id(), "client" + std::to_string(client_id));
}

sim::Task<MsgUid> ClientEndpoint::multicast(DstMask dst,
                                            std::span<const std::byte> payload,
                                            std::uint32_t flags) {
  assert(dst != 0);
  assert(payload.size() <= kMaxPayload);
  const auto seq = static_cast<std::uint32_t>(++next_seq_);
  const MsgUid uid = make_uid(client_id_, seq);

  co_await node_->cpu().use(system_->config().client_proc);

  WireMessage msg;
  msg.uid = uid;
  msg.dst = dst;
  msg.flags = flags;
  msg.set_payload(payload);

  // Lease grants and layout-epoch markers are control traffic: their
  // inbox writes ride the priority lane so renewal and reconfiguration
  // never queue behind a congested data plane. Safe for RC ordering:
  // marker senders are dedicated internal endpoints, so their inbox rings
  // carry only control-lane writes.
  const rdma::Lane lane = (flags & (kWireFlagLease | kWireFlagEpoch)) != 0
                              ? rdma::Lane::kControl
                              : rdma::Lane::kData;
  ring_seq_.resize(static_cast<std::size_t>(system_->group_count()), 0);
  for (GroupId g = 0; g < system_->group_count(); ++g) {
    if (!dst_contains(dst, g)) continue;
    msg.ring_seq = ++ring_seq_[static_cast<std::size_t>(g)];
    for (int r = 0; r < system_->replicas_per_group(); ++r) {
      Endpoint& ep = system_->endpoint(g, r);
      system_->fabric().write_async(
          node_->id(),
          rdma::RAddr{ep.node().id(), ep.inbox_mr(),
                      ep.inbox().offset(client_id_, msg.ring_seq)},
          rdma::pod_bytes(msg), lane);
    }
  }
  co_return uid;
}

}  // namespace heron::amcast
