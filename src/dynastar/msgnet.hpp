// Kernel-path message transport for the DynaStar baseline.
//
// DynaStar communicates through ordinary sockets: each message pays the
// testbed's network latency (0.1 ms RTT => 50 us one way), a bandwidth
// term, and sender/receiver software costs (syscalls, TCP stack, Java
// (de)serialization). These constants are the architectural difference
// Figure 5 measures against Heron's one-sided RDMA verbs.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "rdma/node.hpp"
#include "sim/notifier.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace heron::dynastar {

struct NetConfig {
  sim::Nanos one_way = sim::us(50);       // 0.1 ms RTT testbed link
  sim::Nanos send_cpu = sim::us(20);      // syscall + marshal
  sim::Nanos recv_cpu = sim::us(20);      // interrupt + unmarshal
  double bandwidth_bytes_per_ns = 3.125;  // same 25 Gbps fabric
};

struct Message {
  std::int32_t from = -1;
  std::uint32_t type = 0;
  std::vector<std::byte> body;

  template <typename T>
  void set(const T& v) {
    body.resize(sizeof(T));
    std::memcpy(body.data(), &v, sizeof(T));
  }
  template <typename T>
  [[nodiscard]] T as() const {
    T out;
    std::memcpy(&out, body.data(), sizeof(T));
    return out;
  }
};

/// Message-passing endpoint bound to a node; delivery is reliable and
/// FIFO per sender (TCP-like).
class Mailbox {
 public:
  Mailbox(sim::Simulator& sim, rdma::Node& node)
      : sim_(&sim), node_(&node), notifier_(sim) {}

  [[nodiscard]] rdma::Node& node() { return *node_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  void push(Message m) {
    queue_.push_back(std::move(m));
    notifier_.notify_all();
  }

  /// Awaits the next message, charging the receive-side CPU cost.
  sim::Task<Message> recv(const NetConfig& cfg) {
    co_await sim::wait_until(notifier_, [this] { return !queue_.empty(); });
    co_await node_->cpu().use(cfg.recv_cpu);
    Message m = std::move(queue_.front());
    queue_.pop_front();
    co_return m;
  }

 private:
  sim::Simulator* sim_;
  rdma::Node* node_;
  sim::Notifier notifier_;
  std::deque<Message> queue_;
};

class Net {
 public:
  Net(sim::Simulator& sim, NetConfig cfg = {}) : sim_(&sim), cfg_(cfg) {}

  [[nodiscard]] const NetConfig& config() const { return cfg_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Registers a mailbox for `node`; the returned id addresses it.
  std::int32_t attach(rdma::Node& node) {
    mailboxes_.push_back(std::make_unique<Mailbox>(*sim_, node));
    return static_cast<std::int32_t>(mailboxes_.size() - 1);
  }

  [[nodiscard]] Mailbox& mailbox(std::int32_t id) {
    return *mailboxes_.at(static_cast<std::size_t>(id));
  }

  /// Sends a message: charges the sender's CPU, then delivers after the
  /// propagation + bandwidth delay. FIFO per (sender, receiver) pair.
  sim::Task<void> send(std::int32_t from, std::int32_t to, Message m) {
    m.from = from;
    co_await mailbox(from).node().cpu().use(cfg_.send_cpu);
    const sim::Nanos transfer = static_cast<sim::Nanos>(
        static_cast<double>(m.body.size()) / cfg_.bandwidth_bytes_per_ns);
    sim::Nanos arrive = sim_->now() + cfg_.one_way + transfer;
    auto& fifo = last_arrival_[{from, to}];
    arrive = std::max(arrive, fifo);
    fifo = arrive;
    bytes_ += m.body.size();
    sim_->schedule_at(arrive, [this, to, m = std::move(m)]() mutable {
      if (mailbox(to).node().alive()) mailbox(to).push(std::move(m));
    });
  }

  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_; }

 private:
  sim::Simulator* sim_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::map<std::pair<std::int32_t, std::int32_t>, sim::Nanos> last_arrival_;
  std::uint64_t bytes_ = 0;
};

}  // namespace heron::dynastar
