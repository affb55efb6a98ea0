// A simulated host process attached to the RDMA fabric.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "rdma/memory.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace heron::rdma {

class Node {
 public:
  Node(sim::Simulator& sim, std::int32_t id)
      : sim_(&sim), id_(id), cpu_(sim) {}

  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Crash-stop: the node stops executing and all in-flight / future
  /// one-sided operations targeting it complete with kRemoteFailure.
  void crash() { alive_ = false; }

  /// Rejoins the fabric (used by recovery experiments). Registered memory
  /// survives the crash (the paper's laggers are slow, not wiped).
  void restart() { alive_ = true; }

  /// Registers `size` bytes and returns the region handle.
  MrId register_region(std::size_t size) {
    regions_.push_back(std::make_unique<MemoryRegion>(*sim_, size));
    return MrId{static_cast<std::uint32_t>(regions_.size() - 1)};
  }

  [[nodiscard]] MemoryRegion& region(MrId mr) {
    assert(mr.valid() && mr.value < regions_.size());
    return *regions_[mr.value];
  }
  [[nodiscard]] const MemoryRegion& region(MrId mr) const {
    assert(mr.valid() && mr.value < regions_.size());
    return *regions_[mr.value];
  }

  /// The node's (single) core; protocol handling and request execution
  /// charge their CPU time here and therefore serialize.
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }

 private:
  sim::Simulator* sim_;
  std::int32_t id_;
  sim::Cpu cpu_;
  bool alive_ = true;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

}  // namespace heron::rdma
