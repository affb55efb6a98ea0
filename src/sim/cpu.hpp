// Single-threaded CPU resource.
//
// Replicas in the paper are single-threaded (§III-D1): ordering-protocol
// work and request execution contend for the same core. Coroutines that
// run "on" a node charge their CPU time through this resource, which
// serializes them in virtual time and so creates realistic saturation
// behaviour under closed-loop load.
#pragma once

#include <algorithm>
#include <coroutine>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace heron::sim {

class Cpu {
 public:
  explicit Cpu(Simulator& sim) : sim_(&sim) {}

  /// A charge in progress: what `co_await cpu.use(d)` awaits. It takes its
  /// turn on the CPU when awaited and resumes the caller when the work
  /// completes, with one event, or at once when that is now (a
  /// zero-length charge on an idle CPU).
  class [[nodiscard]] Charge {
   public:
    bool await_ready() noexcept {
      const Nanos now = cpu_->sim_->now();
      cpu_->free_at_ = std::max(now, cpu_->free_at_) + duration_;
      cpu_->busy_total_ += duration_;
      return cpu_->free_at_ <= now;
    }
    void await_suspend(std::coroutine_handle<> caller) const {
      cpu_->sim_->schedule_at(cpu_->free_at_, EventFn(caller));
    }
    void await_resume() const noexcept {}

   private:
    friend class Cpu;
    Charge(Cpu& cpu, Nanos duration) : cpu_(&cpu), duration_(duration) {}
    Cpu* cpu_;
    Nanos duration_;
  };

  /// Occupies the CPU for `duration` ns, queueing behind earlier users.
  /// Returns after the work completes.
  Charge use(Nanos duration) { return Charge(*this, duration); }

  /// Time at which the CPU becomes idle (diagnostics).
  [[nodiscard]] Nanos free_at() const { return free_at_; }

  /// Total busy time charged so far; busy_fraction = busy_total/now.
  [[nodiscard]] Nanos busy_total() const { return busy_total_; }

 private:
  Simulator* sim_;
  Nanos free_at_ = 0;
  Nanos busy_total_ = 0;
};

}  // namespace heron::sim
