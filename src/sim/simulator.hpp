// Discrete-event simulator: a virtual clock plus an ordered event queue.
//
// Events at equal timestamps execute in schedule order (FIFO), which makes
// every run fully deterministic for a given seed. One event executes at a
// time; this is what gives the simulation the 8-byte access atomicity the
// paper obtains from RDMA hardware.
//
// The event queue is a 4-ary min-heap of {when, seq, slot} keys over a
// recycled slab of callables (see event_queue.hpp); the per-event callable
// is a small-buffer-optimized EventFn with a direct coroutine-resume fast
// path (see callable.hpp). The queue pops in exact (timestamp, seq) order,
// so same-seed runs are bit-identical.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace heron::sim {

class Simulator {
 public:
  Simulator() = default;
  /// Destroys the root frames first: a frame parked in a timed wait
  /// cancels its pool timer on the way out, so the pool must still exist.
  ~Simulator() { roots_.clear(); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Nanos now() const { return now_; }

  /// Schedules `fn` to run `delay` ns from now (delay >= 0).
  void schedule(Nanos delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  void schedule_at(Nanos when, EventFn fn) {
    if (when < now_) {
      throw std::logic_error("Simulator: scheduling into the past");
    }
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }

  /// Handle to a cancelable timer (see schedule_timer_at). Default state is
  /// unarmed; cancel_timer on an unarmed token is a no-op.
  struct TimerToken {
    std::uint32_t slot = UINT32_MAX;
    std::uint32_t gen = 0;

    [[nodiscard]] bool armed() const { return slot != UINT32_MAX; }
  };

  /// Schedules `fn` at `when` through the cancelable timer pool: the
  /// callable lives in a recycled pool slot (no allocation) and
  /// cancel_timer disarms it in O(1). A canceled timer's queue entry still
  /// fires as an empty event at `when` (it just finds a bumped generation),
  /// so pending_events() counts it until the deadline passes — same
  /// footprint as the old single-deadline-timer pattern.
  TimerToken schedule_timer_at(Nanos when, EventFn fn);

  /// Disarms the timer if `token` is still current; clears the token.
  /// Returns true if the timer had been armed and was canceled.
  bool cancel_timer(TimerToken& token);

  /// Starts a root coroutine. The simulator owns the frame until the task
  /// completes (or until the simulator is destroyed). An exception
  /// escaping a root task is rethrown from run()/run_until() at the next
  /// event boundary.
  void spawn(Task<void> task);

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with timestamp <= deadline; leaves later events queued
  /// and advances the clock to `deadline`.
  void run_until(Nanos deadline);

  /// Convenience: run_until(now() + duration).
  void run_for(Nanos duration) { run_until(now_ + duration); }

  /// Awaitable that resumes the coroutine `delay` ns later. A zero delay
  /// still yields to the event loop (runs after already-queued events at
  /// the current instant).
  [[nodiscard]] auto sleep(Nanos delay) {
    struct Awaiter {
      Simulator& sim;
      Nanos delay;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim.schedule(delay, EventFn(h));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, delay};
  }

  /// Number of events executed so far (diagnostics).
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of events currently scheduled and not yet run (diagnostics;
  /// lets tests assert that waiting primitives don't bloat the queue).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

 private:
  struct TimerSlot {
    EventFn fn;
    std::uint32_t gen = 0;
  };

  void step(Event&& ev);
  void reap_roots();
  void fire_timer(std::uint32_t slot, std::uint32_t gen);

  Nanos now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  EventQueue queue_;
  std::vector<Task<void>> roots_;
  // spawn() reaps finished roots once roots_ grows past this; each reap
  // sets it to twice the surviving count (at least kMinReapAt).
  static constexpr std::size_t kMinReapAt = 64;
  std::size_t reap_at_ = kMinReapAt;
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> timer_free_;
  // Set by a root task's promise the instant an exception escapes it;
  // checked after every event so failures surface promptly instead of at
  // the next lazy reap.
  bool root_failed_ = false;
};

}  // namespace heron::sim
