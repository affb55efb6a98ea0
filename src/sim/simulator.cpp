#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace heron::sim {

void Simulator::spawn(Task<void> task) {
  task.set_failure_flag(&root_failed_);
  task.start();
  if (!task.done()) {
    roots_.push_back(std::move(task));
  } else if (task.failed()) {
    root_failed_ = false;
    task.rethrow_if_failed();
  }
  // Lazy cleanup so long runs with many short-lived roots don't grow,
  // amortised: a reap walks every root, so the next one waits until the
  // live set has doubled.
  if (roots_.size() > reap_at_) reap_roots();
}

void Simulator::reap_roots() {
  root_failed_ = false;
  std::exception_ptr failure;
  for (const auto& t : roots_) {
    if (t.failed()) {
      failure = t.exception();
      break;
    }
  }
  std::erase_if(roots_, [](const Task<void>& t) { return t.done(); });
  reap_at_ = std::max<std::size_t>(kMinReapAt, 2 * roots_.size());
  if (failure) std::rethrow_exception(failure);
}

void Simulator::step(Event&& ev) {
  now_ = ev.when;
  ++events_executed_;
  ev.fn();
}

void Simulator::run() {
  while (!queue_.empty()) {
    step(queue_.pop());
    if (root_failed_) reap_roots();
  }
  reap_roots();
}

void Simulator::run_until(Nanos deadline) {
  while (!queue_.empty() && queue_.next_when() <= deadline) {
    step(queue_.pop());
    if (root_failed_) reap_roots();
  }
  now_ = std::max(now_, deadline);
}

Simulator::TimerToken Simulator::schedule_timer_at(Nanos when, EventFn fn) {
  std::uint32_t slot;
  if (!timer_free_.empty()) {
    slot = timer_free_.back();
    timer_free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(timer_slots_.size());
    timer_slots_.emplace_back();
  }
  TimerSlot& ts = timer_slots_[slot];
  ts.fn = std::move(fn);
  const std::uint32_t gen = ts.gen;
  schedule_at(when, [this, slot, gen] { fire_timer(slot, gen); });
  return TimerToken{slot, gen};
}

bool Simulator::cancel_timer(TimerToken& token) {
  if (!token.armed()) return false;
  TimerSlot& ts = timer_slots_[token.slot];
  const bool live = ts.gen == token.gen;
  if (live) {
    ++ts.gen;  // the queued shell finds a stale generation and no-ops
    ts.fn = EventFn{};
    timer_free_.push_back(token.slot);
  }
  token = TimerToken{};
  return live;
}

void Simulator::fire_timer(std::uint32_t slot, std::uint32_t gen) {
  TimerSlot& ts = timer_slots_[slot];
  if (ts.gen != gen) return;  // canceled (or recycled) since scheduling
  ++ts.gen;
  EventFn fn = std::move(ts.fn);
  ts.fn = EventFn{};
  timer_free_.push_back(slot);
  fn();
}

}  // namespace heron::sim
