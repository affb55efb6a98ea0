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

void Simulator::drain(Nanos deadline) {
  while (!queue_.empty() && queue_.next_when() <= deadline) {
    Event ev = queue_.pop();
    if (ev.fn) {  // else a canceled timer
      now_ = ev.when;
      ++events_executed_;
      ev.fn();
    }
    if (root_failed_) reap_roots();
  }
}

void Simulator::run() {
  drain(kNever);
  reap_roots();
}

void Simulator::run_until(Nanos deadline) {
  drain(deadline);
  now_ = std::max(now_, deadline);
}

}  // namespace heron::sim
