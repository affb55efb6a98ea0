// Lazy coroutine task type used by every simulated process.
//
// Task<T> is a lazily-started coroutine with symmetric-transfer
// continuation chaining: `co_await child()` suspends the parent, runs the
// child to completion (possibly across many virtual-time suspensions) and
// resumes the parent with the child's result. Exceptions propagate through
// awaits like ordinary calls.
//
// Ownership: the Task object owns the coroutine frame. Awaiting a
// temporary Task keeps the frame alive for the duration of the await
// (the temporary lives until the end of the full expression). Root tasks
// are owned by the Simulator (see Simulator::spawn).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"

namespace heron::sim {

template <typename T>
class Task;

namespace detail {

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Transfer control back to whoever awaited us; if nobody did (root
    // task), park at the final suspend point until the owner destroys us.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  // When set (root tasks only), raised the instant an exception escapes the
  // coroutine so the simulator can surface the failure at the next event
  // boundary instead of waiting for a lazy reap.
  bool* failure_flag = nullptr;

  // Every Task frame comes from the size-class pool (sim/frame_pool.hpp).
  static void* operator new(std::size_t bytes) {
    return FramePool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    FramePool::deallocate(frame, bytes);
  }

  std::suspend_always initial_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept {
    exception = std::current_exception();
    if (failure_flag != nullptr) *failure_flag = true;
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns its frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
    template <typename U>
    void return_value(U&& v) {
      value = std::forward<U>(v);
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

  /// Starts the coroutine without awaiting it (for root tasks).
  void start() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  /// Rethrows the stored exception, if any (root-task bookkeeping).
  void rethrow_if_failed() const {
    if (handle_ && handle_.done() && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;  // symmetric transfer: start the child now
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        return std::move(h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
    void return_void() const noexcept {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

  void start() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  void rethrow_if_failed() const {
    if (handle_ && handle_.done() && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  /// Root-task bookkeeping: points the promise at a flag the owner polls,
  /// set the moment an exception escapes the coroutine. Must be called
  /// before start() to catch synchronous failures.
  void set_failure_flag(bool* flag) {
    if (handle_) handle_.promise().failure_flag = flag;
  }

  [[nodiscard]] bool failed() const {
    return handle_ && handle_.done() && handle_.promise().exception;
  }

  [[nodiscard]] std::exception_ptr exception() const {
    return handle_ ? handle_.promise().exception : nullptr;
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;
      }
      void await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace heron::sim
