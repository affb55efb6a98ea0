// Small-buffer-optimized move-only callable for simulator events.
//
// The old kernel carried a std::function<void()> per event. libstdc++ only
// stores trivially-copyable targets up to 16 bytes inline, so most capture
// lists heap-allocate, and every invocation pays two indirections. The
// simulator's dominant payloads are (a) bare coroutine handles (sleep and
// timer resumes) and (b) small capture lists; EventFn stores both inline
// and resumes coroutine handles directly, without a dispatch table.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace heron::sim {

class EventFn {
 public:
  /// Inline payload budget. With the 8-byte ops pointer and the 16-byte
  /// alignment of the buffer, an EventFn is 64 bytes: 8 of them padding
  /// after ops_ (see the static_assert below the class).
  static constexpr std::size_t kInlineBytes = 40;

  EventFn() noexcept = default;

  /// Coroutine-resume fast path: operator() calls h.resume() directly.
  EventFn(std::coroutine_handle<> h) noexcept : ops_(&kHandleOps) {
    void* addr = h.address();
    std::memcpy(storage_, &addr, sizeof(addr));
  }

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
             !std::is_convertible_v<F, std::coroutine_handle<>> &&
             std::is_invocable_v<std::remove_cvref_t<F>&>)
  EventFn(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  void operator()() {
    if (ops_ == &kHandleOps) {
      void* addr;
      std::memcpy(&addr, storage_, sizeof(addr));
      std::coroutine_handle<>::from_address(addr).resume();
      return;
    }
    ops_->invoke(storage_);
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct dst from src and destroy src. Must not throw: inline
    // targets are required to be nothrow-move-constructible. nullptr means
    // "memcpy the storage": pointer payloads and trivially-copyable inline
    // targets relocate without an indirect call, which keeps moves into
    // and out of the event queue's slab (and its growth) cheap.
    void (*relocate)(void* dst, void* src) noexcept;
    // nullptr means trivially destructible: ~EventFn skips the call.
    void (*destroy)(void* storage) noexcept;
  };

  void relocate_from(EventFn& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(storage_, other.storage_);
    } else {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(storage_);
  }

  static void handle_invoke(void* storage) {
    void* addr;
    std::memcpy(&addr, storage, sizeof(addr));
    std::coroutine_handle<>::from_address(addr).resume();
  }

  template <typename Fn>
  static Fn* inline_target(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static void inline_invoke(void* storage) {
    (*inline_target<Fn>(storage))();
  }
  template <typename Fn>
  static void inline_relocate(void* dst, void* src) noexcept {
    Fn* from = inline_target<Fn>(src);
    ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }
  template <typename Fn>
  static void inline_destroy(void* storage) noexcept {
    inline_target<Fn>(storage)->~Fn();
  }

  template <typename Fn>
  static Fn* heap_target(void* storage) {
    Fn* ptr;
    std::memcpy(&ptr, storage, sizeof(ptr));
    return ptr;
  }
  template <typename Fn>
  static void heap_invoke(void* storage) {
    (*heap_target<Fn>(storage))();
  }
  template <typename Fn>
  static void heap_destroy(void* storage) noexcept {
    delete heap_target<Fn>(storage);
  }

  static constexpr Ops kHandleOps{&handle_invoke, nullptr, nullptr};
  template <typename Fn>
  static constexpr Ops kInlineOps{
      &inline_invoke<Fn>,
      std::is_trivially_copyable_v<Fn> ? nullptr : &inline_relocate<Fn>,
      std::is_trivially_destructible_v<Fn> ? nullptr : &inline_destroy<Fn>};
  template <typename Fn>
  static constexpr Ops kHeapOps{&heap_invoke<Fn>, nullptr, &heap_destroy<Fn>};

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};
static_assert(sizeof(EventFn) == 64);

}  // namespace heron::sim
