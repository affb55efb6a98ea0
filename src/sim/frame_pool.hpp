// Size-class freelists for coroutine frames.
//
// Every simulated verb, request handler and reply is a Task coroutine, and
// each call allocates its frame. The frame sizes a run uses form a small,
// fixed set (one per coroutine function), so a freed frame is cached on a
// per-thread freelist for its 16-byte size class and handed to the next
// frame of that class instead of going back to malloc. Frames above
// kMaxPooledBytes go straight to ::operator new. Cached blocks are released
// when the thread exits.
//
// AddressSanitizer builds bypass the pool: a recycled frame would hide a
// coroutine-frame use-after-free from ASan's quarantine.
#pragma once

#include <cstddef>

namespace heron::sim::detail {

struct FramePool {
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kPooling = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr bool kPooling = false;
#else
  static constexpr bool kPooling = true;
#endif
#else
  static constexpr bool kPooling = true;
#endif

  static constexpr std::size_t kGrain = 16;
  static constexpr std::size_t kMaxPooledBytes = 2048;
  static constexpr std::size_t kClasses = kMaxPooledBytes / kGrain;

  static void* allocate(std::size_t bytes);
  static void deallocate(void* frame, std::size_t bytes) noexcept;
};

}  // namespace heron::sim::detail
