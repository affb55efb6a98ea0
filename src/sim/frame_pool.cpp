#include "sim/frame_pool.hpp"

#include <new>

namespace heron::sim::detail {

namespace {

struct FreeBlock {
  FreeBlock* next;
};

constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes + FramePool::kGrain - 1) / FramePool::kGrain - 1;
}

constexpr std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * FramePool::kGrain;
}

struct Freelists {
  FreeBlock* heads[FramePool::kClasses] = {};
  Freelists() = default;
  Freelists(const Freelists&) = delete;
  Freelists& operator=(const Freelists&) = delete;
  ~Freelists() {
    for (std::size_t c = 0; c < FramePool::kClasses; ++c) {
      while (heads[c] != nullptr) {
        FreeBlock* b = heads[c];
        heads[c] = b->next;
        ::operator delete(b, class_bytes(c));
      }
    }
    gone = true;
  }
  // Set once the thread's lists are torn down: frames freed later (by
  // thread-exit or static destructors that outlive the lists) go straight
  // back to the heap.
  static thread_local bool gone;
};

thread_local bool Freelists::gone = false;
thread_local Freelists lists;

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  if (!kPooling || bytes > kMaxPooledBytes) {
    return ::operator new(bytes);
  }
  const std::size_t c = class_of(bytes);
  if (!Freelists::gone) {
    FreeBlock*& head = lists.heads[c];
    if (head != nullptr) {
      FreeBlock* b = head;
      head = b->next;
      return b;
    }
  }
  return ::operator new(class_bytes(c));
}

void FramePool::deallocate(void* frame, std::size_t bytes) noexcept {
  if (!kPooling || bytes > kMaxPooledBytes) {
    ::operator delete(frame, bytes);
    return;
  }
  const std::size_t c = class_of(bytes);
  if (Freelists::gone) {
    ::operator delete(frame, class_bytes(c));
    return;
  }
  auto* b = static_cast<FreeBlock*>(frame);
  FreeBlock*& head = lists.heads[c];
  b->next = head;
  head = b;
}

}  // namespace heron::sim::detail
