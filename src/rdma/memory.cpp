#include "rdma/memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

namespace heron::rdma {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

}  // namespace

MemoryRegion::MemoryRegion(sim::Simulator& sim, std::size_t size)
    : size_(size), notifier_(sim) {
  if (size < kMappedMin) {
    if (size > 0) {
      heap_ = std::make_unique<std::byte[]>(size);
      data_ = heap_.get();
    }
    return;
  }
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t span = round_up(size, kAlign);
  const std::size_t data_len = round_up(span, page);
  void* base = mmap(nullptr, data_len + page, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  std::byte* guard = static_cast<std::byte*>(base) + data_len;
  if (mprotect(guard, page, PROT_NONE) != 0) {
    munmap(base, data_len + page);
    throw std::bad_alloc();
  }
  mapping_ = base;
  mapping_len_ = data_len + page;
  data_ = guard - span;
}

MemoryRegion::~MemoryRegion() {
  if (mapping_ != nullptr) munmap(mapping_, mapping_len_);
}

}  // namespace heron::rdma
