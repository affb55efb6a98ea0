#include "core/app.hpp"

#include <algorithm>
#include <stdexcept>

namespace heron::core {

std::vector<std::unique_ptr<ExecContext::Arena>>& ExecContext::idle_arenas() {
  thread_local std::vector<std::unique_ptr<Arena>> idle;
  return idle;
}

ExecContext::ExecContext(GroupId my_partition, ObjectStore& store)
    : partition_(my_partition), store_(&store) {
  auto& idle = idle_arenas();
  if (idle.empty()) {
    arena_ = new Arena;
  } else {
    arena_ = idle.back().release();
    idle.pop_back();
  }
}

ExecContext::~ExecContext() {
  // Cleared, the arena keeps its capacity for the next context.
  arena_->read_bytes.clear();
  arena_->reads.clear();
  arena_->write_bytes.clear();
  arena_->writes.clear();
  arena_->creates.clear();
  idle_arenas().emplace_back(arena_);
}

const ExecContext::Slice* ExecContext::find_read(Oid oid) const {
  const auto& reads = arena_->reads;
  const auto it = std::lower_bound(
      reads.begin(), reads.end(), oid,
      [](const Slice& s, Oid o) { return s.oid < o; });
  return it != reads.end() && it->oid == oid ? &*it : nullptr;
}

bool ExecContext::has(Oid oid) const { return find_read(oid) != nullptr; }

std::span<const std::byte> ExecContext::value(Oid oid) const {
  const Slice* s = find_read(oid);
  if (s == nullptr) {
    throw std::out_of_range("ExecContext::value: oid was not read");
  }
  return {arena_->read_bytes.data() + s->off, s->len};
}

void ExecContext::set_value(Oid oid, std::span<const std::byte> bytes) {
  auto& arena = arena_->read_bytes;
  const Slice s{oid, static_cast<std::uint32_t>(arena.size()),
                static_cast<std::uint32_t>(bytes.size()), false};
  arena.insert(arena.end(), bytes.begin(), bytes.end());
  auto& reads = arena_->reads;
  const auto it = std::lower_bound(
      reads.begin(), reads.end(), oid,
      [](const Slice& x, Oid o) { return x.oid < o; });
  if (it != reads.end() && it->oid == oid) {
    *it = s;  // the replaced bytes stay in the arena until it is recycled
  } else {
    reads.insert(it, s);
  }
}

}  // namespace heron::core
