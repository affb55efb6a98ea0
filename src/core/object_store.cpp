#include "core/object_store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "rdma/pod.hpp"

namespace heron::core {

namespace {

// Leaves the seqlock word (offset 0) alone: version installs happen
// outside any write-phase bracket and must not perturb the generation
// count a fast reader may be validating against.
void write_header(std::span<std::byte> slot, Tmp tmp_a, Tmp tmp_b,
                  std::uint32_t size, std::uint32_t serialized_word) {
  rdma::store_pod(slot, 8, tmp_a);
  rdma::store_pod(slot, 16, tmp_b);
  rdma::store_pod(slot, SlotView::kSizeOffset, size);
  rdma::store_pod(slot, SlotView::kWordOffset, serialized_word);
}

// Packed serialized word (see SlotView::serialized).
std::uint32_t header_word(Oid oid, bool serialized) {
  return (SlotView::oid_tag(oid) << 1) | (serialized ? 1u : 0u);
}

}  // namespace

SlotView SlotView::parse_header(std::span<const std::byte> raw) {
  SlotView v;
  v.lock = rdma::load_pod<std::uint64_t>(raw, 0);
  v.tmp_a = rdma::load_pod<Tmp>(raw, 8);
  v.tmp_b = rdma::load_pod<Tmp>(raw, 16);
  v.size = rdma::load_pod<std::uint32_t>(raw, kSizeOffset);
  v.serialized = rdma::load_pod<std::uint32_t>(raw, kWordOffset);
  return v;
}

SlotView SlotView::parse(std::span<const std::byte> raw) {
  SlotView v = parse_header(raw);
  v.val_a = raw.subspan(header_bytes(), v.size);
  v.val_b = raw.subspan(header_bytes() + v.size, v.size);
  return v;
}

ObjectStore::ObjectStore(rdma::Node& node, std::size_t region_bytes)
    : node_(&node), mr_(node.register_region(region_bytes)) {}

std::span<std::byte> ObjectStore::slot_span(const Entry& e) {
  return node_->region(mr_).bytes().subspan(e.offset,
                                            SlotView::header_bytes() +
                                                2ull * e.size);
}

std::span<const std::byte> ObjectStore::slot_span(const Entry& e) const {
  return node_->region(mr_).bytes().subspan(e.offset,
                                            SlotView::header_bytes() +
                                                2ull * e.size);
}

std::size_t ObjectStore::probe(Oid oid, std::size_t i) const {
  const std::size_t mask = slots_.size() - 1;
  while (slots_[i] != 0 && entries_[slots_[i] - 1].oid != oid) {
    i = (i + 1) & mask;
  }
  return i;
}

const ObjectStore::Entry* ObjectStore::find(Oid oid) const {
  if (slots_.empty()) return nullptr;
  const std::uint32_t s = slots_[probe(oid, home_of(oid))];
  return s == 0 ? nullptr : &entries_[s - 1];
}

const ObjectStore::Entry& ObjectStore::at(Oid oid) const {
  const Entry* e = find(oid);
  if (e == nullptr) throw std::out_of_range("ObjectStore: unknown oid");
  return *e;
}

const ObjectStore::Entry& ObjectStore::at(Ref ref) const {
  if (!ref.found()) throw std::out_of_range("ObjectStore: unknown oid");
#ifdef HERON_SANITIZE
  if (ref.generation_ != generation_) {
    throw std::logic_error("ObjectStore: Ref used after a create or retire");
  }
#endif
  return entries_[ref.index_];
}

void ObjectStore::resolve(std::span<const Oid> oids,
                          std::span<Ref> out) const {
  assert(out.size() == oids.size());
  if (slots_.empty()) {
    std::fill(out.begin(), out.end(), Ref{});
    return;
  }
  const std::byte* region = node_->region(mr_).bytes().data();
  std::array<std::size_t, kResolveGroup> home{};
  for (std::size_t g = 0; g < oids.size(); g += kResolveGroup) {
    const std::size_t n = std::min(kResolveGroup, oids.size() - g);
    for (std::size_t k = 0; k < n; ++k) {
      home[k] = home_of(oids[g + k]);
      __builtin_prefetch(&slots_[home[k]]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t s = slots_[home[k]];
      if (s != 0) __builtin_prefetch(&entries_[s - 1]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t s = slots_[probe(oids[g + k], home[k])];
      Ref& ref = out[g + k];
      ref = Ref{};
      if (s == 0) continue;
      ref.index_ = s - 1;
#ifdef HERON_SANITIZE
      ref.generation_ = generation_;
#endif
      __builtin_prefetch(region + entries_[s - 1].offset);
    }
  }
}

void ObjectStore::rebuild(std::size_t slot_count) {
  std::erase_if(entries_, [](const Entry& e) { return !e.live; });
  slots_.assign(slot_count, 0);
  shift_ = 64 - std::countr_zero(slot_count);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Oid oid = entries_[i].oid;
    slots_[probe(oid, home_of(oid))] = static_cast<std::uint32_t>(i + 1);
  }
}

std::uint64_t ObjectStore::create(Oid oid, std::span<const std::byte> init,
                                  bool serialized) {
  const auto offset = create_if_absent(oid, init, serialized);
  if (!offset) throw std::logic_error("ObjectStore::create: oid exists");
  return *offset;
}

std::optional<std::uint64_t> ObjectStore::create_if_absent(
    Oid oid, std::span<const std::byte> init, bool serialized) {
  std::size_t at_slot = 0;
  if (!slots_.empty()) {
    at_slot = probe(oid, home_of(oid));
    if (slots_[at_slot] != 0) return std::nullopt;
  }
  const auto size = static_cast<std::uint32_t>(init.size());
  const std::uint64_t slot_bytes = SlotView::header_bytes() + 2ull * size;
  if (bump_ + slot_bytes > node_->region(mr_).size()) {
    throw std::runtime_error("ObjectStore: object region exhausted");
  }
  const std::uint64_t offset = bump_;
  bump_ += (slot_bytes + 7) & ~std::uint64_t{7};  // 8-byte align slots

  const Entry e{oid, offset, size, serialized, true};
  auto slot = slot_span(e);
  rdma::store_pod(slot, 0, std::uint64_t{0});  // seqlock: even, generation 0
  write_header(slot, 0, 0, size, header_word(oid, serialized));
  std::memcpy(slot.data() + SlotView::header_bytes(), init.data(), size);
  std::memcpy(slot.data() + SlotView::header_bytes() + size, init.data(),
              size);
  if (2 * (live_ + 1) > slots_.size()) {
    rebuild(std::max<std::size_t>(16, 2 * slots_.size()));
    at_slot = probe(oid, home_of(oid));
  }
  entries_.push_back(e);
  slots_[at_slot] = static_cast<std::uint32_t>(entries_.size());
  ++live_;
#ifdef HERON_SANITIZE
  ++generation_;
#endif
  return offset;
}

std::pair<Tmp, std::span<const std::byte>> ObjectStore::get(Oid oid) const {
  return view(oid).current();
}

std::pair<Tmp, std::span<const std::byte>> ObjectStore::get(Ref ref) const {
  return SlotView::parse(slot_span(at(ref))).current();
}

void ObjectStore::retire(Oid oid) {
  std::size_t hole = slots_.empty() ? 0 : probe(oid, home_of(oid));
  if (slots_.empty() || slots_[hole] == 0) {
    throw std::logic_error("ObjectStore::retire: unknown oid");
  }
#ifdef HERON_SANITIZE
  ++generation_;
#endif
  Entry& e = entries_[slots_[hole] - 1];
  rdma::store_pod(slot_span(e), SlotView::kSizeOffset, kRetiredSize);
  e.live = false;
  --live_;
  // Backward-shift deletion: pull later members of the probe chain into
  // the hole unless their home lies cyclically in (hole, i].
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = (hole + 1) & mask; slots_[i] != 0; i = (i + 1) & mask) {
    const std::size_t home = home_of(entries_[slots_[i] - 1].oid);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      hole = i;
    }
  }
  slots_[hole] = 0;
  // Retired entries keep their place in creation order until they
  // outnumber the live ones.
  if (entries_.size() - live_ > live_) rebuild(slots_.size());
}

SlotView ObjectStore::view(Oid oid) const {
  return SlotView::parse(slot_span(at(oid)));
}

void ObjectStore::set(Oid oid, std::span<const std::byte> value, Tmp tmp) {
  set_entry(at(oid), value, tmp);
}

void ObjectStore::set(Ref ref, std::span<const std::byte> value, Tmp tmp) {
  set_entry(at(ref), value, tmp);
}

void ObjectStore::set_entry(const Entry& e, std::span<const std::byte> value,
                            Tmp tmp) {
  if (value.size() != e.size) {
    throw std::logic_error("ObjectStore::set: size mismatch");
  }
  auto slot = slot_span(e);
  const auto tmp_a = rdma::load_pod<Tmp>(slot, 8);
  const auto tmp_b = rdma::load_pod<Tmp>(slot, 16);
  if (tmp_a <= tmp_b) {
    rdma::store_pod(slot, 8, tmp);
    std::memcpy(slot.data() + SlotView::header_bytes(), value.data(),
                value.size());
  } else {
    rdma::store_pod(slot, 16, tmp);
    std::memcpy(slot.data() + SlotView::header_bytes() + e.size, value.data(),
                value.size());
  }
}

void ObjectStore::begin_write(Oid oid) {
  auto slot = slot_span(at(oid));
  const auto lock = rdma::load_pod<std::uint64_t>(slot, 0);
  // Already-odd means a nested bracket; keep it odd (outermost end wins).
  rdma::store_pod(slot, 0, lock | 1);
}

void ObjectStore::end_write(Oid oid) {
  auto slot = slot_span(at(oid));
  const auto lock = rdma::load_pod<std::uint64_t>(slot, 0);
  rdma::store_pod(slot, 0, (lock | 1) + 1);  // even, next generation
}

std::uint64_t ObjectStore::seqlock(Oid oid) const {
  return rdma::load_pod<std::uint64_t>(slot_span(at(oid)), 0);
}

bool ObjectStore::fast_pending(Oid oid) const {
  return fast_pending(at(oid));
}

bool ObjectStore::fast_pending(Ref ref) const {
  return fast_pending(at(ref));
}

bool ObjectStore::fast_pending(const Entry& e) const {
  const auto lock = rdma::load_pod<std::uint64_t>(slot_span(e), 0);
  return (lock & kFastTmpBit) != 0 && (lock & 1) != 0;
}

bool ObjectStore::has_fast_trace(Oid oid) const {
  return has_fast_trace(at(oid));
}

bool ObjectStore::has_fast_trace(Ref ref) const {
  return has_fast_trace(at(ref));
}

bool ObjectStore::has_fast_trace(const Entry& e) const {
  const auto slot = slot_span(e);
  const auto lock = rdma::load_pod<std::uint64_t>(slot, 0);
  const auto tmp_a = rdma::load_pod<Tmp>(slot, 8);
  const auto tmp_b = rdma::load_pod<Tmp>(slot, 16);
  return ((lock | tmp_a | tmp_b) & kFastTmpBit) != 0;
}

void ObjectStore::discard_pending(Oid oid) {
  auto slot = slot_span(at(oid));
  const auto lock = rdma::load_pod<std::uint64_t>(slot, 0);
  if ((lock & kFastTmpBit) == 0 || (lock & 1) == 0) return;  // not pending
  const Tmp pending = lock & ~std::uint64_t{1};
  const auto tmp_a = rdma::load_pod<Tmp>(slot, 8);
  const auto tmp_b = rdma::load_pod<Tmp>(slot, 16);
  // The surviving version is the sibling of the pending one; when the
  // pending body never landed (crash between the INVALIDATE and the value
  // write), neither tmp matches and the slot still holds its pre-INV
  // versions — keep a committed fast version if one is present, else fall
  // back to a plain even lock that validates the ordered versions.
  Tmp keep;
  if (tmp_a == pending) {
    keep = tmp_b;
  } else if (tmp_b == pending) {
    keep = tmp_a;
  } else if (is_fast_tmp(tmp_a) || is_fast_tmp(tmp_b)) {
    const Tmp fa = is_fast_tmp(tmp_a) ? tmp_a : 0;
    const Tmp fb = is_fast_tmp(tmp_b) ? tmp_b : 0;
    keep = std::max(fa, fb);
  } else {
    keep = 0;  // plain versions only
  }
  const std::uint64_t word =
      is_fast_tmp(keep) ? keep : ((lock & ~kFastTmpBit) | 1) + 1;
  rdma::store_pod(slot, 0, word);
  node_->region(mr_).on_write().notify_all();
}

void ObjectStore::validate_fast(Oid oid, Tmp tmp) {
  auto slot = slot_span(at(oid));
  rdma::store_pod(slot, 0, static_cast<std::uint64_t>(tmp));
  node_->region(mr_).on_write().notify_all();
}

void ObjectStore::clear_fast_lock(Oid oid) {
  auto slot = slot_span(at(oid));
  const auto lock = rdma::load_pod<std::uint64_t>(slot, 0);
  if ((lock & kFastTmpBit) == 0) return;
  // Plain generation 1 (odd) or 2 (even): the absolute count is
  // meaningless to readers (a single atomic sample, no ABA window in the
  // sim), only parity and the cleared tag matter.
  rdma::store_pod(slot, 0, (lock & 1) | 2);
  node_->region(mr_).on_write().notify_all();
}

void ObjectStore::install_slot(Oid oid, std::span<const std::byte> slot_bytes,
                               std::uint32_t size, bool serialized) {
  if (!exists(oid)) {
    // Lagger receiving an object it never created (e.g. a TPC-C order row
    // inserted while it lagged): allocate, then overwrite.
    std::vector<std::byte> zero(size);
    create(oid, zero, serialized);
  }
  const Entry& e = at(oid);
  if (slot_bytes.size() != SlotView::header_bytes() + 2ull * e.size) {
    throw std::logic_error("ObjectStore::install_slot: size mismatch");
  }
  auto dst = slot_span(e);
  std::memcpy(dst.data(), slot_bytes.data(), slot_bytes.size());
}

void ObjectStore::install_version(Oid oid, std::span<const std::byte> value,
                                  Tmp tmp, bool serialized) {
  create_if_absent(oid, value, serialized);
  const Entry& e = at(oid);
  if (value.size() != e.size) {
    throw std::logic_error("ObjectStore::install_version: size mismatch");
  }
  auto slot = slot_span(e);
  write_header(slot, tmp, tmp, e.size, header_word(oid, e.serialized));
  std::memcpy(slot.data() + SlotView::header_bytes(), value.data(),
              value.size());
  std::memcpy(slot.data() + SlotView::header_bytes() + e.size, value.data(),
              value.size());
}

std::uint64_t ObjectStore::offset_of(Oid oid) const {
  return at(oid).offset;
}

std::uint32_t ObjectStore::size_of(Oid oid) const {
  return at(oid).size;
}

bool ObjectStore::is_serialized(Oid oid) const {
  return at(oid).serialized;
}

bool ObjectStore::is_serialized(Ref ref) const {
  return at(ref).serialized;
}

std::span<const std::byte> ObjectStore::raw_slot(Oid oid) const {
  return slot_span(at(oid));
}

}  // namespace heron::core
