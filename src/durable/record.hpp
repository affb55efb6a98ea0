// The one state-record format: a 32-byte header, then `len` value bytes.
// Checkpoint data pages and state-stream chunks (Algorithm 3 transfers,
// migration copy) pack the same records with this codec. Ids are oids,
// client ids (sessions, tombstones) or 0 (layout); `tmp` is the object
// version, the session's last executed tmp, the tombstone's evicted floor
// or the layout epoch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace heron::durable {

constexpr std::uint32_t kRecordObject = 0;
constexpr std::uint32_t kRecordSession = 1;
constexpr std::uint32_t kRecordTombstone = 2;
/// Donor layout + seal knowledge (heron::reconfig): a u64 seal epoch,
/// then an encoded layout marker. Only state transfers carry it.
constexpr std::uint32_t kRecordLayout = 3;

/// Object flag bit: value stored in serialized form.
constexpr std::uint32_t kRecordFlagSerialized = 1u << 0;

struct RecordHeader {
  std::uint32_t kind = kRecordObject;
  std::uint32_t flags = 0;
  std::uint64_t id = 0;
  std::uint64_t tmp = 0;
  std::uint32_t len = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(RecordHeader) == 32);

/// A decoded record viewing its value bytes in place.
struct RecordView {
  std::uint32_t kind = kRecordObject;
  std::uint32_t flags = 0;
  std::uint64_t id = 0;
  std::uint64_t tmp = 0;
  std::span<const std::byte> value;

  [[nodiscard]] bool serialized() const {
    return (flags & kRecordFlagSerialized) != 0;
  }
};

struct Record {
  std::uint32_t kind = kRecordObject;
  std::uint32_t flags = 0;
  std::uint64_t id = 0;
  std::uint64_t tmp = 0;
  std::vector<std::byte> bytes;

  [[nodiscard]] std::size_t encoded_size() const {
    return sizeof(RecordHeader) + bytes.size();
  }
  [[nodiscard]] RecordView view() const {
    return RecordView{kind, flags, id, tmp, bytes};
  }
};

/// Writes `r` at the front of `out` (at least r.encoded_size() bytes).
inline void encode_record(const Record& r, std::span<std::byte> out) {
  const RecordHeader h{r.kind, r.flags, r.id, r.tmp,
                       static_cast<std::uint32_t>(r.bytes.size()), 0};
  std::memcpy(out.data(), &h, sizeof(h));
  if (!r.bytes.empty()) {
    std::memcpy(out.data() + sizeof(h), r.bytes.data(), r.bytes.size());
  }
}

/// Decodes the record at `*off` and advances past it. False ("malformed")
/// when the header or value would extend past `payload`; nothing outside
/// it is read.
inline bool decode_record(std::span<const std::byte> payload, std::size_t* off,
                          RecordView* out) {
  if (*off > payload.size() || payload.size() - *off < sizeof(RecordHeader)) {
    return false;
  }
  RecordHeader h;
  std::memcpy(&h, payload.data() + *off, sizeof(h));
  const std::size_t at = *off + sizeof(h);
  if (h.len > payload.size() - at) return false;
  *out = RecordView{h.kind, h.flags, h.id, h.tmp, payload.subspan(at, h.len)};
  *off = at + h.len;
  return true;
}

/// Visits the `count` records packed in `payload`. The payload is fully
/// validated first: if any record (or a trailing byte) is malformed,
/// returns false without visiting anything.
template <typename Fn>
bool for_each_record(std::span<const std::byte> payload, std::uint32_t count,
                     Fn&& fn) {
  RecordView rec;
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!decode_record(payload, &off, &rec)) return false;
  }
  if (off != payload.size()) return false;
  for (off = 0; off < payload.size();) {
    decode_record(payload, &off, &rec);
    fn(rec);
  }
  return true;
}

}  // namespace heron::durable
