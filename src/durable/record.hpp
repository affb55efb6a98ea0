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

/// A decoded record that owns its value bytes (checkpoint loads and
/// record fetches, which outlive the page they were read from).
struct Record {
  std::uint32_t kind = kRecordObject;
  std::uint32_t flags = 0;
  std::uint64_t id = 0;
  std::uint64_t tmp = 0;
  std::vector<std::byte> bytes;

  [[nodiscard]] RecordView view() const {
    return RecordView{kind, flags, id, tmp, bytes};
  }
};

/// Records encoded back to back, with the offset of each: the one form a
/// snapshot takes. Checkpoint pages and stream chunks are cut from it at
/// record boundaries, so each record is encoded exactly once.
class RecordBuffer {
 public:
  /// Appends a record with `len` value bytes and returns them for the
  /// caller to fill (valid until the next append).
  std::span<std::byte> append(std::uint32_t kind, std::uint32_t flags,
                              std::uint64_t id, std::uint64_t tmp,
                              std::size_t len) {
    append_header(kind, flags, id, tmp, len);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + len);
    return std::span(bytes_).subspan(at, len);
  }
  void append(const RecordView& r) {
    append_header(r.kind, r.flags, r.id, r.tmp, r.value.size());
    bytes_.insert(bytes_.end(), r.value.begin(), r.value.end());
  }

  [[nodiscard]] std::size_t size() const { return offsets_.size(); }
  [[nodiscard]] bool empty() const { return offsets_.empty(); }
  /// Header + value bytes of record `i`.
  [[nodiscard]] std::size_t encoded_size(std::size_t i) const {
    return (i + 1 < offsets_.size() ? offsets_[i + 1] : bytes_.size()) -
           offsets_[i];
  }
  /// The encoded records [first, last), contiguous.
  [[nodiscard]] std::span<const std::byte> encoded(std::size_t first,
                                                   std::size_t last) const {
    const std::size_t end =
        last < offsets_.size() ? offsets_[last] : bytes_.size();
    return std::span(bytes_).subspan(offsets_[first], end - offsets_[first]);
  }
  [[nodiscard]] RecordView operator[](std::size_t i) const {
    RecordHeader h;
    std::memcpy(&h, bytes_.data() + offsets_[i], sizeof(h));
    const std::size_t at = offsets_[i] + sizeof(h);
    return RecordView{h.kind, h.flags, h.id, h.tmp,
                      std::span(bytes_).subspan(at, h.len)};
  }
  /// Value bytes of every record (headers excluded).
  [[nodiscard]] std::size_t value_bytes() const {
    return bytes_.size() - offsets_.size() * sizeof(RecordHeader);
  }

 private:
  void append_header(std::uint32_t kind, std::uint32_t flags,
                     std::uint64_t id, std::uint64_t tmp, std::size_t len) {
    offsets_.push_back(bytes_.size());
    const RecordHeader h{kind, flags, id, tmp, static_cast<std::uint32_t>(len),
                         0};
    const auto head = std::as_bytes(std::span(&h, 1));
    bytes_.insert(bytes_.end(), head.begin(), head.end());
  }

  std::vector<std::byte> bytes_;
  std::vector<std::size_t> offsets_;
};

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
