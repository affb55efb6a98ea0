#include "durable/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <stdexcept>

namespace heron::durable {

namespace {

constexpr std::uint64_t kSuperMagic = 0x4845524F4E535550ull;     // "HERONSUP"
constexpr std::uint64_t kManifestMagic = 0x4845524F4E4D414Eull;  // "HERONMAN"
constexpr std::uint64_t kMPageMagic = 0x4845524F4E4D5047ull;     // "HERONMPG"
constexpr std::uint64_t kDataMagic = 0x4845524F4E444154ull;      // "HERONDAT"

/// Commit point of a checkpoint: one of the two alternating slots at
/// pages 0/1. Highest valid seq wins.
struct Superblock {
  std::uint64_t magic = 0;
  std::uint64_t seq = 0;
  std::uint64_t head_page = 0;  // first manifest page of the head chain
  std::uint32_t head_crc = 0;   // CRC of that page's payload
  std::uint32_t pad = 0;
  std::uint64_t watermark = 0;
};
static_assert(std::is_trivially_copyable_v<Superblock>);

/// A manifest blob spans a chain of pages, each prefixed with this.
struct MPageHeader {
  std::uint64_t magic = 0;
  std::uint64_t next_page = 0;  // kNoPage at the end of the blob
  std::uint32_t used = 0;       // blob bytes in this page
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<MPageHeader>);

/// Reassembled manifest blob: this header, then `data_page_count`
/// PageEntry records.
struct ManifestHeader {
  std::uint64_t magic = 0;
  std::uint64_t seq = 0;
  std::uint64_t watermark = 0;
  std::uint64_t lease_epoch = 0;
  std::int64_t lease_expiry = 0;
  std::uint64_t layout_epoch = 0;  // partition-layout epoch at commit
  std::uint64_t prev_page = 0;  // previous checkpoint's first manifest page
  std::uint32_t prev_crc = 0;
  std::uint32_t full = 0;
  std::uint32_t data_page_count = 0;
  std::uint32_t pad = 0;
};
static_assert(std::is_trivially_copyable_v<ManifestHeader>);

struct PageEntry {
  std::uint64_t page = 0;
  std::uint32_t crc = 0;            // manifest-recorded payload checksum
  std::uint32_t payload_bytes = 0;
};
static_assert(std::is_trivially_copyable_v<PageEntry>);

/// Data pages are self-describing: this header, then `record_count`
/// packed records (durable/record.hpp).
struct DPageHeader {
  std::uint64_t magic = 0;
  std::uint32_t record_count = 0;
  std::uint32_t used = 0;
};
static_assert(std::is_trivially_copyable_v<DPageHeader>);

template <typename T>
T load_pod(std::span<const std::byte> s, std::uint64_t off) {
  T out{};
  if (off + sizeof(T) > s.size()) return out;
  std::memcpy(&out, s.data() + off, sizeof(T));
  return out;
}

/// Visits a data page's records as fn(record, offset in the page). False
/// when the page header or any record is malformed.
template <typename Fn>
bool for_each_page_record(std::span<const std::byte> page, Fn&& fn) {
  const auto dh = load_pod<DPageHeader>(page, 0);
  if (dh.magic != kDataMagic || dh.used > page.size() ||
      dh.used < sizeof(DPageHeader)) {
    return false;
  }
  return for_each_record(
      page.subspan(sizeof(DPageHeader), dh.used - sizeof(DPageHeader)),
      dh.record_count, [&](const RecordView& r) {
        fn(r, static_cast<std::uint32_t>(r.value.data() - page.data() -
                                         sizeof(RecordHeader)));
      });
}

template <typename T>
void store_pod(std::span<std::byte> s, std::uint64_t off, const T& v) {
  std::memcpy(s.data() + off, &v, sizeof(T));
}

template <typename T>
void append_pod(std::vector<std::byte>& buf, const T& v) {
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(T));
  std::memcpy(buf.data() + off, &v, sizeof(T));
}

}  // namespace

CheckpointStore::CheckpointStore(sim::Simulator& sim,
                                 telemetry::MetricsRegistry& m,
                                 const DurableConfig& cfg,
                                 const std::string& label)
    : sim_(&sim), cfg_(cfg), dev_(sim, m, cfg.device, label) {
  ctr_checkpoints_ = &m.counter("durable", "checkpoints", label);
  ctr_full_checkpoints_ = &m.counter("durable", "full_checkpoints", label);
  ctr_aborted_ = &m.counter("durable", "aborted_checkpoints", label);
  ctr_pages_freed_ = &m.counter("durable", "pages_freed", label);
}

std::size_t CheckpointStore::RecordIndex::probe(std::uint32_t kind,
                                               std::uint64_t id) const {
  // Fibonacci hashing of the id; keys of other kinds with the same id
  // share the probe chain.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (id * 0x9E3779B97F4A7C15ull) >> (64 - std::countr_zero(slots_.size())));
  while (slots_[i].page != kNoPage &&
         (slots_[i].id != id || slots_[i].kind != kind)) {
    i = (i + 1) & mask;
  }
  return i;
}

std::size_t CheckpointStore::RecordIndex::claim(std::uint32_t kind,
                                                std::uint64_t id) {
  if (4 * (used_ + 1) > 3 * slots_.size()) {
    std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.page != kNoPage) slots_[probe(s.kind, s.id)] = s;
    }
  }
  return probe(kind, id);
}

std::optional<CheckpointStore::RecordLoc> CheckpointStore::RecordIndex::find(
    std::uint32_t kind, std::uint64_t id) const {
  if (slots_.empty()) return std::nullopt;
  const Slot& s = slots_[probe(kind, id)];
  if (s.page == kNoPage) return std::nullopt;
  return RecordLoc{s.page, s.offset};
}

bool CheckpointStore::RecordIndex::insert(std::uint32_t kind, std::uint64_t id,
                                          RecordLoc loc) {
  Slot& s = slots_[claim(kind, id)];
  if (s.page != kNoPage) return false;
  s = Slot{id, loc.page, loc.offset, kind};
  ++used_;
  return true;
}

void CheckpointStore::RecordIndex::insert_or_assign(std::uint32_t kind,
                                                    std::uint64_t id,
                                                    RecordLoc loc) {
  Slot& s = slots_[claim(kind, id)];
  if (s.page == kNoPage) ++used_;
  s = Slot{id, loc.page, loc.offset, kind};
}

void CheckpointStore::RecordIndex::clear() {
  for (Slot& s : slots_) s.page = kNoPage;
  used_ = 0;
}

std::uint32_t CheckpointStore::page_payload_capacity() const {
  return dev_.page_bytes();
}

std::uint64_t CheckpointStore::alloc_page() {
  if (!free_.empty()) {
    const std::uint64_t p = free_.back();
    free_.pop_back();
    return p;
  }
  if (next_page_ < dev_.page_count()) return next_page_++;
  return kNoPage;
}

void CheckpointStore::free_page(std::uint64_t page) {
  if (page >= 2 && page != kNoPage) free_.push_back(page);
}

double CheckpointStore::utilization() const {
  return static_cast<double>(chain_pages_.size() + 2) /
         static_cast<double>(dev_.page_count());
}

sim::Task<bool> CheckpointStore::write_checkpoint(
    std::uint64_t watermark, std::uint64_t lease_epoch,
    std::int64_t lease_expiry, bool full, const RecordBuffer& records,
    std::function<bool()> abort, std::uint64_t layout_epoch) {
  const auto aborted = [&abort] { return abort && abort(); };
  std::vector<std::uint64_t> fresh;
  const auto give_up = [&](bool count_abort) {
    for (const std::uint64_t p : fresh) free_page(p);
    if (count_abort) ctr_aborted_->inc();
  };

  // --- cut the records into data pages at record boundaries ------------
  // Page k holds records [cuts[k], cuts[k + 1]).
  const std::uint32_t cap = page_payload_capacity();
  std::vector<std::size_t> cuts;
  std::size_t used = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::size_t rec_len = records.encoded_size(i);
    if (sizeof(DPageHeader) + rec_len > cap) {
      throw std::runtime_error("durable: record larger than a page");
    }
    if (cuts.empty() || used + rec_len > cap) {
      cuts.push_back(i);
      used = sizeof(DPageHeader);
    }
    used += rec_len;
  }
  cuts.push_back(records.size());

  // --- write data pages ------------------------------------------------
  std::vector<PageEntry> entries;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    const std::uint64_t page = alloc_page();
    if (page == kNoPage || aborted()) {
      free_page(page);  // not yet in `fresh`; no-op for kNoPage
      give_up(page != kNoPage);
      co_return false;
    }
    fresh.push_back(page);
    const auto body = records.encoded(cuts[k], cuts[k + 1]);
    const auto bytes =
        static_cast<std::uint32_t>(sizeof(DPageHeader) + body.size());
    std::vector<std::byte> payload;
    payload.reserve(bytes);
    append_pod(payload,
               DPageHeader{kDataMagic,
                           static_cast<std::uint32_t>(cuts[k + 1] - cuts[k]),
                           bytes});
    payload.insert(payload.end(), body.begin(), body.end());
    const std::uint32_t crc =
        co_await dev_.write_page(page, std::move(payload));
    entries.push_back(PageEntry{page, crc, bytes});
  }

  // --- serialize + write the manifest chain ----------------------------
  std::vector<std::byte> blob;
  append_pod(blob, ManifestHeader{
                       kManifestMagic, super_seq_ + 1, watermark, lease_epoch,
                       lease_expiry, layout_epoch, full ? kNoPage : head_page_,
                       full ? 0u : head_crc_, full ? 1u : 0u,
                       static_cast<std::uint32_t>(entries.size()), 0});
  for (const PageEntry& e : entries) append_pod(blob, e);

  const std::uint32_t mcap =
      dev_.page_bytes() - static_cast<std::uint32_t>(sizeof(MPageHeader));
  const std::size_t mpage_count = std::max<std::size_t>(
      1, (blob.size() + mcap - 1) / mcap);
  std::vector<std::uint64_t> mpages;
  for (std::size_t i = 0; i < mpage_count; ++i) {
    const std::uint64_t page = alloc_page();
    if (page == kNoPage) {
      give_up(false);
      co_return false;
    }
    fresh.push_back(page);
    mpages.push_back(page);
  }
  std::uint32_t head_crc_new = 0;
  for (std::size_t i = 0; i < mpage_count; ++i) {
    const std::size_t off = i * mcap;
    const std::size_t part =
        std::min<std::size_t>(mcap, blob.size() - off);
    std::vector<std::byte> payload(sizeof(MPageHeader) + part);
    store_pod(std::span(payload), 0,
              MPageHeader{kMPageMagic,
                          i + 1 < mpage_count ? mpages[i + 1] : kNoPage,
                          static_cast<std::uint32_t>(part), 0});
    std::memcpy(payload.data() + sizeof(MPageHeader), blob.data() + off, part);
    if (aborted()) {
      give_up(true);
      co_return false;
    }
    const std::uint32_t crc =
        co_await dev_.write_page(mpages[i], std::move(payload));
    if (i == 0) head_crc_new = crc;
  }

  // --- commit: the superblock write is the atomic switch ---------------
  if (aborted()) {
    give_up(true);
    co_return false;
  }
  const std::uint64_t seq = super_seq_ + 1;
  std::vector<std::byte> sb;
  append_pod(sb, Superblock{kSuperMagic, seq, mpages[0], head_crc_new, 0,
                            watermark});
  co_await dev_.write_page(seq % 2, std::move(sb));

  // In-memory mirror of the now-durable state.
  super_seq_ = seq;
  head_page_ = mpages[0];
  head_crc_ = head_crc_new;
  watermark_ = watermark;
  if (full) {
    std::uint64_t freed = 0;
    for (const std::uint64_t p : chain_pages_) {
      free_page(p);
      ++freed;
    }
    ctr_pages_freed_->inc(freed);
    chain_pages_.clear();
    index_.clear();
  }
  chain_pages_.insert(chain_pages_.end(), fresh.begin(), fresh.end());
  // Each session's location follows from the cut that packed it; no
  // other kind is ever paged back.
  for (std::size_t k = 0; k < entries.size(); ++k) {
    auto offset = static_cast<std::uint32_t>(sizeof(DPageHeader));
    for (std::size_t i = cuts[k]; i < cuts[k + 1]; ++i) {
      const RecordView r = records[i];
      if (r.kind == kRecordSession) {
        index_.insert_or_assign(r.kind, r.id,
                                RecordLoc{entries[k].page, offset});
      }
      offset += static_cast<std::uint32_t>(records.encoded_size(i));
    }
  }
  ctr_checkpoints_->inc();
  if (full) ctr_full_checkpoints_->inc();
  co_return true;
}

sim::Task<std::optional<Image>> CheckpointStore::load_latest() {
  // Candidate superblocks, newest first.
  std::vector<Superblock> cands;
  std::vector<std::byte> buf;
  for (const std::uint64_t slot : {0ull, 1ull}) {
    const bool ok = co_await dev_.read_page(slot, buf);
    if (!ok || buf.size() < sizeof(Superblock)) continue;
    const auto sb = load_pod<Superblock>(buf, 0);
    if (sb.magic == kSuperMagic) cands.push_back(sb);
  }
  std::sort(cands.begin(), cands.end(),
            [](const Superblock& a, const Superblock& b) {
              return a.seq > b.seq;
            });

  for (const Superblock& sb : cands) {
    Image img;
    img.pages_read = 2;
    RecordIndex newest;  // every key seen so far: the newest-wins test
    RecordIndex new_index;
    std::set<std::uint64_t> seen_set;  // cycle guard + live-page collector
    bool ok = true;
    bool first_manifest = true;

    std::uint64_t mpage = sb.head_page;
    std::uint32_t expect_crc = sb.head_crc;
    while (ok) {
      // Reassemble one manifest blob from its page chain.
      std::vector<std::byte> blob;
      std::uint64_t page = mpage;
      bool first_page = true;
      while (page != kNoPage) {
        if (!seen_set.insert(page).second) {
          ok = false;  // cycle / reused page
          break;
        }
        const bool read_ok = co_await dev_.read_page(page, buf);
        ++img.pages_read;
        if (!read_ok) {
          ok = false;
          break;
        }
        if (first_page && crc32(std::span<const std::byte>(buf)) != expect_crc) {
          ok = false;  // chain link points at a stale/reused page
          break;
        }
        first_page = false;
        const auto mh = load_pod<MPageHeader>(buf, 0);
        if (mh.magic != kMPageMagic ||
            sizeof(MPageHeader) + mh.used > buf.size()) {
          ok = false;
          break;
        }
        blob.insert(blob.end(), buf.begin() + sizeof(MPageHeader),
                    buf.begin() + sizeof(MPageHeader) + mh.used);
        page = mh.next_page;
      }
      if (!ok) break;

      const auto man = load_pod<ManifestHeader>(blob, 0);
      if (man.magic != kManifestMagic ||
          blob.size() < sizeof(ManifestHeader) +
                            man.data_page_count * sizeof(PageEntry)) {
        ok = false;
        break;
      }
      if (first_manifest) {
        img.watermark = man.watermark;
        img.lease_epoch = man.lease_epoch;
        img.lease_expiry = man.lease_expiry;
        img.layout_epoch = man.layout_epoch;
        first_manifest = false;
      }
      ++img.chain_length;

      // Data pages: verify the manifest-recorded checksum, then decode
      // records newest-wins (this walk goes newest manifest first).
      for (std::uint32_t e = 0; e < man.data_page_count; ++e) {
        const auto entry = load_pod<PageEntry>(
            blob, sizeof(ManifestHeader) + e * sizeof(PageEntry));
        if (!seen_set.insert(entry.page).second) {
          ok = false;
          break;
        }
        const bool read_ok = co_await dev_.read_page(entry.page, buf);
        ++img.pages_read;
        if (!read_ok || buf.size() != entry.payload_bytes ||
            crc32(std::span<const std::byte>(buf)) != entry.crc) {
          ok = false;
          break;
        }
        ok = for_each_page_record(buf, [&](const RecordView& rec,
                                           std::uint32_t offset) {
          const RecordLoc loc{entry.page, offset};
          if (!newest.insert(rec.kind, rec.id, loc)) return;
          img.records.append(rec);
          if (rec.kind == kRecordSession) {
            new_index.insert(rec.kind, rec.id, loc);
          }
        });
        if (!ok) break;
      }
      if (!ok) break;

      if (man.full != 0) break;  // reached the chain base
      if (man.prev_page == kNoPage) {
        ok = false;  // a delta with no base: incomplete chain
        break;
      }
      mpage = man.prev_page;
      expect_crc = man.prev_crc;
    }
    if (!ok) continue;  // try the older superblock

    // Reset the in-memory commit state to what the device holds, so the
    // next checkpoint continues this chain.
    super_seq_ = sb.seq;
    head_page_ = sb.head_page;
    head_crc_ = sb.head_crc;
    watermark_ = sb.watermark;
    chain_pages_.assign(seen_set.begin(), seen_set.end());
    index_ = std::move(new_index);
    free_.clear();
    next_page_ = 2;
    for (const std::uint64_t p : chain_pages_) {
      next_page_ = std::max(next_page_, p + 1);
    }
    // Pages below next_page_ that the recovered chain does not reference
    // (the other superblock's chain, aborted in-flight writes) would
    // otherwise be unallocatable forever — reclaim them. Reusing a stale
    // page is safe: chain walks validate head_crc/prev_crc and manifest
    // checksums, so a superseded superblock can no longer resolve it.
    for (std::uint64_t p = 2; p < next_page_; ++p) {
      if (!seen_set.contains(p)) free_.push_back(p);
    }
    co_return img;
  }
  co_return std::nullopt;
}

sim::Task<std::optional<Record>> CheckpointStore::fetch_session(
    std::uint64_t client) {
  const auto loc = index_.find(kRecordSession, client);
  if (!loc.has_value()) co_return std::nullopt;
  std::vector<std::byte> buf;
  const bool ok = co_await dev_.read_page(loc->page, buf);
  if (!ok) co_return std::nullopt;
  const auto dh = load_pod<DPageHeader>(buf, 0);
  if (dh.magic != kDataMagic) co_return std::nullopt;
  std::size_t off = loc->offset;
  RecordView rec;
  if (!decode_record(buf, &off, &rec) || rec.kind != kRecordSession ||
      rec.id != client) {
    co_return std::nullopt;
  }
  co_return Record{rec.kind, rec.flags, rec.id, rec.tmp,
                   std::vector<std::byte>(rec.value.begin(), rec.value.end())};
}

}  // namespace heron::durable
