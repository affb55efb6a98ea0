// Unit tests for the simulated durable subsystem: CRC, the state-record
// codec, the page device's cost/fault model, and the checkpoint store's
// atomic-commit protocol (manifest chains, newest-wins deltas, aborts,
// corruption fallback, compaction, record paging).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>

#include "durable/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "telemetry/registry.hpp"

namespace heron::durable {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

/// Runs a coroutine body to completion on a fresh slice of virtual time.
void drive(sim::Simulator& sim,
           const std::function<sim::Task<void>()>& body) {
  bool done = false;
  sim.spawn([](const std::function<sim::Task<void>()>& b,
               bool& flag) -> sim::Task<void> {
    co_await b();
    flag = true;
  }(body, done));
  sim.run_for(sim::sec(60));
  ASSERT_TRUE(done) << "test coroutine did not finish";
}

Record object_record(std::uint64_t id, std::uint64_t tmp,
                     const std::string& value) {
  Record r;
  r.kind = kRecordObject;
  r.id = id;
  r.tmp = tmp;
  r.bytes = bytes_of(value);
  return r;
}

std::vector<std::byte> from_hex(const std::string& hex) {
  std::vector<std::byte> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return out;
}

/// Packs records without a braced initializer list — GCC 12 miscompiles
/// initializer_list temporaries inside coroutine frames ("array used as
/// initializer").
template <typename... R>
RecordBuffer recs(const R&... r) {
  RecordBuffer out;
  (out.append(r.view()), ...);
  return out;
}

/// The records a checkpoint writes, in the form write_checkpoint takes.
RecordBuffer pack(const std::vector<Record>& records) {
  RecordBuffer out;
  for (const Record& r : records) out.append(r.view());
  return out;
}

/// Bit-at-a-time CRC-32 (reflected, poly 0xEDB88320): the definition the
/// table-driven crc32 must agree with.
std::uint32_t crc32_bitwise(std::span<const std::byte> bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

/// 64-bit FNV-1a, folded over successive byte strings.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::span<const std::byte> bytes) {
    for (const std::byte b : bytes) {
      h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void add_pod(const T& v) {
    add(std::as_bytes(std::span(&v, 1)));
  }
};

TEST(Crc32, KnownAnswer) {
  // The canonical CRC-32 (reflected, poly 0xEDB88320) check value.
  const std::string kat = "123456789";
  EXPECT_EQ(crc32(std::as_bytes(std::span(kat.data(), kat.size()))),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, SlicingMatchesBitwise) {
  std::mt19937_64 rng(17);
  std::vector<std::byte> buf((70u << 10) + 8);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng() & 0xFF);
  const std::span<const std::byte> all(buf);
  // Every short length at every alignment, then random long ones: the
  // 8-byte main loop, its tail and the unaligned head all get exercised.
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const auto s = all.subspan(start, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << start << "+" << len;
    }
    for (int i = 0; i < 24; ++i) {
      const auto s = all.subspan(start, rng() % (70u << 10));
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << start << "+" << s.size();
    }
  }
}

TEST(RecordCodec, RoundtripAndTruncation) {
  const Record session{kRecordSession, 0, 42, 100, bytes_of("sessiondata")};
  const Record layout{kRecordLayout, kRecordFlagSerialized, 0, 9, {}};
  RecordBuffer packed;
  packed.append(session.view());
  packed.append(layout.view());
  EXPECT_EQ(packed.encoded_size(0), sizeof(RecordHeader) + 11);
  EXPECT_EQ(packed.value_bytes(), 11u);
  const std::vector<std::byte> payload(packed.encoded(0, 2).begin(),
                                       packed.encoded(0, 2).end());
  EXPECT_EQ(payload.size(), 2 * sizeof(RecordHeader) + 11);

  std::vector<Record> back;
  EXPECT_TRUE(for_each_record(payload, 2, [&](const RecordView& r) {
    back.push_back(Record{r.kind, r.flags, r.id, r.tmp,
                          std::vector<std::byte>(r.value.begin(),
                                                 r.value.end())});
  }));
  EXPECT_EQ(back.size(), 2u);
  if (back.size() != 2) return;
  EXPECT_EQ(back[0].kind, kRecordSession);
  EXPECT_EQ(back[0].id, 42u);
  EXPECT_EQ(back[0].tmp, 100u);
  EXPECT_EQ(back[0].bytes, bytes_of("sessiondata"));
  EXPECT_EQ(back[1].kind, kRecordLayout);
  EXPECT_TRUE(back[1].view().serialized());
  EXPECT_EQ(back[1].tmp, 9u);
  EXPECT_TRUE(back[1].bytes.empty());

  // Every truncation is "malformed" — never a read past the payload (the
  // sanitizer build checks the latter) — and no record is visited.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    int visited = 0;
    EXPECT_FALSE(for_each_record(std::span(payload).first(cut), 2,
                                 [&](const RecordView&) { ++visited; }))
        << "cut at " << cut;
    EXPECT_EQ(visited, 0);
  }
  // A count that disagrees with the payload is malformed too.
  EXPECT_FALSE(for_each_record(payload, 1, [](const RecordView&) {}));
  EXPECT_FALSE(for_each_record(payload, 3, [](const RecordView&) {}));
}

TEST(PageDevice, RoundtripChargesDeviceTime) {
  sim::Simulator sim;
  DeviceConfig cfg;
  telemetry::MetricsRegistry metrics;
  PageDevice dev(sim, metrics, cfg, "t");

  const auto payload = bytes_of("hello durable world");
  drive(sim, [&]() -> sim::Task<void> {
    const sim::Nanos t0 = sim.now();
    co_await dev.write_page(2, payload);
    const sim::Nanos wrote = sim.now();
    EXPECT_GE(wrote - t0, cfg.write_base);

    std::vector<std::byte> back;
    const bool ok = co_await dev.read_page(2, back);
    EXPECT_TRUE(ok);
    EXPECT_GE(sim.now() - wrote, cfg.read_base);
    EXPECT_EQ(back.size(), payload.size());
    EXPECT_TRUE(back == payload);
  });
  EXPECT_EQ(dev.pages_written(), 1u);
  EXPECT_EQ(dev.pages_read(), 1u);
  EXPECT_EQ(dev.crc_failures(), 0u);
}

TEST(PageDevice, UnwrittenAndOutOfRangePages) {
  sim::Simulator sim;
  DeviceConfig cfg;
  telemetry::MetricsRegistry metrics;
  PageDevice dev(sim, metrics, cfg, "t");
  drive(sim, [&]() -> sim::Task<void> {
    std::vector<std::byte> back;
    EXPECT_FALSE(co_await dev.read_page(7, back));  // never written
  });
  EXPECT_EQ(dev.crc_failures(), 1u);
}

TEST(PageDevice, DetectsMediumCorruption) {
  sim::Simulator sim;
  DeviceConfig cfg;
  telemetry::MetricsRegistry metrics;
  PageDevice dev(sim, metrics, cfg, "t");
  drive(sim, [&]() -> sim::Task<void> {
    co_await dev.write_page(3, bytes_of("precious bits"));
    dev.corrupt_page(3);
    std::vector<std::byte> back;
    EXPECT_FALSE(co_await dev.read_page(3, back));
  });
  EXPECT_EQ(dev.crc_failures(), 1u);
}

TEST(PageDevice, DetectsTornWrite) {
  sim::Simulator sim;
  DeviceConfig cfg;
  telemetry::MetricsRegistry metrics;
  PageDevice dev(sim, metrics, cfg, "t");
  drive(sim, [&]() -> sim::Task<void> {
    dev.tear_next_write();
    co_await dev.write_page(4, bytes_of("half of this payload persists"));
    std::vector<std::byte> back;
    EXPECT_FALSE(co_await dev.read_page(4, back));  // CRC is of the intent
    // The tear is one-shot: a rewrite lands whole.
    co_await dev.write_page(4, bytes_of("rewritten"));
    EXPECT_TRUE(co_await dev.read_page(4, back));
  });
}

TEST(CheckpointStore, CommitAndLoadRoundtrip) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  std::vector<Record> records{object_record(1, 100, "alpha"),
                              object_record(2, 100, "beta")};
  Record sess;
  sess.kind = kRecordSession;
  sess.id = 42;
  sess.tmp = 100;
  sess.bytes = bytes_of("sessiondata");
  records.push_back(sess);

  drive(sim, [&]() -> sim::Task<void> {
    EXPECT_FALSE(store.has_checkpoint());
    const bool ok =
        co_await store.write_checkpoint(100, 7, 12345, /*full=*/true,
                                        pack(records));
    EXPECT_TRUE(ok);
    EXPECT_TRUE(store.has_checkpoint());
    EXPECT_EQ(store.watermark(), 100u);

    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 100u);
    EXPECT_EQ(img->lease_epoch, 7u);
    EXPECT_EQ(img->lease_expiry, 12345);
    EXPECT_EQ(img->chain_length, 1u);
    EXPECT_EQ(img->records.size(), 3u);

    // The data page keeps its on-device format byte for byte: a 16-byte
    // page header ("HERONDAT", record count, bytes used), then each
    // record's 32-byte header {kind, flags, id, tmp, len, pad} and value.
    std::vector<std::byte> page;
    EXPECT_TRUE(co_await store.device().read_page(2, page));
    EXPECT_EQ(page, from_hex(
                        "5441444e4f524548030000008400000000000000000000000100"
                        "00000000000064000000000000000500000000000000616c7068"
                        "610000000000000000020000000000000064000000000000000400"
                        "0000000000006265746101000000000000002a00000000000000"
                        "64000000000000000b0000000000000073657373696f6e646174"
                        "61"));

    const auto fetched = co_await store.fetch_record(kRecordSession, 42);
    EXPECT_TRUE(fetched.has_value());
    if (!fetched.has_value()) co_return;
    EXPECT_EQ(fetched->tmp, 100u);
    EXPECT_EQ(fetched->bytes, bytes_of("sessiondata"));
    EXPECT_FALSE((co_await store.fetch_record(kRecordObject, 99)).has_value());
  });
  EXPECT_EQ(store.checkpoints_written(), 1u);
  EXPECT_EQ(store.full_checkpoints(), 1u);
}

TEST(CheckpointStore, DeltaChainNewestWins) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(
        100, 0, 0, true,
        recs(object_record(1, 100, "old-1"), object_record(2, 100, "old-2")));
    co_await store.write_checkpoint(200, 0, 0, false,
                                    recs(object_record(1, 200, "new-1")));

    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 200u);
    EXPECT_EQ(img->chain_length, 2u);
    EXPECT_EQ(img->records.size(), 2u);
    for (const Record& r : img->records) {
      if (r.id == 1) {
        EXPECT_EQ(r.tmp, 200u);
        EXPECT_EQ(r.bytes, bytes_of("new-1"));
      } else {
        EXPECT_EQ(r.id, 2u);
        EXPECT_EQ(r.bytes, bytes_of("old-2"));
      }
    }
    // fetch_record pages in the newest version too.
    const auto one = co_await store.fetch_record(kRecordObject, 1);
    EXPECT_TRUE(one.has_value());
    if (!one.has_value()) co_return;
    EXPECT_EQ(one->bytes, bytes_of("new-1"));
  });
}

TEST(CheckpointStore, AbortedCheckpointKeepsPreviousCommit) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "stable")));
    // The owner "crashes" between page writes: abort fires immediately.
    const bool ok = co_await store.write_checkpoint(
        200, 0, 0, false, recs(object_record(1, 200, "doomed")),
        [] { return true; });
    EXPECT_FALSE(ok);
    EXPECT_EQ(store.aborted_checkpoints(), 1u);
    EXPECT_EQ(store.watermark(), 100u);

    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 100u);
    EXPECT_EQ(img->records.size(), 1u);
    if (img->records.empty()) co_return;
    EXPECT_EQ(img->records[0].bytes, bytes_of("stable"));
  });
}

TEST(CheckpointStore, CorruptHeadFallsBackToPreviousSuperblock) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    // Commit seq 1 (superblock page 1), then seq 2 (superblock page 0).
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "good")));
    co_await store.write_checkpoint(200, 0, 0, false,
                                    recs(object_record(1, 200, "newer")));
    // Medium corruption of the newest superblock: the loader must fall
    // back to the previous commit, not fail outright.
    store.device().corrupt_page(0);
    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 100u);
    EXPECT_EQ(img->records.size(), 1u);
    if (img->records.empty()) co_return;
    EXPECT_EQ(img->records[0].bytes, bytes_of("good"));
  });
}

TEST(CheckpointStore, FullyCorruptDeviceLoadsNothing) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "gone")));
    store.device().corrupt_page(0);
    store.device().corrupt_page(1);
    const auto img = co_await store.load_latest();
    EXPECT_FALSE(img.has_value());
  });
}

TEST(CheckpointStore, FullCheckpointCompactsTheOldChain) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  cfg.device.page_count = 64;  // small device: utilization is visible
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  const std::string big(40 << 10, 'x');  // ~1.5 records per 64K page
  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(
        100, 0, 0, true,
        recs(object_record(1, 100, big), object_record(2, 100, big)));
    const std::uint64_t base_pages = store.chain_pages();
    for (int i = 0; i < 4; ++i) {
      co_await store.write_checkpoint(
          static_cast<std::uint64_t>(200 + i), 0, 0, false,
          recs(object_record(1, static_cast<std::uint64_t>(200 + i), big)));
    }
    EXPECT_GT(store.chain_pages(), base_pages);  // chain grew with deltas
    EXPECT_GT(store.utilization(), 0.0);

    // A full checkpoint replaces the chain and frees every old page.
    co_await store.write_checkpoint(
        300, 0, 0, true,
        recs(object_record(1, 300, big), object_record(2, 300, big)));
    EXPECT_LE(store.chain_pages(), base_pages);

    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 300u);
    EXPECT_EQ(img->chain_length, 1u);
    EXPECT_EQ(img->records.size(), 2u);
    if (img->records.empty()) co_return;
  });
  EXPECT_EQ(store.full_checkpoints(), 2u);
}

TEST(CheckpointStore, AbortAtDataPageAllocDoesNotLeakPages) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  cfg.device.page_count = 8;  // tiny device: a one-page-per-abort leak
                              // exhausts it after a handful of attempts
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "base")));
    // Each attempt aborts right after allocating its first data page;
    // that page must go back to the allocator, not leak.
    for (int i = 0; i < 20; ++i) {
      const bool ok = co_await store.write_checkpoint(
          200, 0, 0, false, recs(object_record(1, 200, "doomed")),
          [] { return true; });
      EXPECT_FALSE(ok);
    }
    // With no leak the device still has room for a real delta.
    const bool ok = co_await store.write_checkpoint(
        200, 0, 0, false, recs(object_record(1, 200, "landed")));
    EXPECT_TRUE(ok);
    EXPECT_EQ(store.watermark(), 200u);
  });
}

TEST(CheckpointStore, LoadLatestReclaimsUnreferencedPages) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    // full A (pages 2,3) + delta (4,5), then full B: B allocates fresh
    // pages 6,7 and frees the old chain {2,3,4,5} at commit.
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "a")));
    co_await store.write_checkpoint(150, 0, 0, false,
                                    recs(object_record(2, 150, "d")));
    co_await store.write_checkpoint(200, 0, 0, true,
                                    recs(object_record(1, 200, "b")));
    EXPECT_EQ(store.free_pages(), 4u);

    // A restart rebuilds the allocator from the device. The recovered
    // chain references only B's pages; everything else below the bump
    // pointer (the compacted-away chain, aborted in-flight writes) must
    // return to the free list, not leak until out-of-pages.
    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 200u);
    EXPECT_EQ(store.free_pages(), 4u);
  });
}

TEST(CheckpointStore, TornManifestInvalidatesOnlyNewestCandidate) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  drive(sim, [&]() -> sim::Task<void> {
    co_await store.write_checkpoint(100, 0, 0, true,
                                    recs(object_record(1, 100, "base")));
    // Tear the first page of the next checkpoint's stream (a data page):
    // the manifest then references a page whose stored CRC mismatches.
    store.device().tear_next_write();
    co_await store.write_checkpoint(200, 0, 0, false,
                                    recs(object_record(2, 200, "torn")));
    const auto img = co_await store.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    // The newest chain fails its data-page CRC; the previous superblock
    // still names the intact base checkpoint.
    EXPECT_EQ(img->watermark, 100u);
  });
  EXPECT_GE(store.device().crc_failures(), 1u);
}

/// The key space of the golden and index tests: objects (some stored
/// serialized), sessions and tombstones, written in rounds. Round r
/// rewrites every key with (id + r) % every == 0 at tmp 100 * r.
struct Workload {
  static constexpr std::uint64_t kObjects = 400;
  static constexpr std::uint64_t kTombstones = 6;
  std::uint64_t sessions = 40;

  std::map<std::pair<std::uint32_t, std::uint64_t>, Record> newest;

  static Record make(std::uint32_t kind, std::uint64_t id, std::uint64_t tmp) {
    Record r;
    r.kind = kind;
    r.id = id;
    r.tmp = tmp;
    if (kind == kRecordObject && id % 3 == 0) r.flags = kRecordFlagSerialized;
    std::size_t len = 0;
    if (kind == kRecordObject) len = 40 + (id * 131 + tmp) % 1500;
    if (kind == kRecordSession) len = 24 + (id * 7 + tmp) % 300;
    r.bytes.resize(len);
    for (std::size_t j = 0; j < len; ++j) {
      r.bytes[j] = static_cast<std::byte>((id * 31 + tmp * 7 + j) & 0xFF);
    }
    return r;
  }

  /// Records of round `r`; `every` == 1 writes every key. Objects above
  /// kObjects appear from round 3 on.
  std::vector<Record> round(std::uint64_t r, std::uint64_t every) {
    std::vector<Record> out;
    const std::uint64_t objects = kObjects + (r >= 3 ? 50 : 0);
    const auto emit = [&](std::uint32_t kind, std::uint64_t id) {
      const auto key = std::pair{kind, id};
      if ((id + r) % every == 0 || !newest.contains(key)) {
        newest[key] = make(kind, id, 100 * r);
      }
      if (every == 1 || newest[key].tmp == 100 * r) out.push_back(newest[key]);
    };
    for (std::uint64_t id = 1; id <= objects; ++id) emit(kRecordObject, id);
    for (std::uint64_t c = 1; c <= sessions; ++c) emit(kRecordSession, c);
    for (std::uint64_t c = 1; c <= kTombstones; ++c) {
      emit(kRecordTombstone, 1000 + c);
    }
    return out;
  }
};

// The checkpoint bytes of full -> delta -> delta -> full (compaction) ->
// delta, every page of the device folded into one digest after each
// commit. The constant pins the on-device format: data pages, manifests
// with their recorded CRCs, superblocks and page allocation.
TEST(CheckpointStore, GoldenPageBytes) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  cfg.device.page_count = 64;
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");

  Workload wl;
  Fnv digest;
  drive(sim, [&]() -> sim::Task<void> {
    const std::pair<std::uint64_t, bool> rounds[] = {
        {1, true}, {2, false}, {3, false}, {4, true}, {5, false}};
    for (const auto& [r, full] : rounds) {
      const bool ok = co_await store.write_checkpoint(
          100 * r, r, static_cast<std::int64_t>(1000 * r), full,
          pack(wl.round(r, full ? 1 : 4 + r)), {}, r % 2);
      EXPECT_TRUE(ok) << "round " << r;
      std::vector<std::byte> page;
      for (std::uint64_t p = 0; p < cfg.device.page_count; ++p) {
        if (!co_await store.device().read_page(p, page)) continue;
        digest.add_pod(p);
        digest.add_pod(crc32(page));
        digest.add(page);
      }
    }
  });
  EXPECT_EQ(store.full_checkpoints(), 2u);
  EXPECT_EQ(digest.h, 0xa83b8f0506e0692full);
}

// fetch_record finds the newest version of every key ever written, and
// nothing for keys never written: after full -> deltas -> compaction ->
// delta on the writing store, and again after load_latest on a fresh
// store over a copy of the device.
TEST(CheckpointStore, IndexServesNewestVersionOfEveryKey) {
  sim::Simulator sim;
  DurableConfig cfg;
  cfg.checkpoint_interval = sim::ms(1);
  cfg.device.page_count = 64;
  telemetry::MetricsRegistry metrics;
  CheckpointStore store(sim, metrics, cfg, "t");
  CheckpointStore fresh(sim, metrics, cfg, "fresh");

  // As many sessions as objects: every object id is also a session id,
  // so the index must tell keys apart by kind as well as id.
  Workload wl;
  wl.sessions = Workload::kObjects;
  const auto check = [&](CheckpointStore& s) -> sim::Task<void> {
    for (const auto& [key, want] : wl.newest) {
      const auto got = co_await s.fetch_record(key.first, key.second);
      EXPECT_TRUE(got.has_value()) << key.first << "/" << key.second;
      if (!got.has_value()) continue;
      EXPECT_EQ(got->kind, want.kind);
      EXPECT_EQ(got->flags, want.flags);
      EXPECT_EQ(got->tmp, want.tmp) << key.first << "/" << key.second;
      EXPECT_EQ(got->bytes, want.bytes) << key.first << "/" << key.second;
    }
    // Never written: an unknown object, and known ids under another kind.
    EXPECT_FALSE((co_await s.fetch_record(kRecordObject, 9999)).has_value());
    EXPECT_FALSE((co_await s.fetch_record(kRecordObject, 1001)).has_value());
    EXPECT_FALSE((co_await s.fetch_record(kRecordTombstone, 1)).has_value());
    EXPECT_FALSE((co_await s.fetch_record(kRecordLayout, 0)).has_value());
  };

  drive(sim, [&]() -> sim::Task<void> {
    const std::pair<std::uint64_t, bool> rounds[] = {
        {1, true}, {2, false}, {3, false}, {4, true}, {5, false}};
    for (const auto& [r, full] : rounds) {
      co_await store.write_checkpoint(100 * r, 0, 0, full,
                                      pack(wl.round(r, full ? 1 : 4 + r)));
    }
    EXPECT_EQ(store.full_checkpoints(), 2u);
    co_await check(store);

    std::vector<std::byte> page;
    for (std::uint64_t p = 0; p < cfg.device.page_count; ++p) {
      if (co_await store.device().read_page(p, page)) {
        co_await fresh.device().write_page(p, page);
      }
    }
    const auto img = co_await fresh.load_latest();
    EXPECT_TRUE(img.has_value());
    if (!img.has_value()) co_return;  // ASSERT returns; coroutines can't
    EXPECT_EQ(img->watermark, 500u);
    EXPECT_EQ(img->records.size(), wl.newest.size());
    co_await check(fresh);
  });
}

}  // namespace
}  // namespace heron::durable
