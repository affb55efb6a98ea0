// Unit tests for the dual-versioned object store (§III-A dual-versioning,
// Algorithm 2 lines 22 and 29-31).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/object_store.hpp"
#include "rdma/fabric.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace heron::core {
namespace {

struct Env {
  sim::Simulator sim;
  rdma::Fabric fabric{sim};
  rdma::Node* node = &fabric.add_node();
  ObjectStore store{*node, 1 << 20};
};

std::vector<std::byte> bytes_of(std::uint64_t v) {
  std::vector<std::byte> out(sizeof(v));
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

std::uint64_t value_of(std::span<const std::byte> b) {
  std::uint64_t v;
  std::memcpy(&v, b.data(), sizeof(v));
  return v;
}

TEST(ObjectStore, CreateInitialisesBothVersionsAtTmpZero) {
  Env env;
  env.store.create(7, bytes_of(42));
  const auto view = env.store.view(7);
  EXPECT_EQ(view.tmp_a, 0u);
  EXPECT_EQ(view.tmp_b, 0u);
  EXPECT_EQ(value_of(view.val_a), 42u);
  EXPECT_EQ(value_of(view.val_b), 42u);
  auto [tmp, val] = env.store.get(7);
  EXPECT_EQ(tmp, 0u);
  EXPECT_EQ(value_of(val), 42u);
}

TEST(ObjectStore, SetOverwritesOlderVersion) {
  Env env;
  env.store.create(1, bytes_of(10));
  env.store.set(1, bytes_of(20), /*tmp=*/100);
  {
    const auto view = env.store.view(1);
    // One version must still be the original at tmp 0.
    EXPECT_TRUE((view.tmp_a == 0 && view.tmp_b == 100) ||
                (view.tmp_a == 100 && view.tmp_b == 0));
    auto [tmp, val] = env.store.get(1);
    EXPECT_EQ(tmp, 100u);
    EXPECT_EQ(value_of(val), 20u);
  }
  env.store.set(1, bytes_of(30), /*tmp=*/200);
  {
    const auto view = env.store.view(1);
    // tmp 0 version is gone; 100 and 200 remain.
    EXPECT_EQ(std::min(view.tmp_a, view.tmp_b), 100u);
    EXPECT_EQ(std::max(view.tmp_a, view.tmp_b), 200u);
    auto [tmp, val] = env.store.get(1);
    EXPECT_EQ(tmp, 200u);
    EXPECT_EQ(value_of(val), 30u);
  }
}

TEST(ObjectStore, VersionBeforePicksHighestSmaller) {
  Env env;
  env.store.create(1, bytes_of(10));
  env.store.set(1, bytes_of(20), 100);
  env.store.set(1, bytes_of(30), 200);
  const auto view = env.store.view(1);

  // Reader at tmp 150 must see the tmp-100 version.
  auto v150 = view.version_before(150);
  ASSERT_TRUE(v150.has_value());
  EXPECT_EQ(v150->first, 100u);
  EXPECT_EQ(value_of(v150->second), 20u);

  // Reader at tmp 250 sees the tmp-200 version.
  auto v250 = view.version_before(250);
  ASSERT_TRUE(v250.has_value());
  EXPECT_EQ(v250->first, 200u);
  EXPECT_EQ(value_of(v250->second), 30u);

  // Reader at tmp 100 (inclusive bound is strict) sees... nothing: both
  // versions are 100 and 200, neither < 100. That reader lags.
  EXPECT_FALSE(view.version_before(100).has_value());
  EXPECT_FALSE(view.version_before(50).has_value());
}

TEST(ObjectStore, SequenceOfUpdatesKeepsExactlyTwoNewestVersions) {
  Env env;
  env.store.create(1, bytes_of(0));
  for (std::uint64_t t = 1; t <= 50; ++t) {
    env.store.set(1, bytes_of(t), t * 10);
  }
  const auto view = env.store.view(1);
  EXPECT_EQ(std::max(view.tmp_a, view.tmp_b), 500u);
  EXPECT_EQ(std::min(view.tmp_a, view.tmp_b), 490u);
}

TEST(ObjectStore, SetWithWrongSizeThrows) {
  Env env;
  env.store.create(1, bytes_of(0));
  std::vector<std::byte> wrong(4);
  EXPECT_THROW(env.store.set(1, wrong, 10), std::logic_error);
}

TEST(ObjectStore, DuplicateCreateThrows) {
  Env env;
  env.store.create(1, bytes_of(0));
  EXPECT_THROW(env.store.create(1, bytes_of(0)), std::logic_error);
}

TEST(ObjectStore, RegionExhaustionThrows) {
  sim::Simulator sim;
  rdma::Fabric fabric{sim};
  auto& node = fabric.add_node();
  ObjectStore small(node, 128);
  std::vector<std::byte> big(64);
  EXPECT_NO_THROW(small.create(1, std::span<const std::byte>(big).first(16)));
  EXPECT_THROW(small.create(2, big), std::runtime_error);
}

TEST(ObjectStore, OffsetsAreStableAndAligned) {
  Env env;
  const auto off1 = env.store.create(1, bytes_of(1));
  const auto off2 = env.store.create(2, bytes_of(2));
  EXPECT_EQ(env.store.offset_of(1), off1);
  EXPECT_EQ(env.store.offset_of(2), off2);
  EXPECT_EQ(off1 % 8, 0u);
  EXPECT_EQ(off2 % 8, 0u);
  EXPECT_GT(off2, off1);
}

TEST(ObjectStore, InstallSlotOverwritesWholeSlot) {
  Env env;
  env.store.create(1, bytes_of(10));

  // Build a donor store with a newer state for object 1.
  Env donor;
  donor.store.create(1, bytes_of(10));
  donor.store.set(1, bytes_of(77), 300);
  donor.store.set(1, bytes_of(88), 400);

  env.store.install_slot(1, donor.store.raw_slot(1), donor.store.size_of(1),
                         false);
  auto [tmp, val] = env.store.get(1);
  EXPECT_EQ(tmp, 400u);
  EXPECT_EQ(value_of(val), 88u);
  const auto view = env.store.view(1);
  EXPECT_EQ(std::min(view.tmp_a, view.tmp_b), 300u);
}

TEST(ObjectStore, InstallSlotCreatesMissingObject) {
  Env env;
  Env donor;
  donor.store.create(9, bytes_of(5), /*serialized=*/true);
  donor.store.set(9, bytes_of(6), 100);

  EXPECT_FALSE(env.store.exists(9));
  env.store.install_slot(9, donor.store.raw_slot(9), donor.store.size_of(9),
                         true);
  ASSERT_TRUE(env.store.exists(9));
  EXPECT_TRUE(env.store.is_serialized(9));
  auto [tmp, val] = env.store.get(9);
  EXPECT_EQ(tmp, 100u);
  EXPECT_EQ(value_of(val), 6u);
}

TEST(ObjectStore, SerializedFlagRoundTrips) {
  Env env;
  env.store.create(1, bytes_of(0), true);
  env.store.create(2, bytes_of(0), false);
  EXPECT_TRUE(env.store.is_serialized(1));
  EXPECT_FALSE(env.store.is_serialized(2));
  // The word is packed: bit 0 = flag, bits 1-31 = the oid's identity tag.
  EXPECT_TRUE(env.store.view(1).is_serialized_slot());
  EXPECT_FALSE(env.store.view(2).is_serialized_slot());
  EXPECT_EQ(env.store.view(1).tag(), SlotView::oid_tag(1));
  EXPECT_EQ(env.store.view(2).tag(), SlotView::oid_tag(2));
}

TEST(ObjectStore, ForEachOidVisitsAll) {
  Env env;
  for (Oid oid = 1; oid <= 10; ++oid) env.store.create(oid, bytes_of(oid));
  std::vector<Oid> seen;
  env.store.for_each_oid([&](Oid o) { seen.push_back(o); });
  EXPECT_EQ(seen.size(), 10u);
  std::sort(seen.begin(), seen.end());
  for (Oid oid = 1; oid <= 10; ++oid) EXPECT_EQ(seen[oid - 1], oid);
}

TEST(ObjectStore, FlatIndexMatchesOrderedMapUnderRandomOps) {
  // Differential check of the open-addressing index against std::map:
  // random creates, retires and re-creates of retired oids, growing the
  // table through several rehashes. Oids mix small dense keys with keys
  // whose low bits are all equal (packed TPC-C style ids), which share
  // hash prefixes. Every check also runs batched resolve() against the
  // oid-keyed calls.
  sim::Simulator sim;
  rdma::Fabric fabric{sim};
  ObjectStore store{fabric.add_node(), 4 << 20};
  struct Model {
    std::uint64_t offset;
    std::uint64_t value;
    std::uint64_t created;  // creation sequence number
  };
  std::map<Oid, Model> model;
  std::uint64_t creations = 0;
  std::size_t peak = 0;
  sim::Rng rng(2024);
  auto draw_oid = [&](sim::Rng& from) {
    const std::uint64_t k = from.bounded(3000);
    return from.chance(0.5) ? k + 1 : (k << 40) | 0xABCDEFull;
  };
  // Serialized-ness is a function of the oid, so the flag is checkable.
  auto serialized_of = [](Oid oid) { return (oid & 2) != 0; };
  auto raw_copy = [&](Oid oid) {
    const auto raw = store.raw_slot(oid);
    return std::vector<std::byte>(raw.begin(), raw.end());
  };

  // Batches mix live oids, absent oids and repeats of earlier entries, at
  // sizes 0, 1, around the prefetch group and one large batch. Each Ref
  // must read what the oid-keyed calls read, and set() through a Ref must
  // leave the slot exactly as set() through the oid does.
  sim::Rng pick(77);
  auto check_resolve = [&] {
    std::vector<Oid> live;
    for (const auto& [oid, m] : model) live.push_back(oid);
    const std::size_t g = ObjectStore::kResolveGroup;
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, g - 1, g, g + 1, 3000 + g / 2}) {
      std::vector<Oid> batch;
      while (batch.size() < n) {
        const std::uint64_t roll = pick.bounded(4);
        if (roll == 0 && !batch.empty()) {
          batch.push_back(batch[pick.bounded(batch.size())]);
        } else if (roll == 1 || live.empty()) {
          Oid oid = draw_oid(pick);
          while (model.contains(oid)) oid = draw_oid(pick);
          batch.push_back(oid);
        } else {
          batch.push_back(live[pick.bounded(live.size())]);
        }
      }
      std::vector<ObjectStore::Ref> refs(n);
      store.resolve(batch, refs);
      for (std::size_t i = 0; i < n; ++i) {
        const Oid oid = batch[i];
        const ObjectStore::Ref ref = refs[i];
        if (!model.contains(oid)) {
          ASSERT_FALSE(ref.found()) << oid;
          EXPECT_THROW((void)store.get(ref), std::out_of_range);
          EXPECT_THROW((void)store.is_serialized(ref), std::out_of_range);
          continue;
        }
        ASSERT_TRUE(ref.found()) << oid;
        const auto [tmp, value] = store.get(ref);
        ASSERT_EQ(tmp, store.get(oid).first) << oid;
        ASSERT_EQ(value_of(value), model.at(oid).value) << oid;
        ASSERT_EQ(store.is_serialized(ref), store.is_serialized(oid)) << oid;
        ASSERT_EQ(store.is_serialized(ref), serialized_of(oid)) << oid;
        if (i % 5 != 0) continue;
        // set(Ref) == set(oid); the slot is put back afterwards so the
        // model stays right.
        const auto before = raw_copy(oid);
        const Tmp t = tmp + 1 + pick.bounded(3);
        store.set(ref, bytes_of(~oid), t);
        const auto via_ref = raw_copy(oid);
        store.install_slot(oid, before, 8, serialized_of(oid));
        store.set(oid, bytes_of(~oid), t);
        ASSERT_EQ(raw_copy(oid), via_ref) << oid;
        ASSERT_NE(via_ref, before) << oid;
        store.install_slot(oid, before, 8, serialized_of(oid));
      }
    }
  };
  auto check_all = [&] {
    ASSERT_EQ(store.object_count(), model.size());
    std::vector<std::pair<std::uint64_t, Oid>> by_creation;
    for (const auto& [oid, m] : model) {
      ASSERT_TRUE(store.exists(oid)) << oid;
      ASSERT_EQ(store.offset_of(oid), m.offset) << oid;
      ASSERT_EQ(value_of(store.get(oid).second), m.value) << oid;
      ASSERT_EQ(store.is_serialized(oid), serialized_of(oid)) << oid;
      by_creation.emplace_back(m.created, oid);
    }
    std::sort(by_creation.begin(), by_creation.end());
    std::vector<Oid> expected;
    for (const auto& [seq, oid] : by_creation) expected.push_back(oid);
    std::vector<Oid> seen;
    store.for_each_oid([&](Oid oid) { seen.push_back(oid); });
    ASSERT_EQ(seen, expected);
    // Creation order is slot-offset order.
    for (std::size_t i = 1; i < seen.size(); ++i) {
      ASSERT_LT(store.offset_of(seen[i - 1]), store.offset_of(seen[i]));
    }
    check_resolve();
  };

  for (int step = 0; step < 20000; ++step) {
    const Oid oid = draw_oid(rng);
    const auto it = model.find(oid);
    if (it == model.end()) {
      ASSERT_FALSE(store.exists(oid)) << oid;
      EXPECT_THROW((void)store.offset_of(oid), std::out_of_range);
      // Grow faster than we shrink until the table is large.
      if (model.size() < 2500 || rng.chance(0.5)) {
        const std::uint64_t v = oid * 7 + static_cast<std::uint64_t>(step);
        const std::uint64_t off =
            store.create(oid, bytes_of(v), serialized_of(oid));
        model[oid] = Model{off, v, creations++};
      }
    } else if (rng.chance(0.3)) {
      store.retire(oid);
      model.erase(it);
      ASSERT_FALSE(store.exists(oid)) << oid;
    } else {
      const std::uint64_t v = it->second.value + 1;
      store.set(oid, bytes_of(v), static_cast<Tmp>(step + 1));
      it->second.value = v;
    }
    peak = std::max(peak, model.size());
    if (step % 997 == 0) check_all();
  }
  check_all();
  EXPECT_GT(peak, 2000u);  // 16 initial slots: at least 8 doublings
  // Retire everything, then bring a few back: retired slots are never
  // reused and re-created objects go last in creation order.
  for (auto it = model.begin(); it != model.end(); it = model.erase(it)) {
    store.retire(it->first);
  }
  check_all();
  for (Oid oid : {Oid{5}, Oid{3}, Oid{1} << 40 | 0xABCDEF}) {
    model[oid] = Model{store.create(oid, bytes_of(oid), serialized_of(oid)),
                       oid, creations++};
  }
  check_all();
}

TEST(ObjectStore, CreateIfAbsentLeavesAnExistingObjectAlone) {
  Env env;
  const auto off = env.store.create_if_absent(7, bytes_of(70));
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(env.store.offset_of(7), *off);
  EXPECT_FALSE(env.store.create_if_absent(7, bytes_of(71)).has_value());
  EXPECT_EQ(value_of(env.store.get(7).second), 70u);
  EXPECT_EQ(env.store.object_count(), 1u);
  EXPECT_EQ(env.store.bytes_used(), SlotView::header_bytes() + 16);
}

#ifdef HERON_SANITIZE
TEST(ObjectStore, StaleRefIsCaughtInSanitizerBuilds) {
  // A Ref is valid until the next create or retire on its store; the
  // sanitizer build stamps and checks the store generation.
  Env env;
  env.store.create(1, bytes_of(10));
  const Oid oid = 1;
  ObjectStore::Ref ref;
  env.store.resolve(std::span(&oid, 1), std::span(&ref, 1));
  EXPECT_EQ(value_of(env.store.get(ref).second), 10u);
  env.store.create(2, bytes_of(20));
  EXPECT_THROW((void)env.store.get(ref), std::logic_error);
  EXPECT_THROW(env.store.set(ref, bytes_of(11), 1), std::logic_error);
  env.store.resolve(std::span(&oid, 1), std::span(&ref, 1));
  EXPECT_EQ(value_of(env.store.get(ref).second), 10u);
  env.store.retire(2);
  EXPECT_THROW((void)env.store.is_serialized(ref), std::logic_error);
}
#endif

TEST(ObjectStore, SlotParseMatchesRawLayout) {
  Env env;
  env.store.create(1, bytes_of(123));
  env.store.set(1, bytes_of(456), 42);
  const auto raw = env.store.raw_slot(1);
  const auto view = SlotView::parse(raw);
  EXPECT_EQ(view.size, 8u);
  EXPECT_EQ(view.slot_bytes(), raw.size());
  auto [tmp, val] = view.current();
  EXPECT_EQ(tmp, 42u);
  EXPECT_EQ(value_of(val), 456u);
}

}  // namespace
}  // namespace heron::core
