// TPC-C on Heron: schema/oid encoding, bootstrap shape, per-transaction
// correctness, multi-partition NewOrder/Payment semantics, replica
// convergence, and full-mix integration through the harness.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <span>

#include "harness/runner.hpp"
#include "tpcc/app.hpp"
#include "tpcc/gen.hpp"

namespace heron::tpcc {
namespace {

using core::Oid;
using sim::Task;

// --- oid encoding --------------------------------------------------------

TEST(TpccSchema, OidRoundTrip) {
  const Oid oid = make_oid(Table::kOrderLine, 11, 7, ol_key(123456, 9));
  EXPECT_EQ(oid_table(oid), Table::kOrderLine);
  EXPECT_EQ(oid_warehouse(oid), 11u);
  EXPECT_EQ(oid_district(oid), 7u);
  EXPECT_EQ(oid_key(oid), ol_key(123456, 9));
}

TEST(TpccSchema, OidsAreDistinctAcrossTables) {
  const Oid a = make_oid(Table::kStock, 1, 0, 5);
  const Oid b = make_oid(Table::kItem, 1, 0, 5);
  const Oid c = make_oid(Table::kStock, 2, 0, 5);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(TpccSchema, RowSizesMatchPaperShape) {
  // Serialized tables dominate: Stock ~ 640B, Customer ~ 1.3KB. A full
  // warehouse (scale 1.0) must land near the paper's 137.69 MB:
  // 100k stock + 30k customers serialized ~= 105 MB.
  const double stock_mb = 100'000.0 * sizeof(StockRow) / 1e6;
  const double cust_mb = 30'000.0 * sizeof(CustomerRow) / 1e6;
  EXPECT_NEAR(stock_mb + cust_mb, 105.3, 15.0);
  EXPECT_GT(sizeof(CustomerRow), 1200u);
  EXPECT_NEAR(static_cast<double>(sizeof(StockRow)), 640.0, 64.0);
}

TEST(TpccScaleTest, RegionBytesCoverBootstrap) {
  TpccScale scale{.factor = 0.02, .initial_orders_per_district = 10};
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& node = fabric.add_node();
  core::ObjectStore store(node, scale.region_bytes());
  TpccApp app(4, scale);
  EXPECT_NO_THROW(app.bootstrap(0, store));
  EXPECT_LT(store.bytes_used(), store.mr().valid()
                ? node.region(store.mr()).size()
                : 0u);
}

// --- bootstrap ------------------------------------------------------------

TEST(TpccBootstrap, PopulatesExpectedObjects) {
  TpccScale scale{.factor = 0.01, .initial_orders_per_district = 6};
  sim::Simulator sim;
  rdma::Fabric fabric(sim);
  auto& node = fabric.add_node();
  core::ObjectStore store(node, scale.region_bytes());
  TpccApp app(2, scale);
  app.bootstrap(1, store);

  // Replicated tables.
  EXPECT_TRUE(store.exists(make_oid(Table::kWarehouse, 0, 0, 0)));
  EXPECT_TRUE(store.exists(make_oid(Table::kWarehouse, 1, 0, 0)));
  EXPECT_TRUE(store.exists(make_oid(Table::kItem, 1, 0, 1)));
  EXPECT_TRUE(store.exists(make_oid(Table::kItem, 1, 0, scale.items())));
  // Local tables for warehouse 1 only.
  EXPECT_TRUE(store.exists(make_oid(Table::kStock, 1, 0, 1)));
  EXPECT_FALSE(store.exists(make_oid(Table::kStock, 0, 0, 1)));
  EXPECT_TRUE(store.exists(make_oid(Table::kDistrict, 1, 1, 0)));
  EXPECT_TRUE(store.exists(make_oid(Table::kDistrict, 1, 10, 0)));
  EXPECT_TRUE(store.exists(make_oid(Table::kCustomer, 1, 1, 1)));

  const auto district =
      load_row<DistrictRow>(store, make_oid(Table::kDistrict, 1, 1, 0));
  EXPECT_EQ(district.next_o_id, 7u);
  EXPECT_EQ(district.next_del_o_id, 5u);
  // Initial orders exist with their lines.
  const auto order =
      load_row<OrderRow>(store, make_oid(Table::kOrder, 1, 1, 1));
  EXPECT_GE(order.ol_cnt, 5u);
  EXPECT_TRUE(store.exists(
      make_oid(Table::kOrderLine, 1, 1, ol_key(1, 1))));
  // Stock is serialized, Item is not.
  EXPECT_TRUE(store.is_serialized(make_oid(Table::kStock, 1, 0, 1)));
  EXPECT_FALSE(store.is_serialized(make_oid(Table::kItem, 1, 0, 1)));
  EXPECT_TRUE(store.is_serialized(make_oid(Table::kCustomer, 1, 1, 1)));
}

// --- transaction semantics through the full stack -------------------------

struct TpccHarness {
  harness::TpccCluster cluster;
  core::Client* client;

  explicit TpccHarness(int partitions,
                       TpccScale scale = {.factor = 0.01,
                                          .initial_orders_per_district = 6})
      : cluster(partitions, 3, scale) {
    client = &cluster.system().add_client();
  }

  core::Reply run(const GeneratedRequest& req) {
    core::Reply reply;
    cluster.simulator().spawn(
        [](core::Client& c, const GeneratedRequest& r,
           core::Reply& out) -> Task<void> {
          auto result = co_await c.submit(r.dst, r.kind, r.payload);
          out = std::move(result.reply);
        }(*client, req, reply));
    cluster.simulator().run_for(sim::ms(10));
    return reply;
  }

  core::ObjectStore& store(int partition, int rank = 0) {
    return cluster.system().replica(partition, rank).store();
  }
};

TEST(TpccTxn, LocalNewOrderCreatesOrderAndBumpsDistrict) {
  TpccHarness h(2);
  NewOrderReq req;
  req.w_id = 0;
  req.d_id = 1;
  req.c_id = 1;
  req.ol_cnt = 5;
  for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
    req.items[i] = {i + 1, 0, 2};
  }
  GeneratedRequest g;
  g.kind = kNewOrder;
  g.dst = amcast::dst_of(0);
  g.set(req);

  const auto before =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 1, 0));
  core::Reply reply = h.run(g);
  ASSERT_EQ(reply.status, 0u);

  const auto after =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 1, 0));
  EXPECT_EQ(after.next_o_id, before.next_o_id + 1);
  const std::uint64_t o_id = before.next_o_id;
  EXPECT_TRUE(h.store(0).exists(make_oid(Table::kOrder, 0, 1, o_id)));
  EXPECT_TRUE(h.store(0).exists(make_oid(Table::kNewOrder, 0, 1, o_id)));
  EXPECT_TRUE(
      h.store(0).exists(make_oid(Table::kOrderLine, 0, 1, ol_key(o_id, 5))));

  // Stock updated for each line.
  const auto stock =
      load_row<StockRow>(h.store(0), make_oid(Table::kStock, 0, 0, 1));
  EXPECT_EQ(stock.order_cnt, 1u);
  EXPECT_EQ(stock.ytd, 2u);

  // Reply carries the computed total.
  double total;
  std::memcpy(&total, reply.payload.data(), sizeof(total));
  EXPECT_GT(total, 0.0);

  // All three replicas of partition 0 converged.
  for (int r = 1; r < 3; ++r) {
    const auto d = load_row<DistrictRow>(
        h.cluster.system().replica(0, r).store(),
        make_oid(Table::kDistrict, 0, 1, 0));
    EXPECT_EQ(d.next_o_id, after.next_o_id);
  }
}

TEST(TpccTxn, RemoteNewOrderUpdatesSupplyPartitionStock) {
  TpccHarness h(2);
  NewOrderReq req;
  req.w_id = 0;
  req.d_id = 1;
  req.c_id = 1;
  req.ol_cnt = 5;
  for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
    req.items[i] = {i + 1, 0, 2};
  }
  req.items[2].supply_w_id = 1;  // one remote line -> multi-partition
  GeneratedRequest g;
  g.kind = kNewOrder;
  g.dst = amcast::dst_of(0) | amcast::dst_of(1);
  g.set(req);

  h.run(g);

  // Supply partition 1 updated its own stock row (remote_cnt set).
  const auto remote_stock =
      load_row<StockRow>(h.store(1), make_oid(Table::kStock, 1, 0, 3));
  EXPECT_EQ(remote_stock.order_cnt, 1u);
  EXPECT_EQ(remote_stock.remote_cnt, 1u);
  // Home partition did NOT update partition 1's row (no such object).
  EXPECT_FALSE(h.store(0).exists(make_oid(Table::kStock, 1, 0, 3)));
  // The order line carries the remote supplier.
  const auto district =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 1, 0));
  const auto line = load_row<OrderLineRow>(
      h.store(0),
      make_oid(Table::kOrderLine, 0, 1, ol_key(district.next_o_id - 1, 3)));
  EXPECT_EQ(line.supply_w_id, 1u);
  // Order flagged non-local.
  const auto order = load_row<OrderRow>(
      h.store(0), make_oid(Table::kOrder, 0, 1, district.next_o_id - 1));
  EXPECT_EQ(order.all_local, 0u);
}

TEST(TpccTxn, LocalPaymentUpdatesCustomerAndDistrict) {
  TpccHarness h(2);
  PaymentReq req{0, 2, 0, 2, 3, 125.5};
  GeneratedRequest g;
  g.kind = kPayment;
  g.dst = amcast::dst_of(0);
  g.set(req);

  const auto cust_before = load_row<CustomerRow>(
      h.store(0), make_oid(Table::kCustomer, 0, 2, 3));
  h.run(g);
  const auto cust = load_row<CustomerRow>(
      h.store(0), make_oid(Table::kCustomer, 0, 2, 3));
  EXPECT_DOUBLE_EQ(cust.balance, cust_before.balance - 125.5);
  EXPECT_EQ(cust.payment_cnt, cust_before.payment_cnt + 1);
  const auto district =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 2, 0));
  EXPECT_DOUBLE_EQ(district.ytd, 125.5);
}

TEST(TpccTxn, RemotePaymentIsMultiPartition) {
  TpccHarness h(2);
  PaymentReq req{0, 1, /*c_w=*/1, /*c_d=*/4, /*c_id=*/7, 60.0};
  GeneratedRequest g;
  g.kind = kPayment;
  g.dst = amcast::dst_of(0) | amcast::dst_of(1);
  g.set(req);
  h.run(g);

  // Customer at partition 1 debited; district YTD at partition 0 credited.
  const auto cust = load_row<CustomerRow>(
      h.store(1), make_oid(Table::kCustomer, 1, 4, 7));
  EXPECT_DOUBLE_EQ(cust.balance, -10.0 - 60.0);
  const auto district =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 1, 0));
  EXPECT_DOUBLE_EQ(district.ytd, 60.0);
  // Coordination happened.
  EXPECT_EQ(h.cluster.system().replica(0, 0).coord_stats().multi_partition,
            1u);
}

TEST(TpccTxn, OrderStatusReturnsBalanceAndLastOrder) {
  TpccHarness h(1);
  OrderStatusReq req{0, 1, 1};
  GeneratedRequest g;
  g.kind = kOrderStatus;
  g.dst = amcast::dst_of(0);
  g.set(req);
  core::Reply reply = h.run(g);
  ASSERT_EQ(reply.payload.size(), 2 * sizeof(double));
  double balance;
  std::memcpy(&balance, reply.payload.data(), sizeof(double));
  EXPECT_DOUBLE_EQ(balance, -10.0);
}

TEST(TpccTxn, DeliveryAdvancesOldestUndelivered) {
  TpccHarness h(1);
  const auto before =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 3, 0));
  ASSERT_LT(before.next_del_o_id, before.next_o_id);

  DeliveryReq req{0, 3, 5};
  GeneratedRequest g;
  g.kind = kDelivery;
  g.dst = amcast::dst_of(0);
  g.set(req);
  core::Reply reply = h.run(g);

  std::uint64_t delivered;
  std::memcpy(&delivered, reply.payload.data(), sizeof(delivered));
  EXPECT_EQ(delivered, before.next_del_o_id);
  const auto after =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 3, 0));
  EXPECT_EQ(after.next_del_o_id, before.next_del_o_id + 1);
  const auto order = load_row<OrderRow>(
      h.store(0), make_oid(Table::kOrder, 0, 3, delivered));
  EXPECT_EQ(order.carrier_id, 5u);
}

TEST(TpccTxn, StockLevelCountsLowItems) {
  TpccHarness h(1);
  // A few NewOrders first, so the scan covers runtime-created orders and
  // lines as well as bootstrapped ones, and stock quantities have moved.
  for (std::uint32_t n = 0; n < 4; ++n) {
    NewOrderReq no;
    no.w_id = 0;
    no.d_id = 1;
    no.c_id = 1 + n;
    no.ol_cnt = 5 + n;
    for (std::uint32_t i = 0; i < no.ol_cnt; ++i) {
      no.items[i] = {1 + (7 * n + 3 * i) % 100, 0, 1 + (n + i) % 10};
    }
    GeneratedRequest g;
    g.kind = kNewOrder;
    g.dst = amcast::dst_of(0);
    g.set(no);
    ASSERT_EQ(h.run(g).status, 0u);
  }
  // One order row in the scanned range goes missing on every replica:
  // the scan must skip it (and its lines) rather than fail.
  const auto district =
      load_row<DistrictRow>(h.store(0), make_oid(Table::kDistrict, 0, 1, 0));
  const Oid missing =
      make_oid(Table::kOrder, 0, 1, district.next_o_id - 3);
  for (int rank = 0; rank < 3; ++rank) h.store(0, rank).retire(missing);

  // The expected answer, by a plain loop over the last 20 orders' lines.
  const std::int32_t threshold = 50;
  const auto& store = h.store(0);
  const std::uint64_t from =
      district.next_o_id > 20 ? district.next_o_id - 20 : 1;
  std::set<std::uint32_t> low_items;
  std::set<std::uint32_t> all_items;
  for (std::uint64_t o = from; o < district.next_o_id; ++o) {
    const Oid ooid = make_oid(Table::kOrder, 0, 1, o);
    if (!store.exists(ooid)) continue;
    const auto order = load_row<OrderRow>(store, ooid);
    for (std::uint32_t l = 1; l <= order.ol_cnt; ++l) {
      const auto line = load_row<OrderLineRow>(
          store, make_oid(Table::kOrderLine, 0, 1, ol_key(o, l)));
      const auto stock =
          load_row<StockRow>(store, make_oid(Table::kStock, 0, 0, line.i_id));
      all_items.insert(line.i_id);
      if (stock.quantity < threshold) low_items.insert(line.i_id);
    }
  }
  // The threshold splits the scanned items.
  ASSERT_GT(low_items.size(), 0u);
  ASSERT_LT(low_items.size(), all_items.size());

  StockLevelReq req{0, 1, threshold};
  GeneratedRequest g;
  g.kind = kStockLevel;
  g.dst = amcast::dst_of(0);
  g.set(req);
  core::Reply reply = h.run(g);
  ASSERT_EQ(reply.payload.size(), sizeof(std::uint64_t));
  std::uint64_t low;
  std::memcpy(&low, reply.payload.data(), sizeof(low));
  EXPECT_EQ(low, low_items.size());
}

// --- generator -------------------------------------------------------------

TEST(TpccGen, MixMatchesSpec) {
  WorkloadConfig cfg;
  cfg.partitions = 4;
  cfg.scale = TpccScale{.factor = 0.01, .initial_orders_per_district = 6};
  WorkloadGen gen(cfg, 0, 42);
  std::map<std::uint32_t, int> counts;
  int multi = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    auto req = gen.next();
    counts[req.kind]++;
    if (amcast::dst_count(req.dst) > 1) ++multi;
  }
  EXPECT_NEAR(counts[kNewOrder] / static_cast<double>(n), 0.45, 0.02);
  EXPECT_NEAR(counts[kPayment] / static_cast<double>(n), 0.43, 0.02);
  EXPECT_NEAR(counts[kOrderStatus] / static_cast<double>(n), 0.04, 0.01);
  EXPECT_NEAR(counts[kDelivery] / static_cast<double>(n), 0.04, 0.01);
  EXPECT_NEAR(counts[kStockLevel] / static_cast<double>(n), 0.04, 0.01);
  // ~10% of requests are multi-partition (paper §V-D1).
  EXPECT_NEAR(multi / static_cast<double>(n), 0.10, 0.04);
}

TEST(TpccGen, LocalOnlyNeverCrossesPartitions) {
  WorkloadConfig cfg;
  cfg.partitions = 8;
  cfg.scale = TpccScale{.factor = 0.01, .initial_orders_per_district = 6};
  cfg.local_only = true;
  WorkloadGen gen(cfg, 3, 42);
  for (int i = 0; i < 5'000; ++i) {
    auto req = gen.next();
    EXPECT_EQ(req.dst, amcast::dst_of(3));
  }
}

TEST(TpccGen, ForcedSpanHitsExactPartitionCount) {
  WorkloadConfig cfg;
  cfg.partitions = 8;
  cfg.scale = TpccScale{.factor = 0.01, .initial_orders_per_district = 6};
  cfg.force_partitions = 4;
  WorkloadGen gen(cfg, 2, 42);
  for (int i = 0; i < 1'000; ++i) {
    auto req = gen.next();
    EXPECT_EQ(req.kind, kNewOrder);
    EXPECT_EQ(amcast::dst_count(req.dst), 4);
    EXPECT_TRUE(amcast::dst_contains(req.dst, 2));  // home always included
  }
}

// --- full-mix integration ---------------------------------------------------

TEST(TpccIntegration, MixedWorkloadRunsAndConverges) {
  harness::TpccCluster cluster(
      2, 3, TpccScale{.factor = 0.01, .initial_orders_per_district = 6});
  tpcc::WorkloadConfig workload;
  cluster.add_clients(2, workload);
  auto result = cluster.run(sim::ms(5), sim::ms(60));

  EXPECT_GT(result.completed, 200u);
  EXPECT_GT(result.throughput_tps, 1'000.0);
  // Latencies are tens of microseconds, not milliseconds.
  EXPECT_LT(result.latency.mean(), static_cast<double>(sim::us(300)));

  // Replicas of each partition converged on district state.
  auto& sys = cluster.system();
  for (int p = 0; p < 2; ++p) {
    for (std::uint32_t d = 1; d <= 10; ++d) {
      const auto expect = load_row<DistrictRow>(
          sys.replica(p, 0).store(),
          make_oid(Table::kDistrict, static_cast<std::uint32_t>(p), d, 0));
      for (int r = 1; r < 3; ++r) {
        const auto got = load_row<DistrictRow>(
            sys.replica(p, r).store(),
            make_oid(Table::kDistrict, static_cast<std::uint32_t>(p), d, 0));
        EXPECT_EQ(got.next_o_id, expect.next_o_id)
            << "partition " << p << " district " << d << " rank " << r;
        EXPECT_DOUBLE_EQ(got.ytd, expect.ytd);
      }
    }
  }
  EXPECT_GT(result.latency_multi.count(), 0u);
  EXPECT_GT(result.latency_single.count(), result.latency_multi.count());
}

TEST(TpccIntegration, MultiPartitionLatencyExceedsSinglePartition) {
  harness::TpccCluster cluster(
      2, 3, TpccScale{.factor = 0.01, .initial_orders_per_district = 6});
  tpcc::WorkloadConfig workload;
  cluster.add_clients(1, workload);
  auto result = cluster.run(sim::ms(5), sim::ms(80));
  ASSERT_GT(result.latency_multi.count(), 5u);
  EXPECT_GT(result.latency_multi.mean(), result.latency_single.mean());
}

// --- golden execution digest ----------------------------------------------

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

TEST(TpccGolden, ExecutionDigestIsPinned) {
  // One client runs a fixed-seed stream of all five transaction kinds
  // against two partitions. Every reply's bytes, every request's virtual
  // latency and, at the end, every replica's raw object slots in
  // creation order fold into one digest. It pins the results, the CPU
  // charges (through the latencies) and the write and creation order
  // (through the slots): a change meant to keep TPC-C's execution
  // identical must leave the constant as it is.
  const TpccScale scale{.factor = 0.01, .initial_orders_per_district = 6};
  harness::TpccCluster cluster(2, 3, scale);
  core::Client& client = cluster.system().add_client();
  WorkloadConfig cfg;
  cfg.partitions = 2;
  cfg.scale = scale;
  WorkloadGen gen(cfg, 0, 2718);

  constexpr int kRequests = 500;
  Fnv digest;
  std::map<std::uint32_t, int> kinds;
  int done = 0;
  cluster.simulator().spawn(
      [](core::Client& c, WorkloadGen& gen, Fnv& digest,
         std::map<std::uint32_t, int>& kinds, int& done) -> Task<void> {
        for (int i = 0; i < kRequests; ++i) {
          const GeneratedRequest req = gen.next();
          auto result = co_await c.submit(req.dst, req.kind, req.payload);
          ++kinds[req.kind];
          digest.add_pod(req.kind);
          digest.add_pod(result.reply.status);
          digest.add(result.reply.payload);
          digest.add_pod(result.latency);
          ++done;
        }
      }(client, gen, digest, kinds, done));
  cluster.simulator().run_for(sim::ms(200));
  ASSERT_EQ(done, kRequests);
  for (const std::uint32_t kind :
       {kNewOrder, kPayment, kOrderStatus, kDelivery, kStockLevel}) {
    EXPECT_GT(kinds[kind], 5) << "kind " << kind;
  }

  for (int p = 0; p < 2; ++p) {
    for (int rank = 0; rank < 3; ++rank) {
      const auto& store = cluster.system().replica(p, rank).store();
      digest.add_pod(store.object_count());
      store.for_each_oid([&](Oid oid) {
        digest.add_pod(oid);
        digest.add(store.raw_slot(oid));
      });
    }
  }
  EXPECT_EQ(digest.h, 0x8124ef24f85b17f3ull);
}

}  // namespace
}  // namespace heron::tpcc
