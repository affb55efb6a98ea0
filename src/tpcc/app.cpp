#include "tpcc/app.hpp"

#include <algorithm>
#include <cstddef>

#include "sim/random.hpp"

namespace heron::tpcc {

namespace {

// Cost model: the paper charges serialized tables a per-byte
// (de)serialization cost (HeronConfig::serialize_ns_per_byte covers the
// runtime-visible reads/writes; direct local reads charge here).
constexpr double kSerializeNsPerByte = 1.0;
constexpr sim::Nanos kBaseTxnCost = sim::us(1.5);
constexpr sim::Nanos kRowTouchCost = 150;  // hash lookup + header handling

template <typename T>
T from_ctx(core::ExecContext& ctx, core::Oid oid) {
  T out;
  auto v = ctx.value(oid);
  std::memcpy(&out, v.data(), sizeof(T));
  return out;
}

template <typename T>
T decode(const core::Request& r) {
  T out;
  std::memcpy(&out, r.payload.data(), sizeof(T));
  return out;
}

}  // namespace

TpccApp::TpccApp(int partitions, TpccScale scale, std::uint64_t seed)
    : partitions_(partitions), scale_(scale), seed_(seed) {}

core::GroupId TpccApp::partition_of(core::Oid oid) const {
  return static_cast<core::GroupId>(oid_warehouse(oid) %
                                    static_cast<std::uint32_t>(partitions_));
}

void TpccApp::charge_serialized(core::ExecContext& ctx, std::size_t bytes) {
  ctx.charge(static_cast<sim::Nanos>(static_cast<double>(bytes) *
                                     kSerializeNsPerByte) +
             kRowTouchCost);
}

std::span<const core::ObjectStore::Ref> TpccApp::resolve(
    const core::ObjectStore& store) {
  refs_.resize(oids_.size());
  store.resolve(oids_, refs_);
  return refs_;
}

std::vector<core::Oid> TpccApp::read_set(const core::Request& r,
                                         core::GroupId at) const {
  switch (r.header.kind) {
    case kNewOrder: {
      const auto req = decode<NewOrderReq>(r);
      std::vector<core::Oid> out;
      const bool home = partition_of(make_oid(Table::kDistrict, req.w_id, 0,
                                              0)) == at;
      for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
        const auto& item = req.items[i];
        const core::Oid stock =
            make_oid(Table::kStock, item.supply_w_id, 0, item.i_id);
        // The home partition reads every stock row (for amounts and
        // dist_info); a supply partition reads only its own rows.
        if (home || partition_of(stock) == at) out.push_back(stock);
      }
      return out;
    }
    case kPayment: {
      const auto req = decode<PaymentReq>(r);
      return {make_oid(Table::kCustomer, req.c_w_id, req.c_d_id, req.c_id)};
    }
    default:
      return {};  // single-partition, resolved against the local store
  }
}

core::Reply TpccApp::execute(const core::Request& r, core::ExecContext& ctx) {
  ctx.charge(kBaseTxnCost);
  switch (r.header.kind) {
    case kNewOrder:
      return exec_new_order(decode<NewOrderReq>(r), r, ctx);
    case kPayment:
      return exec_payment(decode<PaymentReq>(r), r, ctx);
    case kOrderStatus:
      return exec_order_status(decode<OrderStatusReq>(r), ctx);
    case kDelivery:
      return exec_delivery(decode<DeliveryReq>(r), r, ctx);
    case kStockLevel:
      return exec_stock_level(decode<StockLevelReq>(r), ctx);
    default:
      return core::Reply{.status = 1};
  }
}

core::Reply TpccApp::exec_new_order(const NewOrderReq& req,
                                    const core::Request& r,
                                    core::ExecContext& ctx) {
  const auto& store = ctx.local_store();
  const bool home =
      partition_of(make_oid(Table::kDistrict, req.w_id, 0, 0)) ==
      ctx.my_partition();

  // Every involved partition updates its own stock rows (§III-A: local
  // writes only; the paper's "partial execution in some partitions").
  for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
    const auto& it = req.items[i];
    const core::Oid soid = make_oid(Table::kStock, it.supply_w_id, 0, it.i_id);
    if (partition_of(soid) != ctx.my_partition()) continue;
    auto stock = from_ctx<StockRow>(ctx, soid);
    if (stock.quantity >= static_cast<std::int32_t>(it.quantity) + 10) {
      stock.quantity -= static_cast<std::int32_t>(it.quantity);
    } else {
      stock.quantity += 91 - static_cast<std::int32_t>(it.quantity);
    }
    stock.ytd += it.quantity;
    stock.order_cnt += 1;
    if (it.supply_w_id != req.w_id) stock.remote_cnt += 1;
    ctx.write_as(soid, stock);  // runtime charges the re-serialization
  }

  if (!home) return core::Reply{};  // supply partitions are done

  // Home partition: order bookkeeping. District, customer, warehouse and
  // the lines' items resolve in one batch.
  const core::Oid doid = make_oid(Table::kDistrict, req.w_id, req.d_id, 0);
  oids_.assign({doid, make_oid(Table::kCustomer, req.w_id, req.d_id, req.c_id),
                make_oid(Table::kWarehouse, req.w_id, 0, 0)});
  const auto item_w = static_cast<std::uint32_t>(ctx.my_partition());
  for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
    oids_.push_back(make_oid(Table::kItem, item_w, 0, req.items[i].i_id));
  }
  const auto refs = resolve(store);

  auto district = load_row<DistrictRow>(store, refs[0]);
  const std::uint64_t o_id = district.next_o_id;
  district.next_o_id += 1;
  ctx.write_as(doid, district);

  const auto customer = load_row<CustomerRow>(store, refs[1]);
  charge_serialized(ctx, sizeof(CustomerRow));

  const auto warehouse = load_row<WarehouseRow>(store, refs[2]);

  OrderRow order;
  order.o_id = o_id;
  order.c_id = req.c_id;
  order.d_id = req.d_id;
  order.w_id = req.w_id;
  order.ol_cnt = req.ol_cnt;
  order.entry_d = static_cast<std::int64_t>(r.tmp);
  double total = 0;
  for (std::uint32_t i = 0; i < req.ol_cnt; ++i) {
    const auto& it = req.items[i];
    if (it.supply_w_id != req.w_id) order.all_local = 0;

    const auto item = load_row<ItemRow>(store, refs[3 + i]);
    const auto stock = from_ctx<StockRow>(
        ctx, make_oid(Table::kStock, it.supply_w_id, 0, it.i_id));

    OrderLineRow line;
    line.o_id = o_id;
    line.ol_number = i + 1;
    line.i_id = it.i_id;
    line.supply_w_id = it.supply_w_id;
    line.quantity = it.quantity;
    line.amount = it.quantity * item.price;
    std::memcpy(line.dist_info.data(),
                stock.dist.data() + (req.d_id % kDistrictsPerWarehouse) * 24,
                24);
    total += line.amount;
    ctx.create(make_oid(Table::kOrderLine, req.w_id, req.d_id,
                        ol_key(o_id, line.ol_number)),
               std::as_bytes(std::span(&line, 1)));
  }
  ctx.create(make_oid(Table::kOrder, req.w_id, req.d_id, o_id),
             std::as_bytes(std::span(&order, 1)));
  NewOrderRow no{o_id, req.d_id, req.w_id, 0};
  ctx.create(make_oid(Table::kNewOrder, req.w_id, req.d_id, o_id),
             std::as_bytes(std::span(&no, 1)));
  CustomerIndexRow idx{o_id};
  ctx.write_as(make_oid(Table::kCustomerIndex, req.w_id, req.d_id, req.c_id),
               idx);

  total *= (1.0 - customer.discount) * (1.0 + warehouse.tax + district.tax);
  core::Reply reply;
  reply.payload.resize(sizeof(total) + sizeof(o_id));
  std::memcpy(reply.payload.data(), &total, sizeof(total));
  std::memcpy(reply.payload.data() + sizeof(total), &o_id, sizeof(o_id));
  return reply;
}

core::Reply TpccApp::exec_payment(const PaymentReq& req,
                                  const core::Request& r,
                                  core::ExecContext& ctx) {
  const auto& store = ctx.local_store();
  const bool home_here =
      partition_of(make_oid(Table::kDistrict, req.w_id, 0, 0)) ==
      ctx.my_partition();
  const core::Oid coid =
      make_oid(Table::kCustomer, req.c_w_id, req.c_d_id, req.c_id);
  const bool customer_here = partition_of(coid) == ctx.my_partition();

  // Reading the customer row (possibly remote) is part of the request at
  // the home partition too (credit check / reply data); the runtime
  // charges its deserialization.
  auto customer = from_ctx<CustomerRow>(ctx, coid);

  if (home_here) {
    const core::Oid doid = make_oid(Table::kDistrict, req.w_id, req.d_id, 0);
    auto district = load_row<DistrictRow>(store, doid);
    district.ytd += req.amount;
    ctx.write_as(doid, district);
  }
  if (customer_here) {
    customer.balance -= req.amount;
    customer.ytd_payment += req.amount;
    customer.payment_cnt += 1;
    ctx.write_as(coid, customer);

    HistoryRow hist;
    hist.c_id = req.c_id;
    hist.c_d_id = req.c_d_id;
    hist.c_w_id = req.c_w_id;
    hist.d_id = req.d_id;
    hist.w_id = req.w_id;
    hist.amount = req.amount;
    hist.date = static_cast<std::int64_t>(r.tmp);
    // r.tmp is unique per request, so it doubles as the history key.
    ctx.create(make_oid(Table::kHistory, req.c_w_id, req.c_d_id,
                        r.tmp & 0xfffffffffULL),
               std::as_bytes(std::span(&hist, 1)));
  }

  core::Reply reply;
  reply.payload.resize(sizeof(double));
  std::memcpy(reply.payload.data(), &customer.balance, sizeof(double));
  return reply;
}

core::Reply TpccApp::exec_order_status(const OrderStatusReq& req,
                                       core::ExecContext& ctx) {
  const auto& store = ctx.local_store();
  oids_.assign(
      {make_oid(Table::kCustomer, req.w_id, req.d_id, req.c_id),
       make_oid(Table::kCustomerIndex, req.w_id, req.d_id, req.c_id)});
  auto refs = resolve(store);
  const auto customer = load_row<CustomerRow>(store, refs[0]);
  charge_serialized(ctx, sizeof(CustomerRow));

  const auto idx = load_row<CustomerIndexRow>(store, refs[1]);

  double last_total = 0;
  if (idx.last_o_id != 0) {
    const auto order = load_row<OrderRow>(
        store, make_oid(Table::kOrder, req.w_id, req.d_id, idx.last_o_id));
    ctx.charge(kRowTouchCost);
    oids_.clear();
    for (std::uint32_t l = 1; l <= order.ol_cnt; ++l) {
      oids_.push_back(make_oid(Table::kOrderLine, req.w_id, req.d_id,
                               ol_key(idx.last_o_id, l)));
    }
    refs = resolve(store);
    for (const core::ObjectStore::Ref ref : refs) {
      last_total += load_row<OrderLineRow>(store, ref).amount;
      ctx.charge(kRowTouchCost);
    }
  }
  core::Reply reply;
  reply.payload.resize(2 * sizeof(double));
  std::memcpy(reply.payload.data(), &customer.balance, sizeof(double));
  std::memcpy(reply.payload.data() + sizeof(double), &last_total,
              sizeof(double));
  return reply;
}

core::Reply TpccApp::exec_delivery(const DeliveryReq& req,
                                   const core::Request& r,
                                   core::ExecContext& ctx) {
  const auto& store = ctx.local_store();
  const core::Oid doid = make_oid(Table::kDistrict, req.w_id, req.d_id, 0);
  auto district = load_row<DistrictRow>(store, doid);
  std::uint64_t delivered_o_id = 0;

  if (district.next_del_o_id < district.next_o_id) {
    const std::uint64_t o_id = district.next_del_o_id;
    district.next_del_o_id += 1;
    ctx.write_as(doid, district);

    const core::Oid ooid = make_oid(Table::kOrder, req.w_id, req.d_id, o_id);
    auto order = load_row<OrderRow>(store, ooid);
    order.carrier_id = req.carrier_id;
    ctx.write_as(ooid, order);
    ctx.charge(kRowTouchCost);

    double total = 0;
    oids_.clear();
    for (std::uint32_t l = 1; l <= order.ol_cnt; ++l) {
      oids_.push_back(make_oid(Table::kOrderLine, req.w_id, req.d_id,
                               ol_key(o_id, l)));
    }
    const auto refs = resolve(store);
    for (std::size_t l = 0; l < refs.size(); ++l) {
      auto line = load_row<OrderLineRow>(store, refs[l]);
      line.delivery_d = static_cast<std::int64_t>(r.tmp);
      total += line.amount;
      ctx.write_as(oids_[l], line);
      ctx.charge(kRowTouchCost);
    }

    const core::Oid coid =
        make_oid(Table::kCustomer, req.w_id, req.d_id, order.c_id);
    auto customer = load_row<CustomerRow>(store, coid);
    charge_serialized(ctx, sizeof(CustomerRow));
    customer.balance += total;
    customer.delivery_cnt += 1;
    ctx.write_as(coid, customer);
    charge_serialized(ctx, sizeof(CustomerRow));

    const core::Oid nooid =
        make_oid(Table::kNewOrder, req.w_id, req.d_id, o_id);
    if (store.exists(nooid)) {
      auto no = load_row<NewOrderRow>(store, nooid);
      no.delivered = 1;
      ctx.write_as(nooid, no);
    }
    delivered_o_id = o_id;
  }

  core::Reply reply;
  reply.payload.resize(sizeof(delivered_o_id));
  std::memcpy(reply.payload.data(), &delivered_o_id, sizeof(delivered_o_id));
  return reply;
}

core::Reply TpccApp::exec_stock_level(const StockLevelReq& req,
                                      core::ExecContext& ctx) {
  const auto& store = ctx.local_store();
  const auto district = load_row<DistrictRow>(
      store, make_oid(Table::kDistrict, req.w_id, req.d_id, 0));

  // Scan the last 20 orders' lines; count distinct items whose stock is
  // below the threshold. Expensive due to the serialized Stock table
  // (the paper's explanation for StockLevel's latency, §V-D2). Three
  // batched lookups: the orders, then their lines, then the lines' stock
  // rows, of which only the quantity is read.
  const std::uint64_t from =
      district.next_o_id > 20 ? district.next_o_id - 20 : 1;
  oids_.clear();
  for (std::uint64_t o = from; o < district.next_o_id; ++o) {
    oids_.push_back(make_oid(Table::kOrder, req.w_id, req.d_id, o));
  }
  auto refs = resolve(store);
  oids_.clear();
  for (std::size_t k = 0; k < refs.size(); ++k) {
    if (!refs[k].found()) continue;  // a missing order row is skipped
    const auto order = load_row<OrderRow>(store, refs[k]);
    ctx.charge(kRowTouchCost);
    for (std::uint32_t l = 1; l <= order.ol_cnt; ++l) {
      oids_.push_back(make_oid(Table::kOrderLine, req.w_id, req.d_id,
                               ol_key(from + k, l)));
    }
  }
  refs = resolve(store);
  oids_.clear();
  for (const core::ObjectStore::Ref ref : refs) {
    const auto line = load_row<OrderLineRow>(store, ref);
    ctx.charge(kRowTouchCost);
    oids_.push_back(make_oid(Table::kStock, req.w_id, 0, line.i_id));
  }
  refs = resolve(store);
  // Keep the stock oids of low items, then count the distinct ones.
  std::size_t low = 0;
  for (std::size_t k = 0; k < refs.size(); ++k) {
    const auto value = store.get(refs[k]).second;
    std::int32_t quantity;
    std::memcpy(&quantity, value.data() + offsetof(StockRow, quantity),
                sizeof(quantity));
    charge_serialized(ctx, sizeof(StockRow));
    if (quantity < req.threshold) oids_[low++] = oids_[k];
  }
  std::sort(oids_.begin(), oids_.begin() + static_cast<std::ptrdiff_t>(low));
  const std::uint64_t count = static_cast<std::uint64_t>(
      std::unique(oids_.begin(),
                  oids_.begin() + static_cast<std::ptrdiff_t>(low)) -
      oids_.begin());
  core::Reply reply;
  reply.payload.resize(sizeof(count));
  std::memcpy(reply.payload.data(), &count, sizeof(count));
  return reply;
}

void TpccApp::bootstrap(core::GroupId partition, core::ObjectStore& store) {
  sim::Rng rng(seed_ ^ (0xabcdULL + static_cast<std::uint64_t>(partition)));
  const auto w = static_cast<std::uint32_t>(partition);

  // Warehouse rows: replicated everywhere, read-only (paper §IV-A).
  for (int p = 0; p < partitions_; ++p) {
    WarehouseRow wh;
    wh.w_id = static_cast<std::uint32_t>(p);
    wh.tax = 0.05 + 0.01 * (p % 5);
    store.create(make_oid(Table::kWarehouse, static_cast<std::uint32_t>(p), 0, 0),
                 std::as_bytes(std::span(&wh, 1)));
  }
  // Item table: replicated copy under this partition's id.
  for (std::uint32_t i = 1; i <= scale_.items(); ++i) {
    ItemRow item;
    item.i_id = i;
    item.im_id = i % 10'000;
    item.price = 1.0 + static_cast<double>(i % 100);
    store.create(make_oid(Table::kItem, w, 0, i),
                 std::as_bytes(std::span(&item, 1)));
  }
  // Stock: serialized table.
  for (std::uint32_t i = 1; i <= scale_.items(); ++i) {
    StockRow stock;
    stock.i_id = i;
    stock.w_id = w;
    stock.quantity = static_cast<std::int32_t>(10 + rng.bounded(91));
    store.create(make_oid(Table::kStock, w, 0, i),
                 std::as_bytes(std::span(&stock, 1)), /*serialized=*/true);
  }
  // Districts, customers (serialized), customer index, initial orders.
  for (std::uint32_t d = 1; d <= kDistrictsPerWarehouse; ++d) {
    DistrictRow district;
    district.d_id = d;
    district.w_id = w;
    district.tax = 0.04 + 0.01 * (d % 4);

    for (std::uint32_t c = 1; c <= scale_.customers_per_district(); ++c) {
      CustomerRow customer;
      customer.c_id = c;
      customer.d_id = d;
      customer.w_id = w;
      customer.discount = 0.01 * static_cast<double>(c % 30);
      store.create(make_oid(Table::kCustomer, w, d, c),
                   std::as_bytes(std::span(&customer, 1)),
                   /*serialized=*/true);
      CustomerIndexRow idx;
      store.create(make_oid(Table::kCustomerIndex, w, d, c),
                   std::as_bytes(std::span(&idx, 1)));
    }

    // Initial orders: ~2/3 delivered, the rest pending (spec clause 4.3.3
    // shape at reduced volume).
    const std::uint32_t norders = scale_.initial_orders_per_district;
    for (std::uint64_t o = 1; o <= norders; ++o) {
      OrderRow order;
      order.o_id = o;
      order.c_id = static_cast<std::uint32_t>(
          1 + rng.bounded(scale_.customers_per_district()));
      order.d_id = d;
      order.w_id = w;
      order.ol_cnt = static_cast<std::uint32_t>(5 + rng.bounded(11));
      const bool delivered = o <= (norders * 2) / 3;
      order.carrier_id =
          delivered ? static_cast<std::uint32_t>(1 + rng.bounded(10)) : 0;
      store.create(make_oid(Table::kOrder, w, d, o),
                   std::as_bytes(std::span(&order, 1)));
      for (std::uint32_t l = 1; l <= order.ol_cnt; ++l) {
        OrderLineRow line;
        line.o_id = o;
        line.ol_number = l;
        line.i_id = static_cast<std::uint32_t>(1 + rng.bounded(scale_.items()));
        line.supply_w_id = w;
        line.quantity = 5;
        line.amount = delivered ? 0.0 : 1.0 + static_cast<double>(rng.bounded(9999)) / 100.0;
        store.create(make_oid(Table::kOrderLine, w, d, ol_key(o, l)),
                     std::as_bytes(std::span(&line, 1)));
      }
      if (!delivered) {
        NewOrderRow no{o, d, w, 0};
        store.create(make_oid(Table::kNewOrder, w, d, o),
                     std::as_bytes(std::span(&no, 1)));
      }
      CustomerIndexRow idx{o};
      store.set(make_oid(Table::kCustomerIndex, w, d, order.c_id),
                std::as_bytes(std::span(&idx, 1)), 0);
    }
    district.next_o_id = norders + 1;
    district.next_del_o_id = (norders * 2) / 3 + 1;
    store.create(make_oid(Table::kDistrict, w, d, 0),
                 std::as_bytes(std::span(&district, 1)));
  }
}

}  // namespace heron::tpcc
