// TPC-C on Heron (§IV-A of the paper).
//
// One warehouse per partition. Warehouse and Item are replicated in all
// partitions (never updated by the workload, per the paper); Stock and
// Customer are stored serialized; all other tables are warehouse-local
// plain rows. Multi-partition requests arise from NewOrder lines supplied
// by a remote warehouse and Payment for a remote customer; every involved
// partition executes the request and updates only its local rows.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/app.hpp"
#include "tpcc/requests.hpp"
#include "tpcc/schema.hpp"

namespace heron::tpcc {

class TpccApp : public core::Application {
 public:
  TpccApp(int partitions, TpccScale scale, std::uint64_t seed = 7);

  [[nodiscard]] core::GroupId partition_of(core::Oid oid) const override;
  [[nodiscard]] std::vector<core::Oid> read_set(
      const core::Request& r, core::GroupId at) const override;
  core::Reply execute(const core::Request& r, core::ExecContext& ctx) override;
  void bootstrap(core::GroupId partition, core::ObjectStore& store) override;

  [[nodiscard]] const TpccScale& scale() const { return scale_; }

 private:
  core::Reply exec_new_order(const NewOrderReq& req, const core::Request& r,
                             core::ExecContext& ctx);
  core::Reply exec_payment(const PaymentReq& req, const core::Request& r,
                           core::ExecContext& ctx);
  core::Reply exec_order_status(const OrderStatusReq& req,
                                core::ExecContext& ctx);
  core::Reply exec_delivery(const DeliveryReq& req, const core::Request& r,
                            core::ExecContext& ctx);
  core::Reply exec_stock_level(const StockLevelReq& req,
                               core::ExecContext& ctx);

  /// Charges the serialized-table access cost for `bytes`.
  static void charge_serialized(core::ExecContext& ctx, std::size_t bytes);

  /// Resolves oids_ against the local store in one batch, into refs_.
  /// The Refs hold until the next resolve(): execute() never suspends, so
  /// the store cannot change under them.
  std::span<const core::ObjectStore::Ref> resolve(
      const core::ObjectStore& store);

  int partitions_;
  TpccScale scale_;
  std::uint64_t seed_;
  // Lookup batches of the running execution (reused across executions).
  std::vector<core::Oid> oids_;
  std::vector<core::ObjectStore::Ref> refs_;
};

/// Typed local read through the store, by oid or by a resolved Ref (used
/// for rows that are always local: districts, orders, replicated tables,
/// ...).
template <typename T, typename Key>
T load_row(const core::ObjectStore& store, Key key) {
  auto [tmp, bytes] = store.get(key);
  T out;
  std::memcpy(&out, bytes.data(), sizeof(T));
  return out;
}

}  // namespace heron::tpcc
