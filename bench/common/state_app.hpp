// Synthetic application for the state-transfer and restart benches:
// `count` objects of `size` bytes on one partition. Request kind 1
// ("touch") rewrites every object, which fills the update log; any other
// kind writes nothing. `serialized` selects whether the store ships the
// objects as stored or pays serialize + deserialize (fig. 8's two paths).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/app.hpp"
#include "core/object_store.hpp"

namespace heron::bench {

class StateApp : public core::Application {
 public:
  StateApp(std::uint64_t count, std::uint32_t size, bool serialized)
      : count_(count), size_(size), serialized_(serialized) {}

  [[nodiscard]] core::GroupId partition_of(core::Oid) const override {
    return 0;
  }
  [[nodiscard]] std::vector<core::Oid> read_set(const core::Request&,
                                                core::GroupId) const override {
    return {};
  }
  core::Reply execute(const core::Request& r,
                      core::ExecContext& ctx) override {
    if (r.header.kind == 1 /* touch */) {
      std::vector<std::byte> value(size_, std::byte{0x5a});
      for (std::uint64_t i = 0; i < count_; ++i) {
        ctx.write(i + 1, value);
      }
    }
    return core::Reply{};
  }
  void bootstrap(core::GroupId, core::ObjectStore& store) override {
    std::vector<std::byte> init(size_);
    for (std::uint64_t i = 0; i < count_; ++i) {
      store.create(i + 1, init, serialized_);
    }
  }

 private:
  std::uint64_t count_;
  std::uint32_t size_;
  bool serialized_;
};

}  // namespace heron::bench
