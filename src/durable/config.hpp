// Knobs for the simulated durable subsystem (paged checkpoint backend).
//
// Kept in a leaf header (sim/time.hpp only) so core/types.hpp can embed a
// DurableConfig in HeronConfig without pulling the device or checkpoint
// machinery into every translation unit.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace heron::durable {

/// Cost/shape model of the simulated persistent medium. Defaults are
/// persistent-memory-flavoured (the paper's deployment target is a
/// shared-memory machine): reads stream much faster than writes, and
/// every page operation pays a small fixed submission cost on top of
/// bandwidth.
struct DeviceConfig {
  /// Fixed page size. Records never span pages, so the largest object
  /// (plus record header) must fit in one page payload.
  std::uint32_t page_bytes = 64u << 10;
  /// Device capacity in pages. Pages are materialized lazily, so a large
  /// logical device costs little host memory.
  std::uint64_t page_count = 1u << 18;

  sim::Nanos write_base = sim::us(4);   // per-page submission cost
  double write_bw_bytes_per_ns = 2.0;   // ~2 GB/s sustained writes
  sim::Nanos read_base = sim::us(1);
  double read_bw_bytes_per_ns = 10.0;   // ~10 GB/s sequential reads
};

/// Configuration of checkpointing + log compaction (heron::durable).
struct DurableConfig {
  /// Target period between checkpoints. 0 disables the whole subsystem
  /// (seed behaviour: no device, no checkpoint coroutine, restarts keep
  /// the legacy semantics).
  sim::Nanos checkpoint_interval = 0;

  DeviceConfig device;

  /// Model restarts as losing all volatile memory even without
  /// checkpointing (the recovery bench's baseline arm): the replica
  /// rejoins from scratch via a full Algorithm 3 transfer. Implied when
  /// checkpointing is enabled.
  bool volatile_restart = false;

  /// Evict sessions idle longer than this at checkpoint time (satellite:
  /// bounding the session table). 0 disables eviction. An evicted
  /// client's floor is remembered as a tombstone; retries of commands at
  /// or below it get kStatusStaleSession instead of re-executing.
  sim::Nanos session_ttl = 0;

  [[nodiscard]] bool enabled() const { return checkpoint_interval > 0; }
};

}  // namespace heron::durable
