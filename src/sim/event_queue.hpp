// Event queue for the discrete-event simulator: a 4-ary min-heap of
// compact keys over a slab of callables.
//
// Simulated queues are shallow (the benchmark workloads average 31 to 239
// pending events), so the queue is one small heap that stays in cache.
// Each heap key is {when, seq, slot}; the 64-byte EventFn stays put in
// `fns_` at `slot` and only the key moves during a sift. A 4-ary heap
// halves the depth of a binary one, and a node's four children sit next to
// each other in memory. Freed slab slots are reused last-in first-out, so a
// push usually writes a slot that is still warm from the previous pop.
//
// Determinism contract: pop order is exactly ascending (when, seq), the
// total order every earlier kernel produced, so same-seed runs stay
// bit-identical. seq is unique per event, so the order has no ties.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/callable.hpp"
#include "sim/time.hpp"

namespace heron::sim {

struct Event {
  Nanos when;
  std::uint64_t seq;
  EventFn fn;
};
// when + seq + the 64-byte EventFn (callable.hpp), which needs 16-byte
// alignment.
static_assert(sizeof(Event) == 80);

class EventQueue {
 public:
  void push(Event ev) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(fns_.size());
      fns_.push_back(std::move(ev.fn));
    } else {
      slot = free_.back();
      free_.pop_back();
      fns_[slot] = std::move(ev.fn);
    }
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Key{ev.when, ev.seq, slot});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Timestamp of the next event in pop order. Pre: !empty(). A pure peek:
  /// the run_until pattern (peek, decline to pop, schedule something
  /// earlier) needs nothing special.
  [[nodiscard]] Nanos next_when() const {
    assert(!empty());
    return heap_.front().when;
  }

  /// Pops the next event in (when, seq) order. Pre: !empty(). The callable
  /// leaves the slab and its slot is freed before the caller runs it, so
  /// the event may push (and grow the slab) while it executes.
  Event pop() {
    assert(!empty());
    const Key top = heap_.front();
    Event ev{top.when, top.seq, std::move(fns_[top.slot])};
    free_.push_back(top.slot);
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) refill_root(last);
    return ev;
  }

 private:
  // refill_root's tournament assumes four children.
  static constexpr std::size_t kArity = 4;

  struct Key {
    Nanos when;
    std::uint64_t seq;
    std::uint32_t slot;  // index of the callable in fns_
  };

  // One 128-bit comparison: the compiler emits no branch, and these
  // comparisons are too random for a branch predictor.
  static bool less(const Key& a, const Key& b) {
    return ((static_cast<__int128>(a.when) << 64) | a.seq) <
           ((static_cast<__int128>(b.when) << 64) | b.seq);
  }

  /// Moves the hole at `hole` up until `key` fits there.
  void sift_up(std::size_t hole, Key key) {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!less(key, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = key;
  }

  /// Refills the root after a pop (Floyd's variant): walks the hole down
  /// along the smaller child to a leaf, then sifts `key` (the old last
  /// leaf, which usually belongs near the bottom) up from there.
  void refill_root(Key key) {
    const std::size_t n = heap_.size();
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = hole * kArity + 1;
      std::size_t best = first;
      if (first + kArity <= n) {
        // All four children: a two-round tournament. The final pick is
        // a mask select (b if c[b] < c[a], else a): written as a ternary,
        // it compiles to a branch, and BM_SimulatorEventThroughput runs
        // slower at depth 256.
        const Key* c = &heap_[first];
        const std::size_t a = less(c[1], c[0]);
        const std::size_t b = 2 + less(c[3], c[2]);
        best += a ^ ((a ^ b) & (0 - std::size_t{less(c[b], c[a])}));
      } else if (first < n) {
        for (std::size_t c = first + 1; c < n; ++c) {
          best = less(heap_[c], heap_[best]) ? c : best;
        }
      } else {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    sift_up(hole, key);
  }

  std::vector<Key> heap_;
  std::vector<EventFn> fns_;         // the slab; free slots hold no target
  std::vector<std::uint32_t> free_;  // free slots of fns_, reused LIFO
};

}  // namespace heron::sim
