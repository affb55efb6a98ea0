// A set of sequence numbers kept as a floor plus a bitmap.
//
// Every seq below floor() is a member; members at or above it are bits in
// a word vector that starts at the 64-aligned word holding the floor. The
// floor advances as soon as the seq it names is inserted, so a dense
// stream costs a word or two. A stalled floor (a seq that never arrives,
// e.g. a uid sent to another group) costs one bit per seq above it, not a
// tree node.
//
// Both dedup structures use it: amcast's per-client delivered set (the
// exclusive watermark is floor(); seq 0 starts undelivered) and the core
// replica's per-client session (constructed with floor 1, so its
// inclusive watermark is floor() - 1 and seq 0 never counts).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace heron::sim {

class SeqWindow {
 public:
  SeqWindow() = default;
  /// Every seq below `floor` starts out a member.
  explicit SeqWindow(std::uint64_t floor) { raise_floor(floor); }

  /// Every seq below the floor is a member; the floor itself is not.
  [[nodiscard]] std::uint64_t floor() const { return floor_; }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    if (seq < floor_) return true;
    const std::uint64_t i = seq - base_;
    const std::uint64_t w = i / 64;
    return w < bits_.size() && ((bits_[w] >> (i % 64)) & 1u) != 0;
  }

  void insert(std::uint64_t seq) {
    if (seq < floor_) return;
    const std::uint64_t i = seq - base_;
    const std::size_t w = static_cast<std::size_t>(i / 64);
    if (w >= bits_.size()) bits_.resize(w + 1, 0);
    bits_[w] |= std::uint64_t{1} << (i % 64);
    if (seq == floor_) advance();
  }

  /// Makes every seq below `floor` a member (no-op if already so).
  void raise_floor(std::uint64_t floor) {
    if (floor <= floor_) return;
    const std::uint64_t words = (floor - base_) / 64;
    drop_words(words);
    const std::uint64_t low = floor - base_;  // members below floor in word 0
    if (low != 0) {
      if (bits_.empty()) bits_.push_back(0);
      bits_[0] |= (std::uint64_t{1} << low) - 1;
    }
    floor_ = floor;
    advance();
  }

  /// Union with `other`.
  void merge(const SeqWindow& other) {
    raise_floor(other.floor_);
    other.for_each_above([this](std::uint64_t seq) { insert(seq); });
  }

  /// Calls f(seq) for every member at or above the floor, ascending.
  template <typename F>
  void for_each_above(F&& f) const {
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t word = bits_[w];
      if (w == 0) word &= ~((std::uint64_t{1} << (floor_ - base_)) - 1);
      while (word != 0) {
        const int b = std::countr_zero(word);
        f(base_ + w * 64 + static_cast<std::uint64_t>(b));
        word &= word - 1;
      }
    }
  }

  /// The bitmap words holding the members at or above the floor, empty
  /// when there are none: bit i of word w is seq (floor() & ~63) + 64w + i,
  /// and word 0's bits below the floor are set (a compact wire form).
  [[nodiscard]] std::span<const std::uint64_t> words() const {
    std::size_t n = bits_.size();
    while (n > 0 && bits_[n - 1] == 0) --n;
    if (n == 1 && bits_[0] == below_floor()) n = 0;
    return {bits_.data(), n};
  }
  /// The window with `floor` whose words() are `words`, taken over without
  /// a per-seq insert; none when `words` is not such a form (a bit below
  /// the floor clear in word 0, or the floor's own bit set).
  static std::optional<SeqWindow> from_words(std::uint64_t floor,
                                             std::vector<std::uint64_t> words) {
    SeqWindow w(floor);
    if (words.empty()) return w;
    const std::uint64_t below = w.below_floor();
    if ((words[0] & below) != below ||
        ((words[0] >> (floor - w.base_)) & 1u) != 0) {
      return std::nullopt;
    }
    w.bits_ = std::move(words);
    return w;
  }

  /// One past the highest member (the floor when none is above it).
  [[nodiscard]] std::uint64_t end() const {
    for (std::size_t w = bits_.size(); w-- > 0;) {
      if (bits_[w] != 0) {
        return base_ + w * 64 + 64 -
               static_cast<std::uint64_t>(std::countl_zero(bits_[w]));
      }
    }
    return floor_;
  }

  /// Same members (storage layout aside).
  friend bool operator==(const SeqWindow& a, const SeqWindow& b) {
    if (a.floor_ != b.floor_) return false;
    const std::size_t n = std::max(a.bits_.size(), b.bits_.size());
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t x = w < a.bits_.size() ? a.bits_[w] : 0;
      const std::uint64_t y = w < b.bits_.size() ? b.bits_[w] : 0;
      if (x != y) return false;
    }
    return true;
  }

 private:
  // Moves the floor past the members that now sit at it, dropping words
  // that became all-members. Invariant afterwards: base_ <= floor_ <
  // base_ + 64, and bits below the floor in word 0 are set.
  void advance() {
    std::uint64_t full = 0;
    while (full < bits_.size() && bits_[full] == ~std::uint64_t{0}) ++full;
    drop_words(full);
    floor_ = base_;
    if (!bits_.empty()) {
      floor_ += static_cast<unsigned>(std::countr_one(bits_[0]));
    }
  }

  // Word 0's bits below the floor.
  [[nodiscard]] std::uint64_t below_floor() const {
    return (std::uint64_t{1} << (floor_ - base_)) - 1;
  }

  // Drops the first `words` words (all below the new floor).
  void drop_words(std::uint64_t words) {
    const auto n = static_cast<std::ptrdiff_t>(
        std::min<std::uint64_t>(words, bits_.size()));
    bits_.erase(bits_.begin(), bits_.begin() + n);
    base_ += words * 64;
  }

  std::uint64_t floor_ = 0;
  std::uint64_t base_ = 0;            // seq of bit 0 of bits_[0]; 64-aligned
  std::vector<std::uint64_t> bits_;   // bit i of word w = seq base_ + 64w + i
};

}  // namespace heron::sim
