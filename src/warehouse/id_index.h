// Open-addressing id index for the aggregation hot paths (DESIGN.md §16,
// §17): maps keys that live elsewhere — flat word arrays in
// partial::collect, shard key values in merge_partials — to dense ids in
// first-insert order. Each slot packs the key's 32-bit hash tag with its
// id; linear probing over a power-of-two table held at load <= 1/2 calls
// the caller's key comparison only on a tag match. An insert allocates no
// node and a hit builds no temporary key. Hash values never decide an
// order: ids are first-seen, and every order the contract fixes derives
// from ids.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace supremm::warehouse {

class IdIndex {
 public:
  /// `expected` sizes the table so that many keys fit without a rehash.
  explicit IdIndex(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, kEmptySlot);
  }

  /// The id of the key hashed to `hash` that `same(id)` accepts; otherwise
  /// the key is inserted with the next id (= size() before the call).
  template <typename Same>
  std::pair<std::uint32_t, bool> insert(std::uint64_t hash, Same&& same) {
    const auto tag = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = tag & mask;
    for (std::uint64_t slot = slots_[i]; slot != kEmptySlot; slot = slots_[i]) {
      if (static_cast<std::uint32_t>(slot >> 32) == tag) {
        const auto id = static_cast<std::uint32_t>(slot);
        if (same(id)) return {id, false};
      }
      i = (i + 1) & mask;
    }
    const auto id = static_cast<std::uint32_t>(size_++);
    slots_[i] = std::uint64_t{tag} << 32 | id;
    if (2 * size_ > slots_.size()) grow();
    return {id, true};
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint64_t kEmptySlot = ~std::uint64_t{0};

  void grow() {
    std::vector<std::uint64_t> old(slots_.size() * 2, kEmptySlot);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint64_t slot : old) {
      if (slot == kEmptySlot) continue;
      std::size_t i = (slot >> 32) & mask;
      while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> slots_;  // tag << 32 | id, or kEmptySlot
};

}  // namespace supremm::warehouse
