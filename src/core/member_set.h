// Flat, immutable per-shard member store of the dynamic tier (DESIGN.md §7):
// the authoritative key set one shard of DynamicShardedHabf is rebuilt from.
//
// Layout (after Snippet 2's ExactSet: an append-only key blob plus an
// open-addressed fingerprint table):
//   * blob   — the keys back to back as `u64 len | bytes`, exactly the
//     per-shard layout of a checkpoint's KEYS section, so a checkpoint
//     writes the blob verbatim and recovery copies it in one memcpy;
//   * index  — `(u32 fingerprint, u32 blob offset)` slots, open-addressed
//     with linear probing at a load factor of at most 3/4. The fingerprint
//     is XxHash64 of the key with a fixed salt (never 0: 0 marks an empty
//     slot) and also picks the home slot, so the index grows without
//     re-reading any key. It is rebuilt at load; nothing about it is
//     persisted.
//
// One key costs 8 + len blob bytes plus ~11 index bytes, and building or
// freeing a set is two allocations, not one or two per key.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace habf {

class MemberSet {
 public:
  /// Forward iteration over the members as views into the blob, in blob
  /// (insertion) order. Views stay valid while the set is alive.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::string_view;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::string_view*;
    using reference = std::string_view;

    Iterator() = default;
    std::string_view operator*() const {
      uint64_t len;
      std::memcpy(&len, pos_, sizeof(len));
      return std::string_view(pos_ + sizeof(len), static_cast<size_t>(len));
    }
    Iterator& operator++() {
      pos_ += sizeof(uint64_t) + (**this).size();
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const Iterator& other) const { return pos_ != other.pos_; }

   private:
    friend class MemberSet;
    explicit Iterator(const char* pos) : pos_(pos) {}
    const char* pos_ = nullptr;
  };

  /// Accumulates distinct keys into a set (defined below the class).
  class Builder;

  MemberSet() = default;

  size_t size() const { return size_; }
  bool Contains(std::string_view key) const;

  Iterator begin() const { return Iterator(blob_.data()); }
  Iterator end() const { return Iterator(blob_.data() + blob_.size()); }

  /// Appends this set's part of a KEYS section: `u64 count` then the blob.
  void AppendPayload(std::string* out) const;

  /// Parses one set from the front of `*payload` (the AppendPayload layout)
  /// and advances it past the set. The count and every length are checked
  /// against the bytes left before anything is allocated; a count that
  /// lies, a length past the end or a repeated key yields nullopt.
  static std::optional<MemberSet> ParsePayload(std::string_view* payload);

  /// (old − removed) ∪ inserted, where `changes` holds distinct keys with
  /// their new state (true = member, false = removed). Keys of `old` keep
  /// their order; inserted keys follow in `changes` order.
  static MemberSet Rebuild(
      const MemberSet& old,
      const std::vector<std::pair<std::string, bool>>& changes);

 private:
  struct Slot {
    uint32_t fingerprint = 0;  // 0 = empty
    uint32_t offset = 0;       // of the key's length prefix in blob_
  };

  static uint32_t Fingerprint(std::string_view key);
  /// Smallest capacity that holds `n` keys at a load of at most 3/4.
  static size_t CapacityFor(size_t n) { return n + n / 3 + 1; }
  size_t HomeSlot(uint32_t fingerprint) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(fingerprint) * index_.size()) >> 32);
  }
  std::string_view KeyAt(uint32_t offset) const {
    return *Iterator(blob_.data() + offset);
  }
  /// Inserts the key at `offset` into the index unless an equal key is
  /// already there. False for a repeat. The index must have a free slot.
  bool IndexKey(std::string_view key, uint32_t fingerprint, uint32_t offset);
  /// Re-lays every slot into a table of `capacity` slots (no key reads).
  void Reindex(size_t capacity);

  std::string blob_;
  std::vector<Slot> index_;
  size_t size_ = 0;
};

/// Accumulates distinct keys (a repeated key is dropped) into a set.
class MemberSet::Builder {
 public:
  /// Pre-sizes for about `keys` keys totalling `key_bytes` bytes.
  void Reserve(size_t keys, size_t key_bytes);
  /// Appends `key` unless it is already present. False for a repeat.
  /// Throws std::length_error once the blob would pass 4 GiB (the u32
  /// offset limit of one shard).
  bool Add(std::string_view key);
  /// Hands over the set; the builder is empty afterwards.
  MemberSet Finish();

 private:
  MemberSet set_;
};

}  // namespace habf
