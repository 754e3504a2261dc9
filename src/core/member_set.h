// Flat key stores of the dynamic tier (DESIGN.md §7), after Snippet 2's
// ExactSet: entries back to back in one blob, each starting `u64 len |
// bytes`, found through one open-addressed fingerprint index (KeyIndex).
//   * MemberSet  — the immutable per-shard member set; its blob is exactly
//     the per-shard layout of a checkpoint's KEYS section.
//   * DeltaTable — the mutable delta; each entry is `u64 len | key | u8
//     inserted`, exactly one entry of a checkpoint's DELT section.
// Either is written verbatim into a checkpoint and indexed at load; the
// index itself is never persisted.

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

/// `(u32 fingerprint, u32 blob offset)` slots, open-addressed with linear
/// probing, over a blob whose entries each start `u64 len | key`. The
/// fingerprint is XxHash64 of the key with a fixed salt (never 0: 0 marks
/// an empty slot) and also picks the home slot, so the index grows without
/// re-reading any key. The owner keeps the load below 1 and sizes it.
class KeyIndex {
 public:
  struct Slot {
    uint32_t fingerprint = 0;  // 0 = empty
    uint32_t offset = 0;       // of the entry's length prefix in the blob
  };

  static uint32_t Fingerprint(std::string_view key);
  /// The key of the entry that starts at `entry`.
  static std::string_view KeyAt(const char* entry) {
    uint64_t len;
    std::memcpy(&len, entry, sizeof(len));
    return std::string_view(entry + sizeof(len), static_cast<size_t>(len));
  }

  size_t capacity() const { return slots_.size(); }
  size_t MemoryUsageBytes() const { return slots_.capacity() * sizeof(Slot); }

  /// The slot holding `key` (fingerprint != 0), or the empty slot where it
  /// would go. The index must have at least one slot and one free slot.
  const Slot& Probe(const std::string& blob, std::string_view key,
                    uint32_t fingerprint) const;
  Slot& Probe(const std::string& blob, std::string_view key,
              uint32_t fingerprint) {
    return const_cast<Slot&>(
        static_cast<const KeyIndex&>(*this).Probe(blob, key, fingerprint));
  }

  /// Re-lays every slot into a table of `capacity` slots (no key reads).
  void Reindex(size_t capacity);
  /// Empties the index and frees its slots.
  void Release() { std::vector<Slot>().swap(slots_); }

 private:
  size_t HomeSlot(uint32_t fingerprint) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(fingerprint) * slots_.size()) >> 32);
  }

  std::vector<Slot> slots_;
};

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
    std::string_view operator*() const { return KeyIndex::KeyAt(pos_); }
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
  /// Smallest capacity that holds `n` keys at a load of at most 3/4.
  static size_t CapacityFor(size_t n) { return n + n / 3 + 1; }
  /// Inserts the key at `offset` into the index unless an equal key is
  /// already there. False for a repeat. The index must have a free slot.
  bool IndexKey(std::string_view key, uint32_t offset);

  std::string blob_;
  KeyIndex index_;
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

/// The dynamic tier's exact delta: every key mutated since its shard was
/// last compacted, with its state (inserted = member, else a tombstone).
/// Entries stay in first-mutation order; an upsert of a present key flips
/// its state byte in place, a new key is appended. The index is kept at a
/// load of at most 1/2, so a miss (the common query) ends after a short
/// probe run. One entry costs 9 + len blob bytes plus 16–32 index bytes.
class DeltaTable {
 public:
  struct Entry {
    std::string_view key;
    bool inserted = false;
  };

  /// Forward iteration over the entries in blob (insertion) order. Views
  /// stay valid until the next Upsert or Sweep.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = Entry;

    Iterator() = default;
    Entry operator*() const {
      const std::string_view key = KeyIndex::KeyAt(pos_);
      return Entry{key, key.data()[key.size()] != 0};
    }
    Iterator& operator++() {
      pos_ += sizeof(uint64_t) + KeyIndex::KeyAt(pos_).size() + 1;
      return *this;
    }
    bool operator==(const Iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const Iterator& other) const { return pos_ != other.pos_; }

   private:
    friend class DeltaTable;
    explicit Iterator(const char* pos) : pos_(pos) {}
    const char* pos_ = nullptr;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The key's state, or nullopt when it is not in the table. An empty
  /// table answers without hashing the key.
  std::optional<bool> Find(std::string_view key) const;

  /// Sets the key's state. True when the key was not in the table. Throws
  /// std::length_error once the blob would pass 4 GiB (the u32 offset
  /// limit).
  bool Upsert(std::string_view key, bool inserted);

  /// Marks every (key, state) of `captured` whose key still holds that
  /// state for the next Sweep; a key whose state changed since the capture
  /// stays. Returns how many entries were marked. Nothing but Drop and
  /// Sweep may be called between the two.
  size_t Drop(const std::vector<std::pair<std::string, bool>>& captured);

  /// Rebuilds the table from the entries Drop did not mark, in one pass and
  /// in their order. An emptied table frees its memory.
  void Sweep();

  Iterator begin() const { return Iterator(blob_.data()); }
  Iterator end() const { return Iterator(blob_.data() + blob_.size()); }

  /// Appends a DELT section payload: `u64 count` then the blob.
  void AppendPayload(std::string* out) const;

  /// Parses a whole DELT payload (the AppendPayload layout). The count and
  /// every length are checked against the bytes left before anything is
  /// allocated; a count that lies, a length past the end, a state byte
  /// other than 0 or 1 or trailing bytes yield nullopt. A repeated key
  /// takes its last state.
  static std::optional<DeltaTable> ParsePayload(std::string_view payload);

  /// Blob and index bytes (0 for an empty table).
  size_t MemoryUsageBytes() const {
    return (size_ == 0 ? 0 : blob_.capacity()) + index_.MemoryUsageBytes();
  }

 private:
  /// Smallest capacity that holds `n` keys at a load of at most 1/2.
  static size_t CapacityFor(size_t n) { return 2 * n + 1; }

  std::string blob_;
  KeyIndex index_;
  size_t size_ = 0;
};

}  // namespace habf
