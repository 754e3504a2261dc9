// Counting Bloom filter (Fan et al., the classic deletable variant): each
// position is a saturating 4-bit counter instead of a bit, so keys can be
// removed. Included as substrate for workloads with churn (the mini-LSM
// simulator deletes a level's keys on compaction) and as a baseline the
// related-work section contrasts with HABF's static model.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "hashing/hash_provider.h"
#include "util/bitvector.h"

namespace habf {

/// Bloom filter over saturating counters, supporting Remove(). A counter
/// that saturates (reaches 15) sticks there — deletion then conservatively
/// leaves it set, so the one-sided error guarantee is preserved: no false
/// negatives for present keys, ever.
class CountingBloomFilter {
 public:
  static constexpr unsigned kCounterBits = 4;
  static constexpr uint64_t kCounterMax = (1u << kCounterBits) - 1;

  /// `num_counters` counters (total space = 4 * num_counters bits), probing
  /// with `k` double-hashing positions.
  CountingBloomFilter(size_t num_counters, size_t k, uint64_t seed = 0);

  /// Increments the key's k counters (saturating).
  void Add(std::string_view key);

  /// Decrements the key's k counters, skipping saturated ones AND zero
  /// ones. The zero clamp is contractual: removing a key that was never
  /// added (or was already removed) leaves every zero counter untouched
  /// rather than wrapping 0→15 — wraparound would resurrect phantom
  /// membership on every key aliasing those counters and break the
  /// one-sided guarantee for keys still present. The cost of such a
  /// spurious Remove is only that *other* keys sharing a non-zero,
  /// non-saturated counter may be driven toward a false negative, the
  /// standard counting-BF caveat — so callers should still only remove
  /// keys they added, but a stray Remove degrades accuracy instead of
  /// corrupting the structure (tests/counting_bloom_test.cc,
  /// RemoveOfAbsentKey*).
  void Remove(std::string_view key);

  /// True when every counter of the key is non-zero.
  bool MightContain(std::string_view key) const;

  size_t num_counters() const { return num_counters_; }
  size_t num_hashes() const { return k_; }
  size_t MemoryUsageBytes() const { return counters_.MemoryUsageBytes(); }

  /// Fraction of non-zero counters (diagnostic).
  double FillRatio() const;

  /// Value of counter `idx` (diagnostic, tests).
  uint64_t CounterAt(size_t idx) const {
    return counters_.GetField(idx * kCounterBits, kCounterBits);
  }

 private:
  void SetCounter(size_t idx, uint64_t value) {
    counters_.SetField(idx * kCounterBits, kCounterBits, value);
  }
  /// Position of probe `i` of a key whose digests are `d`.
  size_t Position(const DoubleHashProvider::Digests& d, size_t i) const {
    return static_cast<size_t>(d.Value(i) % num_counters_);
  }

  size_t num_counters_;
  size_t k_;
  DoubleHashProvider provider_;
  BitVector counters_;
};

}  // namespace habf
