// Standard Bloom filter over an indexed hash family, with the per-key
// function-subset hooks the HABF core needs (§III: every key is tested with
// its own k-subset φ(e) of the global family H).

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/filter_interface.h"
#include "hashing/hash_provider.h"
#include "util/bitvector.h"

namespace habf {

/// Bloom filter whose k probe positions are `provider` functions selected by
/// index. The default function subset is used by Add/MightContain; the
/// *With() variants take an explicit subset so HABF can customize φ(e) per
/// key.
///
/// Bit position of function `idx` on key e is provider->Value(e, idx) % m.
class BloomFilter {
 public:
  /// Creates a filter of `num_bits` bits probing with `default_fns` (indices
  /// into `provider`, which must outlive the filter).
  BloomFilter(size_t num_bits, const HashProvider* provider,
              std::vector<uint8_t> default_fns);

  /// Inserts `key` with the default function subset.
  void Add(std::string_view key);

  /// Tests `key` with the default function subset.
  bool MightContain(std::string_view key) const;

  /// Batched test of every key with the default function subset (Filter
  /// concept): out[i] = 1/0 per key; returns the number of positives.
  /// Hashes a block of keys, prefetches every probed bit-array word, then
  /// probes — hiding memory latency that MightContain pays per key.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const {
    return TestBatchWith(keys, default_fns_.data(), default_fns_.size(), out);
  }

  /// Batched TestWith: every key tested against the same explicit subset
  /// `fns[0..n)` (HABF round 1 uses this with H0).
  size_t TestBatchWith(KeySpan keys, const uint8_t* fns, size_t n,
                       uint8_t* out) const {
    return TestBatchValues(
        keys.size(), n,
        [&](size_t i, uint64_t* values) {
          provider_->Values(keys[i], fns, n, values);
        },
        out);
  }

  /// The generic prefetching hash-then-probe loop behind every batch test,
  /// over `count` keys: `values_of(i, values)` writes key i's n raw family
  /// values (each reduced mod m to a bit), so filters that pick a subset
  /// per key, or hold a key's digests already, reuse the same loop.
  template <typename ValuesOf>
  size_t TestBatchValues(size_t count, size_t n, ValuesOf&& values_of,
                         uint8_t* out) const {
    assert(n <= 32);
    const uint64_t* words = bits_.words().data();
    size_t positions[kBatchBlock][32];
    size_t positives = 0;
    for (size_t base = 0; base < count; base += kBatchBlock) {
      const size_t block =
          count - base < kBatchBlock ? count - base : kBatchBlock;
      // Stage 1: hash the whole block and prefetch every probed word, so
      // the loads of one key overlap the hashing of the next.
      for (size_t i = 0; i < block; ++i) {
        uint64_t values[32];
        values_of(base + i, values);
        for (size_t j = 0; j < n; ++j) {
          const size_t pos = static_cast<size_t>(values[j] % num_bits_);
          positions[i][j] = pos;
          __builtin_prefetch(&words[pos >> 6], 0, 3);
        }
      }
      // Stage 2: probe; by now the words are (likely) in cache.
      for (size_t i = 0; i < block; ++i) {
        bool hit = true;
        for (size_t j = 0; j < n; ++j) {
          const size_t pos = positions[i][j];
          if (!((words[pos >> 6] >> (pos & 63)) & 1u)) {
            hit = false;
            break;
          }
        }
        out[base + i] = hit ? 1 : 0;
        positives += hit ? 1 : 0;
      }
    }
    return positives;
  }

  /// Keys per hash-then-probe block of TestBatchValues.
  static constexpr size_t kBatchBlock = 32;

  /// Inserts `key` using explicit function indices `fns[0..n)`.
  void AddWith(std::string_view key, const uint8_t* fns, size_t n);

  /// Tests `key` using explicit function indices.
  bool TestWith(std::string_view key, const uint8_t* fns, size_t n) const;

  /// Tests the bits of n raw family values (TestWith after its hashing).
  bool TestValues(const uint64_t* values, size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      if (!bits_.Get(static_cast<size_t>(values[i] % num_bits_))) return false;
    }
    return true;
  }

  /// Bit position of function `fn_idx` applied to `key`.
  size_t PositionOf(std::string_view key, uint8_t fn_idx) const {
    return static_cast<size_t>(provider_->Value(key, fn_idx) % num_bits_);
  }

  /// Direct bit access for the TPJO optimizer.
  bool GetBit(size_t pos) const { return bits_.Get(pos); }
  void SetBit(size_t pos) { bits_.Set(pos); }
  void ClearBit(size_t pos) { bits_.Clear(pos); }

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return default_fns_.size(); }
  const std::vector<uint8_t>& default_fns() const { return default_fns_; }
  const HashProvider* provider() const { return provider_; }
  const char* Name() const { return "bloom"; }

  /// Fraction of set bits (diagnostic; the load factor drives FPR).
  double FillRatio() const {
    return num_bits_ == 0
               ? 0.0
               : static_cast<double>(bits_.CountOnes()) /
                     static_cast<double>(num_bits_);
  }

  /// Heap bytes of the bit array.
  size_t MemoryUsageBytes() const { return bits_.MemoryUsageBytes(); }

  /// Read access to the packed bit array (serialization, tests).
  const BitVector& bits() const { return bits_; }

  /// Replaces the bit array contents (deserialization); false on a word
  /// count mismatch.
  bool LoadBits(std::vector<uint64_t> words) {
    return bits_.LoadWords(std::move(words));
  }

 private:
  size_t num_bits_;
  const HashProvider* provider_;
  std::vector<uint8_t> default_fns_;
  BitVector bits_;
};

/// Bloom filter deriving its k probes from one base function evaluated with
/// k seeds — the BF(City64) / BF(XXH128) baselines of Fig. 14.
class SeededBloomFilter {
 public:
  /// `fn` is any Table II member; probes use seeds seed_base..seed_base+k-1.
  SeededBloomFilter(size_t num_bits, size_t k, HashFn fn,
                    uint64_t seed_base = 0x5851f42d4c957f2dULL);

  void Add(std::string_view key);
  bool MightContain(std::string_view key) const;

  size_t num_bits() const { return num_bits_; }
  size_t num_hashes() const { return k_; }
  size_t MemoryUsageBytes() const { return bits_.MemoryUsageBytes(); }
  const char* Name() const { return "seeded-bloom"; }

 private:
  size_t num_bits_;
  size_t k_;
  HashFn fn_;
  uint64_t seed_base_;
  BitVector bits_;
};

/// The paper's sizing rule: k = ln2 * bits-per-key, clamped to [1, max_k].
size_t OptimalNumHashes(double bits_per_key, size_t max_k = 22);

}  // namespace habf
