// Xor filter (Graf & Lemire, JEA 2020) with a generic fingerprint width —
// the strongest non-learned static baseline of the paper's evaluation.
//
// Construction peels a random 3-uniform hypergraph: each key maps to three
// slots (one per segment); keys are assigned in reverse-peeling order so
// that fp(key) = B[h0] ^ B[h1] ^ B[h2] after assignment. Construction can
// fail for an unlucky seed, in which case it retries with a new seed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/filter_interface.h"
#include "util/bitvector.h"

namespace habf {

/// Static membership filter: zero false negatives for the build set, FPR
/// about 2^-w for fingerprint width w.
class XorFilter {
 public:
  /// Builds over `keys` with `fingerprint_bits` in [1, 32]. Returns nullopt
  /// if construction fails after `max_attempts` reseeds (vanishingly rare at
  /// the standard 1.23 expansion).
  static std::optional<XorFilter> Build(const std::vector<std::string>& keys,
                                        unsigned fingerprint_bits,
                                        uint64_t seed = 0x726f78696c6566ULL,
                                        int max_attempts = 64);

  /// Membership test (no false negatives for the build set).
  bool MightContain(std::string_view key) const;

  /// Batched query (Filter concept): hashes and prefetches the three slot
  /// words of a block of keys before any fingerprint comparison.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const;

  size_t num_slots() const { return 3 * segment_length_; }
  unsigned fingerprint_bits() const { return fingerprint_bits_; }
  size_t MemoryUsageBytes() const { return slots_.MemoryUsageBytes(); }
  const char* Name() const { return "xor"; }

  /// Chooses the fingerprint width for a total space budget of
  /// `total_bits` over `num_keys` keys (paper §V-A: floor of
  /// b / 1.23 + 32/|S|), clamped to [1, 32].
  static unsigned FingerprintBitsForBudget(size_t total_bits, size_t num_keys);

  /// Appends a self-contained HBF1 snapshot to `*out`.
  void Serialize(std::string* out) const;

  /// Restores a filter from Serialize() output (HBF1 or the legacy "XORF"
  /// layout, sniffed by magic); nullopt on format errors.
  static std::optional<XorFilter> Deserialize(std::string_view data);

 private:
  XorFilter(size_t segment_length, unsigned fingerprint_bits, uint64_t seed);

  struct Slots3 {
    size_t h0, h1, h2;
  };
  Slots3 SlotsOf(std::string_view key) const;
  uint64_t Fingerprint(std::string_view key) const;

  size_t segment_length_;
  unsigned fingerprint_bits_;
  uint64_t seed_;
  BitVector slots_;  // 3 * segment_length_ fields of fingerprint_bits_ each
};

}  // namespace habf
