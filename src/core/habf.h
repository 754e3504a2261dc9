// Hash Adaptive Bloom Filter (paper §III): a standard Bloom filter plus a
// HashExpressor, built by the Two-Phase Joint Optimization (TPJO) algorithm.
//
// Construction: all positive keys are inserted with the shared initial
// subset H0; negative keys that test positive ("collision keys") are then
// resolved, most costly first, by moving one hash function of a
// singly-mapping positive key ("adjustment"), with the adjusted subset
// stored in the HashExpressor (phase-II). Two runtime indexes support this:
//   V — for every Bloom-filter bit, whether it is mapped by exactly one
//       positive key and which key that is (Fig. 4);
//   Γ — for every bit, which already-optimized negative keys map to it, so
//       an adjustment that would re-break them is detected (Fig. 5, Alg. 1).
//
// Query (§III-E): round 1 tests with H0; on failure, round 2 retrieves a
// customized subset from the HashExpressor and tests again. Positive iff
// either round passes — zero false negatives, FPR bounded in §III-F.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/weighted_bloom.h"  // for WeightedKey
#include "core/filter_interface.h"  // StringSpan / WeightedKeySpan
#include "core/hash_expressor.h"
#include "hashing/hash_provider.h"
#include "util/memory.h"

namespace habf {

/// Materializes non-owning views over owning key vectors — the adapters the
/// vector-based Build overloads use to reach the span-based core. O(n)
/// pointer-sized views; no key bytes are copied.
inline std::vector<std::string_view> MakeKeyViews(
    const std::vector<std::string>& keys) {
  return std::vector<std::string_view>(keys.begin(), keys.end());
}
inline std::vector<WeightedKeyView> MakeWeightedKeyViews(
    const std::vector<WeightedKey>& keys) {
  std::vector<WeightedKeyView> views;
  views.reserve(keys.size());
  for (const WeightedKey& wk : keys) views.emplace_back(wk.key, wk.cost);
  return views;
}

/// Where a filter's indexed hash functions come from (DESIGN.md §3). The
/// family is persisted with the filter; the values are the snapshot byte.
enum class HabfFamily : uint8_t {
  /// The first usable functions of the paper's Table II: k real hashes of
  /// the key per subset, plus an xxHash64 for the entry cell.
  kTableII = 0,
  /// Double hashing over two xxHash64 digests (the paper's f-HABF), plus
  /// an xxHash64 for the entry cell.
  kDoubleXxHash = 1,
  /// Double hashing over one xxHash64 pass: the second digest and the
  /// entry cell are mixes of the first. A query reads the key once.
  kOnePass = 2,
};

/// Display name of a family ("table-ii", "double-xxhash", "one-pass").
const char* HabfFamilyName(HabfFamily family);

/// The family of a snapshot written before the family was persisted:
/// Table II unless the filter is an f-HABF.
inline HabfFamily LegacyHabfFamily(bool fast) {
  return fast ? HabfFamily::kDoubleXxHash : HabfFamily::kTableII;
}

/// Build-time parameters (defaults are the paper's tuned values, §V-D).
struct HabfOptions {
  /// Total space budget in bits (HashExpressor + Bloom filter).
  size_t total_bits = size_t{1} << 23;

  /// Space allocation ratio Δ = Δ1/Δ2 (HashExpressor : Bloom filter).
  /// Paper finds 0.25 optimal (Fig. 9a).
  double delta = 0.25;

  /// Number of hash functions per key; paper default 3 (Fig. 9a). Build
  /// clamps it to the usable family and to 16.
  size_t k = 3;

  /// HashExpressor cell width in bits; paper default 4 (Fig. 9b). A cell
  /// addresses 2^(cell_bits-1) - 1 family members, which caps the usable
  /// prefix of the 22-function global family.
  unsigned cell_bits = 4;

  /// f-HABF (§III-G): disable the Γ index / conflict detection, the
  /// candidate ranking and the verification sweeps. Independent of the
  /// hash family.
  bool fast = false;

  /// Hash family. New builds default to the one-pass digest family; the
  /// paper-figure benches set Table II (and double xxHash for f-HABF).
  HabfFamily family = HabfFamily::kOnePass;

  /// Extension beyond the paper: when a collision key has no singly-mapped
  /// bit (Theorem 4.1's ~e^{-k/b}-probability failure mode), allow demoting
  /// a doubly-mapped bit by relocating one of its two owners, which makes
  /// the bit singly-mapped for the key's next optimization attempt. Costs
  /// extra builder memory (a second owner id per bit) and a few more
  /// HashExpressor entries; reduces unoptimizable high-cost keys.
  bool allow_double_adjustment = false;

  /// Deterministic seed for H0 selection, V construction order and hashing.
  uint64_t seed = 0;
};

class BinaryReader;
class BinaryWriter;

/// Ends an options record (the HABF snapshot's OPTS section, the dynamic
/// checkpoint's DCFG) with the family byte — unless the family is
/// LegacyHabfFamily(options.fast), which a record without the byte
/// implies: such records stay byte-identical to the pre-family format.
void WriteHabfFamily(const HabfOptions& options, BinaryWriter* writer);

/// Reads what WriteHabfFamily wrote, after the record's other fields
/// (options->fast among them): the family byte if one is left, else
/// LegacyHabfFamily(options->fast). False on an unknown family byte.
bool ReadHabfFamily(BinaryReader* reader, HabfOptions* options);

/// Construction statistics (TPJO event counts and final tallies).
struct HabfBuildStats {
  size_t num_positives = 0;
  size_t num_negatives = 0;
  /// Collision keys found when the initial filter was built (the T of §IV-B).
  size_t initial_collisions = 0;
  /// Negatives resolved and still resolved at the end (the t of §IV-B).
  size_t optimized = 0;
  /// Collision keys that could not be resolved (no adjustable unit, no
  /// acceptable candidate, or every candidate failed HashExpressor insert).
  size_t failed = 0;
  /// Optimized keys re-broken by a later cost-tradeoff adjustment and pushed
  /// back onto the collision queue (may be re-optimized afterwards).
  size_t reinstated = 0;
  /// Positive keys whose subset was customized (HashExpressor inserts).
  size_t adjusted_positives = 0;
  /// Demotions performed by the double-adjustment extension (0 unless
  /// HabfOptions::allow_double_adjustment).
  size_t double_adjustments = 0;
  /// Candidate adjustments rejected because the HashExpressor had no room.
  size_t expressor_insert_failures = 0;
  /// Bloom-filter fill ratio before/after optimization.
  double initial_fill = 0.0;
  double final_fill = 0.0;
  /// Logical bytes held during construction (V, Γ, queue, key copies...) —
  /// the Fig. 15 quantity.
  MemoryCounter construction_memory;
};

/// The Hash Adaptive Bloom Filter.
///
/// Thread-compatible: Build() is single-threaded; Contains() is const and
/// safe to call concurrently after construction.
class Habf {
 public:
  /// Builds a filter over `positives`, optimizing against `negatives` (keys
  /// with misidentification costs Θ). Negative information is advisory: keys
  /// outside both sets still query correctly with FPR ≈ a standard filter's.
  ///
  /// Zero-copy: the spans view caller storage; no key bytes are copied and
  /// nothing is retained after Build returns. The viewed storage only needs
  /// to outlive the call.
  ///
  /// Throws std::invalid_argument, before allocating anything, when the
  /// sizing gives the Bloom side 2^32 bits or more or the HashExpressor
  /// 2^32 cells or more: the builder indexes both in 32 bits (DESIGN.md §3).
  static Habf Build(StringSpan positives, WeightedKeySpan negatives,
                    const HabfOptions& options);

  /// Convenience overload over owning vectors: materializes views (O(n)
  /// pointers, no key copies) and calls the span-based Build.
  static Habf Build(const std::vector<std::string>& positives,
                    const std::vector<WeightedKey>& negatives,
                    const HabfOptions& options);

  /// Two-round membership test: zero false negatives for the build set.
  /// Round 2 is ContainsBatch's; under the one-pass family the key is
  /// hashed once for both rounds.
  bool Contains(std::string_view key) const;

  /// Alias matching the MightContain() interface of every other filter in
  /// this repository (so the shared measurement templates apply).
  bool MightContain(std::string_view key) const { return Contains(key); }

  /// Batched two-round query (Filter concept): round 1 runs the prefetching
  /// H0 probe loop over each block of keys; round 2 walks the HashExpressor
  /// only for the keys round 1 missed. Under the one-pass family each key
  /// is hashed once, and round 1, the walk and round 2 all derive from that
  /// digest. out[i] = 1/0 per key, equal to Contains(); returns the
  /// positive count.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const;

  /// Display label (Filter concept).
  const char* Name() const { return options_.fast ? "f-habf" : "habf"; }

  /// First-round-only test (diagnostic; equals a standard BF probe with H0).
  bool ContainsFirstRound(std::string_view key) const {
    return bloom_.TestWith(key, h0_.data(), h0_.size());
  }

  const HabfBuildStats& stats() const { return stats_; }
  const HabfOptions& options() const { return options_; }
  const BloomFilter& bloom() const { return bloom_; }
  const HashExpressor& expressor() const { return expressor_; }
  const std::vector<uint8_t>& h0() const { return h0_; }

  /// Resident filter bytes (bit array + cell array), the apples-to-apples
  /// space the paper equalizes across filters.
  size_t MemoryUsageBytes() const {
    return bloom_.MemoryUsageBytes() + expressor_.MemoryUsageBytes();
  }

  /// Number of usable family functions under the configured cell width.
  size_t usable_functions() const { return provider_->NumFunctions(); }

  // --- persistence (versioned binary format) ------------------------------

  /// Appends a self-contained snapshot (options + both bit arrays) to
  /// `*out` as an HBF1 sectioned container (DESIGN.md §10). Build
  /// statistics are not persisted.
  void Serialize(std::string* out) const;

  /// Restores a filter from Serialize() output or a legacy "HABF" snapshot,
  /// sniffed by magic. Returns nullopt on any format/version/consistency
  /// error. Queries on the restored filter behave identically to the
  /// original.
  static std::optional<Habf> Deserialize(std::string_view data);

  /// Convenience file wrappers; false on I/O or format errors.
  bool SaveToFile(const std::string& path) const;
  static std::optional<Habf> LoadFromFile(const std::string& path);

  // --- dynamic updates (future-work extension, see DESIGN.md) -------------

  /// Inserts a positive key after construction with the shared subset H0.
  /// Zero false negatives still hold for every key ever inserted; FPR (and
  /// the optimization of previously-resolved negatives) degrades gracefully
  /// as bits fill in — quantified by bench_extension_dynamic.
  void AddPositive(std::string_view key) {
    bloom_.AddWith(key, h0_.data(), h0_.size());
    ++dynamic_insertions_;
  }

  /// Number of keys added via AddPositive() since construction.
  size_t dynamic_insertions() const { return dynamic_insertions_; }

 private:
  struct Sizing {
    size_t bloom_bits;
    size_t num_cells;
    size_t usable_fns;
  };
  static Sizing ComputeSizing(const HabfOptions& options);

  Habf(const HabfOptions& options, Sizing sizing);

  /// Calls `fn(source)` with the value source of this filter's family
  /// (habf.cc: per function from the key, or from its digests) and returns
  /// its result. Every query path and the builder's negative pass get a
  /// key's function values through it, so each key is loaded once.
  template <typename Fn>
  decltype(auto) WithValueSource(Fn&& fn) const;

  /// The batch query loop over a value source.
  template <typename Source>
  size_t ContainsBatchFrom(const Source& source, KeySpan keys,
                           uint8_t* out) const;

  /// Round 2 of one key whose state `source` has loaded: the HashExpressor
  /// walk, then the customized subset's probes.
  template <typename Source>
  bool SecondRoundFrom(const Source& source,
                       const typename Source::State& state) const;

  class Builder;  // TPJO implementation (habf.cc)

  HabfOptions options_;
  std::unique_ptr<HashProvider> provider_;
  std::vector<uint8_t> h0_;
  BloomFilter bloom_;
  HashExpressor expressor_;
  HabfBuildStats stats_;
  size_t dynamic_insertions_ = 0;
};

}  // namespace habf
