#include "core/habf.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "util/rng.h"
#include "util/serde.h"

namespace habf {
namespace {

/// Per-key re-optimization budget: a cost-tradeoff adjustment may push an
/// already-optimized key back onto the collision queue; bounding the number
/// of attempts per key guarantees termination (the paper leaves this
/// unspecified — see DESIGN.md §3).
constexpr int kMaxAttemptsPerKey = 3;

constexpr uint64_t kEntrySeed = 0x66656E7472794AULL;  // HashExpressor f

/// Most hash functions per key: the query and the builder hold a key's
/// subset in 16-entry arrays. Build clamps k to it; Deserialize rejects more.
constexpr size_t kMaxHashesPerKey = 16;

/// The builder keeps Bloom positions and HashExpressor entry cells in 32-bit
/// tables, so both index spaces must stay below this (DESIGN.md §3).
constexpr size_t kMaxBuildIndexSpace = size_t{1} << 32;

/// How many keys ahead the build passes prefetch: the bytes of the key this
/// far ahead in the passes that hash keys in order; in the V pass, the V
/// cells of the key this far ahead and the position row of the key twice
/// as far.
constexpr size_t kPrefetchDistance = 8;

std::unique_ptr<HashProvider> MakeProvider(const HabfOptions& options,
                                           size_t usable_fns) {
  switch (options.family) {
    case HabfFamily::kTableII:
      return std::make_unique<GlobalHashProvider>(usable_fns, options.seed);
    case HabfFamily::kDoubleXxHash:
      return std::make_unique<DoubleHashProvider>(usable_fns, options.seed);
    case HabfFamily::kOnePass:
      break;
  }
  return std::make_unique<OnePassHashProvider>(usable_fns, options.seed);
}

/// Batch-query value source of the families whose functions each read the
/// key (Table II; double xxHash, whose entry value hashes the key apart):
/// a key's state is the key itself.
struct KeyValueSource {
  using State = std::string_view;
  const HashProvider* provider;
  uint64_t f_seed;

  State Load(std::string_view key) const { return key; }
  uint64_t Value(State key, uint8_t fn) const {
    return provider->Value(key, fn);
  }
  void Values(State key, const uint8_t* fns, size_t n, uint64_t* out) const {
    provider->Values(key, fns, n, out);
  }
  uint64_t EntryValue(State key) const {
    return provider->EntryValue(key, f_seed);
  }
};

/// Batch-query value source of the one-pass family: a key's state is its
/// digests, and every value after Load is arithmetic on them.
struct DigestValueSource {
  using State = HashDigests;
  const OnePassHashProvider* provider;
  uint64_t f_seed;

  State Load(std::string_view key) const { return provider->DigestsOf(key); }
  uint64_t Value(const State& d, uint8_t fn) const { return d.Value(fn); }
  void Values(const State& d, const uint8_t* fns, size_t n,
              uint64_t* out) const {
    d.Values(fns, n, out);
  }
  uint64_t EntryValue(const State& d) const {
    return OnePassHashProvider::EntryValueOf(d, f_seed);
  }
};

std::vector<uint8_t> PickH0(size_t k, size_t usable_fns, uint64_t seed) {
  std::vector<uint8_t> all(usable_fns);
  std::iota(all.begin(), all.end(), uint8_t{0});
  Xoshiro256 rng(seed ^ 0x4830ULL);
  for (size_t i = usable_fns - 1; i > 0; --i) {
    const size_t j = rng.NextBounded(i + 1);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace

const char* HabfFamilyName(HabfFamily family) {
  switch (family) {
    case HabfFamily::kTableII:
      return "table-ii";
    case HabfFamily::kDoubleXxHash:
      return "double-xxhash";
    case HabfFamily::kOnePass:
      return "one-pass";
  }
  return "unknown";
}

Habf::Sizing Habf::ComputeSizing(const HabfOptions& options) {
  assert(options.total_bits >= 64);
  assert(options.delta >= 0.0);
  assert(options.cell_bits >= 2 && options.cell_bits <= 8);

  const double d1_fraction = options.delta / (1.0 + options.delta);
  size_t d1_bits = static_cast<size_t>(
      d1_fraction * static_cast<double>(options.total_bits));
  size_t num_cells = d1_bits / options.cell_bits;
  if (num_cells == 0) num_cells = 1;

  // A cell addresses 2^(cell_bits-1) - 1 functions. Table II has only 22;
  // the double-hashing families simulate as many as a cell addresses.
  const size_t family_cap = HashFamily::Global().size();
  size_t usable = (size_t{1} << (options.cell_bits - 1)) - 1;
  if (options.family == HabfFamily::kTableII && usable > family_cap) {
    usable = family_cap;
  }

  Sizing sizing;
  sizing.num_cells = num_cells;
  sizing.bloom_bits = options.total_bits - num_cells * options.cell_bits;
  sizing.usable_fns = usable;
  assert(sizing.bloom_bits > 0);
  return sizing;
}

Habf::Habf(const HabfOptions& options, Sizing sizing)
    : options_(options),
      provider_(MakeProvider(options, sizing.usable_fns)),
      h0_(PickH0(options.k, sizing.usable_fns, options.seed)),
      bloom_(sizing.bloom_bits, provider_.get(), h0_),
      expressor_(sizing.num_cells, options.cell_bits, provider_.get(),
                 options.seed ^ kEntrySeed) {}

template <typename Fn>
decltype(auto) Habf::WithValueSource(Fn&& fn) const {
  const uint64_t f_seed = expressor_.f_seed();
  if (options_.family == HabfFamily::kOnePass) {
    return fn(DigestValueSource{
        static_cast<const OnePassHashProvider*>(provider_.get()), f_seed});
  }
  return fn(KeyValueSource{provider_.get(), f_seed});
}

bool Habf::Contains(std::string_view key) const {
  return WithValueSource([&](const auto& source) {
    const auto state = source.Load(key);
    // Round 1: the shared initial subset H0.
    uint64_t values[16];
    source.Values(state, h0_.data(), h0_.size(), values);
    return bloom_.TestValues(values, h0_.size()) ||
           SecondRoundFrom(source, state);
  });
}

size_t Habf::ContainsBatch(KeySpan keys, uint8_t* out) const {
  return WithValueSource([&](const auto& source) {
    return ContainsBatchFrom(source, keys, out);
  });
}

template <typename Source>
bool Habf::SecondRoundFrom(const Source& source,
                           const typename Source::State& state) const {
  // The customized subset from the HashExpressor, if any.
  const size_t k = h0_.size();
  uint8_t fns[16];
  if (!expressor_.Walk(
          expressor_.CellOf(source.EntryValue(state)),
          [&](uint8_t fn) { return source.Value(state, fn); }, fns, k)) {
    return false;
  }
  uint64_t values[16];
  source.Values(state, fns, k, values);
  return bloom_.TestValues(values, k);
}

template <typename Source>
size_t Habf::ContainsBatchFrom(const Source& source, KeySpan keys,
                               uint8_t* out) const {
  constexpr size_t kBlock = BloomFilter::kBatchBlock;
  const size_t k = h0_.size();
  typename Source::State states[kBlock];
  size_t positives = 0;
  for (size_t base = 0; base < keys.size(); base += kBlock) {
    const size_t count = std::min(kBlock, keys.size() - base);
    uint8_t* block_out = out + base;
    // Round 1: the prefetching H0 probe loop. Each key's state is loaded
    // here, once, and round 2 reuses it.
    positives += bloom_.TestBatchValues(
        count, k,
        [&](size_t i, uint64_t* values) {
          states[i] = source.Load(keys[base + i]);
          source.Values(states[i], h0_.data(), k, values);
        },
        block_out);
    // Round 2: the HashExpressor walk and the customized subset's probes,
    // only for the keys round 1 missed — on a mostly-positive batch this
    // round touches almost nothing.
    for (size_t i = 0; i < count; ++i) {
      if (!block_out[i] && SecondRoundFrom(source, states[i])) {
        block_out[i] = 1;
        ++positives;
      }
    }
  }
  return positives;
}

// ---------------------------------------------------------------------------
// TPJO (Two-Phase Joint Optimization, §III-D)
// ---------------------------------------------------------------------------

class Habf::Builder {
 public:
  Builder(Habf& habf, StringSpan positives, WeightedKeySpan negatives)
      : habf_(habf),
        positives_(positives),
        negatives_(negatives),
        k_(habf.options_.k),
        v_keyid_(habf.bloom_.num_bits(), kNull),
        v_single_(habf.bloom_.num_bits(), 1),
        phi_(positives.size() * k_),
        adjusted_(positives.size(), 0),
        neg_state_(negatives.size(), NegState::kNegative),
        attempts_(negatives.size(), 0) {
    if (habf.options_.allow_double_adjustment) {
      v_count_.assign(habf.bloom_.num_bits(), 0);
      v_keyid2_.assign(habf.bloom_.num_bits(), kNull);
    }
  }

  void Run();

 private:
  static constexpr int32_t kNull = -1;

  enum class NegState : uint8_t { kNegative, kCollision, kOptimized, kFailed };

  /// One possible adjustment: move function `hu` of positive key `es`
  /// (single mapper of bit `unit`) to `hc`, whose bit is `nu`.
  struct Candidate {
    size_t unit;
    int32_t es;
    uint8_t hu;
    uint8_t hc;
    size_t nu;
    /// 0 = bit nu already set (type A); 1 = new bit, no conflicts;
    /// 2 = new bit breaking optimized keys worth `conflict_cost`.
    int category;
    double conflict_cost;
    std::vector<int32_t> conflicts;
    HashExpressor::InsertPlan plan;
    /// Demotion (double-adjustment extension): `unit` stays set — only the
    /// departing owner moves, making the unit singly mapped afterwards.
    bool demote = false;
  };

  size_t PosOf(std::string_view key, uint8_t fn) const {
    return habf_.bloom_.PositionOf(key, fn);
  }

  /// Bloom-filter positions of `key` under the k-subset `fns`, in subset
  /// order: one provider call for all k (BloomFilter::AddWith's formula).
  /// 32 bits suffice: Build refuses a Bloom side of 2^32 bits or more.
  void PositionsOf(std::string_view key, const uint8_t* fns,
                   uint32_t* out) const {
    uint64_t values[16];
    habf_.provider_->Values(key, fns, k_, values);
    PositionsOfValues(values, out);
  }

  /// The k Bloom positions of k raw family values.
  void PositionsOfValues(const uint64_t* values, uint32_t* out) const {
    for (size_t i = 0; i < k_; ++i) {
      out[i] = static_cast<uint32_t>(values[i] % habf_.bloom_.num_bits());
    }
  }

  /// True when every one of the k bits at `positions` is set.
  bool AllSet(const uint32_t* positions) const {
    for (size_t i = 0; i < k_; ++i) {
      if (!habf_.bloom_.GetBit(positions[i])) return false;
    }
    return true;
  }

  /// Copies the distinct values of `positions[0..k)` to `out`, in first
  /// occurrence order; returns their count.
  size_t Distinct(const uint32_t* positions, size_t* out) const {
    size_t count = 0;
    for (size_t i = 0; i < k_; ++i) {
      const size_t p = positions[i];
      bool seen = false;
      for (size_t j = 0; j < count; ++j) {
        if (out[j] == p) {
          seen = true;
          break;
        }
      }
      if (!seen) out[count++] = p;
    }
    return count;
  }

  /// φ(es) of positive `es`: its current k-subset.
  uint8_t* Phi(size_t es) { return &phi_[es * k_]; }
  const uint8_t* Phi(size_t es) const { return &phi_[es * k_]; }

  /// Negative `neg_idx`'s row of the probe table: its k H0 positions, then
  /// its HashExpressor entry cell.
  const uint32_t* NegProbes(int32_t neg_idx) const {
    return &neg_probes_[static_cast<size_t>(neg_idx) * (k_ + 1)];
  }

  /// Prefetches, for writing, every V cell a VInsert of `positions[0..k)`
  /// will touch.
  void PrefetchV(const uint32_t* positions) const {
    for (size_t i = 0; i < k_; ++i) {
      const uint32_t unit = positions[i];
      __builtin_prefetch(&v_single_[unit], 1);
      __builtin_prefetch(&v_keyid_[unit], 1);
      if (!v_count_.empty()) {
        __builtin_prefetch(&v_count_[unit], 1);
        __builtin_prefetch(&v_keyid2_[unit], 1);
      }
    }
  }

  void VInsert(size_t unit, int32_t key_idx) {
    if (v_single_[unit]) {
      if (v_keyid_[unit] == kNull) {
        v_keyid_[unit] = key_idx;  // Case 1: first mapper
      } else {
        v_single_[unit] = 0;  // Case 2: now mapped at least twice
      }
    }
    // Case 3: already multi-mapped; nothing to do.

    // Double-adjustment extension: also track the second owner and a
    // saturating mapping count.
    if (!v_count_.empty()) {
      if (v_count_[unit] == 0) {
        v_count_[unit] = 1;
      } else if (v_count_[unit] == 1) {
        v_keyid2_[unit] = key_idx;
        v_count_[unit] = 2;
      } else {
        v_count_[unit] = 3;  // 3+ owners: ids no longer sufficient
      }
    }
  }

  /// Clears all V state for a vacated unit (single adjustment).
  void VReset(size_t unit) {
    v_keyid_[unit] = kNull;
    v_single_[unit] = 1;
    if (!v_count_.empty()) {
      v_count_[unit] = 0;
      v_keyid2_[unit] = kNull;
    }
  }

  /// Removes one of the two owners of a doubly-mapped unit (demotion); the
  /// unit becomes singly mapped by the remaining owner.
  void VDemote(size_t unit, int32_t departing) {
    assert(!v_count_.empty() && v_count_[unit] == 2);
    const int32_t remaining =
        v_keyid_[unit] == departing ? v_keyid2_[unit] : v_keyid_[unit];
    v_keyid_[unit] = remaining;
    v_keyid2_[unit] = kNull;
    v_count_[unit] = 1;
    v_single_[unit] = 1;
  }

  void BuildInitialFilterAndV();
  void BuildCollisionQueue();
  void ProcessQueue();

  /// Full two-round membership of a negative key against the current state
  /// (Contains() equivalent). When the key tests positive, writes the
  /// distinct positions of the subset that made it so to `positions` and
  /// returns their count (at least 1); returns 0 when it tests negative.
  size_t OffendingPositions(int32_t neg_idx, size_t* positions) const;

  /// Attempts one adjustment that clears one of the bits `positions[0..np)`
  /// (those of the subset that currently makes the key test positive: H0
  /// for a round-1 collision, the retrieved HashExpressor subset for a
  /// round-2 one — the latter is an implementation strengthening over the
  /// paper, which only resolves round 1; see DESIGN.md §3).
  bool TryOptimize(int32_t neg_idx, const size_t* positions, size_t np);
  void GatherCandidatesForUnit(int32_t neg_idx, size_t unit, int32_t es,
                               bool demote, std::vector<Candidate>* out);
  void Apply(int32_t neg_idx, Candidate& cand);
  void AddToGamma(int32_t neg_idx);
  void RemoveFromGamma(int32_t neg_idx);
  void RecordMemory();

  Habf& habf_;
  // Non-owning views over the caller's key storage (zero-copy build): valid
  // for the lifetime of the Builder, which lives inside Build().
  StringSpan positives_;
  WeightedKeySpan negatives_;
  size_t k_;

  // V (Fig. 4), struct-of-arrays: singleflag + keyid per Bloom-filter bit.
  std::vector<int32_t> v_keyid_;
  std::vector<uint8_t> v_single_;
  // Double-adjustment extension state (empty unless the option is on).
  std::vector<uint8_t> v_count_;
  std::vector<int32_t> v_keyid2_;

  // Γ (Fig. 5): bit position -> optimized negative keys mapping to it. A
  // hash map rather than m buckets: only bits touched by optimized keys are
  // populated, which keeps Γ proportional to t, not m.
  std::unordered_map<uint64_t, std::vector<int32_t>> gamma_;

  // Current subset φ(es) per positive key, k_ entries each: see Phi.
  std::vector<uint8_t> phi_;
  std::vector<uint8_t> adjusted_;

  // Probe table of the negatives (filled by BuildCollisionQueue), k_ + 1
  // entries per key: see NegProbes. H0, the bit count and f are fixed for
  // a build, so no entry goes stale; every later round-1 probe of a
  // negative reads it instead of hashing the key again.
  std::vector<uint32_t> neg_probes_;

  std::vector<NegState> neg_state_;
  std::vector<uint8_t> attempts_;
  std::deque<int32_t> cq_;
};

void Habf::Builder::BuildInitialFilterAndV() {
  // Sequential add pass: hash each positive's H0 once, set its bits, and
  // keep its k positions for the V pass, which would otherwise hash every
  // key again in shuffled order (a cache miss on its view and its bytes).
  std::vector<uint32_t> positions(positives_.size() * k_);
  for (size_t i = 0; i < positives_.size(); ++i) {
    if (i + kPrefetchDistance < positives_.size()) {
      __builtin_prefetch(positives_[i + kPrefetchDistance].data());
    }
    std::copy(habf_.h0_.begin(), habf_.h0_.end(), Phi(i));
    uint32_t* row = &positions[i * k_];
    PositionsOf(positives_[i], habf_.h0_.data(), row);
    for (size_t j = 0; j < k_; ++j) habf_.bloom_.SetBit(row[j]);
  }
  habf_.stats_.initial_fill = habf_.bloom_.FillRatio();

  // Random insertion order (§III-D): which key "owns" a singly-mapped unit
  // must not be biased by input order.
  std::vector<int32_t> order(positives_.size());
  std::iota(order.begin(), order.end(), 0);
  Xoshiro256 rng(habf_.options_.seed ^ 0x564f524445ULL);
  for (size_t i = order.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(order[i - 1], order[j]);
  }
  // The V pass replays that order from the table (V keeps the first two
  // owners of a unit, so the order is part of the output). Prefetching the
  // rows and V cells of keys ahead overlaps their cache misses.
  auto row_of = [&](size_t j) {
    return &positions[static_cast<size_t>(order[j]) * k_];
  };
  for (size_t j = 0; j < order.size(); ++j) {
    if (j + 2 * kPrefetchDistance < order.size()) {
      __builtin_prefetch(row_of(j + 2 * kPrefetchDistance));
    }
    if (j + kPrefetchDistance < order.size()) {
      PrefetchV(row_of(j + kPrefetchDistance));
    }
    const uint32_t* row = row_of(j);
    for (size_t i = 0; i < k_; ++i) VInsert(row[i], order[j]);
  }
}

void Habf::Builder::BuildCollisionQueue() {
  // The one pass that evaluates the negatives' H0 and f: it fills the
  // probe table that every later round-1 probe of a negative reads.
  // A key's H0 values and its entry value come from one state, so under the
  // one-pass family each negative is hashed once.
  neg_probes_.resize(negatives_.size() * (k_ + 1));
  std::vector<int32_t> collisions;
  habf_.WithValueSource([&](const auto& source) {
    for (size_t i = 0; i < negatives_.size(); ++i) {
      if (i + kPrefetchDistance < negatives_.size()) {
        __builtin_prefetch(negatives_[i + kPrefetchDistance].key.data());
      }
      const auto state = source.Load(negatives_[i].key);
      uint64_t values[16];
      source.Values(state, habf_.h0_.data(), k_, values);
      uint32_t* row = &neg_probes_[i * (k_ + 1)];
      PositionsOfValues(values, row);
      row[k_] = static_cast<uint32_t>(
          habf_.expressor_.CellOf(source.EntryValue(state)));
      if (AllSet(row)) {
        neg_state_[i] = NegState::kCollision;
        collisions.push_back(static_cast<int32_t>(i));
      }
    }
  });
  // Most costly first (phase-I ordering).
  std::stable_sort(collisions.begin(), collisions.end(),
                   [&](int32_t a, int32_t b) {
                     return negatives_[a].cost > negatives_[b].cost;
                   });
  cq_.assign(collisions.begin(), collisions.end());
  habf_.stats_.initial_collisions = collisions.size();
}

void Habf::Builder::GatherCandidatesForUnit(int32_t neg_idx, size_t unit,
                                            int32_t es, bool demote,
                                            std::vector<Candidate>* out) {
  const std::string_view es_key = positives_[es];
  const double eck_cost = negatives_[neg_idx].cost;

  // Locate hu: the (unique, since singleflag==1) member of φ(es) mapping es
  // to `unit`.
  uint8_t hu = 0xFF;
  for (size_t i = 0; i < k_; ++i) {
    if (PosOf(es_key, Phi(es)[i]) == unit) {
      hu = Phi(es)[i];
      break;
    }
  }
  if (hu == 0xFF) return;  // stale V entry; skip defensively

  const size_t usable = habf_.provider_->NumFunctions();
  for (size_t fn = 0; fn < usable; ++fn) {
    const uint8_t hc = static_cast<uint8_t>(fn);
    bool in_phi = false;
    for (size_t i = 0; i < k_; ++i) {
      if (Phi(es)[i] == hc) {
        in_phi = true;
        break;
      }
    }
    if (in_phi) continue;  // Hc = H - φ(es)

    const size_t nu = PosOf(es_key, hc);
    if (nu == unit) continue;  // would keep the colliding bit set

    Candidate cand;
    cand.unit = unit;
    cand.es = es;
    cand.hu = hu;
    cand.hc = hc;
    cand.nu = nu;
    cand.conflict_cost = 0.0;
    cand.demote = demote;

    if (habf_.bloom_.GetBit(nu)) {
      cand.category = 0;  // type A: no new bit is set
    } else if (habf_.options_.fast || gamma_.empty()) {
      // f-HABF disables Γ: assume conflict-free (may silently re-break
      // optimized keys; accepted accuracy loss, §III-G).
      cand.category = 1;
    } else {
      const auto it = gamma_.find(nu);
      if (it == gamma_.end() || it->second.empty()) {
        cand.category = 1;
      } else {
        // Conflict detection (Algorithm 1): an optimized key re-breaks iff
        // every one of its positions outside `nu` is already set.
        for (int32_t eopk : it->second) {
          const uint32_t* positions = NegProbes(eopk);
          bool all_set = true;
          for (size_t p = 0; p < k_; ++p) {
            if (positions[p] == nu) continue;
            if (!habf_.bloom_.GetBit(positions[p])) {
              all_set = false;
              break;
            }
          }
          if (all_set) {
            cand.conflicts.push_back(eopk);
            cand.conflict_cost += negatives_[eopk].cost;
          }
        }
        if (cand.conflicts.empty()) {
          cand.category = 1;
        } else {
          cand.category = 2;
          // Only strictly beneficial trades are applied (DESIGN.md §3: the
          // paper accepts zero-sum trades, which can cycle).
          if (eck_cost - cand.conflict_cost <= 0.0) continue;
        }
      }
    }
    out->push_back(std::move(cand));
  }
}

size_t Habf::Builder::OffendingPositions(int32_t neg_idx,
                                         size_t* positions) const {
  const uint32_t* probes = NegProbes(neg_idx);
  if (AllSet(probes)) return Distinct(probes, positions);
  // Round 2 hashes the key: the retrieved subset changes as the
  // HashExpressor fills.
  const std::string_view key = negatives_[neg_idx].key;
  uint8_t retrieved[16];
  if (!habf_.expressor_.QueryFrom(key, probes[k_], retrieved, k_)) return 0;
  uint32_t round2[16];
  PositionsOf(key, retrieved, round2);
  return AllSet(round2) ? Distinct(round2, positions) : 0;
}

bool Habf::Builder::TryOptimize(int32_t neg_idx, const size_t* positions,
                                size_t np) {
  // ξck: units mapped by eck that are singly mapped by an unadjusted
  // positive key (§III-D and Theorem 4.1).
  std::vector<Candidate> candidates;
  for (size_t p = 0; p < np; ++p) {
    const size_t unit = positions[p];
    const int32_t es = v_keyid_[unit];
    if (!v_single_[unit] || es == kNull || adjusted_[es]) continue;
    GatherCandidatesForUnit(neg_idx, unit, es, /*demote=*/false, &candidates);
  }

  // Double-adjustment extension: ξck empty — look for a doubly-mapped unit
  // whose owners include an unadjusted key, and *demote* it: relocate that
  // owner so the unit becomes singly mapped. The bit stays set, so eck is
  // not resolved by this step; the re-queue gives it a follow-up attempt
  // through the normal single-adjustment path.
  if (candidates.empty() && !v_count_.empty()) {
    for (size_t p = 0; p < np; ++p) {
      const size_t unit = positions[p];
      if (v_count_[unit] != 2) continue;
      for (int32_t es : {v_keyid_[unit], v_keyid2_[unit]}) {
        if (es == kNull || adjusted_[es]) continue;
        GatherCandidatesForUnit(neg_idx, unit, es, /*demote=*/true,
                                &candidates);
        break;  // one departing owner per unit is enough
      }
    }
  }
  if (candidates.empty()) return false;

  auto plan_candidate = [&](Candidate& cand) {
    uint8_t new_phi[16];
    size_t n_fns = 0;
    for (size_t i = 0; i < k_; ++i) {
      new_phi[n_fns++] =
          Phi(cand.es)[i] == cand.hu ? cand.hc : Phi(cand.es)[i];
    }
    cand.plan = habf_.expressor_.Plan(positives_[cand.es], new_phi, n_fns);
    if (!cand.plan.ok) ++habf_.stats_.expressor_insert_failures;
  };

  // f-HABF (§III-G) trades selection quality for construction speed: take
  // the first candidate (free ones first) whose chain fits instead of
  // planning and ranking all of them.
  if (habf_.options_.fast) {
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.category < b.category;
                     });
    for (auto& cand : candidates) {
      plan_candidate(cand);
      if (cand.plan.ok) {
        Apply(neg_idx, cand);
        return true;
      }
    }
    return false;
  }

  // Plan the HashExpressor insertion of each candidate's φ'(es) so the
  // ranking can prefer maximal cell overlap (§III-D, example).
  for (auto& cand : candidates) plan_candidate(cand);

  // Rank: free adjustments first (type A before new-bit), by overlap; then
  // cost trades by net benefit.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](const Candidate& a, const Candidate& b) {
                     if (a.category != b.category)
                       return a.category < b.category;
                     if (a.category == 2) {
                       return a.conflict_cost < b.conflict_cost;
                     }
                     return a.plan.overlap > b.plan.overlap;
                   });

  for (auto& cand : candidates) {
    if (!cand.plan.ok) continue;
    Apply(neg_idx, cand);
    return true;
  }
  return false;
}

void Habf::Builder::Apply(int32_t neg_idx, Candidate& cand) {
  (void)neg_idx;  // resolution state is decided by the caller's re-test
  // Commit the customized subset to the HashExpressor.
  habf_.expressor_.Commit(cand.plan);
  ++habf_.stats_.adjusted_positives;

  // Update φ(es) and mark es immutable (HashExpressor has no deletion).
  for (size_t i = 0; i < k_; ++i) {
    if (Phi(cand.es)[i] == cand.hu) {
      Phi(cand.es)[i] = cand.hc;
      break;
    }
  }
  adjusted_[cand.es] = 1;

  // Update the Bloom filter and V. Single adjustment: `unit` was singly
  // mapped by es, so its bit clears and the unit resets. Demotion: the
  // other owner keeps the bit set; es merely departs.
  if (cand.demote) {
    VDemote(cand.unit, cand.es);
    ++habf_.stats_.double_adjustments;
  } else {
    habf_.bloom_.ClearBit(cand.unit);
    VReset(cand.unit);
  }
  habf_.bloom_.SetBit(cand.nu);
  VInsert(cand.nu, cand.es);

  // Cost-trade conflicts re-enter the queue (tail, per §III-D). Whether
  // `neg_idx` itself is now resolved is decided by the caller with a full
  // two-round re-test (the adjustment may have shifted it between rounds).
  for (int32_t eopk : cand.conflicts) {
    RemoveFromGamma(eopk);
    neg_state_[eopk] = NegState::kCollision;
    cq_.push_back(eopk);
    ++habf_.stats_.reinstated;
  }
}

void Habf::Builder::AddToGamma(int32_t neg_idx) {
  size_t positions[16];
  const size_t np = Distinct(NegProbes(neg_idx), positions);
  for (size_t p = 0; p < np; ++p) {
    gamma_[positions[p]].push_back(neg_idx);
  }
}

void Habf::Builder::RemoveFromGamma(int32_t neg_idx) {
  size_t positions[16];
  const size_t np = Distinct(NegProbes(neg_idx), positions);
  for (size_t p = 0; p < np; ++p) {
    auto it = gamma_.find(positions[p]);
    if (it == gamma_.end()) continue;
    auto& bucket = it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), neg_idx),
                 bucket.end());
  }
}

void Habf::Builder::RecordMemory() {
  MemoryCounter& mem = habf_.stats_.construction_memory;
  mem.Add("bloom_bits", habf_.bloom_.MemoryUsageBytes());
  mem.Add("hash_expressor_bits", habf_.expressor_.MemoryUsageBytes());
  mem.Add("index_V",
          v_keyid_.size() * sizeof(int32_t) + v_single_.size() +
              v_count_.size() + v_keyid2_.size() * sizeof(int32_t));
  size_t gamma_bytes = 0;
  for (const auto& [pos, bucket] : gamma_) {
    (void)pos;
    gamma_bytes += sizeof(uint64_t) + sizeof(bucket) +
                   bucket.capacity() * sizeof(int32_t) + 16;
  }
  mem.Add("index_Gamma", gamma_bytes);
  mem.Add("positive_phi", phi_.size() + adjusted_.size());
  // Both position tables count, though the positives' one is freed before
  // the negatives' one is filled: an upper bound on what is held at once.
  mem.Add("positive_h0_positions",
          positives_.size() * k_ * sizeof(uint32_t));
  mem.Add("negative_probes", neg_probes_.capacity() * sizeof(uint32_t));
  size_t neg_bytes = 0;
  for (const auto& wk : negatives_) {
    neg_bytes += wk.key.size() + sizeof(WeightedKeyView);
  }
  mem.Add("negative_keys", neg_bytes);
  mem.Add("collision_queue",
          habf_.stats_.initial_collisions * sizeof(int32_t));
}

void Habf::Builder::Run() {
  habf_.stats_.num_positives = positives_.size();
  habf_.stats_.num_negatives = negatives_.size();

  BuildInitialFilterAndV();
  BuildCollisionQueue();
  ProcessQueue();

  // Final verification sweeps: as the HashExpressor filled, negatives that
  // were clean at queue-build time can have become round-2 false positives.
  // Catch and re-process them (bounded; the per-key attempt budget still
  // applies). f-HABF skips the sweeps for construction speed (§III-G).
  const int max_sweeps = habf_.options_.fast ? 0 : 2;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool found = false;
    for (size_t i = 0; i < negatives_.size(); ++i) {
      // Round 2 still hashes the key (its walk and retrieved subset).
      if (i + kPrefetchDistance < negatives_.size()) {
        __builtin_prefetch(negatives_[i + kPrefetchDistance].key.data());
      }
      if (neg_state_[i] == NegState::kFailed ||
          neg_state_[i] == NegState::kCollision) {
        continue;
      }
      size_t positions[16];
      if (OffendingPositions(static_cast<int32_t>(i), positions) != 0) {
        if (neg_state_[i] == NegState::kOptimized) {
          RemoveFromGamma(static_cast<int32_t>(i));
        }
        neg_state_[i] = NegState::kCollision;
        cq_.push_back(static_cast<int32_t>(i));
        found = true;
      }
    }
    if (!found) break;
    ProcessQueue();
  }

  for (NegState s : neg_state_) {
    if (s == NegState::kOptimized) ++habf_.stats_.optimized;
    if (s == NegState::kFailed) ++habf_.stats_.failed;
  }
  habf_.stats_.final_fill = habf_.bloom_.FillRatio();
  RecordMemory();
}

void Habf::Builder::ProcessQueue() {
  while (!cq_.empty()) {
    const int32_t neg_idx = cq_.front();
    cq_.pop_front();
    if (neg_state_[neg_idx] != NegState::kCollision) continue;
    // A previous adjustment may have resolved this key as a side effect.
    size_t positions[16];
    const size_t np = OffendingPositions(neg_idx, positions);
    if (np == 0) {
      neg_state_[neg_idx] = NegState::kOptimized;
      AddToGamma(neg_idx);
      continue;
    }
    if (attempts_[neg_idx] >= kMaxAttemptsPerKey) {
      neg_state_[neg_idx] = NegState::kFailed;
      continue;
    }
    ++attempts_[neg_idx];
    if (!TryOptimize(neg_idx, positions, np)) {
      neg_state_[neg_idx] = NegState::kFailed;
      continue;
    }
    // Verify with the full two-round test: an adjustment can move the key
    // from round 1 to a round-2 HashExpressor collision. Re-queue until
    // clean or the attempt budget runs out.
    if (OffendingPositions(neg_idx, positions) == 0) {
      neg_state_[neg_idx] = NegState::kOptimized;
      AddToGamma(neg_idx);
    } else {
      cq_.push_back(neg_idx);
    }
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {
constexpr uint32_t kSnapshotMagic = 0x46424148;  // "HABF" (legacy format)
constexpr uint32_t kSnapshotVersion = 1;
/// Upper bound on total_bits accepted from a snapshot header (8 GiB of
/// filter). A corrupt or hostile header past this is rejected before
/// ComputeSizing can turn it into a huge allocation.
constexpr uint64_t kMaxSnapshotBits = uint64_t{1} << 36;
/// Upper bound on the space ratio Δ. The paper explores Δ ≤ 4; values far
/// beyond that starve the Bloom side entirely and only appear in corrupt
/// headers.
constexpr double kMaxSnapshotDelta = 1e6;

// HBF1 content + section tags for an Habf snapshot (DESIGN.md §10).
constexpr uint32_t kHabfContentTag = FourCc("HABF");
constexpr uint32_t kOptsTag = FourCc("OPTS");
constexpr uint32_t kBloomTag = FourCc("BLOM");
constexpr uint32_t kCellsTag = FourCc("EXPR");

/// Fields common to both snapshot formats, parsed before any validation.
struct SnapshotFields {
  HabfOptions options;
  std::string h0_bytes;
  uint64_t dynamic_insertions = 0;
  uint64_t expressor_inserted = 0;
  std::vector<uint64_t> bloom_words;
  std::vector<uint64_t> cell_words;
};

bool ParseLegacySnapshot(std::string_view data, SnapshotFields* fields) {
  BinaryReader reader(data);
  if (reader.ReadU32() != kSnapshotMagic) return false;
  if (reader.ReadU32() != kSnapshotVersion) return false;
  fields->options.total_bits = reader.ReadU64();
  fields->options.delta = reader.ReadDouble();
  fields->options.k = reader.ReadU64();
  fields->options.cell_bits = reader.ReadU8();
  fields->options.fast = reader.ReadU8() != 0;
  fields->options.family = LegacyHabfFamily(fields->options.fast);
  fields->options.seed = reader.ReadU64();
  fields->h0_bytes = reader.ReadBytes();
  fields->dynamic_insertions = reader.ReadU64();
  fields->expressor_inserted = reader.ReadU64();
  fields->bloom_words = reader.ReadWords();
  fields->cell_words = reader.ReadWords();
  return reader.ok() && reader.remaining() == 0;
}

bool ParseHbf1Snapshot(std::string_view data, SnapshotFields* fields) {
  const std::optional<SectionReader> container = SectionReader::Parse(data);
  if (!container.has_value() ||
      container->content_tag() != kHabfContentTag) {
    return false;
  }
  const std::optional<std::string_view> opts = container->Find(kOptsTag);
  const std::optional<std::string_view> bloom = container->Find(kBloomTag);
  const std::optional<std::string_view> cells = container->Find(kCellsTag);
  if (!opts.has_value() || !bloom.has_value() || !cells.has_value()) {
    return false;
  }
  BinaryReader opts_reader(*opts);
  fields->options.total_bits = opts_reader.ReadU64();
  fields->options.delta = opts_reader.ReadDouble();
  fields->options.k = opts_reader.ReadU64();
  fields->options.cell_bits = opts_reader.ReadU8();
  fields->options.fast = opts_reader.ReadU8() != 0;
  fields->options.seed = opts_reader.ReadU64();
  fields->h0_bytes = opts_reader.ReadBytes();
  fields->dynamic_insertions = opts_reader.ReadU64();
  fields->expressor_inserted = opts_reader.ReadU64();
  if (!opts_reader.ok() || !ReadHabfFamily(&opts_reader, &fields->options) ||
      opts_reader.remaining() != 0) {
    return false;
  }
  BinaryReader bloom_reader(*bloom);
  fields->bloom_words = bloom_reader.ReadWords();
  if (!bloom_reader.ok() || bloom_reader.remaining() != 0) return false;
  BinaryReader cells_reader(*cells);
  fields->cell_words = cells_reader.ReadWords();
  return cells_reader.ok() && cells_reader.remaining() == 0;
}
}  // namespace

void WriteHabfFamily(const HabfOptions& options, BinaryWriter* writer) {
  if (options.family != LegacyHabfFamily(options.fast)) {
    writer->WriteU8(static_cast<uint8_t>(options.family));
  }
}

bool ReadHabfFamily(BinaryReader* reader, HabfOptions* options) {
  options->family = LegacyHabfFamily(options->fast);
  if (reader->remaining() == 0) return true;
  const uint8_t family = reader->ReadU8();
  if (family > static_cast<uint8_t>(HabfFamily::kOnePass)) return false;
  options->family = static_cast<HabfFamily>(family);
  return true;
}

void Habf::Serialize(std::string* out) const {
  std::string opts;
  BinaryWriter opts_writer(&opts);
  opts_writer.WriteU64(options_.total_bits);
  opts_writer.WriteDouble(options_.delta);
  opts_writer.WriteU64(options_.k);
  opts_writer.WriteU8(static_cast<uint8_t>(options_.cell_bits));
  opts_writer.WriteU8(options_.fast ? 1 : 0);
  opts_writer.WriteU64(options_.seed);
  opts_writer.WriteBytes(std::string_view(
      reinterpret_cast<const char*>(h0_.data()), h0_.size()));
  opts_writer.WriteU64(dynamic_insertions_);
  opts_writer.WriteU64(expressor_.num_inserted());
  WriteHabfFamily(options_, &opts_writer);

  std::string bloom;
  BinaryWriter(&bloom).WriteWords(bloom_.bits().words());
  std::string cells;
  BinaryWriter(&cells).WriteWords(expressor_.cells().words());

  SectionWriter container(out, kHabfContentTag);
  container.AddSection(kOptsTag, opts);
  container.AddSection(kBloomTag, bloom);
  container.AddSection(kCellsTag, cells);
  container.Finish();
}

std::optional<Habf> Habf::Deserialize(std::string_view data) {
  SnapshotFields fields;
  const bool parsed = SectionReader::LooksLikeContainer(data)
                          ? ParseHbf1Snapshot(data, &fields)
                          : ParseLegacySnapshot(data, &fields);
  if (!parsed) return std::nullopt;
  HabfOptions& options = fields.options;
  const std::string& h0_bytes = fields.h0_bytes;
  const uint64_t dynamic_insertions = fields.dynamic_insertions;
  const uint64_t expressor_inserted = fields.expressor_inserted;
  std::vector<uint64_t>& bloom_words = fields.bloom_words;
  std::vector<uint64_t>& cell_words = fields.cell_words;
  if (options.total_bits < 64 || options.total_bits > kMaxSnapshotBits ||
      options.cell_bits < 2 || options.cell_bits > 8 || options.k == 0 ||
      options.k > kMaxHashesPerKey || !std::isfinite(options.delta) ||
      options.delta < 0.0 || options.delta > kMaxSnapshotDelta) {
    return std::nullopt;
  }

  const Sizing sizing = ComputeSizing(options);
  if (options.k > sizing.usable_fns) return std::nullopt;
  // Cross-check the payload sizes against the header-derived sizing before
  // constructing (and therefore allocating) anything: a corrupt header
  // cannot force an allocation larger than the actual payload.
  if (bloom_words.size() != (sizing.bloom_bits + 63) / 64 ||
      cell_words.size() !=
          (sizing.num_cells * options.cell_bits + 63) / 64) {
    return std::nullopt;
  }
  Habf habf(options, sizing);
  // H0 is derived from the seed; the stored copy must agree or the snapshot
  // was produced by an incompatible build.
  if (h0_bytes.size() != habf.h0_.size() ||
      std::memcmp(h0_bytes.data(), habf.h0_.data(), h0_bytes.size()) != 0) {
    return std::nullopt;
  }
  if (!habf.bloom_.LoadBits(std::move(bloom_words))) return std::nullopt;
  if (!habf.expressor_.LoadCells(std::move(cell_words), expressor_inserted)) {
    return std::nullopt;
  }
  habf.dynamic_insertions_ = dynamic_insertions;
  return habf;
}

bool Habf::SaveToFile(const std::string& path) const {
  std::string bytes;
  Serialize(&bytes);
  // Atomic replace: a crash mid-save can never leave a torn snapshot that
  // only surfaces at load time.
  return WriteFileBytesAtomic(path, bytes);
}

std::optional<Habf> Habf::LoadFromFile(const std::string& path) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) return std::nullopt;
  return Deserialize(bytes);
}

Habf Habf::Build(StringSpan positives, WeightedKeySpan negatives,
                 const HabfOptions& options) {
  HabfOptions effective = options;
  Sizing sizing = ComputeSizing(effective);
  if (sizing.bloom_bits >= kMaxBuildIndexSpace ||
      sizing.num_cells >= kMaxBuildIndexSpace) {
    throw std::invalid_argument(
        "Habf::Build: the Bloom side and the HashExpressor must each have "
        "fewer than 2^32 bits/cells (the builder indexes them in 32 bits)");
  }
  effective.k =
      std::min({effective.k, sizing.usable_fns, kMaxHashesPerKey});
  if (effective.k == 0) effective.k = 1;

  Habf habf(effective, sizing);
  Builder builder(habf, positives, negatives);
  builder.Run();
  return habf;
}

Habf Habf::Build(const std::vector<std::string>& positives,
                 const std::vector<WeightedKey>& negatives,
                 const HabfOptions& options) {
  const std::vector<std::string_view> pos_views = MakeKeyViews(positives);
  const std::vector<WeightedKeyView> neg_views =
      MakeWeightedKeyViews(negatives);
  return Build(StringSpan(pos_views.data(), pos_views.size()),
               WeightedKeySpan(neg_views.data(), neg_views.size()), options);
}

}  // namespace habf
