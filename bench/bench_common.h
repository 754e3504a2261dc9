// Shared scaffolding for the figure-reproduction benches: paper-equivalent
// space budgets, filter construction at a budget, and measurement plumbing.
//
// Scale note (DESIGN.md §3): the paper runs Shalla at 1.49M positives and
// YCSB at 12.5M. Weighted FPR depends on bits-per-key, not absolute size, so
// the benches default to ~100k-200k keys with the paper's bits-per-key
// budgets and print both the bpk and the paper-equivalent space label.

#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bloom/standard_bloom.h"
#include "bloom/weighted_bloom.h"
#include "bloom/xor_filter.h"
#include "hashing/xxhash.h"
#include "core/habf.h"
#include "eval/metrics.h"
#include "learned/learned_filters.h"
#include "util/table_printer.h"
#include "workload/dataset.h"

namespace habf {
namespace bench {

/// One space setting: the paper's axis label and the bits-per-key it implies
/// at the paper's dataset scale.
struct SpacePoint {
  const char* paper_label;  // e.g. "1.25MB"
  double bits_per_key;
};

/// Fig. 10/11 Shalla axis: 1.25..3.25 MB over 1.491M positives.
inline std::vector<SpacePoint> ShallaSpaceAxis() {
  return {{"1.25MB", 7.0},
          {"1.75MB", 9.8},
          {"2.25MB", 12.6},
          {"2.75MB", 15.5},
          {"3.25MB", 18.3}};
}

/// Fig. 10/11 YCSB axis: 12.5..32.5 MB over 12.5M positives.
inline std::vector<SpacePoint> YcsbSpaceAxis() {
  return {{"12.5MB", 8.4},
          {"17.5MB", 11.7},
          {"22.5MB", 15.1},
          {"27.5MB", 18.5},
          {"32.5MB", 21.8}};
}

/// Default bench scales (overridable via argv for a full-size run).
struct BenchScale {
  size_t shalla_keys = 100000;
  size_t ycsb_keys = 150000;
  int zipf_shuffles = 3;  // paper uses 10
};

inline BenchScale ScaleFromArgs(int argc, char** argv) {
  BenchScale scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--large") {
      scale.shalla_keys = 1000000;
      scale.ycsb_keys = 2000000;
      scale.zipf_shuffles = 10;
    } else if (arg == "--small") {
      scale.shalla_keys = 30000;
      scale.ycsb_keys = 50000;
      scale.zipf_shuffles = 2;
    }
  }
  return scale;
}

inline size_t BudgetBits(double bits_per_key, size_t num_positives) {
  return static_cast<size_t>(bits_per_key *
                             static_cast<double>(num_positives));
}

// --- filter builders at a common budget -----------------------------------

/// HABF (or f-HABF when `fast`) with the paper's hash families: Table II
/// for HABF, double hashing over xxHash for f-HABF (§III-G). The library
/// default, the one-pass family, is Fig. 14's extra series.
inline Habf BuildHabf(const Dataset& data, size_t total_bits,
                      bool fast = false, uint64_t seed = 0) {
  HabfOptions options;
  options.total_bits = total_bits;
  options.fast = fast;
  options.family = fast ? HabfFamily::kDoubleXxHash : HabfFamily::kTableII;
  options.seed = seed;
  return Habf::Build(data.positives, data.negatives, options);
}

/// The paper's default BF baseline (§V-A: "we set the default hash function
/// used by f-HABF and other algorithms to XXH128"): k probe positions
/// derived from one 128-bit digest via double hashing. The
/// 22-distinct-function variant appears only in Fig. 14 ("BF").
inline DoubleHashBloom BuildBloom(const Dataset& data, size_t total_bits) {
  return DoubleHashBloom(data.positives, total_bits);
}

/// The Fig. 14 "BF" variant: k distinct Table II functions.
inline StandardBloom BuildDistinctBloom(const Dataset& data,
                                        size_t total_bits) {
  return StandardBloom(data.positives, total_bits);
}

inline XorFilter BuildXor(const Dataset& data, size_t total_bits) {
  auto filter = XorFilter::Build(
      data.positives,
      XorFilter::FingerprintBitsForBudget(total_bits,
                                          data.positives.size()));
  // Standard expansion with reseeding makes failure astronomically rare.
  if (!filter.has_value()) {
    std::fprintf(stderr, "xor filter construction failed\n");
    std::abort();
  }
  return std::move(*filter);
}

inline WeightedBloomFilter BuildWbf(const Dataset& data, size_t total_bits) {
  WeightedBloomFilter::Options options;
  options.num_bits = total_bits;
  const double bpk = static_cast<double>(total_bits) /
                     static_cast<double>(data.positives.size());
  options.k_base = OptimalNumHashes(bpk, 12);
  options.cache_fraction = 0.01;
  return WeightedBloomFilter(data.positives, data.negatives, options);
}

inline LearnedOptions MakeLearnedOptions(size_t total_bits) {
  LearnedOptions options;
  options.total_bits = total_bits;
  options.train.epochs = 3;
  return options;
}

inline LearnedBloomFilter BuildLbf(const Dataset& data, size_t total_bits) {
  return LearnedBloomFilter::Build(data.positives, data.negatives,
                                   MakeLearnedOptions(total_bits));
}

inline SandwichedLearnedBloomFilter BuildSlbf(const Dataset& data,
                                              size_t total_bits) {
  return SandwichedLearnedBloomFilter::Build(data.positives, data.negatives,
                                             MakeLearnedOptions(total_bits));
}

inline AdaptiveLearnedBloomFilter BuildAdaBf(const Dataset& data,
                                             size_t total_bits) {
  AdaptiveLearnedBloomFilter::AdaOptions options;
  options.total_bits = total_bits;
  options.train.epochs = 3;
  return AdaptiveLearnedBloomFilter::Build(data.positives, data.negatives,
                                           options);
}

/// Weighted FPR averaged over `shuffles` reshuffled Zipf cost assignments
/// (theta == 0 runs once: costs are uniform).
template <typename BuildAndMeasure>
double AverageOverShuffles(Dataset& data, double theta, int shuffles,
                           BuildAndMeasure&& run) {
  if (theta == 0.0) {
    AssignZipfCosts(&data, 0.0, 0);
    return run(data);
  }
  double total = 0.0;
  for (int s = 0; s < shuffles; ++s) {
    AssignZipfCosts(&data, theta, 1000 + s);
    total += run(data);
  }
  return total / shuffles;
}

}  // namespace bench
}  // namespace habf
