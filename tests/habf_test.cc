// Unit and integration tests for the HABF core: zero FNR, collision-key
// optimization, weighted-FPR improvement over a standard filter, f-HABF,
// and TPJO bookkeeping.

#include "core/habf.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/sharded_filter.h"
#include "core/theory.h"
#include "eval/metrics.h"
#include "hashing/xxhash.h"
#include "workload/dataset.h"

namespace habf {
namespace {

Dataset SmallDataset(size_t pos, size_t neg, uint64_t seed = 11) {
  DatasetOptions options;
  options.num_positives = pos;
  options.num_negatives = neg;
  options.seed = seed;
  return GenerateShallaLike(options);
}

HabfOptions DefaultOptions(size_t total_bits) {
  HabfOptions options;
  options.total_bits = total_bits;
  return options;
}

TEST(HabfTest, ZeroFalseNegatives) {
  const Dataset data = SmallDataset(20000, 20000);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(20000 * 10));
  EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
}

TEST(HabfTest, OptimizesMostCollisionKeys) {
  const Dataset data = SmallDataset(20000, 20000);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(20000 * 10));
  const auto& stats = filter.stats();
  EXPECT_GT(stats.initial_collisions, 0u);
  EXPECT_GT(stats.optimized, stats.initial_collisions / 2)
      << "TPJO should resolve most collision keys at 10 bits/key";
  // The verification sweeps may pull in negatives that became round-2
  // false positives after queue-build time, so the resolved total can
  // slightly exceed the initial collision count — but never undershoot it.
  EXPECT_GE(stats.optimized + stats.failed, stats.initial_collisions);
  EXPECT_LE(stats.optimized + stats.failed,
            stats.initial_collisions + stats.num_negatives / 10);
}

TEST(HabfTest, SpanBuildIsBitIdenticalToVectorBuild) {
  // The vector overload is a thin view adapter over the span-based Build;
  // on identical inputs the two must produce the same filter, snapshot
  // bytes included.
  const Dataset data = SmallDataset(8000, 8000);
  const HabfOptions options = DefaultOptions(8000 * 10);
  const Habf from_vectors =
      Habf::Build(data.positives, data.negatives, options);

  const std::vector<std::string_view> pos_views = MakeKeyViews(data.positives);
  const std::vector<WeightedKeyView> neg_views =
      MakeWeightedKeyViews(data.negatives);
  const Habf from_spans =
      Habf::Build(StringSpan(pos_views.data(), pos_views.size()),
                  WeightedKeySpan(neg_views.data(), neg_views.size()),
                  options);

  std::string vector_bytes, span_bytes;
  from_vectors.Serialize(&vector_bytes);
  from_spans.Serialize(&span_bytes);
  EXPECT_EQ(vector_bytes, span_bytes);
  EXPECT_EQ(from_vectors.stats().optimized, from_spans.stats().optimized);
  for (const auto& wk : data.negatives) {
    ASSERT_EQ(from_vectors.Contains(wk.key), from_spans.Contains(wk.key));
  }
}

TEST(HabfTest, BeatsStandardBloomOnKnownNegatives) {
  const Dataset data = SmallDataset(20000, 20000);
  const size_t total_bits = 20000 * 10;
  const Habf habf =
      Habf::Build(data.positives, data.negatives, DefaultOptions(total_bits));

  GlobalHashProvider provider(22);
  std::vector<uint8_t> fns;
  for (size_t i = 0; i < OptimalNumHashes(10.0); ++i) {
    fns.push_back(static_cast<uint8_t>(i));
  }
  BloomFilter bf(total_bits, &provider, fns);
  for (const auto& key : data.positives) bf.Add(key);

  const double habf_fpr = MeasureWeightedFpr(habf, data.negatives);
  const double bf_fpr = MeasureWeightedFpr(bf, data.negatives);
  EXPECT_LT(habf_fpr, bf_fpr)
      << "HABF must beat BF on negatives it optimized against";
}

TEST(HabfTest, SecondRoundRescuesAdjustedPositives) {
  const Dataset data = SmallDataset(20000, 20000);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(20000 * 10));
  ASSERT_GT(filter.stats().adjusted_positives, 0u);
  // Some positive keys must fail round 1 (their hash moved) yet pass the
  // two-round query — that is the HashExpressor doing its job.
  size_t rescued = 0;
  for (const auto& key : data.positives) {
    if (!filter.ContainsFirstRound(key)) {
      EXPECT_TRUE(filter.Contains(key));
      ++rescued;
    }
  }
  EXPECT_GT(rescued, 0u);
  EXPECT_EQ(rescued, filter.stats().adjusted_positives);
}

TEST(HabfTest, FastVariantAlsoZeroFnr) {
  const Dataset data = SmallDataset(15000, 15000);
  HabfOptions options = DefaultOptions(15000 * 10);
  options.fast = true;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
}

TEST(HabfTest, FastVariantBetweenHabfAndBloom) {
  const Dataset data = SmallDataset(20000, 20000);
  const size_t total_bits = 20000 * 10;
  const Habf habf =
      Habf::Build(data.positives, data.negatives, DefaultOptions(total_bits));
  HabfOptions fast_options = DefaultOptions(total_bits);
  fast_options.fast = true;
  const Habf fhabf = Habf::Build(data.positives, data.negatives, fast_options);

  GlobalHashProvider provider(22);
  std::vector<uint8_t> fns;
  for (size_t i = 0; i < OptimalNumHashes(10.0); ++i) {
    fns.push_back(static_cast<uint8_t>(i));
  }
  BloomFilter bf(total_bits, &provider, fns);
  for (const auto& key : data.positives) bf.Add(key);

  const double fpr_habf = MeasureWeightedFpr(habf, data.negatives);
  const double fpr_fhabf = MeasureWeightedFpr(fhabf, data.negatives);
  const double fpr_bf = MeasureWeightedFpr(bf, data.negatives);
  EXPECT_LT(fpr_fhabf, fpr_bf);
  // f-HABF trades accuracy for speed; allow generous slack vs HABF.
  EXPECT_LT(fpr_habf, fpr_fhabf * 3.0 + 1e-4);
}

TEST(HabfTest, SkewedCostsPrioritizeExpensiveKeys) {
  Dataset data = SmallDataset(20000, 20000);
  AssignZipfCosts(&data, 1.0, 5);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(20000 * 8));
  // The most expensive negatives must essentially all be resolved: find the
  // top-100 costs and check them.
  std::vector<const WeightedKey*> sorted;
  for (const auto& wk : data.negatives) sorted.push_back(&wk);
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedKey* a, const WeightedKey* b) {
              return a->cost > b->cost;
            });
  size_t misidentified = 0;
  for (size_t i = 0; i < 100; ++i) {
    if (filter.Contains(sorted[i]->key)) ++misidentified;
  }
  EXPECT_LE(misidentified, 3u)
      << "high-cost negatives should be optimized first";
}

TEST(HabfTest, DeltaZeroDegeneratesToPlainBloom) {
  const Dataset data = SmallDataset(5000, 5000);
  HabfOptions options = DefaultOptions(5000 * 10);
  options.delta = 0.0;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
  // With (essentially) no HashExpressor, almost nothing can be adjusted.
  EXPECT_LE(filter.stats().adjusted_positives,
            filter.stats().initial_collisions);
}

TEST(HabfTest, StatsAreInternallyConsistent) {
  const Dataset data = SmallDataset(10000, 10000);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(10000 * 10));
  const auto& stats = filter.stats();
  EXPECT_EQ(stats.num_positives, 10000u);
  EXPECT_EQ(stats.num_negatives, 10000u);
  // Verification sweeps can add round-2 victims beyond the initial set.
  EXPECT_LE(stats.optimized, stats.num_negatives);
  EXPECT_GE(stats.optimized + stats.failed, stats.initial_collisions);
  EXPECT_GE(stats.final_fill, 0.0);
  EXPECT_LE(stats.final_fill, 1.0);
  EXPECT_NEAR(stats.final_fill, stats.initial_fill, 0.05)
      << "adjustments move bits one at a time; fill barely changes";
  EXPECT_GT(stats.construction_memory.TotalBytes(),
            filter.MemoryUsageBytes())
      << "construction needs V, Γ and key copies on top of the filter";
}

TEST(HabfTest, MemoryBudgetRespected) {
  const Dataset data = SmallDataset(5000, 5000);
  const size_t total_bits = 5000 * 12;
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(total_bits));
  // bit array + cell array together must not exceed the budget (padding to
  // whole words aside).
  EXPECT_LE(filter.MemoryUsageBytes(), total_bits / 8 + 64);
  // Δ = 0.25 → HashExpressor gets ~1/5 of the budget.
  const double he_fraction =
      static_cast<double>(filter.expressor().MemoryUsageBytes()) /
      static_cast<double>(filter.MemoryUsageBytes());
  EXPECT_NEAR(he_fraction, 0.2, 0.03);
}

TEST(HabfTest, UnknownKeysStillFprBounded) {
  // Keys from neither S nor O (not optimized against) see roughly the
  // standard BF FPR plus the HashExpressor term.
  const Dataset data = SmallDataset(20000, 20000);
  const Habf filter =
      Habf::Build(data.positives, data.negatives, DefaultOptions(20000 * 10));
  const Dataset strangers = SmallDataset(1, 50000, /*seed=*/999);
  size_t fp = 0;
  size_t probed = 0;
  for (const auto& wk : strangers.negatives) {
    ++probed;
    if (filter.Contains(wk.key)) ++fp;
  }
  const double fpr = static_cast<double>(fp) / static_cast<double>(probed);
  const double fbf = StandardBloomFpr(filter.options().k, 8.0);
  EXPECT_LT(fpr, fbf * 3 + 0.02);
}

TEST(HabfTest, DeterministicForFixedSeed) {
  const Dataset data = SmallDataset(5000, 5000);
  HabfOptions options = DefaultOptions(5000 * 10);
  options.seed = 77;
  const Habf a = Habf::Build(data.positives, data.negatives, options);
  const Habf b = Habf::Build(data.positives, data.negatives, options);
  EXPECT_EQ(a.stats().initial_collisions, b.stats().initial_collisions);
  EXPECT_EQ(a.stats().optimized, b.stats().optimized);
  EXPECT_EQ(a.stats().adjusted_positives, b.stats().adjusted_positives);
  for (int i = 0; i < 1000; ++i) {
    const std::string probe = "determinism-" + std::to_string(i);
    EXPECT_EQ(a.Contains(probe), b.Contains(probe));
  }
}

TEST(HabfTest, DoubleAdjustmentExercisedUnderContention) {
  // Contended setting (low bits/key, many collisions): the ξck-empty
  // failure mode occurs, so demotions must fire; the contract (zero FNR,
  // no meaningful accuracy regression) must hold. Note the global failed
  // count is NOT guaranteed to drop: a demotion helps its own (high-cost,
  // processed-first) key but consumes HashExpressor capacity that cheaper
  // keys later compete for.
  const Dataset data = SmallDataset(20000, 20000, /*seed=*/91);
  HabfOptions base = DefaultOptions(20000 * 6);
  const Habf plain = Habf::Build(data.positives, data.negatives, base);
  ASSERT_EQ(plain.stats().double_adjustments, 0u);

  HabfOptions extended = base;
  extended.allow_double_adjustment = true;
  const Habf doubled = Habf::Build(data.positives, data.negatives, extended);

  EXPECT_EQ(CountFalseNegatives(doubled, data.positives), 0u);
  EXPECT_GT(doubled.stats().double_adjustments, 0u)
      << "the contended workload must hit the ξck-empty path";
  const double plain_fpr = MeasureWeightedFpr(plain, data.negatives);
  const double doubled_fpr = MeasureWeightedFpr(doubled, data.negatives);
  EXPECT_LE(doubled_fpr, plain_fpr * 1.25 + 1e-4)
      << "extension must not meaningfully regress accuracy";
}

TEST(HabfTest, DoubleAdjustmentDeterministicAndSerializable) {
  const Dataset data = SmallDataset(5000, 5000);
  HabfOptions options = DefaultOptions(5000 * 8);
  options.allow_double_adjustment = true;
  const Habf a = Habf::Build(data.positives, data.negatives, options);
  const Habf b = Habf::Build(data.positives, data.negatives, options);
  EXPECT_EQ(a.stats().optimized, b.stats().optimized);
  std::string bytes;
  a.Serialize(&bytes);
  const auto restored = Habf::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  for (int i = 0; i < 500; ++i) {
    const std::string probe = "da-probe-" + std::to_string(i);
    EXPECT_EQ(a.Contains(probe), restored->Contains(probe));
  }
}

TEST(HabfTest, KClampedToUsableFamily) {
  const Dataset data = SmallDataset(2000, 2000);
  HabfOptions options = DefaultOptions(2000 * 10);
  options.cell_bits = 3;  // 3 usable functions
  options.k = 8;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  EXPECT_EQ(filter.options().k, 3u);
  EXPECT_EQ(filter.usable_functions(), 3u);
  EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
}

TEST(HabfTest, KClampedToSixteen) {
  // Wide cells address more functions than a key's subset arrays hold (127
  // under the double-hashing families, 22 under Table II): k stops at 16.
  const Dataset data = SmallDataset(2000, 2000);
  for (const HabfFamily family : {HabfFamily::kTableII,
                                  HabfFamily::kDoubleXxHash,
                                  HabfFamily::kOnePass}) {
    HabfOptions options = DefaultOptions(2000 * 40);
    options.family = family;
    options.cell_bits = 8;
    options.k = 40;
    const Habf filter = Habf::Build(data.positives, data.negatives, options);
    EXPECT_EQ(filter.options().k, 16u);
    EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
    std::vector<std::string_view> keys;
    for (const WeightedKey& wk : data.negatives) keys.push_back(wk.key);
    std::vector<uint8_t> out(keys.size());
    filter.ContainsBatch(KeySpan(keys.data(), keys.size()), out.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(out[i], filter.Contains(keys[i]) ? 1 : 0) << keys[i];
    }
  }
}

// --- pinned build output ---------------------------------------------------
//
// XxHash64 of the Serialize() bytes of fixed-seed builds. The builder is
// deterministic, and its construction-time indexes (V, the position
// tables, Γ) are bookkeeping only: a speedup of the build must leave every
// bit of the filter where it was. A change that moves one fails here by
// name. The digests of the paper's families (Table II, and double xxHash
// for f-HABF) were recorded before the builder cached key positions; their
// snapshots carry no family byte, so the bytes are the pre-family format.
// The OnePass* digests pin the default family.

template <typename F>
uint64_t SnapshotDigest(const F& filter) {
  std::string bytes;
  filter.Serialize(&bytes);
  return XxHash64(bytes.data(), bytes.size(), 0);
}

TEST(HabfBuildPin, DefaultOptions) {
  const Dataset data = SmallDataset(20000, 20000);
  HabfOptions options = DefaultOptions(20000 * 10);
  options.family = HabfFamily::kTableII;
  options.seed = 5;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_GT(filter.stats().optimized, 0u);
  EXPECT_EQ(SnapshotDigest(filter), 0x1E322FD612C0432DULL);
}

TEST(HabfBuildPin, DoubleAdjustment) {
  const Dataset data = SmallDataset(20000, 20000, /*seed=*/91);
  HabfOptions options = DefaultOptions(20000 * 6);
  options.family = HabfFamily::kTableII;
  options.allow_double_adjustment = true;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_GT(filter.stats().double_adjustments, 0u);
  EXPECT_EQ(SnapshotDigest(filter), 0xD932F81635E0CC27ULL);
}

TEST(HabfBuildPin, FastVariant) {
  const Dataset data = SmallDataset(20000, 20000);
  HabfOptions options = DefaultOptions(20000 * 10);
  options.fast = true;
  options.family = HabfFamily::kDoubleXxHash;
  options.seed = 9;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_GT(filter.stats().optimized, 0u);
  EXPECT_EQ(SnapshotDigest(filter), 0xB4008D5A9713ED73ULL);
}

TEST(HabfBuildPin, NarrowCellsWithClampedK) {
  const Dataset data = SmallDataset(20000, 20000);
  HabfOptions options = DefaultOptions(20000 * 10);
  options.family = HabfFamily::kTableII;
  options.cell_bits = 3;
  options.k = 8;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_EQ(filter.options().k, 3u);
  EXPECT_EQ(SnapshotDigest(filter), 0xF6E44293D2FC3990ULL);
}

TEST(HabfBuildPin, OnePassDefaultOptions) {
  const Dataset data = SmallDataset(20000, 20000);
  HabfOptions options = DefaultOptions(20000 * 10);
  options.seed = 5;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_EQ(filter.options().family, HabfFamily::kOnePass);
  ASSERT_GT(filter.stats().optimized, 0u);
  EXPECT_EQ(SnapshotDigest(filter), 0xFAD52CBBD0C6DA95ULL);
}

TEST(HabfBuildPin, OnePassFastVariant) {
  const Dataset data = SmallDataset(20000, 20000);
  HabfOptions options = DefaultOptions(20000 * 10);
  options.fast = true;
  options.seed = 9;
  const Habf filter = Habf::Build(data.positives, data.negatives, options);
  ASSERT_GT(filter.stats().optimized, 0u);
  EXPECT_EQ(SnapshotDigest(filter), 0x79E477B01FC7E755ULL);
}

TEST(HabfBuildPin, OnePassShardedTwoChoiceSameBytesOnOneAndFourThreads) {
  const Dataset data = SmallDataset(40000, 40000, /*seed=*/23);
  const HabfOptions options = DefaultOptions(40000 * 10);
  ShardedBuildOptions sharding;
  sharding.num_shards = 8;
  sharding.routing = RoutingMode::kTwoChoice;
  for (size_t threads : {1, 4}) {
    sharding.num_threads = threads;
    const ShardedFilter<Habf> filter =
        BuildShardedHabf(data.positives, data.negatives, options, sharding);
    EXPECT_EQ(SnapshotDigest(filter), 0xF3037AD4B3079420ULL)
        << threads << " threads";
  }
}

TEST(HabfBuildPin, ShardedTwoChoiceSameBytesOnOneAndFourThreads) {
  const Dataset data = SmallDataset(40000, 40000, /*seed=*/23);
  HabfOptions options = DefaultOptions(40000 * 10);
  options.family = HabfFamily::kTableII;
  ShardedBuildOptions sharding;
  sharding.num_shards = 8;
  sharding.routing = RoutingMode::kTwoChoice;
  for (size_t threads : {1, 4}) {
    sharding.num_threads = threads;
    const ShardedFilter<Habf> filter =
        BuildShardedHabf(data.positives, data.negatives, options, sharding);
    EXPECT_EQ(SnapshotDigest(filter), 0x7AA6033FA188CE8FULL)
        << threads << " threads";
  }
}

// --- argument checks ---------------------------------------------------------

TEST(HabfTest, BuildRejectsBloomSideOfTwoToThe32Bits) {
  // The builder indexes Bloom positions with 32-bit tables; a larger Bloom
  // side is refused before anything is allocated (empty key sets, so the
  // test itself allocates nothing large either).
  const std::vector<std::string> none;
  const std::vector<WeightedKey> no_negatives;
  HabfOptions options;
  options.delta = 0.0;  // one 4-bit cell; the Bloom side gets the rest
  options.total_bits = (size_t{1} << 32) + 4;  // Bloom side exactly 2^32
  EXPECT_THROW(Habf::Build(none, no_negatives, options),
               std::invalid_argument);
  options.delta = 0.25;
  options.total_bits = size_t{5} << 32;  // Bloom side 4 * 2^32 bits
  EXPECT_THROW(Habf::Build(none, no_negatives, options),
               std::invalid_argument);
  // The negatives' probe table holds HashExpressor entry cells too.
  options.delta = 1e6;
  options.cell_bits = 2;
  options.total_bits = size_t{1} << 34;  // ~2^33 cells, a tiny Bloom side
  EXPECT_THROW(Habf::Build(none, no_negatives, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace habf
