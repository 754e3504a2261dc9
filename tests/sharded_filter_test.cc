// Tests of the sharded filter subsystem (core/sharded_filter.h): build
// correctness across shard/thread counts, the differential guarantee that
// the shard-grouping batch path answers exactly like per-key routing, the
// single-shard equivalence with an unsharded build, snapshot round-trips,
// and concurrent readers sharing one sharded filter.

#include "core/sharded_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/filter_interface.h"
#include "core/habf.h"
#include "eval/metrics.h"
#include "workload/dataset.h"

namespace habf {
namespace {

constexpr size_t kKeys = 6000;
constexpr double kBitsPerKey = 10.0;

const Dataset& SharedData() {
  static const Dataset data = [] {
    DatasetOptions options;
    options.num_positives = kKeys;
    options.num_negatives = kKeys;
    options.seed = 4242;
    return GenerateShallaLike(options);
  }();
  return data;
}

HabfOptions BaseOptions() {
  HabfOptions options;
  options.total_bits = static_cast<size_t>(kBitsPerKey * kKeys);
  return options;
}

ShardedFilter<Habf> BuildSharded(size_t shards, size_t threads) {
  ShardedBuildOptions sharding;
  sharding.num_shards = shards;
  sharding.num_threads = threads;
  return BuildShardedHabf(SharedData().positives, SharedData().negatives,
                          BaseOptions(), sharding);
}

/// Adversarial query batches: empty batch, empty-string keys, duplicates,
/// an all-negative stream, and a mixed stream crossing shard boundaries.
std::vector<std::vector<std::string>> AdversarialBatches() {
  std::vector<std::vector<std::string>> batches;
  batches.push_back({});
  batches.push_back({""});
  batches.push_back({SharedData().positives[0]});

  std::vector<std::string> duplicates(41, SharedData().positives[3]);
  duplicates[7] = SharedData().negatives[11].key;
  duplicates[23] = "";
  batches.push_back(duplicates);

  std::vector<std::string> all_negative;
  for (size_t i = 0; i < 500; ++i) {
    all_negative.push_back("definitely-absent-" + std::to_string(i));
  }
  batches.push_back(all_negative);

  std::vector<std::string> mixed;
  for (size_t i = 0; i < 300; ++i) {
    mixed.push_back(i % 2 == 0 ? SharedData().positives[i]
                               : SharedData().negatives[i].key);
  }
  batches.push_back(mixed);
  return batches;
}

/// Batch answers must match per-key routing bit for bit, and the returned
/// count must equal the written 1 bytes.
template <typename Filter>
void ExpectBatchMatchesScalar(const Filter& filter) {
  for (const auto& batch : AdversarialBatches()) {
    std::vector<std::string_view> keys(batch.begin(), batch.end());
    std::vector<uint8_t> out(batch.size() + 1, 0xAB);  // +1 canary slot
    const size_t positives =
        filter.ContainsBatch(KeySpan(keys.data(), keys.size()), out.data());
    size_t written_ones = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const uint8_t expected = filter.MightContain(keys[i]) ? 1 : 0;
      EXPECT_EQ(out[i], expected) << "key " << i << " of " << keys.size();
      written_ones += out[i];
    }
    EXPECT_EQ(positives, written_ones);
    EXPECT_EQ(out[batch.size()], 0xAB) << "wrote past the batch";
  }
}

TEST(ShardedFilterTest, ZeroFalseNegativesAcrossShardCounts) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{7}}) {
    const auto filter = BuildSharded(shards, 2);
    EXPECT_EQ(filter.num_shards(), shards);
    EXPECT_EQ(CountFalseNegatives(filter, SharedData().positives), 0u)
        << shards << " shards";
  }
}

TEST(ShardedFilterTest, BatchMatchesScalarOnAdversarialBatches) {
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    ExpectBatchMatchesScalar(BuildSharded(shards, 2));
  }
}

TEST(ShardedFilterTest, SingleShardAnswersExactlyLikeUnsharded) {
  const Habf unsharded = Habf::Build(SharedData().positives,
                                     SharedData().negatives, BaseOptions());
  const auto sharded = BuildSharded(1, 1);
  for (const auto& key : SharedData().positives) {
    ASSERT_TRUE(sharded.MightContain(key));
  }
  for (const auto& wk : SharedData().negatives) {
    EXPECT_EQ(unsharded.Contains(wk.key), sharded.MightContain(wk.key))
        << wk.key;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string probe = "probe-" + std::to_string(i);
    EXPECT_EQ(unsharded.Contains(probe), sharded.MightContain(probe));
  }
}

TEST(ShardedFilterTest, ThreadCountDoesNotChangeTheFilter) {
  // The build is deterministic per shard, so worker scheduling must not
  // change any answer.
  const auto serial = BuildSharded(4, 1);
  const auto parallel = BuildSharded(4, 4);
  for (const auto& wk : SharedData().negatives) {
    EXPECT_EQ(serial.MightContain(wk.key), parallel.MightContain(wk.key));
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string probe = "sched-probe-" + std::to_string(i);
    EXPECT_EQ(serial.MightContain(probe), parallel.MightContain(probe));
  }
}

TEST(ShardedFilterTest, WeightedFprComparableToUnsharded) {
  const Habf unsharded = Habf::Build(SharedData().positives,
                                     SharedData().negatives, BaseOptions());
  const auto sharded = BuildSharded(4, 2);
  const double fpr_unsharded =
      MeasureWeightedFpr(unsharded, SharedData().negatives);
  const double fpr_sharded =
      MeasureWeightedFpr(sharded, SharedData().negatives);
  // Sharding keeps bits-per-key, so the optimized-away weighted FPR must
  // stay in the same regime (generous factor: shards are smaller filters).
  EXPECT_LE(fpr_sharded, fpr_unsharded * 3 + 0.02)
      << "unsharded=" << fpr_unsharded << " sharded=" << fpr_sharded;
}

TEST(ShardedFilterTest, FilterRefAndQueryBatchInterop) {
  const auto filter = BuildSharded(3, 2);
  const FilterRef ref(filter);
  EXPECT_EQ(ref.MemoryUsageBytes(), filter.MemoryUsageBytes());
  EXPECT_STREQ(ref.Name(), "sharded-habf");
  std::vector<std::string_view> keys;
  for (size_t i = 0; i < 64; ++i) keys.push_back(SharedData().positives[i]);
  std::vector<uint8_t> out(keys.size());
  EXPECT_EQ(ref.ContainsBatch(KeySpan(keys.data(), keys.size()), out.data()),
            keys.size());
}

TEST(ShardedFilterTest, ApportionShardBitsSumsExactly) {
  // Largest-remainder apportionment: per-shard budgets sum exactly to the
  // global budget (regression: the old floor-truncating split undershot by
  // up to S-1 bits, and the empty-shard floor overshot without rebalancing).
  const std::vector<std::vector<size_t>> weight_sets = {
      {1, 1, 1},              // even
      {1000, 1, 1, 1},        // heavily skewed
      {7, 0, 13, 0, 1},       // empty shards
      {0, 0, 0, 0},           // no positives anywhere
      {123456789, 1, 98765},  // large + tiny
  };
  const std::vector<size_t> totals = {640, 1001, 65536, 100003,
                                      (size_t{1} << 30) + 17};
  for (const auto& weights : weight_sets) {
    for (size_t total : totals) {
      const std::vector<size_t> bits = ApportionShardBits(total, weights);
      ASSERT_EQ(bits.size(), weights.size());
      size_t sum = 0;
      for (size_t b : bits) {
        EXPECT_GE(b, 64u);
        sum += b;
      }
      const size_t expected = std::max(total, size_t{64} * weights.size());
      EXPECT_EQ(sum, expected)
          << "total=" << total << " shards=" << weights.size();
    }
  }
  // Proportionality: a shard with 1000x the weight gets the lion's share.
  const auto skew = ApportionShardBits(100000, {1000, 1, 1, 1});
  EXPECT_GT(skew[0], 99000u);
}

TEST(ShardedFilterTest, ApportionRebalancesFloorFromRichestShard) {
  // One giant shard, three empty ones: the empty shards' 64-bit floors must
  // come out of the giant's allocation, keeping the sum exact.
  const auto bits = ApportionShardBits(10000, {42, 0, 0, 0});
  EXPECT_EQ(bits[0], 10000u - 3 * 64u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 64u);
  EXPECT_EQ(bits[3], 64u);
  // Budget below the floors: sum degrades to floor * S, never less.
  const auto floored = ApportionShardBits(100, {5, 5, 5});
  EXPECT_EQ(floored, (std::vector<size_t>{64, 64, 64}));
}

TEST(ShardedFilterTest, ShardBudgetsSumToGlobalBudget) {
  for (size_t shards : {size_t{2}, size_t{5}, size_t{8}}) {
    const auto filter = BuildSharded(shards, 2);
    size_t sum = 0;
    for (size_t s = 0; s < filter.num_shards(); ++s) {
      sum += filter.shard(s).options().total_bits;
    }
    EXPECT_EQ(sum, BaseOptions().total_bits) << shards << " shards";
  }
}

TEST(ShardedFilterTest, SpanBuildIsBitIdenticalToVectorBuild) {
  // The zero-copy span overload and the owning-vector adapter must produce
  // the same sharded filter, snapshot bytes included.
  ShardedBuildOptions sharding;
  sharding.num_shards = 5;
  sharding.num_threads = 2;
  const auto from_vectors = BuildShardedHabf(
      SharedData().positives, SharedData().negatives, BaseOptions(), sharding);

  const std::vector<std::string_view> pos_views =
      MakeKeyViews(SharedData().positives);
  const std::vector<WeightedKeyView> neg_views =
      MakeWeightedKeyViews(SharedData().negatives);
  const auto from_spans = BuildShardedHabf(
      StringSpan(pos_views.data(), pos_views.size()),
      WeightedKeySpan(neg_views.data(), neg_views.size()), BaseOptions(),
      sharding);

  std::string vector_bytes, span_bytes;
  from_vectors.Serialize(&vector_bytes);
  from_spans.Serialize(&span_bytes);
  EXPECT_EQ(vector_bytes, span_bytes);
}

TEST(ShardedFilterTest, MoreShardsThanPositiveKeys) {
  // Degenerate sharding: 7 shards over 3 positives leaves most shards with
  // an empty build set. Build → query → snapshot round trip must all hold.
  const std::vector<std::string> positives = {"alpha", "beta", "gamma"};
  const std::vector<WeightedKey> negatives = {{"delta", 5.0}, {"epsilon", 1.0}};
  HabfOptions options;
  options.total_bits = 4096;  // >= 64 * 7, so the budget sum stays exact
  ShardedBuildOptions sharding;
  sharding.num_shards = 7;
  sharding.num_threads = 2;
  const auto filter =
      BuildShardedHabf(positives, negatives, options, sharding);
  EXPECT_EQ(filter.num_shards(), 7u);
  size_t budget_sum = 0;
  for (size_t s = 0; s < filter.num_shards(); ++s) {
    budget_sum += filter.shard(s).options().total_bits;
  }
  EXPECT_EQ(budget_sum, options.total_bits);
  for (const auto& key : positives) {
    EXPECT_TRUE(filter.MightContain(key)) << key;
  }
  ExpectBatchMatchesScalar(filter);

  std::string bytes;
  filter.Serialize(&bytes);
  const auto restored = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_shards(), 7u);
  for (const auto& key : positives) {
    EXPECT_TRUE(restored->MightContain(key)) << key;
  }
  for (int i = 0; i < 500; ++i) {
    const std::string probe = "degen-probe-" + std::to_string(i);
    EXPECT_EQ(filter.MightContain(probe), restored->MightContain(probe));
  }
}

TEST(ShardedFilterTest, SnapshotRoundTripPreservesEveryAnswer) {
  const auto original = BuildSharded(4, 2);
  std::string bytes;
  original.Serialize(&bytes);
  const auto restored = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_shards(), original.num_shards());
  EXPECT_EQ(restored->salt(), original.salt());
  for (const auto& key : SharedData().positives) {
    ASSERT_TRUE(restored->MightContain(key)) << key;
  }
  for (const auto& wk : SharedData().negatives) {
    EXPECT_EQ(original.MightContain(wk.key), restored->MightContain(wk.key));
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string probe = "snap-probe-" + std::to_string(i);
    EXPECT_EQ(original.MightContain(probe), restored->MightContain(probe));
  }
}

TEST(ShardedFilterTest, SnapshotCorruptionRejected) {
  const auto original = BuildSharded(3, 1);
  std::string bytes;
  original.Serialize(&bytes);

  std::string bad = bytes;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(bad).has_value());

  bad = bytes;
  bad[4] ^= 0x01;  // version
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(bad).has_value());

  for (size_t cut : {size_t{0}, size_t{7}, size_t{17}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(
                     std::string_view(bytes).substr(0, cut))
                     .has_value())
        << "cut=" << cut;
  }

  // Trailing garbage must be rejected, not silently ignored.
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(bytes + "x").has_value());

  // A hostile shard count cannot trigger a huge reserve: the count field is
  // right after magic+version+salt.
  bad = bytes;
  bad[16] = static_cast<char>(0xFF);
  bad[17] = static_cast<char>(0xFF);
  bad[18] = static_cast<char>(0xFF);
  bad[19] = static_cast<char>(0xFF);
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(bad).has_value());
}

TEST(ShardedFilterTest, BuilderClampsShardCountToSnapshotBound) {
  // A shard count beyond what Deserialize accepts would produce a filter
  // that saves but can never load; the builder clamps instead.
  std::vector<std::string> positives;
  for (int i = 0; i < 100; ++i) positives.push_back("c-" + std::to_string(i));
  HabfOptions options;
  options.total_bits = size_t{64} * (kMaxSnapshotShards + 16);
  ShardedBuildOptions sharding;
  sharding.num_shards = kMaxSnapshotShards + 10;
  sharding.num_threads = 1;
  const auto filter = BuildShardedHabf(positives, {}, options, sharding);
  EXPECT_EQ(filter.num_shards(), kMaxSnapshotShards);
  std::string bytes;
  filter.Serialize(&bytes);
  const auto restored = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_shards(), kMaxSnapshotShards);
  for (const auto& key : positives) EXPECT_TRUE(restored->MightContain(key));
}

TEST(ShardedFilterTest, FileRoundTrip) {
  const auto original = BuildSharded(2, 2);
  const std::string path =
      ::testing::TempDir() + "sharded_filter_test.habf";
  ASSERT_TRUE(original.SaveToFile(path));
  const auto restored = ShardedFilter<Habf>::LoadFromFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_shards(), 2u);
  std::remove(path.c_str());
  EXPECT_FALSE(
      ShardedFilter<Habf>::LoadFromFile(path + ".missing").has_value());
}

TEST(ShardedFilterTest, ConcurrentReadersSeeConsistentAnswers) {
  const auto filter = BuildSharded(4, 2);

  std::vector<std::string_view> keys;
  for (const auto& key : SharedData().positives) keys.push_back(key);
  for (const auto& wk : SharedData().negatives) keys.push_back(wk.key);

  std::vector<uint8_t> expected(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    expected[i] = filter.MightContain(keys[i]) ? 1 : 0;
  }

  constexpr size_t kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t batch_size = 16 * (t + 1) + t;  // staggered block edges
      std::vector<uint8_t> out(batch_size);
      for (int round = 0; round < kRounds; ++round) {
        if ((static_cast<size_t>(round) + t) % 2 == 0) {
          for (size_t base = 0; base < keys.size(); base += batch_size) {
            const size_t count = keys.size() - base < batch_size
                                     ? keys.size() - base
                                     : batch_size;
            filter.ContainsBatch(KeySpan(keys.data() + base, count),
                                 out.data());
            for (size_t i = 0; i < count; ++i) {
              if (out[i] != expected[base + i]) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        } else {
          for (size_t i = 0; i < keys.size(); ++i) {
            if ((filter.MightContain(keys[i]) ? 1 : 0) != expected[i]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// --- two-choice routing (DESIGN.md §6) --------------------------------------

ShardedFilter<Habf> BuildTwoChoice(size_t shards, size_t threads) {
  ShardedBuildOptions sharding;
  sharding.num_shards = shards;
  sharding.num_threads = threads;
  sharding.routing = RoutingMode::kTwoChoice;
  return BuildShardedHabf(SharedData().positives, SharedData().negatives,
                          BaseOptions(), sharding);
}

uint32_t SnapshotMagic(const ShardedFilter<Habf>& filter) {
  std::string bytes;
  filter.Serialize(&bytes);
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  return magic;
}

TEST(ShardedFilterTest, TwoChoiceZeroFalseNegativesAndBatchMatchesScalar) {
  for (size_t shards : {size_t{2}, size_t{4}, size_t{7}}) {
    const auto filter = BuildTwoChoice(shards, 2);
    EXPECT_EQ(filter.routing(), RoutingMode::kTwoChoice);
    EXPECT_EQ(CountFalseNegatives(filter, SharedData().positives), 0u)
        << shards << " shards";
    ExpectBatchMatchesScalar(filter);
  }
}

TEST(ShardedFilterTest, TwoChoiceDirectoryInvariantsOnBuiltFilter) {
  const auto filter = BuildTwoChoice(4, 2);
  const RoutingDirectory& directory = filter.directory();
  ASSERT_EQ(directory.num_buckets(), kDefaultRoutingBuckets);
  ASSERT_EQ(directory.num_shards(), 4u);
  for (const uint16_t shard : directory.bucket_to_shard) {
    ASSERT_LT(shard, 4u);
  }
  // The routed weight must be exactly the build set's: 1.0 per positive
  // plus every negative's cost (SharedData costs are all 1.0).
  double total = 0.0;
  for (const double w : directory.shard_weights) total += w;
  EXPECT_NEAR(total, static_cast<double>(2 * kKeys), 1e-6 * kKeys);
  // Every key must be served by the shard its bucket names — ShardOf and
  // the build partition agree (zero false negatives already implies the
  // build routed positives the same way; check the mapping directly too).
  for (size_t i = 0; i < 200; ++i) {
    const std::string& key = SharedData().positives[i];
    EXPECT_EQ(filter.ShardOf(key),
              directory.bucket_to_shard[RoutingBucketOfKey(
                  key, filter.salt(), directory.num_buckets())]);
  }
}

TEST(ShardedFilterTest, TwoChoiceThreadCountDoesNotChangeTheFilter) {
  const auto serial = BuildTwoChoice(4, 1);
  const auto parallel = BuildTwoChoice(4, 4);
  std::string serial_bytes, parallel_bytes;
  serial.Serialize(&serial_bytes);
  parallel.Serialize(&parallel_bytes);
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

TEST(ShardedFilterTest, TwoChoiceSnapshotRoundTripsBitIdentically) {
  const auto original = BuildTwoChoice(4, 2);
  // The writer is the sectioned HBF1 container (DESIGN.md §10).
  EXPECT_EQ(SnapshotMagic(original), kContainerMagic);

  std::string bytes;
  original.Serialize(&bytes);
  const auto restored = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->routing(), RoutingMode::kTwoChoice);
  EXPECT_EQ(restored->directory().bucket_to_shard,
            original.directory().bucket_to_shard);
  EXPECT_EQ(restored->directory().shard_weights,
            original.directory().shard_weights);

  // Load → save must reproduce the exact bytes (no lossy field).
  std::string reserialized;
  restored->Serialize(&reserialized);
  EXPECT_EQ(reserialized, bytes);

  for (const auto& key : SharedData().positives) {
    ASSERT_TRUE(restored->MightContain(key)) << key;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string probe = "shr2-probe-" + std::to_string(i);
    EXPECT_EQ(original.MightContain(probe), restored->MightContain(probe));
  }
}

TEST(ShardedFilterTest, TwoChoiceMatchesUniformGuaranteesAtZeroSkew) {
  // At zero skew (all SharedData costs are 1.0) the routing policy changes
  // *which* shard serves a key, never the FPR-side guarantees: identical
  // global bit budget, zero false negatives, and a weighted FPR in the same
  // regime (shard membership shifts individual collisions, so bit-equality
  // is not expected).
  const auto uniform = BuildSharded(4, 2);
  const auto two_choice = BuildTwoChoice(4, 2);
  size_t uniform_bits = 0;
  size_t two_choice_bits = 0;
  for (size_t s = 0; s < 4; ++s) {
    uniform_bits += uniform.shard(s).options().total_bits;
    two_choice_bits += two_choice.shard(s).options().total_bits;
  }
  EXPECT_EQ(uniform_bits, two_choice_bits);
  EXPECT_EQ(CountFalseNegatives(uniform, SharedData().positives), 0u);
  EXPECT_EQ(CountFalseNegatives(two_choice, SharedData().positives), 0u);
  const double fpr_uniform =
      MeasureWeightedFpr(uniform, SharedData().negatives);
  const double fpr_two_choice =
      MeasureWeightedFpr(two_choice, SharedData().negatives);
  EXPECT_LE(fpr_two_choice, fpr_uniform * 3 + 0.02)
      << "uniform=" << fpr_uniform << " two-choice=" << fpr_two_choice;
  EXPECT_LE(fpr_uniform, fpr_two_choice * 3 + 0.02)
      << "uniform=" << fpr_uniform << " two-choice=" << fpr_two_choice;
}

TEST(ShardedFilterTest, TwoChoiceSingleShardBuildsNoDirectory) {
  // With one shard routing is irrelevant: no directory is built, and the
  // snapshot carries no RDIR section.
  ShardedBuildOptions sharding;
  sharding.num_shards = 1;
  sharding.num_threads = 1;
  sharding.routing = RoutingMode::kTwoChoice;
  const auto filter = BuildShardedHabf(
      SharedData().positives, SharedData().negatives, BaseOptions(), sharding);
  EXPECT_EQ(filter.routing(), RoutingMode::kUniform);
  EXPECT_TRUE(filter.directory().empty());
  std::string bytes;
  filter.Serialize(&bytes);
  const std::optional<SectionReader> container = SectionReader::Parse(bytes);
  ASSERT_TRUE(container.has_value());
  EXPECT_FALSE(container->Find(kShardedRoutingTag).has_value());
}

TEST(ShardedFilterTest, RoutingBucketCountClampedToShardCount) {
  // Fewer buckets than shards would leave shards unreachable; the builder
  // raises the bucket count to the shard count.
  ShardedBuildOptions sharding;
  sharding.num_shards = 5;
  sharding.num_threads = 1;
  sharding.routing = RoutingMode::kTwoChoice;
  sharding.num_routing_buckets = 2;
  const auto filter = BuildShardedHabf(
      SharedData().positives, SharedData().negatives, BaseOptions(), sharding);
  EXPECT_EQ(filter.directory().num_buckets(), 5u);
  EXPECT_EQ(CountFalseNegatives(filter, SharedData().positives), 0u);
  ExpectBatchMatchesScalar(filter);
}

TEST(ShardedFilterTest, MoveCarriesRoutingDirectory) {
  auto filter = BuildTwoChoice(3, 1);
  const std::vector<uint16_t> expected = filter.directory().bucket_to_shard;
  const ShardedFilter<Habf> moved = std::move(filter);
  EXPECT_EQ(moved.routing(), RoutingMode::kTwoChoice);
  EXPECT_EQ(moved.directory().bucket_to_shard, expected);
  EXPECT_EQ(CountFalseNegatives(moved, SharedData().positives), 0u);
}

}  // namespace
}  // namespace habf
