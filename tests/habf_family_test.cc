// The HABF hash families (DESIGN.md §3): Table II, double hashing over two
// xxHash64 digests, and the one-pass digest family new builds default to.
// For every family the batched query must answer exactly what the
// key-based APIs answer, the one-pass family must keep Table II's accuracy,
// and the family must survive persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/habf.h"
#include "eval/metrics.h"
#include "util/serde.h"
#include "workload/dataset.h"

namespace habf {
namespace {

constexpr HabfFamily kFamilies[] = {HabfFamily::kTableII,
                                    HabfFamily::kDoubleXxHash,
                                    HabfFamily::kOnePass};

Dataset MakeData(size_t n, uint64_t seed) {
  DatasetOptions options;
  options.num_positives = n;
  options.num_negatives = n;
  options.seed = seed;
  Dataset data = GenerateShallaLike(options);
  AssignZipfCosts(&data, 1.0, seed);
  return data;
}

HabfOptions Options(HabfFamily family, size_t total_bits, uint64_t seed) {
  HabfOptions options;
  options.total_bits = total_bits;
  options.family = family;
  options.seed = seed;
  return options;
}

/// The replay perfbench's traced backend runs: round 1 through
/// BloomFilter::TestBatchWith with H0, round 2 through the key-based
/// HashExpressor::Query and BloomFilter::TestWith.
std::vector<uint8_t> ReplayKeyBased(const Habf& filter, KeySpan keys) {
  std::vector<uint8_t> out(keys.size());
  const size_t k = filter.h0().size();
  filter.bloom().TestBatchWith(keys, filter.h0().data(), k, out.data());
  uint8_t fns[16];
  for (size_t i = 0; i < keys.size(); ++i) {
    if (out[i]) continue;
    out[i] = filter.expressor().Query(keys[i], fns, k) &&
             filter.bloom().TestWith(keys[i], fns, k);
  }
  return out;
}

TEST(HabfFamilyTest, BatchEqualsKeyBasedPathsForEveryFamily) {
  const Dataset data = MakeData(6000, 3);
  // Members, known negatives (about half reach round 2 and some pass it)
  // and unseen keys, interleaved.
  std::vector<std::string> probes;
  for (size_t i = 0; i < data.positives.size(); ++i) {
    probes.push_back(data.positives[i]);
    probes.push_back(data.negatives[i].key);
    probes.push_back("unseen-" + std::to_string(i));
  }
  const std::vector<std::string_view> views(probes.begin(), probes.end());
  for (const HabfFamily family : kFamilies) {
    for (const bool fast : {false, true}) {
      HabfOptions options = Options(family, 6000 * 8, 17);
      options.fast = fast;
      const Habf filter = Habf::Build(data.positives, data.negatives, options);
      ASSERT_EQ(filter.options().family, family);
      ASSERT_GT(filter.stats().adjusted_positives, 0u);
      EXPECT_EQ(CountFalseNegatives(filter, data.positives), 0u);
      const std::vector<uint8_t> replay =
          ReplayKeyBased(filter, KeySpan(views.data(), views.size()));
      size_t round2_hits = 0;
      for (const size_t n : {0, 1, 31, 32, 33, 1000}) {
        // Batches start at varied offsets so every block position sees
        // members, negatives and unseen keys.
        for (size_t start = 0; start + n <= views.size();
             start += std::max<size_t>(n, 1) * 7 + 5) {
          std::vector<uint8_t> out(n + 1, 0xAB);
          const size_t positives = filter.ContainsBatch(
              KeySpan(views.data() + start, n), out.data());
          EXPECT_EQ(out[n], 0xAB) << "wrote past the batch";
          size_t expected_positives = 0;
          for (size_t i = 0; i < n; ++i) {
            const std::string_view key = views[start + i];
            ASSERT_EQ(out[i], filter.Contains(key) ? 1 : 0)
                << HabfFamilyName(family) << " fast=" << fast << " " << key;
            ASSERT_EQ(out[i], replay[start + i]) << key;
            expected_positives += out[i];
            round2_hits += out[i] && !filter.ContainsFirstRound(key);
          }
          EXPECT_EQ(positives, expected_positives);
          if (n == 0) break;
        }
      }
      // Round 2 answered some keys, so the walk's digest reuse was tested.
      EXPECT_GT(round2_hits, 0u) << HabfFamilyName(family);
      std::vector<uint8_t> members(data.positives.size());
      const std::vector<std::string_view> member_views(data.positives.begin(),
                                                       data.positives.end());
      EXPECT_EQ(filter.ContainsBatch(
                    KeySpan(member_views.data(), member_views.size()),
                    members.data()),
                data.positives.size());
    }
  }
}

TEST(HabfFamilyTest, EntryCellAndWalkOfOnePassDeriveFromTheDigest) {
  const OnePassHashProvider provider(7, 5);
  const HashExpressor expressor(1009, 4, &provider, 0x1234);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const HashDigests d = provider.DigestsOf(key);
    EXPECT_EQ(d.h2 & 1u, 1u);
    EXPECT_EQ(expressor.EntryCell(key),
              expressor.CellOf(OnePassHashProvider::EntryValueOf(d, 0x1234)));
    for (size_t fn = 0; fn < 7; ++fn) {
      EXPECT_EQ(provider.Value(key, fn), d.Value(fn));
    }
  }
}

/// Median of `values` (destroys the order).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

TEST(HabfFamilyTest, OnePassMatchesTableIIAccuracyOverTenSeeds) {
  std::vector<double> weighted_ratio;
  std::vector<double> unseen_ratio;
  std::vector<std::string> unseen;
  for (int i = 0; i < 20000; ++i) unseen.push_back("unseen-" + std::to_string(i));
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Dataset data = MakeData(10000, 100 + seed);
    double weighted[2];
    double unseen_fpr[2];
    int slot = 0;
    for (const HabfFamily family :
         {HabfFamily::kTableII, HabfFamily::kOnePass}) {
      const Habf filter = Habf::Build(data.positives, data.negatives,
                                      Options(family, 10000 * 8, seed));
      ASSERT_EQ(CountFalseNegatives(filter, data.positives), 0u);
      weighted[slot] = MeasureWeightedFpr(filter, data.negatives);
      size_t hits = 0;
      for (const std::string& key : unseen) hits += filter.Contains(key);
      unseen_fpr[slot] = static_cast<double>(hits) / unseen.size();
      ++slot;
    }
    ASSERT_GT(weighted[0], 0.0) << "seed " << seed;
    ASSERT_GT(unseen_fpr[0], 0.0) << "seed " << seed;
    weighted_ratio.push_back(weighted[1] / weighted[0]);
    unseen_ratio.push_back(unseen_fpr[1] / unseen_fpr[0]);
  }
  EXPECT_LE(Median(weighted_ratio), 1.25);
  EXPECT_LE(Median(unseen_ratio), 1.25);
}

// --- persistence --------------------------------------------------------------

TEST(HabfFamilyTest, SnapshotRoundTripPreservesTheFamily) {
  const Dataset data = MakeData(3000, 9);
  for (const HabfFamily family : kFamilies) {
    for (const bool fast : {false, true}) {
      HabfOptions options = Options(family, 3000 * 10, 4);
      options.fast = fast;
      const Habf filter = Habf::Build(data.positives, data.negatives, options);
      std::string bytes;
      filter.Serialize(&bytes);
      const std::optional<Habf> restored = Habf::Deserialize(bytes);
      ASSERT_TRUE(restored.has_value()) << HabfFamilyName(family);
      EXPECT_EQ(restored->options().family, family);
      EXPECT_EQ(restored->options().fast, fast);
      for (const WeightedKey& wk : data.negatives) {
        ASSERT_EQ(restored->Contains(wk.key), filter.Contains(wk.key));
      }
      // A family the fast flag implies is written without the byte, so the
      // snapshot is in the pre-family format.
      const std::optional<SectionReader> container =
          SectionReader::Parse(bytes);
      ASSERT_TRUE(container.has_value());
      HabfOptions parsed;
      parsed.fast = fast;
      BinaryReader reader(*container->Find(FourCc("OPTS")));
      reader.ReadU64();
      reader.ReadDouble();
      reader.ReadU64();
      reader.ReadU8();
      reader.ReadU8();
      reader.ReadU64();
      reader.ReadBytes();
      reader.ReadU64();
      reader.ReadU64();
      EXPECT_EQ(reader.remaining(),
                family == LegacyHabfFamily(fast) ? 0u : 1u);
    }
  }
}

/// `bytes` (an Habf HBF1 snapshot) with the last byte of its OPTS section
/// replaced by `family_byte`, re-framed with valid CRCs.
std::string WithFamilyByte(const std::string& bytes, uint8_t family_byte) {
  const std::optional<SectionReader> container = SectionReader::Parse(bytes);
  std::string out;
  SectionWriter writer(&out, container->content_tag());
  for (const SectionReader::Section& section : container->sections()) {
    std::string payload(bytes.data() + section.payload_offset,
                        section.length);
    if (section.tag == FourCc("OPTS")) payload.back() = static_cast<char>(family_byte);
    writer.AddSection(section.tag, payload);
  }
  writer.Finish();
  return out;
}

TEST(HabfFamilyTest, UnknownFamilyByteIsRejected) {
  const Dataset data = MakeData(2000, 5);
  const Habf filter = Habf::Build(data.positives, data.negatives,
                                  Options(HabfFamily::kOnePass, 20000, 1));
  std::string bytes;
  filter.Serialize(&bytes);
  // The re-framing itself is faithful: the valid byte loads.
  EXPECT_TRUE(Habf::Deserialize(WithFamilyByte(bytes, 2)).has_value());
  for (const uint8_t bad : {3, 7, 0x80, 0xFF}) {
    EXPECT_FALSE(Habf::Deserialize(WithFamilyByte(bytes, bad)).has_value())
        << int{bad};
  }
}

TEST(HabfFamilyTest, DynamicCheckpointKeepsTheFamily) {
  const std::string dir = ::testing::TempDir() + "habf_family_dynamic";
  RemoveWalFilesBelow(dir, ~uint64_t{0});
  std::vector<std::string> keys;
  for (int i = 0; i < 500; ++i) keys.push_back("member-" + std::to_string(i));
  HabfOptions options = Options(HabfFamily::kOnePass, 1 << 14, 3);
  options.fast = true;
  ShardedBuildOptions sharding;
  sharding.num_shards = 2;
  sharding.num_threads = 1;
  {
    DynamicShardedHabf filter(keys, {}, options, sharding);
    std::string error;
    ASSERT_TRUE(filter.EnableDurability(dir, &error)) << error;
    ASSERT_TRUE(filter.Insert("late-member"));
  }
  std::string error;
  const auto reopened = DynamicShardedHabf::Open(dir, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->base_options().family, HabfFamily::kOnePass);
  EXPECT_TRUE(reopened->base_options().fast);
  EXPECT_TRUE(reopened->MightContain("late-member"));
  for (const std::string& key : keys) EXPECT_TRUE(reopened->MightContain(key));
}

}  // namespace
}  // namespace habf
