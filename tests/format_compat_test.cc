// Golden-fixture compatibility gate (ctest label `format_compat`).
//
// Small legacy-format snapshots are committed under tests/data/ next to the
// exact key lists they were built from. Nothing writes these formats any
// more; these tests prove the read-only SHRD / SHR2 / HABF / XORF readers
// load those bytes FOREVER: each fixture deserializes, answers every
// fixture key, and migrates to HBF1 with identical answers on members and
// non-members alike. Any change that breaks one of these assertions is a
// format break, not a refactor. The fixtures cannot be regenerated: they
// are the format contract.

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bloom/xor_filter.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "util/serde.h"

#ifndef HABF_TEST_DATA_DIR
#error "format_compat_test requires the HABF_TEST_DATA_DIR compile definition"
#endif

namespace habf {
namespace {

/// Loads `<stem>.snapshot` and `<stem>.keys` from tests/data/.
void LoadFixture(const std::string& stem, std::string* bytes,
                 std::vector<std::string>* keys) {
  const std::string base = std::string(HABF_TEST_DATA_DIR) + "/" + stem;
  ASSERT_TRUE(ReadFileBytes(base + ".snapshot", bytes))
      << "missing fixture " << base << ".snapshot";
  std::ifstream in(base + ".keys");
  ASSERT_TRUE(in.good()) << "missing fixture key list " << base << ".keys";
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) keys->push_back(line);
  }
  ASSERT_FALSE(keys->empty());
  EXPECT_FALSE(SectionReader::LooksLikeContainer(*bytes));
}

uint32_t MagicOf(const std::string& bytes) {
  return BinaryReader(bytes).ReadU32();
}

/// Loads the legacy bytes with F::Deserialize, checks every fixture key is
/// a member, then migrates to HBF1 and checks the migrated filter answers
/// identically — fixture keys plus non-member probes — and re-serializes to
/// the same HBF1 bytes.
template <typename F>
void ExpectLoadsAndMigrates(const std::string& bytes,
                            const std::vector<std::string>& keys) {
  const std::optional<F> filter = F::Deserialize(bytes);
  ASSERT_TRUE(filter.has_value());
  std::vector<std::string> probes = keys;
  for (const auto& key : keys) {
    EXPECT_TRUE(filter->MightContain(key)) << key;
  }
  for (int i = 0; i < 2048; ++i) {
    probes.push_back("compat-probe-" + std::to_string(i));
  }

  std::string hbf1;
  filter->Serialize(&hbf1);
  ASSERT_TRUE(SectionReader::LooksLikeContainer(hbf1));
  const std::optional<F> migrated = F::Deserialize(hbf1);
  ASSERT_TRUE(migrated.has_value());
  for (const auto& probe : probes) {
    EXPECT_EQ(migrated->MightContain(probe), filter->MightContain(probe))
        << probe;
  }
  std::string again;
  migrated->Serialize(&again);
  EXPECT_EQ(again, hbf1) << "HBF1 re-serialization of a migrated fixture";
}

TEST(FormatCompat, ShrdUniformFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("shrd_uniform_v1", &bytes, &keys);
  ASSERT_EQ(MagicOf(bytes), kShardedSnapshotMagic);
  const auto filter = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(filter.has_value());
  EXPECT_EQ(filter->routing(), RoutingMode::kUniform);
  EXPECT_EQ(filter->num_shards(), 4u);
  ExpectLoadsAndMigrates<ShardedFilter<Habf>>(bytes, keys);
}

TEST(FormatCompat, Shr2TwoChoiceFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("shr2_two_choice_v2", &bytes, &keys);
  ASSERT_EQ(MagicOf(bytes), kShardedSnapshotMagicV2);
  const auto filter = ShardedFilter<Habf>::Deserialize(bytes);
  ASSERT_TRUE(filter.has_value());
  EXPECT_EQ(filter->routing(), RoutingMode::kTwoChoice);
  // The migrated container carries the same directory in its RDIR section.
  std::string hbf1;
  filter->Serialize(&hbf1);
  const auto migrated = ShardedFilter<Habf>::Deserialize(hbf1);
  ASSERT_TRUE(migrated.has_value());
  EXPECT_EQ(migrated->directory().bucket_to_shard,
            filter->directory().bucket_to_shard);
  EXPECT_EQ(migrated->directory().shard_weights,
            filter->directory().shard_weights);
  ExpectLoadsAndMigrates<ShardedFilter<Habf>>(bytes, keys);
}

TEST(FormatCompat, HabfLegacyFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("habf_legacy_v1", &bytes, &keys);
  ExpectLoadsAndMigrates<Habf>(bytes, keys);
}

TEST(FormatCompat, XorfLegacyFixtureLoadsBitExact) {
  std::string bytes;
  std::vector<std::string> keys;
  LoadFixture("xorf_legacy_v1", &bytes, &keys);
  ASSERT_EQ(MagicOf(bytes), FourCc("XORF"));
  ExpectLoadsAndMigrates<XorFilter>(bytes, keys);
}

}  // namespace
}  // namespace habf
