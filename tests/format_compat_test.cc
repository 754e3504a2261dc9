// Golden-fixture compatibility gate (ctest label `format_compat`).
//
// Small legacy-format snapshots are committed under tests/data/ next to the
// exact key lists they were built from. Nothing writes these formats any
// more; these tests prove the read-only SHRD / SHR2 / HABF / XORF readers
// load those bytes FOREVER: each fixture deserializes, answers every
// fixture key, and migrates to HBF1 with identical answers on members and
// non-members alike. The dynamic tier's DYNF checkpoint fixture must
// recover to the same answers and re-emit its BASE/KEYS/NEGS payloads
// byte for byte. Any change that breaks one of these assertions is a
// format break, not a refactor. The fixtures cannot be regenerated: they
// are the format contract.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/xor_filter.h"
#include "core/dynamic_filter.h"
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

/// A durable dynamic tier's checkpoint (HBF1 content "DYNF"): 4 two-choice
/// shards over 600 members and 200 costed negatives, then 10 removes, 20
/// inserts, a tombstone on a negative and a re-insert, checkpointed with
/// that delta resident. `.keys` lists the members; `.probes` holds
/// "answer<TAB>key" lines recorded from a recovery of this file.
TEST(FormatCompat, DynfCheckpointFixtureRecoversAndReEmitsItsSections) {
  const std::string stem =
      std::string(HABF_TEST_DATA_DIR) + "/dynf_two_choice_v1";
  std::string fixture;
  ASSERT_TRUE(ReadFileBytes(stem + ".snapshot", &fixture));
  std::vector<std::string> members;
  {
    std::ifstream in(stem + ".keys");
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) members.push_back(line);
  }
  ASSERT_EQ(members.size(), 611u);
  std::vector<std::pair<std::string, bool>> probes;
  {
    std::ifstream in(stem + ".probes");
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
      ASSERT_GE(line.size(), 3u);
      probes.emplace_back(line.substr(2), line[0] == '1');
    }
  }
  ASSERT_EQ(probes.size(), 1220u);

  const std::string dir = ::testing::TempDir() + "format_compat_dynf";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteFileBytes(DynamicSnapshotPath(dir), fixture));
  std::string error;
  auto filter = DynamicShardedHabf::Open(dir, {}, &error);
  ASSERT_NE(filter, nullptr) << error;
  EXPECT_EQ(filter->num_shards(), 4u);
  EXPECT_EQ(filter->delta_size(), 31u);
  for (const std::string& key : members) {
    EXPECT_TRUE(filter->MightContain(key)) << key;
  }
  for (const auto& [key, answer] : probes) {
    EXPECT_EQ(filter->MightContain(key), answer) << key;
  }

  // A fresh checkpoint re-emits the base, the member sets and the
  // negatives byte for byte.
  ASSERT_TRUE(filter->Checkpoint(&error)) << error;
  std::string rewritten;
  ASSERT_TRUE(ReadFileBytes(DynamicSnapshotPath(dir), &rewritten));
  const std::optional<SectionReader> before = SectionReader::Parse(fixture);
  const std::optional<SectionReader> after = SectionReader::Parse(rewritten);
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(after.has_value());
  for (const uint32_t tag :
       {kDynamicBaseTag, kDynamicKeysTag, kDynamicNegativesTag}) {
    const std::optional<std::string_view> old_payload = before->Find(tag);
    const std::optional<std::string_view> new_payload = after->Find(tag);
    ASSERT_TRUE(old_payload.has_value()) << tag;
    ASSERT_TRUE(new_payload.has_value()) << tag;
    EXPECT_TRUE(*old_payload == *new_payload) << "section " << tag;
  }
  filter.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace habf
