// The dynamic tier's flat member store (core/member_set.h) against a
// std::unordered_set oracle: randomized rebuild sequences (inserts, removes,
// re-inserts, the empty key, keys with NUL bytes, an emptied set), byte-exact
// payload round trips, and hostile KEYS payloads that must be refused.

#include "core/member_set.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/serde.h"

namespace habf {
namespace {

using Changes = std::vector<std::pair<std::string, bool>>;

/// Key `i` of a small universe that includes the empty key and keys with
/// embedded NUL bytes, so they recur across rounds.
std::string UniverseKey(uint64_t i) {
  switch (i % 5) {
    case 0:
      return i == 0 ? std::string() : "k" + std::to_string(i);
    case 1:
      return std::string("nul\0", 4) + std::to_string(i) + std::string(1, '\0');
    default:
      return "member-" + std::to_string(i * 2654435761u);
  }
}

MemberSet FromKeys(const std::vector<std::string>& keys) {
  MemberSet::Builder builder;
  for (const std::string& key : keys) builder.Add(key);
  return builder.Finish();
}

void ExpectMatchesOracle(const MemberSet& set,
                         const std::unordered_set<std::string>& oracle,
                         uint64_t universe) {
  ASSERT_EQ(set.size(), oracle.size());
  std::unordered_set<std::string> seen;
  for (const std::string_view key : set) {
    EXPECT_TRUE(seen.emplace(key).second) << "iterated twice: " << key;
    EXPECT_EQ(oracle.count(std::string(key)), 1u) << key;
  }
  EXPECT_EQ(seen.size(), oracle.size());
  for (uint64_t i = 0; i < universe; ++i) {
    const std::string key = UniverseKey(i);
    EXPECT_EQ(set.Contains(key), oracle.count(key) == 1) << i;
  }
}

std::string Payload(const MemberSet& set) {
  std::string out;
  set.AppendPayload(&out);
  return out;
}

TEST(MemberSetTest, EmptySetAnswersNothingAndRoundTrips) {
  const MemberSet set;
  EXPECT_EQ(set.size(), 0u);
  EXPECT_FALSE(set.Contains(""));
  EXPECT_FALSE(set.Contains("x"));
  EXPECT_TRUE(set.begin() == set.end());
  const std::string payload = Payload(set);
  EXPECT_EQ(payload, std::string(8, '\0'));
  std::string_view rest = payload;
  const std::optional<MemberSet> parsed = MemberSet::ParsePayload(&rest);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 0u);
  EXPECT_TRUE(rest.empty());
}

TEST(MemberSetTest, BuilderDropsRepeatsAndKeepsOrder) {
  MemberSet::Builder builder;
  EXPECT_TRUE(builder.Add("b"));
  EXPECT_TRUE(builder.Add(""));
  EXPECT_FALSE(builder.Add("b"));
  EXPECT_TRUE(builder.Add(std::string("a\0b", 3)));
  EXPECT_FALSE(builder.Add(""));
  const MemberSet set = builder.Finish();
  const std::vector<std::string_view> order(set.begin(), set.end());
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "b");
  EXPECT_EQ(order[1], "");
  EXPECT_EQ(order[2], std::string_view("a\0b", 3));
  EXPECT_TRUE(set.Contains(std::string("a\0b", 3)));
  EXPECT_FALSE(set.Contains("a"));
  // The payload is the KEYS section's per-shard layout, byte for byte.
  std::string expected;
  BinaryWriter writer(&expected);
  writer.WriteU64(3);
  writer.WriteBytes("b");
  writer.WriteBytes("");
  writer.WriteBytes(std::string_view("a\0b", 3));
  EXPECT_EQ(Payload(set), expected);
}

TEST(MemberSetTest, RandomizedRebuildsMatchTheOracle) {
  constexpr uint64_t kUniverse = 600;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Xoshiro256 rng(seed);
    std::unordered_set<std::string> oracle;
    std::vector<std::string> initial;
    for (uint64_t i = 0; i < kUniverse; ++i) {
      if (rng.NextBounded(3) == 0) {
        initial.push_back(UniverseKey(i));
        oracle.insert(initial.back());
      }
    }
    MemberSet set = FromKeys(initial);
    ExpectMatchesOracle(set, oracle, kUniverse);
    for (int round = 0; round < 12; ++round) {
      // Distinct keys per round, like the delta's captured entries. The
      // last round of every seed removes everything, leaving an empty set.
      Changes changes;
      std::unordered_set<std::string> touched;
      const bool wipe = round == 11;
      if (wipe) {
        for (const std::string& key : oracle) changes.emplace_back(key, false);
      } else {
        const uint64_t n = rng.NextBounded(80);
        for (uint64_t j = 0; j < n; ++j) {
          std::string key = UniverseKey(rng.NextBounded(kUniverse));
          if (!touched.insert(key).second) continue;
          changes.emplace_back(std::move(key), rng.NextBounded(2) == 0);
        }
      }
      for (const auto& [key, member] : changes) {
        if (member) {
          oracle.insert(key);
        } else {
          oracle.erase(key);
        }
      }
      set = MemberSet::Rebuild(set, changes);
      ExpectMatchesOracle(set, oracle, kUniverse);

      // Round trip: parse(payload) re-emits the same bytes and set.
      const std::string payload = Payload(set);
      std::string_view rest = payload;
      std::optional<MemberSet> parsed = MemberSet::ParsePayload(&rest);
      ASSERT_TRUE(parsed.has_value());
      EXPECT_TRUE(rest.empty());
      EXPECT_EQ(Payload(*parsed), payload);
      ExpectMatchesOracle(*parsed, oracle, kUniverse);
      set = std::move(*parsed);
    }
    EXPECT_EQ(set.size(), 0u);
  }
}

TEST(MemberSetTest, ParseConsumesOnlyItsOwnSlice) {
  const MemberSet a = FromKeys({"x", "yy"});
  const MemberSet b = FromKeys({"", "zzz"});
  std::string payload = Payload(a) + Payload(b) + "tail";
  std::string_view rest = payload;
  const std::optional<MemberSet> first = MemberSet::ParsePayload(&rest);
  const std::optional<MemberSet> second = MemberSet::ParsePayload(&rest);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(rest, "tail");
  EXPECT_TRUE(first->Contains("yy"));
  EXPECT_FALSE(first->Contains("zzz"));
  EXPECT_TRUE(second->Contains(""));
}

TEST(MemberSetTest, HostilePayloadsAreRefused) {
  const auto refused = [](const std::string& bytes) {
    std::string_view rest = bytes;
    return !MemberSet::ParsePayload(&rest).has_value();
  };
  const auto count_then = [](uint64_t count, const std::string& body) {
    std::string out;
    BinaryWriter(&out).WriteU64(count);
    return out + body;
  };
  std::string two;
  BinaryWriter(&two).WriteBytes("aa");
  BinaryWriter(&two).WriteBytes("b");

  EXPECT_TRUE(refused(""));
  EXPECT_TRUE(refused(std::string(7, '\0')));  // a short count
  // A count that lies: more keys than bytes could hold, or than present.
  EXPECT_TRUE(refused(count_then(~uint64_t{0}, two)));
  EXPECT_TRUE(refused(count_then(uint64_t{1} << 61, two)));
  EXPECT_TRUE(refused(count_then(3, two)));
  EXPECT_FALSE(refused(count_then(2, two)));
  // A length past the end, including one that would wrap a size_t sum.
  std::string past;
  BinaryWriter(&past).WriteU64(100);
  past += "short";
  EXPECT_TRUE(refused(count_then(1, past)));
  std::string huge;
  BinaryWriter(&huge).WriteU64(~uint64_t{0} - 3);
  huge += "abcd";
  EXPECT_TRUE(refused(count_then(1, huge)));
  // A repeated key inside one set.
  std::string dup;
  BinaryWriter(&dup).WriteBytes("same");
  BinaryWriter(&dup).WriteBytes("other");
  BinaryWriter(&dup).WriteBytes("same");
  EXPECT_TRUE(refused(count_then(3, dup)));
  std::string empty_dup;
  BinaryWriter(&empty_dup).WriteBytes("");
  BinaryWriter(&empty_dup).WriteBytes("");
  EXPECT_TRUE(refused(count_then(2, empty_dup)));
  // Trailing bytes are left for the caller (the KEYS parser refuses them).
  const std::string trailing = count_then(2, two) + "x";
  std::string_view rest = trailing;
  ASSERT_TRUE(MemberSet::ParsePayload(&rest).has_value());
  EXPECT_EQ(rest, "x");
}

TEST(MemberSetTest, ManyKeysStayFindableThroughIndexGrowth) {
  MemberSet::Builder builder;
  for (uint64_t i = 0; i < 20000; ++i) {
    ASSERT_TRUE(builder.Add("grow-" + std::to_string(i)));
  }
  const MemberSet set = builder.Finish();
  EXPECT_EQ(set.size(), 20000u);
  for (uint64_t i = 0; i < 20000; ++i) {
    EXPECT_TRUE(set.Contains("grow-" + std::to_string(i))) << i;
    EXPECT_FALSE(set.Contains("miss-" + std::to_string(i))) << i;
  }
}

}  // namespace
}  // namespace habf
