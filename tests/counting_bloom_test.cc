#include "bloom/counting_bloom.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hashing/hash_provider.h"

namespace habf {
namespace {

std::vector<std::string> Keys(const char* prefix, size_t n) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(std::string(prefix) + std::to_string(i));
  }
  return keys;
}

TEST(CountingBloomTest, NoFalseNegatives) {
  CountingBloomFilter filter(1 << 16, 5);
  const auto keys = Keys("cb-", 5000);
  for (const auto& key : keys) filter.Add(key);
  for (const auto& key : keys) EXPECT_TRUE(filter.MightContain(key));
}

TEST(CountingBloomTest, RemoveErasesKey) {
  CountingBloomFilter filter(1 << 14, 4);
  filter.Add("transient");
  ASSERT_TRUE(filter.MightContain("transient"));
  filter.Remove("transient");
  EXPECT_FALSE(filter.MightContain("transient"));
}

TEST(CountingBloomTest, RemoveKeepsOtherKeys) {
  CountingBloomFilter filter(1 << 16, 4);
  const auto keep = Keys("keep-", 2000);
  const auto drop = Keys("drop-", 2000);
  for (const auto& key : keep) filter.Add(key);
  for (const auto& key : drop) filter.Add(key);
  for (const auto& key : drop) filter.Remove(key);
  // The one-sided guarantee must survive deletions of other keys.
  for (const auto& key : keep) {
    EXPECT_TRUE(filter.MightContain(key)) << key;
  }
}

TEST(CountingBloomTest, DoubleAddNeedsDoubleRemove) {
  CountingBloomFilter filter(1 << 12, 4);
  filter.Add("dup");
  filter.Add("dup");
  filter.Remove("dup");
  EXPECT_TRUE(filter.MightContain("dup")) << "one copy should remain";
  filter.Remove("dup");
  EXPECT_FALSE(filter.MightContain("dup"));
}

TEST(CountingBloomTest, SaturatedCountersNeverUnderflowToFalseNegative) {
  CountingBloomFilter filter(64, 2);  // tiny: heavy aliasing, saturation
  const auto keys = Keys("sat-", 300);
  for (const auto& key : keys) filter.Add(key);
  // Remove half; the other half must still be present.
  for (size_t i = 0; i < 150; ++i) filter.Remove(keys[i]);
  for (size_t i = 150; i < 300; ++i) {
    EXPECT_TRUE(filter.MightContain(keys[i])) << keys[i];
  }
}

TEST(CountingBloomTest, FillRatioTracksChurn) {
  CountingBloomFilter filter(1 << 14, 4);
  EXPECT_DOUBLE_EQ(filter.FillRatio(), 0.0);
  const auto keys = Keys("churn-", 1000);
  for (const auto& key : keys) filter.Add(key);
  const double loaded = filter.FillRatio();
  EXPECT_GT(loaded, 0.0);
  for (const auto& key : keys) filter.Remove(key);
  EXPECT_LT(filter.FillRatio(), loaded * 0.05)
      << "removing everything should drain nearly all counters";
}

// --- Remove-at-zero clamp contract (counting_bloom.h) -----------------------
//
// A naive 4-bit decrement of a zero counter wraps 0→15, which would (a)
// fabricate membership for the never-inserted key itself and (b) poison
// every other key aliasing the wrapped counter. The clamp must leave zero
// counters untouched.

TEST(CountingBloomTest, RemoveOfAbsentKeyLeavesFilterEmpty) {
  CountingBloomFilter filter(1 << 12, 4);
  filter.Remove("never-inserted");
  EXPECT_FALSE(filter.MightContain("never-inserted"))
      << "0→15 wraparound would resurrect the removed key";
  EXPECT_DOUBLE_EQ(filter.FillRatio(), 0.0)
      << "removing from an empty filter must not set any counter";
}

TEST(CountingBloomTest, RemoveOfAbsentKeysNeverFabricatesMembership) {
  // A storm of spurious removes against an EMPTY filter: with 0→15
  // wraparound every removed key would set its own counters and then test
  // positive, and FillRatio would climb toward 1. The clamp keeps the
  // filter identically empty. (Spurious removes against a *loaded* filter
  // may still drive other keys toward false negatives by draining shared
  // counters — that is the documented caveat the clamp does not, and
  // cannot, remove.)
  CountingBloomFilter filter(1 << 10, 4);
  const auto absent = Keys("absent-", 500);
  for (const auto& key : absent) filter.Remove(key);
  EXPECT_DOUBLE_EQ(filter.FillRatio(), 0.0)
      << "spurious removes may only drain counters, never set them";
  for (const auto& key : absent) {
    EXPECT_FALSE(filter.MightContain(key)) << key;
  }
}

TEST(CountingBloomTest, DoubleRemoveIsClampedAtZero) {
  CountingBloomFilter filter(1 << 12, 4);
  filter.Add("once");
  filter.Remove("once");
  ASSERT_FALSE(filter.MightContain("once"));
  // The second remove hits counters already at zero; the clamp must leave
  // them there instead of wrapping to 15.
  filter.Remove("once");
  EXPECT_FALSE(filter.MightContain("once"));
  EXPECT_DOUBLE_EQ(filter.FillRatio(), 0.0);
}

TEST(CountingBloomTest, MemoryIsFourBitsPerCounter) {
  CountingBloomFilter filter(1024, 4);
  EXPECT_EQ(filter.MemoryUsageBytes(), 1024 * 4 / 8u);
}

TEST(CountingBloomTest, CountersMatchPerProbeFormula) {
  // Oracle: probe i of a key is DoubleHashProvider::Value(key, i) % m,
  // applied one probe at a time, so a key whose probes repeat a counter
  // bumps it once per repeat. The small table makes repeats and
  // saturation common; the larger one is the usual sparse case.
  struct Shape {
    size_t counters;
    size_t k;
  };
  for (const Shape shape : {Shape{61, 6}, Shape{4099, 4}}) {
    constexpr uint64_t kSeed = 42;
    CountingBloomFilter filter(shape.counters, shape.k, kSeed);
    const DoubleHashProvider family(shape.k, kSeed);
    std::vector<uint64_t> oracle(shape.counters, 0);
    size_t repeated_probes = 0;
    auto apply = [&](const std::string& key, int step) {
      std::vector<size_t> seen;
      for (size_t i = 0; i < shape.k; ++i) {
        const size_t pos =
            static_cast<size_t>(family.Value(key, i) % shape.counters);
        for (size_t p : seen) repeated_probes += p == pos ? 1 : 0;
        seen.push_back(pos);
        uint64_t& c = oracle[pos];
        if (c == CountingBloomFilter::kCounterMax) continue;
        if (step > 0) ++c;
        if (step < 0 && c > 0) --c;
      }
    };
    auto expect_counters_match = [&](const char* phase) {
      for (size_t idx = 0; idx < shape.counters; ++idx) {
        ASSERT_EQ(filter.CounterAt(idx), oracle[idx])
            << phase << " m=" << shape.counters << " idx=" << idx;
      }
    };

    const auto keys = Keys("oracle-", 300);
    for (const auto& key : keys) {
      filter.Add(key);
      apply(key, +1);
    }
    expect_counters_match("add");
    for (size_t i = 0; i < keys.size(); i += 2) {
      filter.Remove(keys[i]);
      apply(keys[i], -1);
    }
    for (const auto& key : Keys("never-added-", 100)) {
      filter.Remove(key);
      apply(key, -1);
    }
    expect_counters_match("remove");
    for (const auto& key : Keys("probe-", 500)) {
      bool all_nonzero = true;
      for (size_t i = 0; i < shape.k; ++i) {
        all_nonzero = all_nonzero &&
                      oracle[family.Value(key, i) % shape.counters] != 0;
      }
      EXPECT_EQ(filter.MightContain(key), all_nonzero) << key;
    }
    if (shape.counters == 61) {
      EXPECT_GT(repeated_probes, 0u) << "the small table must repeat probes";
    }
  }
}

}  // namespace
}  // namespace habf
