// Family-wide properties of the 22 Table II hash functions: determinism,
// seed sensitivity, input sensitivity, and (loose) output uniformity. These
// are the properties HABF actually relies on — it treats every member as an
// independent uniform map into the bit array.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "hashing/crc32.h"
#include "hashing/hash_function.h"
#include "hashing/xxhash.h"
#include "util/rng.h"

namespace habf {
namespace {

std::vector<std::string> MakeKeys(size_t n, uint64_t seed) {
  std::vector<std::string> keys;
  keys.reserve(n);
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::string key = "key-" + std::to_string(i) + "-";
    const size_t extra = rng.NextBounded(24);
    for (size_t j = 0; j < extra; ++j) {
      key += static_cast<char>('a' + rng.NextBounded(26));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

TEST(HashFamilyTest, HasExactly22Functions) {
  EXPECT_EQ(HashFamily::Global().size(), 22u);
}

TEST(HashFamilyTest, NamesMatchTable2Order) {
  const auto& family = HashFamily::Global();
  EXPECT_STREQ(family.Name(0), "xxHash");
  EXPECT_STREQ(family.Name(1), "CityHash");
  EXPECT_STREQ(family.Name(2), "MurmurHash");
  EXPECT_STREQ(family.Name(4), "crc32");
  EXPECT_STREQ(family.Name(6), "BOB");
  EXPECT_STREQ(family.Name(21), "ELF");
}

class HashFunctionSweep : public ::testing::TestWithParam<size_t> {
 protected:
  const HashFamily& family_ = HashFamily::Global();
};

TEST_P(HashFunctionSweep, Deterministic) {
  const size_t idx = GetParam();
  for (const auto& key : MakeKeys(50, 1)) {
    EXPECT_EQ(family_.Hash(idx, key, 7), family_.Hash(idx, key, 7));
  }
}

TEST_P(HashFunctionSweep, SeedChangesOutput) {
  const size_t idx = GetParam();
  size_t differing = 0;
  const auto keys = MakeKeys(200, 2);
  for (const auto& key : keys) {
    if (family_.Hash(idx, key, 1) != family_.Hash(idx, key, 2)) ++differing;
  }
  EXPECT_GT(differing, keys.size() * 9 / 10) << family_.Name(idx);
}

TEST_P(HashFunctionSweep, SingleByteFlipChangesOutput) {
  const size_t idx = GetParam();
  size_t differing = 0;
  auto keys = MakeKeys(200, 3);
  for (auto& key : keys) {
    const uint64_t before = family_.Hash(idx, key, 0);
    key[key.size() / 2] ^= 1;
    if (family_.Hash(idx, key, 0) != before) ++differing;
  }
  EXPECT_GT(differing, keys.size() * 9 / 10) << family_.Name(idx);
}

TEST_P(HashFunctionSweep, EmptyAndShortInputsAreHandled) {
  const size_t idx = GetParam();
  const std::string empty;
  const std::string one = "a";
  const std::string two = "ab";
  // No crash, and the outputs should differ from each other.
  std::set<uint64_t> values{family_.Hash(idx, empty, 0),
                            family_.Hash(idx, one, 0),
                            family_.Hash(idx, two, 0)};
  EXPECT_EQ(values.size(), 3u) << family_.Name(idx);
}

TEST_P(HashFunctionSweep, FewCollisionsOn64BitOutputs) {
  const size_t idx = GetParam();
  const auto keys = MakeKeys(20000, 4);
  std::set<uint64_t> values;
  for (const auto& key : keys) values.insert(family_.Hash(idx, key, 0));
  // Birthday bound: 20k keys in 2^64 should essentially never collide.
  EXPECT_GE(values.size(), keys.size() - 2) << family_.Name(idx);
}

TEST_P(HashFunctionSweep, OutputsRoughlyUniformOverBuckets) {
  const size_t idx = GetParam();
  constexpr size_t kBuckets = 64;
  constexpr size_t kKeys = 64000;
  const auto keys = MakeKeys(kKeys, 5);
  size_t counts[kBuckets] = {};
  for (const auto& key : keys) {
    ++counts[family_.Hash(idx, key, 0) % kBuckets];
  }
  // Chi-square with 63 dof; 99.9% quantile is ~103. Allow generous slack —
  // we only want to catch gross non-uniformity.
  const double expected = static_cast<double>(kKeys) / kBuckets;
  double chi2 = 0.0;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double d = counts[b] - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 150.0) << family_.Name(idx);
}

TEST_P(HashFunctionSweep, PairwiseDecorrelatedFromXxHash) {
  const size_t idx = GetParam();
  if (idx == 0) GTEST_SKIP() << "self-comparison";
  const auto keys = MakeKeys(20000, 6);
  // Count agreements of the low bit; independent functions agree ~50%.
  size_t agree = 0;
  for (const auto& key : keys) {
    const uint64_t a = family_.Hash(0, key, 0);
    const uint64_t b = family_.Hash(idx, key, 0);
    if ((a & 1) == (b & 1)) ++agree;
  }
  const double rate = static_cast<double>(agree) / keys.size();
  EXPECT_NEAR(rate, 0.5, 0.03) << family_.Name(idx);
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, HashFunctionSweep,
                         ::testing::Range<size_t>(0, 22),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return HashFamily::Global().Name(info.param);
                         });

TEST(XxHash128Test, HalvesAreDecorrelated) {
  const auto keys = MakeKeys(20000, 7);
  size_t agree = 0;
  for (const auto& key : keys) {
    const Hash128 h = XxHash128(key.data(), key.size(), 0);
    if ((h.low & 1) == (h.high & 1)) ++agree;
  }
  EXPECT_NEAR(static_cast<double>(agree) / keys.size(), 0.5, 0.03);
}

TEST(XxHash64Test, MatchesOfficialReferenceVectors) {
  // Known-answer values of the reference xxHash64 implementation — our
  // from-scratch implementation is byte-exact with the published algorithm.
  EXPECT_EQ(XxHash64("", 0, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(XxHash64("abc", 3, 0), 0x44BC2CF5AD770999ULL);
}

TEST(XxHash64Test, AllInputLengthBranchesCovered) {
  // Exercise the <4, <8, <32 and >=32 byte paths plus stripe boundaries.
  std::string data;
  uint64_t previous = 0;
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 31u, 32u, 33u, 63u, 64u,
                     65u, 96u, 127u}) {
    data.resize(len, 'x');
    for (size_t i = 0; i < len; ++i) data[i] = static_cast<char>('a' + i % 26);
    const uint64_t h = XxHash64(data.data(), data.size(), 7);
    EXPECT_NE(h, previous) << "len=" << len;
    previous = h;
  }
}

TEST(Crc32Test, MatchesKnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(Crc32(data, 9, 0), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32("", 0, 0), 0u); }

// The bit-serial definition of the reflected IEEE CRC-32: the oracle that
// every kernel behind Crc32 must match bit for bit.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len, uint32_t init) {
  uint32_t crc = ~init;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

using Crc32Kernel = uint32_t (*)(const void*, size_t, uint32_t);

void ExpectMatchesBitSerialReference(Crc32Kernel crc32, const char* name) {
  constexpr size_t kBig = size_t{64} << 10;
  constexpr size_t kHuge = size_t{1} << 20;
  const std::vector<uint8_t> buffer = RandomBytes(kHuge + 16, 11);
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1024; ++len) lengths.push_back(len);
  lengths.push_back(kBig);
  // Offsets 0..15 put the fold's 16-byte loads and the portable loop's
  // 8-byte loads at every alignment.
  for (size_t offset = 0; offset < 16; ++offset) {
    for (const uint32_t init : {0u, 0xFFFFFFFFu, 0xDEADBEEFu}) {
      for (const size_t len : lengths) {
        const uint8_t* p = buffer.data() + offset;
        ASSERT_EQ(crc32(p, len, init), ReferenceCrc32(p, len, init))
            << name << " len=" << len << " offset=" << offset
            << " init=" << init;
      }
    }
  }
  // One buffer of a mebibyte and change: thousands of 64-byte fold steps,
  // then the 16-byte steps and the portable tail.
  for (const size_t offset : {size_t{0}, size_t{5}}) {
    const uint8_t* p = buffer.data() + offset;
    ASSERT_EQ(crc32(p, kHuge + 11, 0x12345678u),
              ReferenceCrc32(p, kHuge + 11, 0x12345678u))
        << name << " offset=" << offset;
  }
}

void ExpectChainingEqualsOneCall(Crc32Kernel crc32, const char* name) {
  // Buffer sizes on and around the fold's 64- and 16-byte boundaries; every
  // split puts the head and the tail on each side of them too.
  for (const size_t size : {63, 64, 65, 79, 80, 300, 1031}) {
    const std::vector<uint8_t> buffer = RandomBytes(size, 12 + size);
    for (const uint32_t init : {0u, 0xDEADBEEFu}) {
      const uint32_t whole = crc32(buffer.data(), buffer.size(), init);
      ASSERT_EQ(whole, ReferenceCrc32(buffer.data(), buffer.size(), init))
          << name << " size=" << size;
      for (size_t split = 0; split <= buffer.size(); ++split) {
        const uint32_t head = crc32(buffer.data(), split, init);
        EXPECT_EQ(crc32(buffer.data() + split, buffer.size() - split, head),
                  whole)
            << name << " size=" << size << " split=" << split
            << " init=" << init;
      }
    }
  }
}

// Crc32 runs whichever kernel this CPU selects; the portable loop runs here
// directly, so it is covered at every length on a CPU with the fold too.
TEST(Crc32Test, MatchesBitSerialReferenceAtEveryLengthOffsetAndInit) {
  ExpectMatchesBitSerialReference(&Crc32, "Crc32");
  ExpectMatchesBitSerialReference(&Crc32Portable, "Crc32Portable");
}

TEST(Crc32Test, ChainingEqualsOneCallOverTheConcatenation) {
  ExpectChainingEqualsOneCall(&Crc32, "Crc32");
  ExpectChainingEqualsOneCall(&Crc32Portable, "Crc32Portable");
}

TEST(Crc32Test, ClmulFoldMatchesBitSerialReferenceAndChains) {
  if (!Crc32HasClmul()) GTEST_SKIP() << "this CPU has no PCLMULQDQ/SSE4.1";
  ExpectMatchesBitSerialReference(&Crc32Clmul, "Crc32Clmul");
  ExpectChainingEqualsOneCall(&Crc32Clmul, "Crc32Clmul");
}

TEST(Crc32Test, SelectsTheFoldFromTheCpu) {
#if defined(__x86_64__)
  EXPECT_EQ(Crc32HasClmul(), __builtin_cpu_supports("pclmul") &&
                                 __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(Crc32HasClmul());
#endif
}

TEST(Crc32Test, FamilyAdapterOutputsArePinned) {
  // crc32 is a Table II member, so a changed value here moves HABF bit
  // positions and invalidates every stored filter whose H0 or
  // HashExpressor uses it.
  const std::string long_key = std::string(100, 'x') + "tail";
  struct Case {
    std::string key;
    uint64_t seed;
    uint64_t expected;
  };
  const Case cases[] = {
      {"", 7, 0x6021D909064FFC2Full},
      {"a", 0, 0x8623593A6BF721B4ull},
      {"a", 0x9E3779B97F4A7C15ull, 0x733490DAC67C249Dull},
      {"123456789", 0, 0xC0BF9BAD93C864B9ull},
      {"123456789", 7, 0x5C1A286B5D8A3E60ull},
      {"habf-key-000000000001-zipfa", 0, 0x96FD7B378AA1FF91ull},
      {"habf-key-000000000001-zipfa", 0x9E3779B97F4A7C15ull,
       0x7D80FD5AE4E6F252ull},
      {long_key, 7, 0xF3937FAE2B755B24ull},
      {long_key, 0x9E3779B97F4A7C15ull, 0x9378B368CFB7984Bull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Crc32Hash(c.key.data(), c.key.size(), c.seed), c.expected)
        << "key='" << c.key << "' seed=" << c.seed;
  }
}

TEST(Fmix64Test, IsBijectiveOnSamples) {
  // fmix64 is invertible; distinct inputs must give distinct outputs.
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; ++i) outputs.insert(Fmix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

}  // namespace
}  // namespace habf
