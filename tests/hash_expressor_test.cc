// Unit and property tests for HashExpressor: zero FNR for inserted subsets,
// cell-sharing semantics, plan/commit separation, and the Fh <= t/ω bound.

#include "core/hash_expressor.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "hashing/hash_provider.h"
#include "hashing/xxhash.h"
#include "util/rng.h"

namespace habf {
namespace {

class HashExpressorTest : public ::testing::Test {
 protected:
  GlobalHashProvider provider_{7};  // cell_bits=4 addresses 7 functions
};

TEST_F(HashExpressorTest, EmptyTableQueriesFail) {
  HashExpressor he(128, 4, &provider_, 1);
  uint8_t fns[3];
  EXPECT_FALSE(he.Query("anything", fns, 3));
  EXPECT_EQ(he.num_inserted(), 0u);
  EXPECT_DOUBLE_EQ(he.FillRatio(), 0.0);
}

TEST_F(HashExpressorTest, InsertedSubsetIsRecoveredExactly) {
  HashExpressor he(256, 4, &provider_, 1);
  const uint8_t fns[] = {2, 4, 6};
  ASSERT_TRUE(he.Insert("key-1", fns, 3));
  uint8_t out[3];
  ASSERT_TRUE(he.Query("key-1", out, 3));
  // Chain order may differ from input order; compare as sets.
  EXPECT_EQ(std::multiset<uint8_t>(out, out + 3),
            (std::multiset<uint8_t>{2, 4, 6}));
}

TEST_F(HashExpressorTest, ZeroFalseNegativesOverManyInserts) {
  HashExpressor he(4096, 4, &provider_, 2);
  Xoshiro256 rng(3);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> inserted;
  for (int i = 0; i < 300; ++i) {
    std::string key = "zfn-" + std::to_string(i);
    // Random distinct 3-subset of {0..6}.
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    if (he.Insert(key, fns.data(), 3)) {
      inserted.emplace_back(std::move(key), std::move(fns));
    }
  }
  ASSERT_GT(inserted.size(), 50u);  // plenty must fit in 4096 cells
  for (const auto& [key, fns] : inserted) {
    uint8_t out[3];
    ASSERT_TRUE(he.Query(key, out, 3)) << key;
    EXPECT_EQ(std::multiset<uint8_t>(out, out + 3),
              std::multiset<uint8_t>(fns.begin(), fns.end()))
        << key;
  }
}

TEST_F(HashExpressorTest, PlanDoesNotMutate) {
  HashExpressor he(128, 4, &provider_, 4);
  const uint8_t fns[] = {1, 3, 5};
  const auto plan = he.Plan("planned", fns, 3);
  ASSERT_TRUE(plan.ok);
  uint8_t out[3];
  EXPECT_FALSE(he.Query("planned", out, 3));
  EXPECT_EQ(he.num_inserted(), 0u);
  he.Commit(plan);
  EXPECT_TRUE(he.Query("planned", out, 3));
  EXPECT_EQ(he.num_inserted(), 1u);
}

TEST_F(HashExpressorTest, OverlapCountsSharedCells) {
  HashExpressor he(64, 4, &provider_, 5);
  const uint8_t fns[] = {0, 2, 4};
  ASSERT_TRUE(he.Insert("first", fns, 3));
  // A fresh key in an empty region overlaps 0 cells; re-planning subsets
  // against a populated table can only have overlap in [0, k].
  const auto plan = he.Plan("second", fns, 3);
  if (plan.ok) {
    EXPECT_GE(plan.overlap, 0);
    EXPECT_LE(plan.overlap, 3);
  }
}

TEST_F(HashExpressorTest, InsertionFailsWhenTableSaturated) {
  HashExpressor he(8, 4, &provider_, 6);  // tiny table
  Xoshiro256 rng(9);
  int failures = 0;
  for (int i = 0; i < 50; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    if (!he.Insert("sat-" + std::to_string(i), fns.data(), 3)) ++failures;
  }
  EXPECT_GT(failures, 0);
  // Every chain consumes at least one distinct (cell, function) pair, so a
  // table of 8 cells cannot hold arbitrarily many keys.
  EXPECT_LE(he.num_inserted(), 24u);
}

TEST_F(HashExpressorTest, QueryNeverReturnsOutOfRangeIndices) {
  HashExpressor he(512, 4, &provider_, 7);
  Xoshiro256 rng(11);
  for (int i = 0; i < 40; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    he.Insert("in-" + std::to_string(i), fns.data(), 3);
  }
  for (int i = 0; i < 2000; ++i) {
    uint8_t out[3] = {255, 255, 255};
    if (he.Query("probe-" + std::to_string(i), out, 3)) {
      for (uint8_t fn : out) EXPECT_LT(fn, provider_.NumFunctions());
    }
  }
}

TEST_F(HashExpressorTest, FalsePositiveRateBoundedByLoad) {
  // §III-F: Fh <= t/ω. Use a comfortably sized table, then probe strangers.
  const size_t omega = 2048;
  HashExpressor he(omega, 4, &provider_, 8);
  Xoshiro256 rng(13);
  size_t t = 0;
  for (int i = 0; i < 120; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    if (he.Insert("member-" + std::to_string(i), fns.data(), 3)) ++t;
  }
  size_t false_positives = 0;
  const size_t probes = 50000;
  for (size_t i = 0; i < probes; ++i) {
    uint8_t out[3];
    if (he.Query("stranger-" + std::to_string(i), out, 3)) ++false_positives;
  }
  const double fh = static_cast<double>(false_positives) / probes;
  const double bound = static_cast<double>(he.num_inserted()) / omega;
  EXPECT_LE(fh, bound * 1.5 + 0.01)
      << "Fh=" << fh << " bound=" << bound << " t=" << t;
}

class HashExpressorCellWidthSweep : public ::testing::TestWithParam<unsigned> {
};

TEST_P(HashExpressorCellWidthSweep, RoundTripAcrossCellWidths) {
  const unsigned cell_bits = GetParam();
  const size_t usable = (size_t{1} << (cell_bits - 1)) - 1;
  GlobalHashProvider provider(std::min<size_t>(usable, 22));
  HashExpressor he(1024, cell_bits, &provider, 17);
  EXPECT_EQ(he.max_function_index(), usable - 1);

  Xoshiro256 rng(cell_bits);
  const size_t k = std::min<size_t>(3, provider.NumFunctions());
  std::vector<std::pair<std::string, std::vector<uint8_t>>> inserted;
  for (int i = 0; i < 60; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < k) {
      subset.insert(
          static_cast<uint8_t>(rng.NextBounded(provider.NumFunctions())));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    std::string key = "w" + std::to_string(cell_bits) + "-" +
                      std::to_string(i);
    if (he.Insert(key, fns.data(), k)) {
      inserted.emplace_back(std::move(key), std::move(fns));
    }
  }
  ASSERT_FALSE(inserted.empty());
  for (const auto& [key, fns] : inserted) {
    uint8_t out[16];
    ASSERT_TRUE(he.Query(key, out, k));
    EXPECT_EQ(std::multiset<uint8_t>(out, out + k),
              std::multiset<uint8_t>(fns.begin(), fns.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(CellWidths, HashExpressorCellWidthSweep,
                         ::testing::Values(3u, 4u, 5u, 6u));

/// Forwards to a real family and counts every function evaluation.
class CountingProvider final : public HashProvider {
 public:
  explicit CountingProvider(const HashProvider* inner) : inner_(inner) {}
  size_t NumFunctions() const override { return inner_->NumFunctions(); }
  uint64_t Value(std::string_view key, size_t idx) const override {
    ++calls;
    return inner_->Value(key, idx);
  }
  const char* Name(size_t idx) const override { return inner_->Name(idx); }

  mutable size_t calls = 0;

 private:
  const HashProvider* inner_;
};

TEST_F(HashExpressorTest, CompleteWalkEvaluatesOneFunctionPerStep) {
  // A k-cell chain takes k-1 steps: the k-th cell ends the walk, so no
  // family function is evaluated after it. The entry cell comes from the
  // dedicated f, which is not a family member.
  CountingProvider counting(&provider_);
  HashExpressor he(4096, 4, &counting, 3);
  const uint8_t three[] = {1, 3, 5};
  const uint8_t five[] = {0, 2, 4, 5, 6};
  ASSERT_TRUE(he.Insert("walk-3", three, 3));
  ASSERT_TRUE(he.Insert("walk-5", five, 5));

  uint8_t out[5];
  counting.calls = 0;
  ASSERT_TRUE(he.Query("walk-3", out, 3));
  EXPECT_EQ(counting.calls, 2u);
  counting.calls = 0;
  ASSERT_TRUE(he.Query("walk-5", out, 5));
  EXPECT_EQ(counting.calls, 4u);
  counting.calls = 0;
  ASSERT_TRUE(he.QueryFrom("walk-5", he.EntryCell("walk-5"), out, 5));
  EXPECT_EQ(counting.calls, 4u);

  // A walk that stops at an empty entry cell evaluates nothing.
  HashExpressor empty(64, 4, &counting, 3);
  counting.calls = 0;
  EXPECT_FALSE(empty.Query("walk-3", out, 3));
  EXPECT_EQ(counting.calls, 0u);
}

TEST_F(HashExpressorTest, QueryFromEntryCellMatchesQuery) {
  HashExpressor he(512, 4, &provider_, 19);
  Xoshiro256 rng(29);
  for (int i = 0; i < 60; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    he.Insert("qf-" + std::to_string(i), fns.data(), 3);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "qf-" + std::to_string(i % 120) + "-" +
                            std::to_string(i / 120);
    uint8_t a[3] = {0, 0, 0};
    uint8_t b[3] = {0, 0, 0};
    const bool ra = he.Query(key, a, 3);
    ASSERT_EQ(he.QueryFrom(key, he.EntryCell(key), b, 3), ra) << key;
    if (ra) {
      EXPECT_EQ(std::vector<uint8_t>(a, a + 3),
                std::vector<uint8_t>(b, b + 3));
    }
  }
}

TEST_F(HashExpressorTest, QueryAnswersPinnedOnAFixedProbeSet) {
  // Every answer (hit or miss, and the retrieved subset on a hit) of a
  // fixed table over a fixed probe set, folded into one digest recorded
  // before the walk stopped evaluating a function after its last cell.
  HashExpressor he(1024, 4, &provider_, 31);
  Xoshiro256 rng(37);
  for (int i = 0; i < 150; ++i) {
    std::set<uint8_t> subset;
    while (subset.size() < 3) {
      subset.insert(static_cast<uint8_t>(rng.NextBounded(7)));
    }
    std::vector<uint8_t> fns(subset.begin(), subset.end());
    he.Insert("pin-" + std::to_string(i), fns.data(), 3);
  }
  uint64_t digest = 0;
  size_t hits = 0;
  for (int i = 0; i < 4000; ++i) {
    // Half inserted keys (i < 150 of every 300), half strangers.
    const std::string key = i % 300 < 150
                                ? "pin-" + std::to_string(i % 300)
                                : "stranger-" + std::to_string(i);
    uint8_t record[4] = {0, 0, 0, 0};
    record[0] = he.Query(key, record + 1, 3) ? 1 : 0;
    if (record[0] == 0) record[1] = record[2] = record[3] = 0;
    hits += record[0];
    digest = XxHash64(record, sizeof(record), digest);
  }
  EXPECT_GT(hits, 1500u);
  EXPECT_EQ(digest, 0xC396CB52E75E0A16ULL);
}

}  // namespace
}  // namespace habf
