// Differential and concurrency suite for the dynamic delta tier
// (core/dynamic_filter.h, DESIGN.md §7). Labeled `dynamic` in CMake and run
// under ASan/UBSan and TSan in CI — the compaction/reader interleavings are
// exactly the race surface TSan exists for.

#include "core/dynamic_filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace habf {
namespace {

std::vector<std::string> MakeKeys(const char* prefix, size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(std::string(prefix) + std::to_string(i));
  }
  return keys;
}

HabfOptions SmallOptions() {
  HabfOptions options;
  options.total_bits = 1 << 15;
  options.seed = 7;
  return options;
}

ShardedBuildOptions FourShards() {
  ShardedBuildOptions sharding;
  sharding.num_shards = 4;
  sharding.num_threads = 2;
  return sharding;
}

DynamicOptions EagerCompaction() {
  DynamicOptions dynamic;
  dynamic.dirty_fraction_threshold = 0.0;  // any mutation dirties its shard
  dynamic.compaction_threads = 2;
  return dynamic;
}

/// Batch answers for `keys` (scalar-equivalence is asserted elsewhere).
std::vector<uint8_t> Query(const DynamicShardedHabf& filter,
                           const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  std::vector<uint8_t> out(keys.size());
  filter.ContainsBatch(KeySpan(views.data(), views.size()), out.data());
  return out;
}

TEST(DynamicFilterTest, ConstructionServesBuildSetWithZeroFalseNegatives) {
  const auto positives = MakeKeys("base-", 2000);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  for (const auto& key : positives) {
    EXPECT_TRUE(filter.MightContain(key)) << key;
  }
  EXPECT_EQ(filter.delta_size(), 0u);
  EXPECT_EQ(filter.num_shards(), 4u);
}

TEST(DynamicFilterTest, InsertIsVisibleImmediately) {
  DynamicShardedHabf filter(MakeKeys("base-", 500), {}, SmallOptions(),
                            FourShards(), EagerCompaction());
  EXPECT_FALSE(filter.MightContain("fresh-key-xyzzy") &&
               filter.MightContain("fresh-key-plugh") &&
               filter.MightContain("fresh-key-fnord"))
      << "three simultaneous base false positives would be astronomical";
  filter.Insert("fresh-key-xyzzy");
  EXPECT_TRUE(filter.MightContain("fresh-key-xyzzy"));
  EXPECT_EQ(filter.delta_size(), 1u);
}

TEST(DynamicFilterTest, RemoveMasksKeyUntilCompaction) {
  const auto positives = MakeKeys("base-", 500);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  filter.Remove(positives[42]);
  // Tombstoned: exact mask, so false even though the base still holds it.
  EXPECT_FALSE(filter.MightContain(positives[42]));
  // Everyone else keeps the zero-FN guarantee.
  for (size_t i = 0; i < positives.size(); ++i) {
    if (i != 42) {
      EXPECT_TRUE(filter.MightContain(positives[i])) << i;
    }
  }
  const CompactionReport report = filter.CompactDirtyShards();
  EXPECT_EQ(report.shards_rebuilt, 1u);
  EXPECT_EQ(report.keys_drained, 1u);
  // After compaction the key is a plain non-member: the rebuilt shard may
  // false-positive on it (one-sided error), but the rest must still hit.
  for (size_t i = 0; i < positives.size(); ++i) {
    if (i != 42) {
      EXPECT_TRUE(filter.MightContain(positives[i])) << i;
    }
  }
  EXPECT_EQ(filter.delta_size(), 0u);
}

TEST(DynamicFilterTest, ReinsertAfterRemoveWins) {
  const auto positives = MakeKeys("base-", 300);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  filter.Remove(positives[7]);
  filter.Insert(positives[7]);
  EXPECT_TRUE(filter.MightContain(positives[7]));
  filter.CompactDirtyShards();
  EXPECT_TRUE(filter.MightContain(positives[7]));
  EXPECT_EQ(filter.delta_size(), 0u);
}

TEST(DynamicFilterTest, BatchMatchesScalarAfterRandomizedMutations) {
  const auto positives = MakeKeys("base-", 3000);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  std::mt19937_64 rng(0xD1FF);
  std::vector<std::string> pool = positives;
  const auto extras = MakeKeys("extra-", 1500);
  pool.insert(pool.end(), extras.begin(), extras.end());
  for (size_t step = 0; step < 400; ++step) {
    const std::string& key = pool[rng() % pool.size()];
    if (rng() % 2 == 0) {
      filter.Insert(key);
    } else {
      filter.Remove(key);
    }
    if (step == 200) filter.CompactDirtyShards();
  }
  const std::vector<uint8_t> batch = Query(filter, pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(batch[i] != 0, filter.MightContain(pool[i])) << pool[i];
  }
}

TEST(DynamicFilterTest, ZeroFalseNegativesAcrossRandomizedInterleavings) {
  // The acceptance-criteria test: a mixed insert/delete/query workload must
  // sustain zero false negatives across >= 3 compactions, with the query
  // stream drawing from one shared pool of member and non-member keys.
  const auto positives = MakeKeys("base-", 2500);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  std::unordered_set<std::string> members(positives.begin(), positives.end());
  std::vector<std::string> pool = positives;
  const auto extras = MakeKeys("extra-", 2000);
  pool.insert(pool.end(), extras.begin(), extras.end());

  std::mt19937_64 rng(0x5EED);
  size_t compactions = 0;
  for (size_t round = 0; round < 6; ++round) {
    for (size_t step = 0; step < 300; ++step) {
      const std::string& key = pool[rng() % pool.size()];
      if (rng() % 3 == 0) {
        filter.Remove(key);
        members.erase(key);
      } else {
        filter.Insert(key);
        members.insert(key);
      }
    }
    const CompactionReport report = filter.CompactDirtyShards();
    if (report.shards_rebuilt > 0) ++compactions;
    const std::vector<uint8_t> answers = Query(filter, pool);
    for (size_t i = 0; i < pool.size(); ++i) {
      if (members.count(pool[i]) > 0) {
        ASSERT_TRUE(answers[i]) << "false negative for member " << pool[i]
                                << " after round " << round;
      }
    }
  }
  EXPECT_GE(compactions, 3u);
  EXPECT_GE(filter.stats().compactions, 3u);
}

TEST(DynamicFilterTest, DeltaFullyDrainedAtThresholdZero) {
  const auto positives = MakeKeys("base-", 1000);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  for (size_t i = 0; i < 200; ++i) {
    filter.Insert("drain-" + std::to_string(i));
  }
  for (size_t i = 0; i < 100; ++i) filter.Remove(positives[i]);
  EXPECT_EQ(filter.delta_size(), 300u);
  const CompactionReport report = filter.CompactDirtyShards();
  EXPECT_EQ(report.keys_drained, 300u);
  EXPECT_EQ(filter.delta_size(), 0u);
  for (size_t s = 0; s < filter.num_shards(); ++s) {
    EXPECT_EQ(filter.dirty_keys(s), 0u) << "shard " << s;
  }
  // Folded into the base: inserts hit, and a second compaction is a no-op.
  for (size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(filter.MightContain("drain-" + std::to_string(i))) << i;
  }
  const CompactionReport idle = filter.CompactDirtyShards();
  EXPECT_EQ(idle.shards_rebuilt, 0u);
  EXPECT_EQ(idle.published_version, 0u);
}

TEST(DynamicFilterTest, OnlyDirtyShardsAreRebuilt) {
  const auto positives = MakeKeys("base-", 2000);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  // Aim every mutation at one target shard (rejection-sample fresh keys).
  const size_t target = 2;
  size_t planted = 0;
  for (size_t i = 0; planted < 50; ++i) {
    const std::string key = "targeted-" + std::to_string(i);
    if (filter.ShardOf(key) == target) {
      filter.Insert(key);
      ++planted;
    }
  }
  // Capture every shard's bytes before the compaction.
  std::vector<std::string> before(filter.num_shards());
  {
    const auto snap = filter.AcquireBase();
    for (size_t s = 0; s < filter.num_shards(); ++s) {
      snap.filter->shard(s).Serialize(&before[s]);
    }
  }
  const CompactionReport report = filter.CompactDirtyShards();
  EXPECT_EQ(report.shards_rebuilt, 1u);
  {
    const auto snap = filter.AcquireBase();
    for (size_t s = 0; s < filter.num_shards(); ++s) {
      std::string after;
      snap.filter->shard(s).Serialize(&after);
      if (s == target) {
        EXPECT_NE(after, before[s]) << "dirty shard must be a new build";
      } else {
        EXPECT_EQ(after, before[s]) << "clean shard " << s
                                    << " must be cloned byte-for-byte";
      }
    }
  }
}

TEST(DynamicFilterTest, DirtyFractionThresholdGatesCompaction) {
  const auto positives = MakeKeys("base-", 2000);
  DynamicOptions dynamic;
  dynamic.dirty_fraction_threshold = 0.10;
  dynamic.compaction_threads = 1;
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            dynamic);
  // A handful of mutations: every shard stays under 10% dirty.
  for (size_t i = 0; i < 8; ++i) filter.Insert("few-" + std::to_string(i));
  const CompactionReport below = filter.CompactDirtyShards();
  EXPECT_EQ(below.shards_rebuilt, 0u);
  EXPECT_EQ(filter.delta_size(), 8u) << "nothing drained below threshold";
  // Push one shard decisively past the threshold.
  const size_t target = filter.ShardOf("few-0");
  size_t planted = 0;
  for (size_t i = 0; planted < 200; ++i) {
    const std::string key = "many-" + std::to_string(i);
    if (filter.ShardOf(key) == target) {
      filter.Insert(key);
      ++planted;
    }
  }
  const CompactionReport above = filter.CompactDirtyShards();
  EXPECT_GE(above.shards_rebuilt, 1u);
  EXPECT_LT(above.shards_rebuilt, filter.num_shards())
      << "shards under the threshold must not rebuild";
  EXPECT_TRUE(filter.MightContain("few-0"));
}

TEST(DynamicFilterTest, RejectsInvalidOptions) {
  const auto positives = MakeKeys("base-", 100);
  DynamicOptions bad_threshold;
  bad_threshold.dirty_fraction_threshold = -0.5;
  EXPECT_THROW(DynamicShardedHabf(positives, {}, SmallOptions(), FourShards(),
                                  bad_threshold),
               std::invalid_argument);
  DynamicOptions nan_threshold;
  nan_threshold.dirty_fraction_threshold =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(DynamicShardedHabf(positives, {}, SmallOptions(), FourShards(),
                                  nan_threshold),
               std::invalid_argument);
  DynamicOptions zero_counters;
  zero_counters.delta_counters = 0;
  EXPECT_THROW(DynamicShardedHabf(positives, {}, SmallOptions(), FourShards(),
                                  zero_counters),
               std::invalid_argument);
}

TEST(DynamicFilterTest, SaturatedTinyDeltaFrontStaysCorrect) {
  // An absurdly undersized counting-bloom front saturates immediately; the
  // contract says that only slows the fast path — never a wrong answer.
  const auto positives = MakeKeys("base-", 800);
  DynamicOptions dynamic = EagerCompaction();
  dynamic.delta_counters = 16;  // 8 bytes of front for hundreds of keys
  dynamic.delta_hashes = 2;
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            dynamic);
  std::unordered_set<std::string> members(positives.begin(), positives.end());
  for (size_t i = 0; i < 300; ++i) {
    const std::string key = "sat-" + std::to_string(i);
    filter.Insert(key);
    members.insert(key);
  }
  for (size_t i = 0; i < 100; ++i) {
    filter.Remove(positives[i]);
    members.erase(positives[i]);
  }
  for (const auto& key : members) {
    ASSERT_TRUE(filter.MightContain(key)) << key;
  }
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(filter.MightContain(positives[i]))
        << "tombstone must mask " << positives[i];
  }
  filter.CompactDirtyShards();
  for (const auto& key : members) {
    ASSERT_TRUE(filter.MightContain(key)) << key;
  }
  EXPECT_EQ(filter.delta_size(), 0u);
}

// --- concurrency (the TSan targets) -----------------------------------------

TEST(DynamicFilterTest, ConcurrentReadersDuringCompactions) {
  const auto positives = MakeKeys("base-", 1500);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  // Stable member subset the readers assert on; the writer never touches it.
  const std::vector<std::string> stable(positives.begin(),
                                        positives.begin() + 750);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::string_view> views(stable.begin(), stable.end());
      std::vector<uint8_t> out(views.size());
      std::mt19937_64 rng(r + 1);
      while (!stop.load(std::memory_order_acquire)) {
        if (rng() % 2 == 0) {
          filter.ContainsBatch(KeySpan(views.data(), views.size()),
                               out.data());
          for (size_t i = 0; i < views.size(); ++i) {
            if (!out[i]) failed.store(true, std::memory_order_release);
          }
        } else {
          const std::string& key = stable[rng() % stable.size()];
          if (!filter.MightContain(key)) {
            failed.store(true, std::memory_order_release);
          }
        }
      }
    });
  }

  // Writer + compactor: mutate the volatile half, compact repeatedly.
  size_t compactions = 0;
  std::mt19937_64 rng(99);
  for (size_t round = 0; round < 4; ++round) {
    for (size_t step = 0; step < 150; ++step) {
      const size_t idx = 750 + (rng() % 750);
      if (rng() % 2 == 0) {
        filter.Insert(positives[idx]);
      } else {
        filter.Remove(positives[idx]);
      }
      filter.Insert("conc-" + std::to_string(round) + "-" +
                    std::to_string(step));
    }
    const CompactionReport report = filter.CompactDirtyShards();
    if (report.shards_rebuilt > 0) ++compactions;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load()) << "reader saw a false negative mid-swap";
  EXPECT_GE(compactions, 3u);
}

TEST(DynamicFilterTest, SharedQueryPoolDuringCompactions) {
  // Pooled ContainsBatch fan-out on the published bases while compactions
  // hot-swap them — the pool outlives the filter per the SetQueryPool
  // contract (declared first, destroyed last).
  ThreadPool pool(2);
  const auto positives = MakeKeys("base-", 5000);
  DynamicOptions dynamic = EagerCompaction();
  dynamic.query_pool = &pool;
  dynamic.query_pool_threshold = 1;  // every batch fans out
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            dynamic);
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    std::vector<std::string_view> views(positives.begin(),
                                        positives.begin() + 4000);
    std::vector<uint8_t> out(views.size());
    while (!stop.load(std::memory_order_acquire)) {
      filter.ContainsBatch(KeySpan(views.data(), views.size()), out.data());
      for (size_t i = 0; i < views.size(); ++i) {
        if (!out[i]) failed.store(true, std::memory_order_release);
      }
    }
  });
  for (size_t round = 0; round < 3; ++round) {
    for (size_t i = 0; i < 100; ++i) {
      filter.Insert("pool-" + std::to_string(round) + "-" + std::to_string(i));
    }
    filter.CompactDirtyShards();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GE(filter.stats().compactions, 3u);
}

TEST(DynamicFilterTest, BackgroundCompactionDrainsWithoutFalseNegatives) {
  const auto positives = MakeKeys("base-", 1200);
  DynamicOptions dynamic;
  // Threshold 0: a background pass can land mid-round and leave a shard a
  // handful of keys, below any positive threshold, which the final
  // CompactDirtyShards would then skip and the delta_size check would flag.
  dynamic.dirty_fraction_threshold = 0.0;
  dynamic.compaction_threads = 1;
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            dynamic);
  filter.StartBackgroundCompaction(std::chrono::milliseconds(5));
  std::unordered_set<std::string> members(positives.begin(), positives.end());
  for (size_t round = 0; round < 6; ++round) {
    for (size_t i = 0; i < 60; ++i) {
      const std::string key =
          "bg-" + std::to_string(round) + "-" + std::to_string(i);
      filter.Insert(key);
      members.insert(key);
    }
    for (const auto& key : members) {
      ASSERT_TRUE(filter.MightContain(key)) << key;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Deterministic finish: drain whatever the background thread hasn't.
  filter.StopBackgroundCompaction();
  filter.CompactDirtyShards();
  EXPECT_EQ(filter.delta_size(), 0u);
  for (const auto& key : members) {
    ASSERT_TRUE(filter.MightContain(key)) << key;
  }
  // Restart is idempotent and the destructor stops the thread again.
  filter.StartBackgroundCompaction(std::chrono::milliseconds(50));
  filter.StartBackgroundCompaction(std::chrono::milliseconds(50));
}

TEST(DynamicFilterTest, ConcurrentWritersRouteAndCount) {
  const auto positives = MakeKeys("base-", 600);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < 200; ++i) {
        filter.Insert("w" + std::to_string(w) + "-" + std::to_string(i));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(filter.delta_size(), 600u);
  size_t dirty_total = 0;
  for (size_t s = 0; s < filter.num_shards(); ++s) {
    dirty_total += filter.dirty_keys(s);
  }
  EXPECT_EQ(dirty_total, 600u) << "per-shard dirty counts must sum to delta";
  EXPECT_EQ(filter.stats().inserts, 600u);
  filter.CompactDirtyShards();
  for (int w = 0; w < 3; ++w) {
    for (size_t i = 0; i < 200; ++i) {
      const std::string key = "w" + std::to_string(w) + "-" + std::to_string(i);
      ASSERT_TRUE(filter.MightContain(key)) << key;
    }
  }
}

TEST(DynamicFilterTest, RemutatedKeyKeepsOneDeltaEntry) {
  // Pins the semantics the single-lookup try_emplace rewrite of
  // Insert/Remove must preserve: re-mutating a key that is already resident
  // in the delta flips its tombstone state in place — one delta entry, one
  // dirty count, latest mutation wins.
  const auto positives = MakeKeys("base-", 200);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  filter.Insert("churn-key");
  filter.Remove("churn-key");
  filter.Insert("churn-key");
  EXPECT_EQ(filter.delta_size(), 1u);
  size_t dirty_total = 0;
  for (size_t s = 0; s < filter.num_shards(); ++s) {
    dirty_total += filter.dirty_keys(s);
  }
  EXPECT_EQ(dirty_total, 1u);
  EXPECT_TRUE(filter.MightContain("churn-key"));
  EXPECT_EQ(filter.stats().inserts, 2u);
  EXPECT_EQ(filter.stats().removes, 1u);

  filter.Remove("churn-key");
  EXPECT_EQ(filter.delta_size(), 1u);
  EXPECT_FALSE(filter.MightContain("churn-key"));
  filter.CompactDirtyShards();
  EXPECT_EQ(filter.delta_size(), 0u);
  EXPECT_FALSE(filter.MightContain("churn-key"));
}

TEST(DynamicFilterTest, BackgroundCompactionStartStopRace) {
  // Regression for the PR-7 lifecycle fix: Stop used to move the worker
  // thread out under the condvar mutex and join it outside the lock, so a
  // Start racing the tail of a Stop could clear background_stop_ before
  // the old loop observed it — Stop then join()ed a loop with no stop
  // request pending and hung forever. Start/Stop are now serialized
  // end-to-end (join included) by a dedicated lifecycle mutex; if the race
  // is ever reintroduced this test hangs and trips the ctest timeout.
  const auto positives = MakeKeys("base-", 300);
  DynamicShardedHabf filter(positives, {}, SmallOptions(), FourShards(),
                            EagerCompaction());
  std::atomic<bool> go{false};
  std::vector<std::thread> togglers;
  for (int t = 0; t < 2; ++t) {
    togglers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < 40; ++i) {
        filter.StartBackgroundCompaction(std::chrono::milliseconds(1));
        filter.StopBackgroundCompaction();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : togglers) t.join();
  // Each toggler's final op is a Stop and lifecycle ops are serialized, so
  // the last lifecycle transition system-wide is a Stop: no background
  // thread may survive the storm. A fresh mutation therefore stays in the
  // delta until an explicit compaction drains it.
  filter.Insert("race-probe");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(filter.delta_size(), 1u);
  filter.CompactDirtyShards();
  EXPECT_EQ(filter.delta_size(), 0u);
  EXPECT_TRUE(filter.MightContain("race-probe"));
}

}  // namespace
}  // namespace habf
