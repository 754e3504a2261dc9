// Tests of the asynchronous sharded build (BuildShardedHabfAsync +
// BuildHandle, core/sharded_filter.h): the differential guarantee that an
// async-built filter is bit-for-bit identical to the synchronous build, the
// cancellation matrix (cancel-before-start, cancel-mid-build,
// cancel-after-completion), handle misuse (double TakeResult, moved-from
// handles, destroy-without-wait), and batched readers of a serving filter
// during a rebuild on a shared pool — the concurrency surface the TSan job
// races.

#include "core/sharded_filter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/filter_interface.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "eval/metrics.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"

namespace habf {
namespace {

constexpr size_t kKeys = 6000;

const Dataset& SharedData() {
  static const Dataset data = [] {
    DatasetOptions options;
    options.num_positives = kKeys;
    options.num_negatives = kKeys;
    options.seed = 171717;
    return GenerateShallaLike(options);
  }();
  return data;
}

HabfOptions BaseOptions() {
  HabfOptions options;
  options.total_bits = 10 * kKeys;
  return options;
}

ShardedBuildOptions Sharding(size_t shards, size_t threads) {
  ShardedBuildOptions sharding;
  sharding.num_shards = shards;
  sharding.num_threads = threads;
  return sharding;
}

ShardedBuildOptions TwoChoiceSharding(size_t shards, size_t threads) {
  ShardedBuildOptions sharding = Sharding(shards, threads);
  sharding.routing = RoutingMode::kTwoChoice;
  return sharding;
}

std::string SnapshotBytes(const ShardedFilter<Habf>& filter) {
  std::string bytes;
  filter.Serialize(&bytes);
  return bytes;
}

/// Parks the pool's (single) worker until Release() — the deterministic way
/// to hold async shard tasks in the queue while the test cancels or
/// inspects the handle.
class WorkerBlocker {
 public:
  explicit WorkerBlocker(ThreadPool* pool) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(AsyncBuildTest, AsyncResultIsBitForBitIdenticalToSyncBuild) {
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    const auto sync = BuildShardedHabf(SharedData().positives,
                                       SharedData().negatives, BaseOptions(),
                                       Sharding(shards, 2));
    BuildHandle handle =
        BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                              BaseOptions(), Sharding(shards, 2));
    EXPECT_EQ(handle.num_shards(), shards);
    const auto async = handle.TakeResult();
    EXPECT_TRUE(handle.Ready());
    EXPECT_EQ(handle.CompletedShards(), shards);
    EXPECT_EQ(SnapshotBytes(async), SnapshotBytes(sync)) << shards
                                                         << " shards";
  }
}

TEST(AsyncBuildTest, ResultServesQueriesIdenticallyToSync) {
  const auto sync =
      BuildShardedHabf(SharedData().positives, SharedData().negatives,
                       BaseOptions(), Sharding(4, 2));
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(4, 2));
  const auto async = handle.TakeResult();
  EXPECT_EQ(CountFalseNegatives(async, SharedData().positives), 0u);
  for (const auto& wk : SharedData().negatives) {
    EXPECT_EQ(async.MightContain(wk.key), sync.MightContain(wk.key));
  }
}

TEST(AsyncBuildTest, CancelBeforeAnyShardStartsAbandonsTheBuild) {
  ThreadPool pool(1);
  WorkerBlocker blocker(&pool);  // every shard task queues behind this
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(4, 1), &pool);
  EXPECT_FALSE(handle.Ready());
  EXPECT_FALSE(handle.CancelRequested());
  handle.Cancel();
  EXPECT_TRUE(handle.CancelRequested());
  blocker.Release();
  handle.Wait();
  EXPECT_TRUE(handle.Ready());
  EXPECT_EQ(handle.CompletedShards(), 0u)
      << "every shard task observed the flag before building";
  EXPECT_THROW(handle.TakeResult(), BuildCancelledError);
  pool.WaitAll();  // the abandoned build must not have poisoned the pool
}

TEST(AsyncBuildTest, CancelMidBuildAbandonsQueuedShardsPromptly) {
  // One worker, many shards: Cancel() fires after the first shard build
  // completes, i.e. genuinely mid-build. The worker almost always still has
  // queued shards at that point, which must be abandoned (TakeResult throws
  // BuildCancelledError with completed < 32); on a pathological schedule
  // the worker may have blitzed the whole queue first, in which case the
  // documented best-effort contract delivers the intact result instead.
  // Either way the handle must be internally consistent — the assertions
  // pin the contract, not the schedule.
  ThreadPool pool(1);
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(32, 1), &pool);
  while (handle.CompletedShards() == 0 && !handle.Ready()) {
    std::this_thread::yield();
  }
  handle.Cancel();
  handle.Wait();
  const size_t completed = handle.CompletedShards();
  EXPECT_GE(completed, 1u);
  if (completed < 32) {
    EXPECT_THROW(handle.TakeResult(), BuildCancelledError)
        << "abandoned shards must surface as cancellation";
  } else {
    const auto filter = handle.TakeResult();  // cancel lost the whole race
    EXPECT_EQ(filter.num_shards(), 32u);
  }
  pool.WaitAll();  // nothing leaked onto the shared pool either way
}

TEST(AsyncBuildTest, CancelAfterCompletionStillDeliversTheResult) {
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(3, 2));
  handle.Wait();
  handle.Cancel();  // too late: every shard already built
  EXPECT_TRUE(handle.CancelRequested());
  const auto filter = handle.TakeResult();  // documented best-effort win
  EXPECT_EQ(filter.num_shards(), 3u);
  EXPECT_EQ(CountFalseNegatives(filter, SharedData().positives), 0u);
}

TEST(AsyncBuildTest, DoubleTakeResultThrowsLogicError) {
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(2, 1));
  (void)handle.TakeResult();
  EXPECT_THROW(handle.TakeResult(), std::logic_error);
}

TEST(AsyncBuildTest, TakeResultAfterCancelledTakeAlsoThrowsLogicError) {
  ThreadPool pool(1);
  // The blocker must outlive the queue drain: its lambda reads members on
  // this stack frame, so it is destroyed only after TakeResult's Wait
  // proves the worker moved past it (a TSan finding pinned this ordering).
  WorkerBlocker blocker(&pool);
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(2, 1), &pool);
  handle.Cancel();
  blocker.Release();
  EXPECT_THROW(handle.TakeResult(), BuildCancelledError);
  // The first TakeResult consumed the (cancelled) build either way.
  EXPECT_THROW(handle.TakeResult(), std::logic_error);
}

TEST(AsyncBuildTest, DestroyingHandleWithoutWaitJoinsAndLeaksNothing) {
  // ASan (leaks) and TSan (join ordering) turn any violation here into a
  // failure; the keys are destroyed right after the handle, so a task that
  // outlived its handle would read freed memory.
  std::vector<std::string> positives(SharedData().positives);
  std::vector<WeightedKey> negatives(SharedData().negatives);
  {
    BuildHandle handle = BuildShardedHabfAsync(positives, negatives,
                                               BaseOptions(), Sharding(8, 2));
    (void)handle;  // dropped immediately: cancels the tail, joins the rest
  }
  positives.clear();
  negatives.clear();
}

TEST(AsyncBuildTest, DestroyingHandleOnExternalPoolLeavesPoolReusable) {
  ThreadPool pool(2);
  {
    BuildHandle handle =
        BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                              BaseOptions(), Sharding(8, 2), &pool);
  }
  // The abandoned build's tasks are gone (the handle destructor waited for
  // them) and the pool serves new work without surfacing stale state.
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.Submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.WaitAll());
  EXPECT_EQ(ran.load(), 16);
}

TEST(AsyncBuildTest, MovedFromHandleIsInertAndMoveAssignAbandons) {
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(2, 1));
  BuildHandle moved = std::move(handle);
  EXPECT_TRUE(handle.Ready());  // NOLINT(bugprone-use-after-move): documented
  EXPECT_EQ(handle.num_shards(), 0u);
  EXPECT_THROW(handle.TakeResult(), std::logic_error);

  // Move-assigning a fresh build over `moved` abandons the old one safely.
  moved = BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                                BaseOptions(), Sharding(3, 1));
  EXPECT_EQ(moved.TakeResult().num_shards(), 3u);
}

// Batched queries on the serving filter while an async rebuild runs its
// shard tasks on a shared pool: answers stay bit-for-bit those of before
// the rebuild, and the rebuild is unaffected by the readers.
TEST(AsyncBuildTest, PooledQueriesAndAsyncRebuildShareOnePoolSafely) {
  ThreadPool pool(3);
  auto serving = BuildShardedHabf(SharedData().positives,
                                  SharedData().negatives, BaseOptions(),
                                  Sharding(4, 2));

  // Reference answers, before the rebuild starts.
  std::vector<std::string_view> mixed;
  for (size_t i = 0; i < 2000; ++i) {
    mixed.push_back(i % 2 == 0
                        ? std::string_view(SharedData().positives[i])
                        : std::string_view(SharedData().negatives[i].key));
  }
  std::vector<uint8_t> expected(mixed.size());
  const size_t expected_positives =
      serving.ContainsBatch(KeySpan(mixed.data(), mixed.size()),
                            expected.data());

  HabfOptions rebuild_options = BaseOptions();
  rebuild_options.seed = 99;  // the rebuild is a different filter
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            rebuild_options, Sharding(6, 2), &pool);

  // Hammer batches from two reader threads while the rebuild's shard tasks
  // run on the pool.
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::vector<uint8_t> out(mixed.size());
      for (int round = 0; round < 20; ++round) {
        const size_t positives = serving.ContainsBatch(
            KeySpan(mixed.data(), mixed.size()), out.data());
        if (positives != expected_positives || out != expected) {
          mismatch.store(true);
          return;
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(mismatch.load())
      << "batch answers corrupted by concurrent rebuild tasks";

  const auto rebuilt = handle.TakeResult();
  EXPECT_EQ(rebuilt.num_shards(), 6u);
  EXPECT_EQ(CountFalseNegatives(rebuilt, SharedData().positives), 0u);

  // And the rebuilt filter matches a synchronous build of the same plan.
  const auto sync = BuildShardedHabf(SharedData().positives,
                                     SharedData().negatives, rebuild_options,
                                     Sharding(6, 2));
  EXPECT_EQ(SnapshotBytes(rebuilt), SnapshotBytes(sync));
}

// The async/sync bit-identity contract must hold under two-choice routing
// too: both paths share one plan, directory included, so the SHR2 bytes —
// routing directory, routed weights, every shard sub-snapshot — match.
TEST(AsyncBuildTest, AsyncTwoChoiceResultIsBitForBitIdenticalToSyncBuild) {
  for (size_t shards : {size_t{1}, size_t{4}, size_t{7}}) {
    const auto sync = BuildShardedHabf(SharedData().positives,
                                       SharedData().negatives, BaseOptions(),
                                       TwoChoiceSharding(shards, 2));
    BuildHandle handle =
        BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                              BaseOptions(), TwoChoiceSharding(shards, 2));
    const auto async = handle.TakeResult();
    EXPECT_EQ(async.routing(), sync.routing());
    EXPECT_EQ(SnapshotBytes(async), SnapshotBytes(sync)) << shards
                                                         << " shards";
  }
}

// The routing-mode differential through the full serve loop: while an async
// rebuild runs, every batch answered from the pinned FilterStore snapshot
// must agree key-for-key with scalar Contains on that same snapshot — under
// uniform and two-choice routing alike, before and after the hot swap.
TEST(AsyncBuildTest, BatchAgreesWithScalarDuringHotSwapUnderBothRoutings) {
  for (const bool two_choice : {false, true}) {
    const ShardedBuildOptions sharding =
        two_choice ? TwoChoiceSharding(4, 2) : Sharding(4, 2);
    FilterStore<ShardedFilter<Habf>> store(
        BuildShardedHabf(SharedData().positives, SharedData().negatives,
                         BaseOptions(), sharding));

    std::vector<std::string_view> mixed;
    for (size_t i = 0; i < 1500; ++i) {
      mixed.push_back(i % 2 == 0
                          ? std::string_view(SharedData().positives[i])
                          : std::string_view(SharedData().negatives[i].key));
    }

    HabfOptions rebuild_options = BaseOptions();
    rebuild_options.seed = 4242;  // the replacement is a different filter
    BuildHandle handle =
        BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                              rebuild_options, sharding);
    auto check_batch_against_scalar = [&](uint64_t* version_seen) {
      const auto snapshot = store.Acquire();
      if (version_seen != nullptr) *version_seen = snapshot.version;
      std::vector<uint8_t> out(mixed.size());
      snapshot.filter->ContainsBatch(KeySpan(mixed.data(), mixed.size()),
                                     out.data());
      for (size_t i = 0; i < mixed.size(); ++i) {
        ASSERT_EQ(out[i] != 0, snapshot.filter->MightContain(mixed[i]))
            << (two_choice ? "two-choice" : "uniform") << " key " << i
            << " snapshot v" << snapshot.version;
      }
    };
    // At least one pre-swap round even if the rebuild wins every race.
    uint64_t version_before = 0;
    do {
      check_batch_against_scalar(&version_before);
    } while (!handle.Ready());
    store.Publish(handle.TakeResult());
    uint64_t version_after = 0;
    check_batch_against_scalar(&version_after);
    EXPECT_GT(version_after, version_before);
    EXPECT_EQ(store.Acquire().filter->routing(),
              two_choice ? RoutingMode::kTwoChoice : RoutingMode::kUniform);
  }
}

// A task some other pool client escapes an exception from must surface in
// that client's WaitAll, not corrupt the async build sharing the queue.
TEST(AsyncBuildTest, ForeignThrowingTaskDoesNotAffectSharedPoolBuild) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("foreign task"); });
  BuildHandle handle =
      BuildShardedHabfAsync(SharedData().positives, SharedData().negatives,
                            BaseOptions(), Sharding(4, 2), &pool);
  const auto filter = handle.TakeResult();  // unaffected by the throw
  EXPECT_EQ(filter.num_shards(), 4u);
  EXPECT_THROW(pool.WaitAll(), std::runtime_error)
      << "the foreign exception still belongs to the pool's own barrier";
}

}  // namespace
}  // namespace habf
