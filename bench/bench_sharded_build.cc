// Sharded HABF bench: parallel-vs-serial TPJO construction, the zero-copy
// partitioning memory win, and sharded batch-query throughput — serial
// grouping and the pooled per-shard fan-out (results recorded into
// BENCH_query.json).
//
// Construction is HABF's dominant cost (paper §IV); the sharded build runs
// S independent TPJO builds on a util/thread_pool.h pool, so on a T-core
// host the expected construction speedup approaches min(S, T). The memory
// section compares the span-based partitioning (shard-contiguous view
// permutations over the caller's keys) against a bench-local replica of the
// old copying partition (per-shard std::string vectors), via both exact
// logical partition bytes and per-build peak-RSS deltas, each build forked
// into its own child (identical inherited heap, VmHWM reset via clear_refs)
// so neither build can hide allocations in pages the other faulted in.
//
// The skew section measures the routing-balance win of the two-choice
// directory (DESIGN.md §6): max/mean shard weight under uniform hash
// routing vs the two-choice directory, on a Zipf(1.1)-weighted key set and
// on a single-hot-key adversarial set (routing-only — no filter builds — so
// it runs at full acceptance scale, 1M keys, in milliseconds).
//
// The dynamic section exercises the mutable tier (DESIGN.md §7): sustained
// mixed insert/delete/query throughput against DynamicShardedHabf while
// dirty-shard compactions run on a background thread, plus a sweep that
// aims mutations at exactly k shards and compacts, showing rebuild cost
// scaling with the dirty-shard count rather than the filter size.
//
// Usage: bench_sharded_build [--keys N] [--shards S] [--threads T]
//                            [--repeats R] [--skew-keys N] [--json]
// Defaults: 200k keys, S = 8, T = hardware threads, 3 repeats, 1M skew
// keys, table output.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "core/delta_wal.h"
#include "core/dynamic_filter.h"
#include "core/filter_interface.h"
#include "core/filter_store.h"
#include "core/habf.h"
#include "core/routing_directory.h"
#include "core/sharded_filter.h"
#include "eval/metrics.h"
#include "util/memory.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workload/dataset.h"

namespace habf {
namespace {

struct Args {
  size_t keys = 200000;
  size_t shards = 8;
  size_t threads = 0;  // 0 = hardware concurrency
  int repeats = 3;
  size_t skew_keys = 1000000;
  bool json = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--keys") {
      if (const char* v = next()) args.keys = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shards") {
      if (const char* v = next()) args.shards = std::strtoull(v, nullptr, 10);
    } else if (arg == "--threads") {
      if (const char* v = next()) args.threads = std::strtoull(v, nullptr, 10);
    } else if (arg == "--repeats") {
      if (const char* v = next()) {
        args.repeats = static_cast<int>(std::strtol(v, nullptr, 10));
      }
    } else if (arg == "--skew-keys") {
      if (const char* v = next()) {
        args.skew_keys = std::strtoull(v, nullptr, 10);
      }
    } else if (arg == "--json") {
      args.json = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_sharded_build [--keys N] [--shards S] "
                   "[--threads T] [--repeats R] [--skew-keys N] [--json]\n");
      std::exit(1);
    }
  }
  if (args.keys == 0 || args.shards == 0 || args.repeats < 1 ||
      args.skew_keys == 0) {
    std::fprintf(stderr, "bad arguments\n");
    std::exit(1);
  }
  return args;
}

/// Best-of-R wall time of `fn` in nanoseconds (construction benches report
/// the minimum: it is the least noise-contaminated estimate).
template <typename Fn>
uint64_t BestOf(int repeats, Fn&& fn) {
  uint64_t best = ~uint64_t{0};
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedNanos());
  }
  return best;
}

struct Result {
  std::string name;
  uint64_t total_ns;
  double ns_per_key;
  double items_per_second;
};

/// The serving-overlap measurement (DESIGN.md §5): queries answered from
/// the current FilterStore snapshot while BuildShardedHabfAsync rebuilt a
/// replacement, i.e. the work a blocking rebuild would have stalled.
struct OverlapReport {
  uint64_t rebuild_ns = 0;
  size_t queries_served = 0;
  double queries_per_second = 0.0;
};

/// Routing balance under skewed key weights: max/mean shard weight of
/// uniform hash routing vs the two-choice directory, per workload.
struct RoutingBalanceReport {
  size_t skew_keys = 0;
  /// The single-hot-key workload runs at a tenth of the Zipf scale (its
  /// balance story is about the one hot key, not the tail) — reported
  /// separately so the hot_* ratios are never read at the wrong scale.
  size_t hot_keys = 0;
  double zipf_theta = 1.1;
  double hot_fraction = 0.10;
  double zipf_uniform_ratio = 0.0;
  double zipf_two_choice_ratio = 0.0;
  double hot_uniform_ratio = 0.0;
  double hot_two_choice_ratio = 0.0;
  uint64_t directory_build_ns = 0;  // bucketize + two-choice, Zipf set
};

/// Routes `keys` both ways and returns (uniform ratio, two-choice ratio).
std::pair<double, double> MeasureRoutingRatios(
    const std::vector<WeightedKey>& keys, size_t num_shards,
    uint64_t* build_ns) {
  std::vector<std::pair<std::string_view, double>> views;
  views.reserve(keys.size());
  for (const WeightedKey& wk : keys) views.emplace_back(wk.key, wk.cost);
  const double uniform =
      UniformRoutingMaxMeanRatio(views, kDefaultShardSalt, num_shards);
  Stopwatch watch;
  std::vector<double> bucket_weights(kDefaultRoutingBuckets, 0.0);
  for (const WeightedKey& wk : keys) {
    bucket_weights[RoutingBucketOfKey(wk.key, kDefaultShardSalt,
                                      kDefaultRoutingBuckets)] += wk.cost;
  }
  const RoutingDirectory directory = BuildTwoChoiceDirectory(
      bucket_weights, num_shards, kDefaultShardSalt);
  if (build_ns != nullptr) *build_ns = watch.ElapsedNanos();
  return {uniform, directory.MaxMeanWeightRatio()};
}

RoutingBalanceReport MeasureRoutingBalance(const Args& args) {
  RoutingBalanceReport report;
  report.skew_keys = args.skew_keys;
  const auto zipf =
      GenerateZipfWeightedKeys(args.skew_keys, report.zipf_theta, 0x21BF);
  std::tie(report.zipf_uniform_ratio, report.zipf_two_choice_ratio) =
      MeasureRoutingRatios(zipf, args.shards, &report.directory_build_ns);
  const auto hot = GenerateSingleHotKeySet(
      std::max<size_t>(args.skew_keys / 10, 1), report.hot_fraction, 0x407);
  report.hot_keys = hot.size();
  std::tie(report.hot_uniform_ratio, report.hot_two_choice_ratio) =
      MeasureRoutingRatios(hot, args.shards, nullptr);
  return report;
}

/// One compaction pass of the dynamic-tier scaling sweep: mutations were
/// aimed at exactly `dirty_shards` shards (rejection-sampled via ShardOf),
/// so rebuild cost should scale with the dirty-shard count, not the filter
/// size — the incremental-compaction claim of DESIGN.md §7.
struct DynamicCompactionSample {
  size_t dirty_shards = 0;
  size_t shards_rebuilt = 0;
  size_t keys_drained = 0;
  uint64_t rebuild_ns = 0;
};

/// The dynamic mixed-workload measurement (DESIGN.md §7): sustained
/// insert/delete/query throughput against DynamicShardedHabf across
/// background compactions, plus the per-compaction cost sweep.
struct DynamicWorkloadReport {
  size_t keys = 0;
  size_t shards = 0;
  double mutate_rate = 0.10;
  size_t total_ops = 0;
  uint64_t workload_ns = 0;
  double ops_per_second = 0.0;
  size_t workload_compactions = 0;
  std::vector<DynamicCompactionSample> sweep;
};

DynamicWorkloadReport MeasureDynamicWorkload(const Dataset& data,
                                             const Args& args,
                                             size_t effective_threads) {
  DynamicWorkloadReport report;
  // A quarter of the build-bench scale keeps the section's several shard
  // rebuilds proportionate to the rest of the bench's runtime.
  report.keys = std::min(std::max<size_t>(args.keys / 4, 1000),
                         data.positives.size());
  report.shards = args.shards;
  std::vector<std::string> positives(data.positives.begin(),
                                     data.positives.begin() + report.keys);
  HabfOptions options;
  options.total_bits = report.keys * 10;
  ShardedBuildOptions sharding;
  sharding.num_shards = args.shards;
  sharding.num_threads = effective_threads;
  DynamicOptions dynamic;
  dynamic.dirty_fraction_threshold = 0.0;
  dynamic.compaction_threads = effective_threads;
  DynamicShardedHabf filter(positives, {}, options, sharding, dynamic);

  // --- sustained mixed workload across compactions -------------------------
  // Rounds of (mutate_rate * batch) mutations + batched queries, with one
  // dirty-shard compaction per round running on a background thread while
  // the queries keep flowing.
  constexpr size_t kBatch = 1024;
  constexpr size_t kRounds = 3;
  std::vector<std::string_view> views(positives.begin(), positives.end());
  std::vector<uint8_t> out(kBatch);
  size_t cursor = 0;
  size_t serial = 0;
  Stopwatch workload_watch;
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t mutations =
        static_cast<size_t>(report.mutate_rate * kBatch);
    for (size_t m = 0; m < mutations; ++m) {
      if (m % 2 == 0) {
        filter.Insert("bench-dyn-" + std::to_string(serial++));
      } else {
        filter.Remove(positives[(round * mutations + m) % positives.size()]);
      }
    }
    std::atomic<bool> done{false};
    std::thread compactor([&] {
      filter.CompactDirtyShards();
      done.store(true, std::memory_order_release);
    });
    do {
      const size_t count = std::min(kBatch, views.size() - cursor);
      filter.ContainsBatch(KeySpan(views.data() + cursor, count), out.data());
      cursor = (cursor + count) % views.size();
      report.total_ops += count;
    } while (!done.load(std::memory_order_acquire));
    compactor.join();
    report.total_ops += mutations;
  }
  report.workload_ns = workload_watch.ElapsedNanos();
  report.ops_per_second =
      static_cast<double>(report.total_ops) /
      (static_cast<double>(std::max<uint64_t>(report.workload_ns, 1)) * 1e-9);
  report.workload_compactions = filter.stats().compactions;

  // --- per-compaction cost vs dirty-shard count ----------------------------
  // Aim a fixed per-shard mutation dose at exactly k shards and compact:
  // rebuild_ns should grow ~linearly in k (only dirty shards rebuild).
  const size_t per_shard_dose =
      std::max<size_t>(report.keys / (20 * args.shards), 8);
  for (size_t k = 1; k <= args.shards; k *= 2) {
    for (size_t target = 0; target < k; ++target) {
      size_t planted = 0;
      for (size_t i = 0; planted < per_shard_dose; ++i) {
        const std::string key = "sweep-" + std::to_string(k) + "-" +
                                std::to_string(target) + "-" +
                                std::to_string(i);
        if (filter.ShardOf(key) == target) {
          filter.Insert(key);
          ++planted;
        }
      }
    }
    const CompactionReport pass = filter.CompactDirtyShards();
    DynamicCompactionSample sample;
    sample.dirty_shards = k;
    sample.shards_rebuilt = pass.shards_rebuilt;
    sample.keys_drained = pass.keys_drained;
    sample.rebuild_ns = pass.rebuild_ns;
    report.sweep.push_back(sample);
  }
  return report;
}

/// WAL durability cost (DESIGN.md §10): what an acknowledged mutation pays
/// for the fsynced delta log, how group commit amortizes that fsync across
/// concurrent committers, and what a crash-recovery Open costs (snapshot
/// parse + WAL replay + the collapsing checkpoint).
struct WalDurabilityReport {
  bool measured = false;  // false when the temp WAL dir is unusable
  size_t appends = 0;     // per serial run
  uint64_t fsync_append_ns = 0;    // serial Append loop, fsync per commit
  double fsync_appends_per_second = 0.0;
  uint64_t nofsync_append_ns = 0;  // same loop without fsync (framing cost)
  double nofsync_appends_per_second = 0.0;
  size_t group_threads = 0;
  size_t group_appends = 0;        // total across the committer threads
  uint64_t group_commit_ns = 0;
  double group_appends_per_second = 0.0;
  size_t recovery_base_keys = 0;
  size_t recovery_wal_records = 0;  // pending mutations Open had to replay
  uint64_t recovery_open_ns = 0;
  bool recovery_zero_fn = false;    // every replayed insert answered true
};

WalDurabilityReport MeasureWalDurability(const Dataset& data, const Args& args,
                                         size_t effective_threads) {
  WalDurabilityReport report;
  const std::string dir =
      "/tmp/habf_bench_wal_" + std::to_string(static_cast<long>(getpid()));
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return report;

  // --- serial append cost, fsync on vs off --------------------------------
  // Append = Enqueue + SyncTo, exactly what an acknowledged Insert/Remove
  // pays. The fsync run is the durability price; the no-fsync run isolates
  // the framing + buffering cost around it.
  report.appends =
      std::min<size_t>(std::max<size_t>(args.keys / 100, 256), 2048);
  auto serial_run = [&](bool do_fsync) -> uint64_t {
    auto wal = DeltaWalWriter::Open(dir, 1, 1, do_fsync);
    if (wal == nullptr) return 0;
    Stopwatch watch;
    for (size_t i = 0; i < report.appends; ++i) {
      if (wal->Append("bench-wal-" + std::to_string(i), true) == 0) return 0;
    }
    const uint64_t ns = watch.ElapsedNanos();
    wal.reset();
    RemoveWalFilesBelow(dir, ~uint64_t{0});
    return ns;
  };
  report.fsync_append_ns = serial_run(/*do_fsync=*/true);
  report.nofsync_append_ns = serial_run(/*do_fsync=*/false);
  if (report.fsync_append_ns == 0 || report.nofsync_append_ns == 0) {
    return report;
  }
  const double appends_d = static_cast<double>(report.appends);
  report.fsync_appends_per_second =
      appends_d / (static_cast<double>(report.fsync_append_ns) * 1e-9);
  report.nofsync_appends_per_second =
      appends_d / (static_cast<double>(report.nofsync_append_ns) * 1e-9);

  // --- group commit under concurrent committers ---------------------------
  // T threads Enqueue + SyncTo concurrently; one flush leader fsyncs the
  // whole accumulated batch, so total wall time stays far below T serial
  // runs — the per-append cost *drops* under contention.
  report.group_threads = std::max<size_t>(effective_threads, 2);
  {
    auto wal = DeltaWalWriter::Open(dir, 1, 1, /*do_fsync=*/true);
    if (wal == nullptr) return report;
    const size_t per_thread =
        std::max<size_t>(report.appends / report.group_threads, 1);
    report.group_appends = per_thread * report.group_threads;
    std::vector<std::thread> committers;
    committers.reserve(report.group_threads);
    Stopwatch watch;
    for (size_t t = 0; t < report.group_threads; ++t) {
      committers.emplace_back([&, t] {
        for (size_t i = 0; i < per_thread; ++i) {
          const uint64_t seq =
              wal->Enqueue("bench-wal-" + std::to_string(t) + "-" +
                               std::to_string(i),
                           true);
          if (seq != 0) wal->SyncTo(seq);
        }
      });
    }
    for (std::thread& th : committers) th.join();
    report.group_commit_ns = watch.ElapsedNanos();
    const bool healthy = wal->healthy();
    wal.reset();
    RemoveWalFilesBelow(dir, ~uint64_t{0});
    if (!healthy) return report;
    report.group_appends_per_second =
        static_cast<double>(report.group_appends) /
        (static_cast<double>(std::max<uint64_t>(report.group_commit_ns, 1)) *
         1e-9);
  }

  // --- crash-recovery Open -------------------------------------------------
  // A durable filter with its initial checkpoint plus a pending WAL tail is
  // dropped without a final checkpoint (the crash), then Open() pays the
  // full restart: snapshot parse, replay, collapsing checkpoint.
  report.recovery_base_keys = std::min<size_t>(
      std::max<size_t>(args.keys / 8, 1000), data.positives.size());
  std::vector<std::string> base(
      data.positives.begin(),
      data.positives.begin() + report.recovery_base_keys);
  HabfOptions options;
  options.total_bits = report.recovery_base_keys * 10;
  ShardedBuildOptions sharding;
  sharding.num_shards = args.shards;
  sharding.num_threads = effective_threads;
  DynamicOptions dynamic;
  report.recovery_wal_records = std::min<size_t>(report.appends, 1024);
  {
    auto filter = std::make_unique<DynamicShardedHabf>(
        base, std::vector<WeightedKey>{}, options, sharding, dynamic);
    std::string error;
    if (!filter->EnableDurability(dir, &error)) return report;
    for (size_t i = 0; i < report.recovery_wal_records; ++i) {
      filter->Insert("bench-recover-" + std::to_string(i));
    }
  }
  Stopwatch open_watch;
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir, dynamic, &error);
  report.recovery_open_ns = open_watch.ElapsedNanos();
  if (reopened != nullptr) {
    report.measured = true;
    report.recovery_zero_fn = true;
    for (size_t i = 0; i < report.recovery_wal_records; ++i) {
      if (!reopened->MightContain("bench-recover-" + std::to_string(i))) {
        report.recovery_zero_fn = false;
        break;
      }
    }
  }
  reopened.reset();
  RemoveWalFilesBelow(dir, ~uint64_t{0});
  unlink(DynamicSnapshotPath(dir).c_str());
  rmdir(dir.c_str());
  return report;
}

/// Partition-memory comparison of the zero-copy sharded build against the
/// old copying partition: exact logical byte counts plus per-build peak-RSS
/// deltas measured in forked children.
struct MemoryReport {
  size_t input_key_bytes = 0;      // key payload held by the caller
  size_t span_partition_bytes = 0; // views + shard ids + offsets
  size_t copy_partition_bytes = 0; // per-shard string/WeightedKey copies
  /// Per-build peak RSS growth, each measured in its own forked child so
  /// both builds start from the identical heap snapshot (in-process, the
  /// second build hides its allocations in pages the first already faulted
  /// in). 0 when fork//proc is unavailable.
  size_t peak_rss_delta_span_build = 0;
  size_t peak_rss_delta_copy_build = 0;
};

/// Runs `build` in a forked child and returns the child's peak-RSS growth
/// (VmHWM reset via clear_refs, then peak - rss_before). COW makes the
/// parent's dataset free to share; every build allocation faults private
/// pages that count toward the delta.
size_t PeakRssDeltaInChild(const std::function<void()>& build) {
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    // Without the watermark reset the reading would be the inherited
    // lifetime peak (dataset generation included), not this build's — keep
    // the documented "0 when unavailable" instead of recording garbage.
    const bool reset_ok = ResetPeakResidentSetBytes();
    const size_t before = ReadResidentSetBytes();
    build();
    const size_t peak = ReadPeakResidentSetBytes();
    const size_t delta =
        reset_ok && peak > before ? peak - before : 0;
    ssize_t ignored = write(fds[1], &delta, sizeof(delta));
    (void)ignored;
    _exit(0);
  }
  close(fds[1]);
  size_t delta = 0;
  if (pid < 0 || read(fds[0], &delta, sizeof(delta)) != sizeof(delta)) {
    delta = 0;
  }
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return delta;
}

void PrintResults(const std::vector<Result>& results, const Args& args,
                  size_t effective_threads, double speedup,
                  const MemoryReport& memory, const OverlapReport& overlap,
                  const RoutingBalanceReport& routing,
                  const DynamicWorkloadReport& dynamic,
                  const WalDurabilityReport& wal) {
  if (args.json) {
    std::printf("{\n  \"context\": {\"keys\": %zu, \"shards\": %zu, "
                "\"threads\": %zu, \"repeats\": %d},\n  \"benchmarks\": [\n",
                args.keys, args.shards, effective_threads, args.repeats);
    for (size_t i = 0; i < results.size(); ++i) {
      std::printf("    {\"name\": \"%s\", \"real_time\": %.1f, "
                  "\"time_unit\": \"ns\", \"ns_per_key\": %.3f, "
                  "\"items_per_second\": %.1f}%s\n",
                  results[i].name.c_str(),
                  static_cast<double>(results[i].total_ns),
                  results[i].ns_per_key, results[i].items_per_second,
                  i + 1 < results.size() ? "," : "");
    }
    std::printf("  ],\n  \"construction_speedup\": %.3f,\n", speedup);
    std::printf(
        "  \"partition_memory\": {\n"
        "    \"input_key_bytes\": %zu,\n"
        "    \"span_partition_bytes\": %zu,\n"
        "    \"copy_partition_bytes\": %zu,\n"
        "    \"copy_over_span_ratio\": %.2f,\n"
        "    \"peak_rss_delta_span_build\": %zu,\n"
        "    \"peak_rss_delta_copy_build\": %zu\n  },\n",
        memory.input_key_bytes, memory.span_partition_bytes,
        memory.copy_partition_bytes,
        static_cast<double>(memory.copy_partition_bytes) /
            static_cast<double>(std::max<size_t>(memory.span_partition_bytes,
                                                 1)),
        memory.peak_rss_delta_span_build, memory.peak_rss_delta_copy_build);
    std::printf(
        "  \"serve_during_rebuild\": {\n"
        "    \"rebuild_ns\": %llu,\n"
        "    \"queries_served\": %zu,\n"
        "    \"queries_per_second_during_rebuild\": %.1f\n  },\n",
        static_cast<unsigned long long>(overlap.rebuild_ns),
        overlap.queries_served, overlap.queries_per_second);
    std::printf(
        "  \"routing_balance\": {\n"
        "    \"skew_keys\": %zu,\n"
        "    \"shards\": %zu,\n"
        "    \"routing_buckets\": %zu,\n"
        "    \"zipf_theta\": %.2f,\n"
        "    \"zipf_uniform_max_mean_ratio\": %.4f,\n"
        "    \"zipf_two_choice_max_mean_ratio\": %.4f,\n"
        "    \"hot_keys\": %zu,\n"
        "    \"hot_key_fraction\": %.2f,\n"
        "    \"hot_uniform_max_mean_ratio\": %.4f,\n"
        "    \"hot_two_choice_max_mean_ratio\": %.4f,\n"
        "    \"directory_build_ns\": %llu\n  },\n",
        routing.skew_keys, args.shards, kDefaultRoutingBuckets,
        routing.zipf_theta, routing.zipf_uniform_ratio,
        routing.zipf_two_choice_ratio, routing.hot_keys,
        routing.hot_fraction, routing.hot_uniform_ratio,
        routing.hot_two_choice_ratio,
        static_cast<unsigned long long>(routing.directory_build_ns));
    std::printf(
        "  \"dynamic_mixed_workload\": {\n"
        "    \"keys\": %zu,\n"
        "    \"shards\": %zu,\n"
        "    \"mutate_rate\": %.2f,\n"
        "    \"total_ops\": %zu,\n"
        "    \"workload_ns\": %llu,\n"
        "    \"sustained_ops_per_second\": %.1f,\n"
        "    \"compactions_during_workload\": %zu,\n"
        "    \"per_compaction\": [\n",
        dynamic.keys, dynamic.shards, dynamic.mutate_rate, dynamic.total_ops,
        static_cast<unsigned long long>(dynamic.workload_ns),
        dynamic.ops_per_second, dynamic.workload_compactions);
    for (size_t i = 0; i < dynamic.sweep.size(); ++i) {
      const DynamicCompactionSample& s = dynamic.sweep[i];
      std::printf(
          "      {\"dirty_shards\": %zu, \"shards_rebuilt\": %zu, "
          "\"keys_drained\": %zu, \"rebuild_ns\": %llu}%s\n",
          s.dirty_shards, s.shards_rebuilt, s.keys_drained,
          static_cast<unsigned long long>(s.rebuild_ns),
          i + 1 < dynamic.sweep.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");
    std::printf(
        "  \"wal_durability\": {\n"
        "    \"measured\": %s,\n"
        "    \"appends\": %zu,\n"
        "    \"fsync_append_ns\": %llu,\n"
        "    \"fsync_ns_per_append\": %.1f,\n"
        "    \"fsync_appends_per_second\": %.1f,\n"
        "    \"nofsync_ns_per_append\": %.1f,\n"
        "    \"nofsync_appends_per_second\": %.1f,\n"
        "    \"group_commit_threads\": %zu,\n"
        "    \"group_commit_appends\": %zu,\n"
        "    \"group_commit_ns\": %llu,\n"
        "    \"group_commit_appends_per_second\": %.1f,\n"
        "    \"recovery_base_keys\": %zu,\n"
        "    \"recovery_wal_records\": %zu,\n"
        "    \"recovery_open_ns\": %llu\n  }\n}\n",
        wal.measured ? "true" : "false", wal.appends,
        static_cast<unsigned long long>(wal.fsync_append_ns),
        static_cast<double>(wal.fsync_append_ns) /
            static_cast<double>(std::max<size_t>(wal.appends, 1)),
        wal.fsync_appends_per_second,
        static_cast<double>(wal.nofsync_append_ns) /
            static_cast<double>(std::max<size_t>(wal.appends, 1)),
        wal.nofsync_appends_per_second, wal.group_threads, wal.group_appends,
        static_cast<unsigned long long>(wal.group_commit_ns),
        wal.group_appends_per_second, wal.recovery_base_keys,
        wal.recovery_wal_records,
        static_cast<unsigned long long>(wal.recovery_open_ns));
    return;
  }
  std::printf("keys=%zu shards=%zu threads=%zu repeats=%d\n", args.keys,
              args.shards, effective_threads, args.repeats);
  for (const Result& r : results) {
    std::printf("%-34s %12.1f ms  %8.1f ns/key  %12.0f keys/s\n",
                r.name.c_str(), static_cast<double>(r.total_ns) / 1e6,
                r.ns_per_key, r.items_per_second);
  }
  std::printf("parallel construction speedup: %.2fx\n", speedup);
  std::printf(
      "partition memory: input keys %.1f MiB; span views %.1f MiB vs key "
      "copies %.1f MiB (%.1fx); per-build peak RSS delta %.1f MiB (span) "
      "vs %.1f MiB (copy)\n",
      memory.input_key_bytes / 1048576.0,
      memory.span_partition_bytes / 1048576.0,
      memory.copy_partition_bytes / 1048576.0,
      static_cast<double>(memory.copy_partition_bytes) /
          static_cast<double>(std::max<size_t>(memory.span_partition_bytes,
                                               1)),
      memory.peak_rss_delta_span_build / 1048576.0,
      memory.peak_rss_delta_copy_build / 1048576.0);
  std::printf(
      "serve during rebuild: %zu queries answered from the old snapshot in "
      "%.1f ms of async rebuild (%.0f queries/s that a blocking rebuild "
      "would have stalled)\n",
      overlap.queries_served,
      static_cast<double>(overlap.rebuild_ns) / 1e6,
      overlap.queries_per_second);
  std::printf(
      "routing balance (%zu shards, %zu buckets): Zipf(%.1f) over %zu keys "
      "max/mean %.3f uniform vs %.3f two-choice; single-hot-key(%.0f%%) "
      "over %zu keys %.3f uniform vs %.3f two-choice; directory built in "
      "%.2f ms\n",
      args.shards, kDefaultRoutingBuckets, routing.zipf_theta,
      routing.skew_keys, routing.zipf_uniform_ratio,
      routing.zipf_two_choice_ratio, routing.hot_fraction * 100,
      routing.hot_keys, routing.hot_uniform_ratio,
      routing.hot_two_choice_ratio,
      static_cast<double>(routing.directory_build_ns) / 1e6);
  std::printf(
      "dynamic mixed workload (%zu keys, %zu shards, %.0f%% mutations): "
      "%.0f ops/s sustained across %zu compactions\n",
      dynamic.keys, dynamic.shards, dynamic.mutate_rate * 100,
      dynamic.ops_per_second, dynamic.workload_compactions);
  for (const DynamicCompactionSample& s : dynamic.sweep) {
    std::printf(
        "  compaction with %zu dirty shard(s): rebuilt %zu/%zu in %.1f ms "
        "(%zu keys drained)\n",
        s.dirty_shards, s.shards_rebuilt, dynamic.shards,
        static_cast<double>(s.rebuild_ns) / 1e6, s.keys_drained);
  }
  if (!wal.measured) {
    std::printf("wal durability: not measured (temp WAL dir unusable)\n");
  } else {
    std::printf(
        "wal durability: %.1f us/append fsynced (%.0f/s) vs %.2f us/append "
        "unfsynced (%.0f/s); group commit with %zu committers %.0f "
        "appends/s\n",
        static_cast<double>(wal.fsync_append_ns) /
            static_cast<double>(std::max<size_t>(wal.appends, 1)) / 1e3,
        wal.fsync_appends_per_second,
        static_cast<double>(wal.nofsync_append_ns) /
            static_cast<double>(std::max<size_t>(wal.appends, 1)) / 1e3,
        wal.nofsync_appends_per_second, wal.group_threads,
        wal.group_appends_per_second);
    std::printf(
        "crash recovery: Open() over %zu base keys + %zu pending WAL records "
        "in %.1f ms (snapshot parse + replay + collapsing checkpoint)\n",
        wal.recovery_base_keys, wal.recovery_wal_records,
        static_cast<double>(wal.recovery_open_ns) / 1e6);
  }
}

/// The PR-2 copying partition, kept as the memory-comparison reference: a
/// full per-shard copy of every key (the ~2x peak the zero-copy partition
/// eliminated), then one serial build per shard on the same apportioned
/// budgets. Returns the logical partition bytes through *partition_bytes.
std::vector<Habf> BuildShardedCopyingReference(
    const std::vector<std::string>& positives,
    const std::vector<WeightedKey>& negatives, const HabfOptions& options,
    size_t num_shards, uint64_t salt, size_t* partition_bytes) {
  std::vector<std::vector<std::string>> shard_positives(num_shards);
  std::vector<std::vector<WeightedKey>> shard_negatives(num_shards);
  for (const std::string& key : positives) {
    shard_positives[ShardOfKey(key, salt, num_shards)].push_back(key);
  }
  for (const WeightedKey& wk : negatives) {
    shard_negatives[ShardOfKey(wk.key, salt, num_shards)].push_back(wk);
  }
  *partition_bytes = 0;
  std::vector<size_t> pos_counts(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    pos_counts[s] = shard_positives[s].size();
    for (const std::string& key : shard_positives[s]) {
      *partition_bytes += sizeof(std::string) + key.size();
    }
    for (const WeightedKey& wk : shard_negatives[s]) {
      *partition_bytes += sizeof(WeightedKey) + wk.key.size();
    }
  }
  const std::vector<size_t> bits =
      ApportionShardBits(options.total_bits, pos_counts);
  std::vector<Habf> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    HabfOptions shard_options = options;
    shard_options.total_bits = bits[s];
    shard_options.seed = options.seed + s;
    shards.push_back(
        Habf::Build(shard_positives[s], shard_negatives[s], shard_options));
  }
  return shards;
}

}  // namespace
}  // namespace habf

int main(int argc, char** argv) {
  using namespace habf;
  const Args args = ParseArgs(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  const size_t effective_threads =
      args.threads != 0 ? args.threads : (hw == 0 ? 1 : hw);

  DatasetOptions data_options;
  data_options.num_positives = args.keys;
  data_options.num_negatives = args.keys;
  data_options.seed = 99;
  const Dataset data = GenerateShallaLike(data_options);

  HabfOptions options;
  options.total_bits = args.keys * 10;

  ShardedBuildOptions serial_sharding;
  serial_sharding.num_shards = args.shards;
  serial_sharding.num_threads = 1;
  ShardedBuildOptions parallel_sharding = serial_sharding;
  parallel_sharding.num_threads = effective_threads;

  std::vector<Result> results;
  const double keys_d = static_cast<double>(args.keys);
  auto record = [&](std::string name, uint64_t ns, double items) {
    results.push_back({std::move(name), ns, static_cast<double>(ns) / items,
                       items / (static_cast<double>(ns) * 1e-9)});
    (void)keys_d;
  };

  // --- partition memory: zero-copy span build vs copying reference --------
  // Span build first: VmHWM is monotone, so whatever the copying build
  // pushes the peak *beyond* the span build's is the copy overhead.
  MemoryReport memory;
  for (const auto& key : data.positives) memory.input_key_bytes += key.size();
  for (const auto& wk : data.negatives) {
    memory.input_key_bytes += wk.key.size();
  }
  memory.span_partition_bytes =
      data.positives.size() *
          (sizeof(std::string_view) + sizeof(uint32_t)) +
      data.negatives.size() * (sizeof(WeightedKeyView) + sizeof(uint32_t)) +
      2 * (args.shards + 1) * sizeof(size_t);
  // Tighten the parent heap once, then fork one child per build: both
  // children inherit the same heap snapshot, so their VmHWM deltas are
  // directly comparable.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  memory.peak_rss_delta_span_build = PeakRssDeltaInChild([&] {
    DoNotOptimizeAway(BuildShardedHabf(data.positives, data.negatives,
                                       options, serial_sharding));
  });
  memory.peak_rss_delta_copy_build = PeakRssDeltaInChild([&] {
    size_t bytes = 0;
    DoNotOptimizeAway(BuildShardedCopyingReference(
        data.positives, data.negatives, options, args.shards,
        kDefaultShardSalt, &bytes));
  });
  // The copy build in the child cannot report back its logical byte count
  // through DoNotOptimizeAway, so compute it (cheaply, no builds) here.
  memory.copy_partition_bytes = 0;
  for (const auto& key : data.positives) {
    memory.copy_partition_bytes += sizeof(std::string) + key.size();
  }
  for (const auto& wk : data.negatives) {
    memory.copy_partition_bytes += sizeof(WeightedKey) + wk.key.size();
  }

  // --- construction: unsharded vs sharded-serial vs sharded-parallel ------
  const uint64_t unsharded_ns = BestOf(args.repeats, [&] {
    DoNotOptimizeAway(Habf::Build(data.positives, data.negatives, options));
  });
  record("BM_HabfBuildUnsharded", unsharded_ns, keys_d);

  const uint64_t serial_ns = BestOf(args.repeats, [&] {
    DoNotOptimizeAway(
        BuildShardedHabf(data.positives, data.negatives, options,
                         serial_sharding));
  });
  record("BM_HabfBuildSharded_serial", serial_ns, keys_d);

  const uint64_t parallel_ns = BestOf(args.repeats, [&] {
    DoNotOptimizeAway(
        BuildShardedHabf(data.positives, data.negatives, options,
                         parallel_sharding));
  });
  record("BM_HabfBuildSharded_parallel", parallel_ns, keys_d);

  const double speedup = static_cast<double>(serial_ns) /
                         static_cast<double>(std::max<uint64_t>(parallel_ns, 1));

  // --- query: unsharded native batch vs sharded grouped batch -------------
  const Habf unsharded =
      Habf::Build(data.positives, data.negatives, options);
  auto sharded = BuildShardedHabf(data.positives, data.negatives,
                                  options, parallel_sharding);

  std::vector<std::string_view> mixed;
  mixed.reserve(2 * args.keys);
  for (size_t i = 0; i < data.positives.size(); ++i) {
    mixed.push_back(data.positives[i]);
    mixed.push_back(data.negatives[i].key);
  }

  constexpr size_t kBatch = 256;
  auto batch_sweep = [&](const auto& filter) {
    std::vector<uint8_t> out(kBatch);
    size_t positives = 0;
    for (size_t base = 0; base < mixed.size(); base += kBatch) {
      const size_t count = std::min(kBatch, mixed.size() - base);
      positives +=
          filter.ContainsBatch(KeySpan(mixed.data() + base, count),
                               out.data());
    }
    DoNotOptimizeAway(positives);
  };

  const double mixed_d = static_cast<double>(mixed.size());
  record("BM_HabfBatchUnsharded",
         BestOf(args.repeats, [&] { batch_sweep(unsharded); }), mixed_d);
  record("BM_HabfBatchSharded",
         BestOf(args.repeats, [&] { batch_sweep(sharded); }), mixed_d);

  // Pooled per-shard fan-out vs the serial grouped path, at a batch size
  // large enough (8192) for the per-shard groups to amortize the task
  // hand-off. The fan-out only helps with real cores; recorded either way.
  constexpr size_t kLargeBatch = 8192;
  auto large_batch_sweep = [&](const auto& filter) {
    std::vector<uint8_t> out(kLargeBatch);
    size_t positives = 0;
    for (size_t base = 0; base < mixed.size(); base += kLargeBatch) {
      const size_t count = std::min(kLargeBatch, mixed.size() - base);
      positives += filter.ContainsBatch(
          KeySpan(mixed.data() + base, count), out.data());
    }
    DoNotOptimizeAway(positives);
  };
  record("BM_HabfBatchShardedLarge",
         BestOf(args.repeats, [&] { large_batch_sweep(sharded); }), mixed_d);
  {
    ThreadPool query_pool(effective_threads <= 1 ? 0 : effective_threads);
    auto pooled = BuildShardedHabf(data.positives, data.negatives, options,
                                   parallel_sharding);
    pooled.SetQueryPool(&query_pool, /*min_parallel_keys=*/kLargeBatch);
    record("BM_HabfBatchShardedLargePooled",
           BestOf(args.repeats, [&] { large_batch_sweep(pooled); }), mixed_d);
  }

  // Scalar routing path for reference.
  record("BM_HabfScalarSharded", BestOf(args.repeats, [&] {
           size_t positives = 0;
           for (const auto& key : mixed) {
             positives += sharded.MightContain(key) ? 1 : 0;
           }
           DoNotOptimizeAway(positives);
         }),
         mixed_d);

  // Sanity: the sharded filter must keep the one-sided guarantee.
  if (CountFalseNegatives(sharded, data.positives) != 0) {
    std::fprintf(stderr, "FATAL: sharded filter dropped a positive key\n");
    return 1;
  }

  // --- serving overlap: queries answered during an async rebuild ----------
  // The hot-swap loop of DESIGN.md §5: the serving filter moves into a
  // FilterStore, BuildShardedHabfAsync rebuilds a replacement (fresh seed,
  // so it is a genuinely different filter), and the main thread keeps
  // answering batched queries from the pinned current snapshot until the
  // rebuild completes — every one of those queries is work a blocking
  // rebuild would have stalled.
  OverlapReport overlap;
  {
    FilterStore<ShardedFilter<Habf>> store(std::move(sharded));
    HabfOptions rebuild_options = options;
    rebuild_options.seed = options.seed + 1;
    std::vector<uint8_t> out(kLargeBatch);
    size_t base = 0;
    Stopwatch rebuild_watch;
    BuildHandle handle = BuildShardedHabfAsync(
        data.positives, data.negatives, rebuild_options, parallel_sharding);
    do {
      const auto snapshot = store.Acquire();
      const size_t count = std::min(kLargeBatch, mixed.size() - base);
      snapshot.filter->ContainsBatch(KeySpan(mixed.data() + base, count),
                                     out.data());
      overlap.queries_served += count;
      base = (base + count) % mixed.size();
    } while (!handle.Ready());
    overlap.rebuild_ns = rebuild_watch.ElapsedNanos();
    store.Publish(handle.TakeResult());
    overlap.queries_per_second =
        static_cast<double>(overlap.queries_served) /
        (static_cast<double>(std::max<uint64_t>(overlap.rebuild_ns, 1)) *
         1e-9);
    // The swapped-in filter serves correctly too.
    if (CountFalseNegatives(*store.Acquire().filter, data.positives) != 0) {
      std::fprintf(stderr,
                   "FATAL: swapped-in rebuilt filter dropped a positive "
                   "key\n");
      return 1;
    }
  }

  // --- routing balance under skewed key weights ---------------------------
  const RoutingBalanceReport routing = MeasureRoutingBalance(args);

  // --- dynamic tier: mixed workload + dirty-shard compaction sweep --------
  const DynamicWorkloadReport dynamic_workload =
      MeasureDynamicWorkload(data, args, effective_threads);
  for (const DynamicCompactionSample& sample : dynamic_workload.sweep) {
    if (sample.shards_rebuilt != sample.dirty_shards) {
      std::fprintf(stderr,
                   "FATAL: compaction rebuilt %zu shards but only %zu were "
                   "dirty\n",
                   sample.shards_rebuilt, sample.dirty_shards);
      return 1;
    }
  }

  // --- durability: WAL append cost + crash-recovery Open ------------------
  const WalDurabilityReport wal_durability =
      MeasureWalDurability(data, args, effective_threads);
  if (wal_durability.measured && !wal_durability.recovery_zero_fn) {
    std::fprintf(stderr,
                 "FATAL: crash-recovery Open dropped an acknowledged "
                 "mutation\n");
    return 1;
  }

  PrintResults(results, args, effective_threads, speedup, memory, overlap,
               routing, dynamic_workload, wal_durability);
  return 0;
}
