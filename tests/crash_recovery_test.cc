// Crash-recovery fault injection for the durable dynamic filter
// (DESIGN.md §10): acknowledged mutations must survive Open() after any
// crash point — WAL truncated at every record boundary and mid-record
// (recovery succeeds on the durable prefix with zero false negatives), and
// bit-flipped snapshot sections or complete-but-damaged WAL records must
// fail recovery naming the corrupt section/record. Open writes no
// checkpoint, so a second crash before the deferred one must recover too.
// A WAL write that fails (a file-size limit in a forked child) must not be
// acknowledged, and the filter must refuse every mutation after it.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/delta_wal.h"
#include "core/dynamic_filter.h"
#include "net/server.h"
#include "util/serde.h"

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

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "crash_recovery_" + info->name();
    ::mkdir(dir_.c_str(), 0777);
    ::unlink(DynamicSnapshotPath(dir_).c_str());
    RemoveWalFilesBelow(dir_, ~uint64_t{0});
  }

  /// A durable filter over 800 base keys with `mutations` acknowledged
  /// inserts ("wal-i") and removes (every 7th base key) on top.
  std::unique_ptr<DynamicShardedHabf> MakeDurable(size_t mutations) {
    auto filter = std::make_unique<DynamicShardedHabf>(
        MakeKeys("base-", 800), std::vector<WeightedKey>{}, SmallOptions(),
        FourShards());
    std::string error;
    EXPECT_TRUE(filter->EnableDurability(dir_, &error)) << error;
    for (size_t i = 0; i < mutations; ++i) {
      filter->Insert("wal-" + std::to_string(i));
      if (i % 7 == 0) filter->Remove("base-" + std::to_string(i));
    }
    return filter;
  }

  /// Asserts the recovered filter answers every acknowledged mutation and
  /// the construction set correctly. `check_removed` is false when a
  /// compaction may have drained tombstones into a base rebuild — removed
  /// keys are then ordinary non-members, so "false" is only probabilistic.
  void ExpectRecovered(const DynamicShardedHabf& filter, size_t mutations,
                       bool check_removed = true) {
    for (size_t i = 0; i < mutations; ++i) {
      EXPECT_TRUE(filter.MightContain("wal-" + std::to_string(i))) << i;
    }
    for (size_t i = 0; i < 800; ++i) {
      const std::string key = "base-" + std::to_string(i);
      if (i < mutations && i % 7 == 0) {
        if (check_removed) {
          EXPECT_FALSE(filter.MightContain(key)) << key << " was removed";
        }
      } else {
        EXPECT_TRUE(filter.MightContain(key)) << key;
      }
    }
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, OpenRecoversAcknowledgedMutations) {
  constexpr size_t kMutations = 300;
  {
    auto filter = MakeDurable(kMutations);
    EXPECT_TRUE(filter->durable());
    EXPECT_GT(filter->wal_last_seq(), 0u);
    // No Checkpoint() here: the destructor does not checkpoint either, so
    // this is the "process killed" shape — everything pending is WAL-only.
  }
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_TRUE(reopened->durable());
  ExpectRecovered(*reopened, kMutations);
}

TEST_F(CrashRecoveryTest, RecoveryAfterCompactionsAndCheckpoints) {
  constexpr size_t kMutations = 400;
  {
    auto filter = MakeDurable(0);
    DynamicOptions dynamic;  // default threshold
    (void)dynamic;
    for (size_t i = 0; i < kMutations; ++i) {
      filter->Insert("wal-" + std::to_string(i));
      if (i % 7 == 0) filter->Remove("base-" + std::to_string(i));
      if (i % 150 == 149) {
        const CompactionReport report = filter->CompactDirtyShards();
        EXPECT_TRUE(report.checkpointed);
      }
    }
    EXPECT_GT(filter->stats().checkpoints, 1u);
    EXPECT_GT(filter->wal_epoch(), 2u);
  }
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  ExpectRecovered(*reopened, kMutations, /*check_removed=*/false);
  // Second-generation crash: mutate, kill, recover again.
  reopened->Insert("second-life");
  reopened.reset();
  auto third = DynamicShardedHabf::Open(dir_, {}, &error);
  ASSERT_NE(third, nullptr) << error;
  EXPECT_TRUE(third->MightContain("second-life"));
  ExpectRecovered(*third, kMutations, /*check_removed=*/false);
}

TEST_F(CrashRecoveryTest, WalTruncationSweepRecoversEveryDurablePrefix) {
  constexpr size_t kMutations = 40;
  { auto filter = MakeDurable(kMutations); }

  // The live epoch after EnableDurability's checkpoint is 2.
  const std::string wal_path = WalFilePath(dir_, 2);
  std::string full;
  ASSERT_TRUE(ReadFileBytes(wal_path, &full));
  std::string snapshot;
  ASSERT_TRUE(ReadFileBytes(DynamicSnapshotPath(dir_), &snapshot));

  // Sweep a truncation across the whole log (every 13th byte plus the exact
  // end): every cut must recover, and the recovered filter must answer every
  // record that survived the cut — zero false negatives on the durable
  // prefix, exact negatives for surviving tombstones.
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < full.size(); cut += 13) cuts.push_back(cut);
  cuts.push_back(full.size());
  for (size_t cut : cuts) {
    // Reset to the crash image: only the truncated epoch-2 log plus the
    // pre-mutation snapshot exist (Open's own checkpoints are wiped).
    RemoveWalFilesBelow(dir_, ~uint64_t{0});
    ASSERT_TRUE(
        WriteFileBytes(wal_path, std::string_view(full).substr(0, cut)));
    ASSERT_TRUE(WriteFileBytesAtomic(DynamicSnapshotPath(dir_), snapshot));

    const WalReplayResult replay = ReplayWalDir(dir_, 2, 0);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": " << replay.error;
    std::string error;
    auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
    ASSERT_NE(reopened, nullptr) << "cut at " << cut << ": " << error;
    for (const WalRecord& record : replay.records) {
      if (record.inserted) {
        EXPECT_TRUE(reopened->MightContain(record.key))
            << "cut at " << cut << " lost " << record.key;
      } else {
        EXPECT_FALSE(reopened->MightContain(record.key))
            << "cut at " << cut << " resurrected " << record.key;
      }
    }
    if (cut == full.size()) {
      EXPECT_EQ(replay.records.size(), kMutations + (kMutations + 6) / 7);
    }
  }
}

// --- the window between Open and the deferred checkpoint -------------------

TEST_F(CrashRecoveryTest, TruncationSweepSurvivesASecondCrashBeforeCheckpoint) {
  constexpr size_t kMutations = 40;
  { auto filter = MakeDurable(kMutations); }
  const std::string wal_path = WalFilePath(dir_, 2);
  std::string full;
  ASSERT_TRUE(ReadFileBytes(wal_path, &full));
  std::string snapshot;
  ASSERT_TRUE(ReadFileBytes(DynamicSnapshotPath(dir_), &snapshot));

  // The cuts of WalTruncationSweepRecoversEveryDurablePrefix plus every cut
  // inside the header. Open repairs the torn tail and starts a new epoch
  // without a checkpoint; a second crash must then find a log whose only
  // possibly torn file is the newest one.
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < kWalHeaderBytes; ++cut) cuts.push_back(cut);
  for (size_t cut = 0; cut < full.size(); cut += 13) cuts.push_back(cut);
  cuts.push_back(full.size());
  for (size_t cut : cuts) {
    RemoveWalFilesBelow(dir_, ~uint64_t{0});
    ASSERT_TRUE(
        WriteFileBytes(wal_path, std::string_view(full).substr(0, cut)));
    ASSERT_TRUE(WriteFileBytesAtomic(DynamicSnapshotPath(dir_), snapshot));
    const WalReplayResult replay = ReplayWalDir(dir_, 2, 0);
    ASSERT_TRUE(replay.ok()) << "cut at " << cut << ": " << replay.error;

    const std::string fresh = "post-" + std::to_string(cut);
    std::string error;
    {
      auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
      ASSERT_NE(reopened, nullptr) << "cut at " << cut << ": " << error;
      ASSERT_TRUE(reopened->Insert(fresh + "-kept"));
      ASSERT_TRUE(reopened->Insert(fresh + "-dropped"));
      ASSERT_TRUE(reopened->Remove(fresh + "-dropped"));
      ASSERT_TRUE(reopened->Remove("base-1"));
      // Dropped without a checkpoint: the second crash.
    }
    auto again = DynamicShardedHabf::Open(dir_, {}, &error);
    ASSERT_NE(again, nullptr) << "second open after cut at " << cut << ": "
                              << error;
    for (const WalRecord& record : replay.records) {
      EXPECT_EQ(again->MightContain(record.key), record.inserted)
          << "cut at " << cut << ": " << record.key;
    }
    EXPECT_TRUE(again->MightContain(fresh + "-kept")) << "cut at " << cut;
    EXPECT_FALSE(again->MightContain(fresh + "-dropped")) << "cut at " << cut;
    EXPECT_FALSE(again->MightContain("base-1")) << "cut at " << cut;
    EXPECT_TRUE(again->MightContain("base-2")) << "cut at " << cut;
  }
}

TEST_F(CrashRecoveryTest, OpenLeavesTheSnapshotByteIdentical) {
  { auto filter = MakeDurable(60); }
  std::string before;
  ASSERT_TRUE(ReadFileBytes(DynamicSnapshotPath(dir_), &before));
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  ASSERT_TRUE(reopened->Insert("after-open"));
  std::string after;
  ASSERT_TRUE(ReadFileBytes(DynamicSnapshotPath(dir_), &after));
  EXPECT_TRUE(after == before) << "Open rewrote the checkpoint";
  EXPECT_EQ(reopened->stats().checkpoints, 0u);
}

TEST_F(CrashRecoveryTest, FirstCompactionAfterOpenCheckpointsTheReplayedEpochs) {
  { auto filter = MakeDurable(30); }
  ASSERT_TRUE(::access(WalFilePath(dir_, 2).c_str(), F_OK) == 0);
  DynamicOptions lazy;
  lazy.dirty_fraction_threshold = 1000.0;  // no shard is ever dirty enough
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir_, lazy, &error);
  ASSERT_NE(reopened, nullptr) << error;
  EXPECT_EQ(reopened->wal_epoch(), 3u);
  // The replayed epoch is still on disk until the deferred checkpoint.
  EXPECT_TRUE(::access(WalFilePath(dir_, 2).c_str(), F_OK) == 0);

  const CompactionReport report = reopened->CompactDirtyShards();
  EXPECT_EQ(report.shards_rebuilt, 0u);
  EXPECT_TRUE(report.checkpointed);
  EXPECT_EQ(reopened->stats().checkpoints, 1u);
  EXPECT_EQ(reopened->wal_epoch(), 4u);
  EXPECT_FALSE(::access(WalFilePath(dir_, 2).c_str(), F_OK) == 0);
  EXPECT_FALSE(::access(WalFilePath(dir_, 3).c_str(), F_OK) == 0);
  const WalReplayResult everything = ReplayWalDir(dir_, 1, 0);
  ASSERT_TRUE(everything.ok()) << everything.error;
  EXPECT_TRUE(everything.records.empty());
  // Only the first pass owes a checkpoint.
  EXPECT_FALSE(reopened->CompactDirtyShards().checkpointed);
  reopened.reset();
  auto third = DynamicShardedHabf::Open(dir_, lazy, &error);
  ASSERT_NE(third, nullptr) << error;
  ExpectRecovered(*third, 30);

  // An explicit Checkpoint settles the debt as well.
  ASSERT_TRUE(third->Checkpoint(&error)) << error;
  EXPECT_FALSE(third->CompactDirtyShards().checkpointed);
}

TEST_F(CrashRecoveryTest, OpenRecordsItsPhaseSplit) {
  {
    auto filter = MakeDurable(200);
    const DynamicStats built = filter->stats();
    EXPECT_EQ(built.recovery_read_ns + built.recovery_parse_ns +
                  built.recovery_members_ns + built.recovery_replay_ns +
                  built.recovery_repair_ns,
              0u);
  }
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  const uint64_t wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  ASSERT_NE(reopened, nullptr) << error;
  const DynamicStats stats = reopened->stats();
  EXPECT_GT(stats.recovery_read_ns, 0u);
  EXPECT_GT(stats.recovery_parse_ns, 0u);
  EXPECT_GT(stats.recovery_members_ns, 0u);
  EXPECT_GT(stats.recovery_replay_ns, 0u);
  EXPECT_GT(stats.recovery_repair_ns, 0u);
  EXPECT_LE(stats.recovery_read_ns + stats.recovery_parse_ns +
                stats.recovery_members_ns + stats.recovery_replay_ns +
                stats.recovery_repair_ns,
            wall_ns);
}

TEST_F(CrashRecoveryTest, SnapshotSectionBitFlipFailsNamingTheSection) {
  { auto filter = MakeDurable(25); }
  const std::string path = DynamicSnapshotPath(dir_);
  std::string snapshot;
  ASSERT_TRUE(ReadFileBytes(path, &snapshot));

  // Flip a byte inside the first section's payload (DCFG, payload starts at
  // byte 32): recovery must refuse and say which section died.
  std::string corrupt = snapshot;
  corrupt[40] = static_cast<char>(static_cast<uint8_t>(corrupt[40]) ^ 0x10);
  ASSERT_TRUE(WriteFileBytesAtomic(path, corrupt));
  std::string error;
  EXPECT_EQ(DynamicShardedHabf::Open(dir_, {}, &error), nullptr);
  EXPECT_NE(error.find("DCFG"), std::string::npos) << error;

  // Sweep a flip through every section: recovery either succeeds (the flip
  // landed in dead framing space — impossible here since payload CRCs cover
  // every byte after the table) or fails with an error naming a section.
  const std::optional<SectionReader> table = SectionReader::Parse(snapshot);
  ASSERT_TRUE(table.has_value());
  for (const SectionReader::Section& section : table->sections()) {
    std::string mutated = snapshot;
    const size_t victim = section.payload_offset + section.length / 2;
    ASSERT_LT(victim, mutated.size());
    mutated[victim] =
        static_cast<char>(static_cast<uint8_t>(mutated[victim]) ^ 0x04);
    ASSERT_TRUE(WriteFileBytesAtomic(path, mutated));
    EXPECT_EQ(DynamicShardedHabf::Open(dir_, {}, &error), nullptr);
    EXPECT_NE(error.find("checkpoint section"), std::string::npos) << error;
  }

  // Intact bytes still recover (the sweep never wrote back the original).
  ASSERT_TRUE(WriteFileBytesAtomic(path, snapshot));
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  EXPECT_NE(reopened, nullptr) << error;
}

TEST_F(CrashRecoveryTest, CorruptWalRecordFailsNamingTheRecord) {
  { auto filter = MakeDurable(30); }
  const std::string wal_path = WalFilePath(dir_, 2);
  std::string log;
  ASSERT_TRUE(ReadFileBytes(wal_path, &log));
  ASSERT_GT(log.size(), kWalHeaderBytes + kWalFrameBytes + 12);
  // Flip a key byte of the first record: complete frame, bad CRC.
  const size_t victim = kWalHeaderBytes + kWalFrameBytes + 10;
  log[victim] = static_cast<char>(static_cast<uint8_t>(log[victim]) ^ 0x20);
  ASSERT_TRUE(WriteFileBytes(wal_path, log));

  std::string error;
  EXPECT_EQ(DynamicShardedHabf::Open(dir_, {}, &error), nullptr);
  EXPECT_NE(error.find("corrupt WAL record"), std::string::npos) << error;
  EXPECT_NE(error.find(wal_path), std::string::npos) << error;
}

TEST_F(CrashRecoveryTest, MissingSnapshotFailsCleanly) {
  std::string error;
  EXPECT_EQ(DynamicShardedHabf::Open(dir_, {}, &error), nullptr);
  EXPECT_NE(error.find("snapshot"), std::string::npos) << error;
}

TEST_F(CrashRecoveryTest, CheckpointTrimsTheLog) {
  auto filter = MakeDurable(120);
  const uint64_t epoch_before = filter->wal_epoch();
  std::string error;
  ASSERT_TRUE(filter->Checkpoint(&error)) << error;
  EXPECT_EQ(filter->wal_epoch(), epoch_before + 1);
  // Old epochs are gone; replay from the new epoch finds nothing pending.
  const WalReplayResult replay = ReplayWalDir(dir_, filter->wal_epoch(),
                                              filter->wal_last_seq());
  ASSERT_TRUE(replay.ok()) << replay.error;
  EXPECT_TRUE(replay.records.empty());
  const WalReplayResult everything = ReplayWalDir(dir_, 1, 0);
  ASSERT_TRUE(everything.ok()) << everything.error;
  EXPECT_EQ(everything.max_epoch, filter->wal_epoch());
}

TEST_F(CrashRecoveryTest, FrontRotationGrowsAndShrinksWithTheDelta) {
  DynamicOptions dynamic;
  dynamic.delta_counters = 256;  // tiny on purpose: 32-key growth trigger
  dynamic.delta_hashes = 3;
  dynamic.dirty_fraction_threshold = 0.0;
  DynamicShardedHabf filter(MakeKeys("base-", 400), {}, SmallOptions(),
                            FourShards(), dynamic);
  for (size_t i = 0; i < 2000; ++i) {
    filter.Insert("grow-" + std::to_string(i));
  }
  const DynamicStats grown = filter.stats();
  EXPECT_GT(grown.front_rotations, 0u);
  // Every resident key still answers true — the rotation re-added them all.
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_TRUE(filter.MightContain("grow-" + std::to_string(i))) << i;
  }
  // Drain via compaction; the front shrinks back toward the floor.
  const CompactionReport report = filter.CompactDirtyShards();
  EXPECT_GT(report.keys_drained, 0u);
  EXPECT_EQ(filter.delta_size(), 0u);
  EXPECT_GT(filter.stats().front_rotations, grown.front_rotations);
  for (size_t i = 0; i < 2000; ++i) {
    EXPECT_TRUE(filter.MightContain("grow-" + std::to_string(i))) << i;
  }
}

// --- a failing WAL write --------------------------------------------------

/// What the forked child reports through its pipe.
struct WalFailureReport {
  uint32_t acked = 0;            // mutations acknowledged before the failure
  uint8_t failed_op_refused = 0;  // the failing mutation returned false
  uint8_t durable_after = 1;     // durable() after the failure
  uint8_t later_refused = 0;     // later Insert and Remove returned false
  uint8_t refused_remove_kept = 0;  // a refused Remove left its key a member
  uint8_t frame_refused = 0;     // DynamicBackend::Mutate failed, 0 applied
};

/// Mutation `i` of the sequence the child applies: every third one removes
/// a base key, the rest insert new keys.
bool OpIsInsert(size_t i) { return i % 3 != 2; }
std::string OpKey(size_t i) {
  return OpIsInsert(i) ? "acked-" + std::to_string(i)
                       : "base-" + std::to_string(i);
}

TEST_F(CrashRecoveryTest, FailedWalWriteIsNeverAckedAndRefusesLaterMutations) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest assertions here; the report goes up the pipe, and
    // _exit skips every destructor, as a crash would.
    ::close(fds[0]);
    WalFailureReport report;
    ShardedBuildOptions sharding = FourShards();
    sharding.num_threads = 1;
    DynamicShardedHabf filter(MakeKeys("base-", 800), {}, SmallOptions(),
                              sharding);
    if (!filter.EnableDurability(dir_)) ::_exit(3);
    // Room for a few records past the WAL header, then EFBIG (SIGXFSZ
    // ignored, so the write fails instead of killing the process).
    struct stat st;
    if (::stat(WalFilePath(dir_, filter.wal_epoch()).c_str(), &st) != 0) {
      ::_exit(4);
    }
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit;
    ::getrlimit(RLIMIT_FSIZE, &limit);
    limit.rlim_cur = static_cast<rlim_t>(st.st_size) + 160;
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(5);
    size_t i = 0;
    for (; i < 1000; ++i) {
      const bool ok = OpIsInsert(i) ? filter.Insert(OpKey(i))
                                    : filter.Remove(OpKey(i));
      if (!ok) break;
    }
    report.acked = static_cast<uint32_t>(i);
    report.failed_op_refused = i < 1000;
    report.durable_after = filter.durable();
    report.later_refused =
        !filter.Insert("late-insert") && !filter.Remove("base-1");
    report.refused_remove_kept = filter.MightContain("base-1");
    net::DynamicBackend backend(&filter);
    const std::vector<std::string_view> frame = {"frame-a", "frame-b"};
    uint64_t applied = 99;
    std::string error;
    report.frame_refused =
        !backend.Mutate(true, KeySpan(frame.data(), frame.size()), &applied,
                        &error) &&
        applied == 0 && !error.empty();
    const bool sent =
        ::write(fds[1], &report, sizeof(report)) == sizeof(report);
    ::_exit(sent ? 0 : 6);
  }
  ::close(fds[1]);
  WalFailureReport report;
  const ssize_t got = ::read(fds[0], &report, sizeof(report));
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(report)));
  EXPECT_GT(report.acked, 0u);
  EXPECT_LT(report.acked, 20u) << "the file-size limit never bit";
  EXPECT_TRUE(report.failed_op_refused);
  EXPECT_FALSE(report.durable_after);
  EXPECT_TRUE(report.later_refused);
  EXPECT_TRUE(report.refused_remove_kept);
  EXPECT_TRUE(report.frame_refused);

  // The log holds exactly the acknowledged mutations (the failing record
  // is at most a torn tail), in order.
  const WalReplayResult replay = ReplayWalDir(dir_, 0, 0);
  ASSERT_TRUE(replay.ok()) << replay.error;
  ASSERT_EQ(replay.records.size(), report.acked);
  for (size_t i = 0; i < replay.records.size(); ++i) {
    EXPECT_EQ(replay.records[i].key, OpKey(i)) << i;
    EXPECT_EQ(replay.records[i].inserted, OpIsInsert(i)) << i;
  }
  // Recovery answers every acknowledged mutation; the refused ones never
  // reached the log, so base-1 (whose Remove was refused) is a member.
  std::string error;
  auto reopened = DynamicShardedHabf::Open(dir_, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  for (size_t i = 0; i < report.acked; ++i) {
    EXPECT_EQ(reopened->MightContain(OpKey(i)), OpIsInsert(i)) << OpKey(i);
  }
  EXPECT_TRUE(reopened->MightContain("base-1"));
  EXPECT_TRUE(reopened->durable());
}

}  // namespace
}  // namespace habf
