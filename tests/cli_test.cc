// End-to-end tests of the habf_tool command surface, driven through the CLI
// library (no subprocesses).

#include "tools/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <chrono>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/delta_wal.h"
#include "core/dynamic_filter.h"
#include "net/client.h"
#include "util/serde.h"

namespace habf {
namespace cli {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: gtest_discover_tests registers every case
    // as its own ctest test, so a parallel `ctest -j` runs several CliTest
    // cases concurrently — fixed shared filenames under TempDir() race.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "cli_test_" + info->name();
    std::filesystem::create_directories(dir_);
    positives_path_ = dir_ + "/cli_positives.txt";
    negatives_path_ = dir_ + "/cli_negatives.txt";
    filter_path_ = dir_ + "/cli_filter.habf";

    std::string positives;
    for (int i = 0; i < 3000; ++i) {
      positives += "member-" + std::to_string(i) + "\n";
    }
    ASSERT_TRUE(WriteFileBytes(positives_path_, positives));

    std::string negatives;
    for (int i = 0; i < 3000; ++i) {
      const double cost = i < 30 ? 500.0 : 1.0;
      negatives += "outsider-" + std::to_string(i) + "\t" +
                   std::to_string(cost) + "\n";
    }
    ASSERT_TRUE(WriteFileBytes(negatives_path_, negatives));
  }

  void TearDown() override {
    std::error_code ec;  // best-effort cleanup; never fail the test
    std::filesystem::remove_all(dir_, ec);
  }

  int Run(std::vector<std::string> args) {
    out_.clear();
    err_.clear();
    return RunCli(args, &out_, &err_);
  }

  /// A committed golden fixture under tests/data/ (format_compat_test).
  static std::string FixturePath(const std::string& stem,
                                 const char* extension) {
    return std::string(HABF_TEST_DATA_DIR) + "/" + stem + extension;
  }

  std::string dir_, positives_path_, negatives_path_, filter_path_;
  std::string out_, err_;
};

TEST_F(CliTest, BuildQueryStatsEvalPipeline) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_, "--bits-per-key",
                 "12"}),
            0)
      << err_;
  EXPECT_NE(out_.find("built"), std::string::npos);

  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--key", "member-17",
                 "--key", "definitely-not-present"}),
            0)
      << err_;
  EXPECT_NE(out_.find("member-17\tmaybe-in-set"), std::string::npos);
  EXPECT_NE(out_.find("definitely-not-present\tnot-in-set"),
            std::string::npos);

  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("total_bits=36000"), std::string::npos);
  EXPECT_NE(out_.find("k=3"), std::string::npos);

  ASSERT_EQ(Run({"eval", "--filter", filter_path_, "--negatives",
                 negatives_path_}),
            0)
      << err_;
  EXPECT_NE(out_.find("weighted_fpr="), std::string::npos);
}

TEST_F(CliTest, QueryFromKeysFile) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_}),
            0)
      << err_;
  const std::string keys_path = dir_ + "/cli_query_keys.txt";
  ASSERT_TRUE(WriteFileBytes(keys_path, "member-1\nmember-2\nstranger\n"));
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys", keys_path}), 0)
      << err_;
  EXPECT_NE(out_.find("member-1\tmaybe-in-set"), std::string::npos);
  EXPECT_NE(out_.find("member-2\tmaybe-in-set"), std::string::npos);
  std::remove(keys_path.c_str());
}

TEST_F(CliTest, BuildHonorsTuningFlags) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--k", "4", "--cell-bits", "5", "--delta",
                 "0.3", "--fast"}),
            0)
      << err_;
  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("k=4"), std::string::npos);
  EXPECT_NE(out_.find("cell_bits=5"), std::string::npos);
  EXPECT_NE(out_.find("fast=1"), std::string::npos);
  // --fast drops Γ only; a new build takes the one-pass family either way.
  EXPECT_NE(out_.find("family=one-pass"), std::string::npos);
}

TEST_F(CliTest, UsageErrors) {
  EXPECT_EQ(Run({}), 1);
  EXPECT_NE(err_.find("usage:"), std::string::npos);
  EXPECT_EQ(Run({"frobnicate"}), 1);
  EXPECT_EQ(Run({"build", "--out", filter_path_}), 1);  // missing positives
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--bits-per-key", "banana"}),
            1);
  EXPECT_EQ(Run({"query", "--filter", filter_path_}), 2)
      << "filter file does not exist yet";
}

TEST_F(CliTest, EveryCommandRejectsFlagsItDoesNotTake) {
  // One flag another command (or an older build) accepts, per command: each
  // fails by name before any file is read or written.
  struct Case {
    std::vector<std::string> args;
    std::string rejected;
  };
  const Case cases[] = {
      {{"build", "--positives", positives_path_, "--out", filter_path_,
        "--snapshot-format", "legacy"},
       "snapshot-format"},
      {{"query", "--filter", filter_path_, "--key", "k", "--fast"}, "fast"},
      {{"stats", "--filter", filter_path_, "--workers", "2"}, "workers"},
      {{"eval", "--filter", filter_path_, "--negatives", negatives_path_,
        "--bits-per-key", "10"},
       "bits-per-key"},
      {{"inspect", "--snapshot", filter_path_, "--filter", filter_path_},
       "filter"},
      {{"generate", "--dataset", "shalla", "--positives", positives_path_,
        "--negatives", negatives_path_, "--out", filter_path_},
       "out"},
      {{"serve", "--snapshot", filter_path_, "--threads", "2"}, "threads"},
  };
  for (const Case& c : cases) {
    const std::string& command = c.args[0];
    EXPECT_EQ(Run(c.args), 1) << command;
    EXPECT_NE(err_.find("unknown flag --" + c.rejected + " for " + command),
              std::string::npos)
        << command << ": " << err_;
    EXPECT_TRUE(out_.empty()) << command << ": " << out_;
  }
  EXPECT_FALSE(std::filesystem::exists(filter_path_));
}

TEST_F(CliTest, IoErrors) {
  EXPECT_EQ(Run({"build", "--positives", dir_ + "/nope.txt", "--out",
                 filter_path_}),
            2);
  EXPECT_EQ(Run({"stats", "--filter", dir_ + "/nope.habf"}), 2);
}

TEST_F(CliTest, ZeroFalseNegativesThroughTheTool) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_}),
            0)
      << err_;
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys",
                 positives_path_}),
            0)
      << err_;
  EXPECT_EQ(out_.find("not-in-set"), std::string::npos)
      << "a positive key was rejected";
}

TEST_F(CliTest, GenerateThenBuildPipeline) {
  const std::string gen_pos = dir_ + "/gen_pos.txt";
  const std::string gen_neg = dir_ + "/gen_neg.txt";
  ASSERT_EQ(Run({"generate", "--dataset", "shalla", "--positives", gen_pos,
                 "--negatives", gen_neg, "--count", "2000", "--zipf", "1.0",
                 "--seed", "5"}),
            0)
      << err_;
  EXPECT_NE(out_.find("generated shalla dataset: 2000 positives"),
            std::string::npos);

  // The generated files must drive the whole pipeline.
  ASSERT_EQ(Run({"build", "--positives", gen_pos, "--negatives", gen_neg,
                 "--out", filter_path_}),
            0)
      << err_;
  ASSERT_EQ(Run({"eval", "--filter", filter_path_, "--negatives", gen_neg}),
            0)
      << err_;
  EXPECT_NE(out_.find("weighted_fpr="), std::string::npos);
  std::remove(gen_pos.c_str());
  std::remove(gen_neg.c_str());
}

TEST_F(CliTest, GenerateRejectsBadArguments) {
  EXPECT_EQ(Run({"generate", "--dataset", "unknown", "--positives", "a",
                 "--negatives", "b"}),
            1);
  EXPECT_EQ(Run({"generate", "--dataset", "ycsb"}), 1);
  EXPECT_EQ(Run({"generate", "--dataset", "ycsb", "--positives", "a",
                 "--negatives", "b", "--count", "0"}),
            1);
}

TEST_F(CliTest, ShardedBuildQueryStatsEvalPipeline) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_, "--shards", "4",
                 "--threads", "2"}),
            0)
      << err_;
  EXPECT_NE(out_.find("4 shards"), std::string::npos);

  // Zero false negatives through the sharded snapshot.
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys",
                 positives_path_}),
            0)
      << err_;
  EXPECT_EQ(out_.find("not-in-set"), std::string::npos)
      << "a positive key was rejected by the sharded filter";

  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("shards=4"), std::string::npos);

  ASSERT_EQ(Run({"eval", "--filter", filter_path_, "--negatives",
                 negatives_path_}),
            0)
      << err_;
  EXPECT_NE(out_.find("weighted_fpr="), std::string::npos);
}

TEST_F(CliTest, TwoChoiceRoutingBuildQueryStatsEvalPipeline) {
  // The negatives carry a skewed cost column (30 keys at 500.0), so the
  // two-choice directory has real weight mass to balance.
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_, "--shards", "4",
                 "--threads", "2", "--routing", "two-choice",
                 "--routing-buckets", "512"}),
            0)
      << err_;
  EXPECT_NE(out_.find("4 shards (two-choice routing)"), std::string::npos)
      << out_;

  // Zero false negatives through the SHR2 snapshot, per-key path.
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys",
                 positives_path_}),
            0)
      << err_;
  EXPECT_EQ(out_.find("not-in-set"), std::string::npos)
      << "a positive key was rejected by the two-choice-routed filter";
  const std::string per_key_out = out_;

  // The pooled batch path must answer identically on the restored filter.
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys",
                 positives_path_, "--parallel-batch", "--threads", "2"}),
            0)
      << err_;
  EXPECT_EQ(out_, per_key_out);

  // Stats reports the routing-balance line for a SHR2 snapshot.
  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("shards=4"), std::string::npos);
  EXPECT_NE(out_.find("routing=two-choice buckets=512"), std::string::npos)
      << out_;
  EXPECT_NE(out_.find("max_mean_ratio="), std::string::npos) << out_;

  ASSERT_EQ(Run({"eval", "--filter", filter_path_, "--negatives",
                 negatives_path_}),
            0)
      << err_;
  EXPECT_NE(out_.find("weighted_fpr="), std::string::npos);
}

TEST_F(CliTest, UniformRoutingStatsReportsPolicy) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "3", "--routing", "uniform"}),
            0)
      << err_;
  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("routing=uniform"), std::string::npos) << out_;
  // An unsharded snapshot has no routing policy to report.
  const std::string single_path = dir_ + "/cli_single.habf";
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 single_path}),
            0)
      << err_;
  ASSERT_EQ(Run({"stats", "--filter", single_path}), 0) << err_;
  EXPECT_EQ(out_.find("routing="), std::string::npos) << out_;
}

TEST_F(CliTest, RoutingFlagsRejectBadValues) {
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2", "--routing", "best-effort"}),
            1);
  EXPECT_NE(err_.find("--routing value 'best-effort'"), std::string::npos)
      << err_;
  EXPECT_FALSE(std::filesystem::exists(filter_path_))
      << "a rejected build must not write a filter";
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2", "--routing", "two-choice",
                 "--routing-buckets", "0"}),
            1);
  EXPECT_NE(err_.find("--routing-buckets value '0'"), std::string::npos)
      << err_;
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2", "--routing", "two-choice",
                 "--routing-buckets", "1048577"}),
            1)
      << "beyond the 2^20 snapshot bound";
}

TEST_F(CliTest, ShardedBuildRejectsBadArguments) {
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "0"}),
            1);
  // The rejection must name the offending value, not silently clamp to 1.
  EXPECT_NE(err_.find("--shards value '0'"), std::string::npos) << err_;
  EXPECT_FALSE(std::filesystem::exists(filter_path_))
      << "a rejected build must not write a filter";
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "banana"}),
            1);
  EXPECT_NE(err_.find("banana"), std::string::npos) << err_;
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "5000"}),
            1)
      << "beyond the 4096 snapshot bound";
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2", "--threads", "x"}),
            1);
}

TEST_F(CliTest, BuildRejectsNonFiniteAndUnderflowingNumericFlags) {
  // strtod accepts "nan"/"inf"; the CLI must not (a NaN bit budget is an
  // undefined float-to-integer cast).
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "banana", "12x"}) {
    EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                   filter_path_, "--bits-per-key", bad}),
              1)
        << bad;
    EXPECT_NE(err_.find(bad), std::string::npos)
        << "error must name the value: " << err_;
  }
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--delta", "nan"}),
            1);
  // 3000 positives at 0.001 bits/key is below the 64-bit sizing floor.
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--bits-per-key", "0.001"}),
            1);
  EXPECT_NE(err_.find("bit budget too small"), std::string::npos) << err_;
  // Finite but astronomically large: the float-to-size_t conversion of the
  // total bit budget must be rejected, not undefined behavior.
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--bits-per-key", "1e19"}),
            1);
  EXPECT_NE(err_.find("bit budget too large"), std::string::npos) << err_;
}

TEST_F(CliTest, ParallelBatchQueryMatchesPerKeyQuery) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_, "--shards", "4",
                 "--threads", "2"}),
            0)
      << err_;
  const std::string keys_path = dir_ + "/mixed_keys.txt";
  std::string mixed;
  for (int i = 0; i < 200; ++i) {
    mixed += (i % 2 == 0 ? "member-" : "outsider-") + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(WriteFileBytes(keys_path, mixed));

  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys", keys_path}), 0)
      << err_;
  const std::string per_key_out = out_;
  ASSERT_EQ(Run({"query", "--filter", filter_path_, "--keys", keys_path,
                 "--parallel-batch", "--threads", "3"}),
            0)
      << err_;
  EXPECT_EQ(out_, per_key_out)
      << "pooled fan-out must answer identically to the per-key path";

  // The unsharded snapshot takes the plain batched path under the flag.
  const std::string single_path = dir_ + "/single.habf";
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 single_path}),
            0)
      << err_;
  ASSERT_EQ(Run({"query", "--filter", single_path, "--keys", keys_path}), 0)
      << err_;
  const std::string single_per_key = out_;
  ASSERT_EQ(Run({"query", "--filter", single_path, "--keys", keys_path,
                 "--parallel-batch"}),
            0)
      << err_;
  EXPECT_EQ(out_, single_per_key);

  EXPECT_EQ(Run({"query", "--filter", filter_path_, "--keys", keys_path,
                 "--parallel-batch", "--threads", "zap"}),
            1);
}

TEST_F(CliTest, BuildWritesSnapshotAtomicallyWithNoTempLeftover) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2"}),
            0)
      << err_;
  // The snapshot went through temp-file + rename: the directory must hold
  // no *.tmp.* residue, and the published file must load whole.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("shards=2"), std::string::npos);

  // Overwriting an existing snapshot also goes through the atomic path.
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_}),
            0)
      << err_;
  ASSERT_EQ(Run({"stats", "--filter", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("shards=1"), std::string::npos);

  // A build into a missing directory fails cleanly, leaving nothing behind.
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 dir_ + "/no-such-dir/f.habf"}),
            2);
  EXPECT_NE(err_.find("cannot write"), std::string::npos) << err_;
}

TEST_F(CliTest, WeightedNegativesRejectBadCosts) {
  // ReadWeightedLines shares the numeric hardening: nan/inf costs were
  // already rejected via ParseDouble; negative costs must be too (they
  // silently deflate the weighted-FPR denominator and routing weights),
  // with the offending value named.
  const std::string bad_path = dir_ + "/bad_negatives.txt";
  ASSERT_TRUE(WriteFileBytes(bad_path, "outsider-a\t2.0\noutsider-b\t-3.5\n"));
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 bad_path, "--out", filter_path_}),
            2);
  EXPECT_NE(err_.find("bad cost '-3.5'"), std::string::npos) << err_;
  const std::string nan_path = dir_ + "/nan_negatives.txt";
  ASSERT_TRUE(WriteFileBytes(nan_path, "outsider-c\tnan\n"));
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 nan_path, "--out", filter_path_}),
            2);
  EXPECT_NE(err_.find("bad cost 'nan'"), std::string::npos) << err_;
}

TEST_F(CliTest, HighCostNegativesOptimizedAway) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--negatives",
                 negatives_path_, "--out", filter_path_, "--bits-per-key",
                 "10"}),
            0)
      << err_;
  // The 30 expensive outsiders should all be rejected.
  std::vector<std::string> args{"query", "--filter", filter_path_};
  for (int i = 0; i < 30; ++i) {
    args.push_back("--key");
    args.push_back("outsider-" + std::to_string(i));
  }
  ASSERT_EQ(Run(args), 0) << err_;
  EXPECT_EQ(out_.find("maybe-in-set"), std::string::npos)
      << "an expensive negative slipped through:\n"
      << out_;
}

TEST_F(CliTest, BuildWritesHbf1AndLegacyFixturesStillQuery) {
  // Every build writes the HBF1 container; the legacy formats are read-only
  // and the committed fixtures keep answering through the query path.
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "4", "--routing", "two-choice"}),
            0)
      << err_;
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(filter_path_, &bytes));
  EXPECT_TRUE(SectionReader::LooksLikeContainer(bytes));

  for (const char* stem :
       {"shrd_uniform_v1", "shr2_two_choice_v2", "habf_legacy_v1"}) {
    ASSERT_EQ(Run({"query", "--filter", FixturePath(stem, ".snapshot"),
                   "--keys", FixturePath(stem, ".keys")}),
              0)
        << stem << ": " << err_;
    EXPECT_NE(out_.find("compat-key-127\tmaybe-in-set"), std::string::npos)
        << stem;
    EXPECT_EQ(out_.find("not-in-set"), std::string::npos)
        << stem << " dropped a fixture member:\n"
        << out_;
  }
}

TEST_F(CliTest, InspectDumpsSectionTableAndFlagsCorruption) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "4", "--routing", "two-choice"}),
            0)
      << err_;
  ASSERT_EQ(Run({"inspect", filter_path_}), 0) << err_;
  EXPECT_NE(out_.find("format: HBF1 container content=SHRD"),
            std::string::npos)
      << out_;
  EXPECT_NE(out_.find("tag=SCFG"), std::string::npos) << out_;
  EXPECT_NE(out_.find("tag=RDIR"), std::string::npos) << out_;
  EXPECT_NE(out_.find("tag=SHDS"), std::string::npos) << out_;
  EXPECT_NE(out_.find("all sections verified"), std::string::npos) << out_;

  // Flip a payload byte: inspect still prints the table but exits 2 and
  // marks exactly the damaged section.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(filter_path_, &bytes));
  bytes[40] = static_cast<char>(static_cast<uint8_t>(bytes[40]) ^ 0x08);
  ASSERT_TRUE(WriteFileBytes(filter_path_, bytes));
  EXPECT_EQ(Run({"inspect", filter_path_}), 2);
  EXPECT_NE(out_.find("CORRUPT"), std::string::npos) << out_;
  EXPECT_NE(err_.find("corrupt section"), std::string::npos) << err_;
}

TEST_F(CliTest, InspectIdentifiesLegacyFormatsByMagic) {
  // Each committed legacy fixture is named by its magic.
  const std::pair<const char*, const char*> fixtures[] = {
      {"shrd_uniform_v1", "legacy SHRD uniform sharded snapshot"},
      {"shr2_two_choice_v2", "legacy SHR2 two-choice sharded snapshot"},
      {"habf_legacy_v1", "legacy HABF filter snapshot"},
      {"xorf_legacy_v1", "legacy XORF xor-filter snapshot"},
  };
  for (const auto& [stem, what] : fixtures) {
    ASSERT_EQ(Run({"inspect", FixturePath(stem, ".snapshot")}), 0) << err_;
    EXPECT_NE(out_.find(what), std::string::npos) << out_;
  }

  const std::string junk_path = dir_ + "/junk.bin";
  ASSERT_TRUE(WriteFileBytes(junk_path, "not a snapshot at all"));
  EXPECT_EQ(Run({"inspect", junk_path}), 2);
  EXPECT_NE(out_.find("format: unknown"), std::string::npos) << out_;

  EXPECT_EQ(Run({"inspect"}), 1);
  EXPECT_NE(err_.find("inspect requires a snapshot path"), std::string::npos);
}

TEST_F(CliTest, ServeStaticSnapshotAnswersOverTheWire) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2"}),
            0)
      << err_;

  // `serve` blocks for its duration, so it runs on a thread while the test
  // plays client — the same RunCli entry the binary uses, no subprocess.
  const std::string port_path = dir_ + "/serve_port.txt";
  std::string serve_out, serve_err;
  int serve_rc = -1;
  std::thread server_thread([&] {
    serve_rc = RunCli({"serve", "--snapshot", filter_path_, "--port", "0",
                       "--port-file", port_path, "--workers", "2",
                       "--duration-ms", "2500"},
                      &serve_out, &serve_err);
  });

  // The port file is written (atomically) only once the server is
  // listening, so polling it doubles as the readiness barrier.
  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::string bytes;
    if (ReadFileBytes(port_path, &bytes) && !bytes.empty()) {
      port = static_cast<uint16_t>(std::stoul(bytes));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Gather results first, join, then assert — an ASSERT before the join
  // would std::terminate on the unjoined thread.
  std::string client_failure;
  std::vector<uint8_t> answers;
  if (port == 0) {
    client_failure = "port file never appeared: " + serve_err;
  } else {
    net::BlockingClient client;
    std::string net_error;
    const std::vector<std::string_view> keys = {"member-5", "member-2999",
                                                "serve-test-outsider"};
    if (!client.Connect("127.0.0.1", port, &net_error)) {
      client_failure = "connect: " + net_error;
    } else if (!client.Query(KeySpan(keys.data(), keys.size()), &answers,
                             &net_error)) {
      client_failure = "query: " + net_error;
    }
  }
  server_thread.join();

  ASSERT_EQ(client_failure, "") << serve_err;
  EXPECT_EQ(serve_rc, 0) << serve_err;
  ASSERT_EQ(answers.size(), 3u);
  EXPECT_EQ(answers[0], 1);  // members are one-sided over the wire
  EXPECT_EQ(answers[1], 1);
  EXPECT_NE(serve_out.find("serving static filter on 127.0.0.1:"),
            std::string::npos)
      << serve_out;
  EXPECT_NE(serve_out.find("serve: drained"), std::string::npos) << serve_out;
  EXPECT_NE(serve_out.find("protocol_errors=0"), std::string::npos)
      << serve_out;
  // The governance counters print on their own drained line.
  EXPECT_NE(serve_out.find("serve: governance refused=0"), std::string::npos)
      << serve_out;
}

TEST_F(CliTest, StatsOverWireFetchesLiveCountersByPort) {
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--shards", "2"}),
            0)
      << err_;

  const std::string port_path = dir_ + "/stats_port.txt";
  std::string serve_out, serve_err;
  int serve_rc = -1;
  std::thread server_thread([&] {
    serve_rc = RunCli({"serve", "--snapshot", filter_path_, "--port", "0",
                       "--port-file", port_path, "--duration-ms", "2500"},
                      &serve_out, &serve_err);
  });

  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::string bytes;
    if (ReadFileBytes(port_path, &bytes) && !bytes.empty()) {
      port = static_cast<uint16_t>(std::stoul(bytes));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Query once so the counters have something to say, then fetch them with
  // `stats --port` — the in-process Run, same entry as the binary.
  std::string client_failure;
  int stats_rc = -1;
  if (port == 0) {
    client_failure = "port file never appeared: " + serve_err;
  } else {
    net::BlockingClient client;
    std::string net_error;
    const std::vector<std::string_view> keys = {"member-1"};
    std::vector<uint8_t> answers;
    if (!client.Connect("127.0.0.1", port, &net_error)) {
      client_failure = "connect: " + net_error;
    } else if (!client.Query(KeySpan(keys.data(), keys.size()), &answers,
                             &net_error)) {
      client_failure = "query: " + net_error;
    } else {
      stats_rc = Run({"stats", "--port", std::to_string(port)});
    }
  }
  server_thread.join();

  ASSERT_EQ(client_failure, "") << serve_err;
  EXPECT_EQ(serve_rc, 0) << serve_err;
  ASSERT_EQ(stats_rc, 0) << err_;
  // name=value lines in the stable wire order, with the query visible.
  EXPECT_NE(out_.find("keys_queried=1\n"), std::string::npos) << out_;
  EXPECT_NE(out_.find("requests_answered=1\n"), std::string::npos) << out_;
  EXPECT_NE(out_.find("backpressure_pauses=0\n"), std::string::npos) << out_;
  EXPECT_NE(out_.find("out_buffer_peak_bytes="), std::string::npos) << out_;
}

TEST_F(CliTest, StatsFlagMisuseIsRejected) {
  // --filter and --port are mutually exclusive sources.
  EXPECT_EQ(Run({"stats", "--filter", filter_path_, "--port", "12345"}), 1);
  EXPECT_NE(err_.find("mutually exclusive"), std::string::npos) << err_;
  // Port must be a real port number.
  EXPECT_EQ(Run({"stats", "--port", "0"}), 1);
  EXPECT_NE(err_.find("--port must be a port number"), std::string::npos)
      << err_;
  EXPECT_EQ(Run({"stats", "--port", "70000"}), 1);
  // A valid port with nothing listening is a transport error (rc 2).
  EXPECT_EQ(Run({"stats", "--port", "1"}), 2);
  EXPECT_NE(err_.find("stats: "), std::string::npos) << err_;
}

TEST_F(CliTest, ServeDynamicWalDirAcceptsWireMutations) {
  // `build --wal-dir` seeds the directory (checkpoint + durable delta log);
  // `serve --wal-dir` then recovers it and accepts wire mutations.
  const std::string wal_dir = dir_ + "/serve_wal";
  EXPECT_EQ(Run({"build", "--positives", positives_path_, "--out",
                 filter_path_, "--wal-dir", wal_dir}),
            1);
  EXPECT_NE(err_.find("exactly one of --out"), std::string::npos) << err_;
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--shards", "2",
                 "--wal-dir", wal_dir}),
            0)
      << err_;
  EXPECT_NE(out_.find("built durable dynamic filter in"), std::string::npos)
      << out_;

  const std::string port_path = dir_ + "/serve_wal_port.txt";
  std::string serve_out, serve_err;
  int serve_rc = -1;
  std::thread server_thread([&] {
    serve_rc = RunCli({"serve", "--wal-dir", wal_dir, "--port-file",
                       port_path, "--duration-ms", "2500"},
                      &serve_out, &serve_err);
  });

  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::string bytes;
    if (ReadFileBytes(port_path, &bytes) && !bytes.empty()) {
      port = static_cast<uint16_t>(std::stoul(bytes));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::string client_failure;
  std::vector<uint8_t> answers;
  if (port == 0) {
    client_failure = "port file never appeared: " + serve_err;
  } else {
    net::BlockingClient client;
    std::string net_error;
    const std::vector<std::string_view> fresh = {"serve-wire-inserted-key"};
    if (!client.Connect("127.0.0.1", port, &net_error)) {
      client_failure = "connect: " + net_error;
    } else if (!client.Mutate(/*insert=*/true,
                              KeySpan(fresh.data(), fresh.size()),
                              &net_error)) {
      client_failure = "insert: " + net_error;
    } else if (!client.Query(KeySpan(fresh.data(), fresh.size()), &answers,
                             &net_error)) {
      client_failure = "query: " + net_error;
    }
  }
  server_thread.join();

  ASSERT_EQ(client_failure, "") << serve_err;
  EXPECT_EQ(serve_rc, 0) << serve_err;
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], 1);  // the wire insert is immediately queryable
  EXPECT_NE(serve_out.find("serving dynamic filter on 127.0.0.1:"),
            std::string::npos)
      << serve_out;
  EXPECT_NE(serve_out.find("keys_mutated=1"), std::string::npos) << serve_out;
}

TEST_F(CliTest, ServeWalDirCompactsAndTrimsTheLog) {
  // Durable inserts past the default dirty threshold (5% of a shard) must
  // trigger serve's background compaction, whose checkpoint trims the log.
  const std::string wal_dir = dir_ + "/serve_compact";
  ASSERT_EQ(Run({"build", "--positives", positives_path_, "--shards", "2",
                 "--wal-dir", wal_dir}),
            0)
      << err_;
  // `build --wal-dir` leaves the initial checkpoint and live epoch 2.
  ASSERT_TRUE(std::filesystem::exists(WalFilePath(wal_dir, 2)));

  const std::string port_path = dir_ + "/serve_compact_port.txt";
  std::string serve_out, serve_err;
  int serve_rc = -1;
  std::thread server_thread([&] {
    serve_rc = RunCli({"serve", "--wal-dir", wal_dir, "--port-file",
                       port_path, "--duration-ms", "2500"},
                      &serve_out, &serve_err);
  });
  uint16_t port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    std::string bytes;
    if (ReadFileBytes(port_path, &bytes) && !bytes.empty()) {
      port = static_cast<uint16_t>(std::stoul(bytes));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  constexpr size_t kInserts = 400;  // ~13% of each 1500-key shard
  std::vector<std::string> fresh;
  for (size_t i = 0; i < kInserts; ++i) {
    fresh.push_back("compact-me-" + std::to_string(i));
  }
  std::string client_failure;
  if (port == 0) {
    client_failure = "port file never appeared: " + serve_err;
  } else {
    net::BlockingClient client;
    std::string net_error;
    if (!client.Connect("127.0.0.1", port, &net_error)) {
      client_failure = "connect: " + net_error;
    }
    for (size_t begin = 0; client_failure.empty() && begin < kInserts;
         begin += 50) {
      const std::vector<std::string_view> frame(fresh.begin() + begin,
                                                fresh.begin() + begin + 50);
      if (!client.Mutate(/*insert=*/true, KeySpan(frame.data(), frame.size()),
                         &net_error)) {
        client_failure = "insert: " + net_error;
      }
    }
  }
  server_thread.join();
  ASSERT_EQ(client_failure, "") << serve_err;
  ASSERT_EQ(serve_rc, 0) << serve_err;

  const auto counter = [&serve_out](const std::string& name) -> long {
    const size_t at = serve_out.find(" " + name + "=");
    if (at == std::string::npos) return -1;
    return std::stol(serve_out.substr(at + name.size() + 2));
  };
  EXPECT_NE(serve_out.find("keys_mutated=400"), std::string::npos)
      << serve_out;
  EXPECT_GE(counter("compactions"), 1) << serve_out;
  EXPECT_GE(counter("checkpoints"), 1) << serve_out;
  // The checkpoint superseded the epochs that held the inserts.
  EXPECT_FALSE(std::filesystem::exists(WalFilePath(wal_dir, 2)));
  const WalReplayResult log = ReplayWalDir(wal_dir, 1, 0);
  ASSERT_TRUE(log.ok()) << log.error;
  EXPECT_LT(log.records.size(), kInserts);

  std::string error;
  auto reopened = DynamicShardedHabf::Open(wal_dir, {}, &error);
  ASSERT_NE(reopened, nullptr) << error;
  for (const std::string& key : fresh) {
    EXPECT_TRUE(reopened->MightContain(key)) << key;
  }
}

TEST_F(CliTest, ServeFlagsRejectMisuse) {
  // Exactly one of --snapshot / --wal-dir.
  EXPECT_EQ(Run({"serve"}), 1);
  EXPECT_NE(err_.find("exactly one of"), std::string::npos) << err_;
  EXPECT_EQ(Run({"serve", "--snapshot", filter_path_, "--wal-dir", dir_}), 1);
  EXPECT_NE(err_.find("exactly one of"), std::string::npos) << err_;
  // Flag validation happens before any filter loads.
  EXPECT_EQ(Run({"serve", "--snapshot", filter_path_, "--port", "70000"}), 1);
  EXPECT_NE(err_.find("port"), std::string::npos) << err_;
  EXPECT_EQ(Run({"serve", "--snapshot", filter_path_, "--workers", "0"}), 1);
  EXPECT_NE(err_.find("workers"), std::string::npos) << err_;
  // A missing snapshot is a data error (2), not a usage error.
  EXPECT_EQ(Run({"serve", "--snapshot", dir_ + "/missing.habf",
                 "--duration-ms", "50"}),
            2);
}

}  // namespace
}  // namespace cli
}  // namespace habf
