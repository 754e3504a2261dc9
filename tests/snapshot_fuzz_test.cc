// Deterministic fuzzing of snapshot loading: random truncations and bit
// flips over serialized HABF and sharded-HABF snapshots must never crash,
// abort, or allocate absurdly — Deserialize either rejects the bytes or
// returns a filter whose queries run safely. Also drives crafted hostile
// headers (NaN/Inf delta, absurd total_bits) at the field offsets of the
// version-1 format. Nothing writes the legacy formats any more, so their
// readers are fuzzed over the committed golden fixtures in tests/data/. The
// dynamic tier's DYNF checkpoint is fuzzed through DynamicShardedHabf::Open,
// and hostile KEYS payloads (re-wrapped with valid CRCs) must be refused.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dynamic_filter.h"
#include "core/habf.h"
#include "core/sharded_filter.h"
#include "util/rng.h"
#include "util/serde.h"
#include "workload/dataset.h"

#ifndef HABF_TEST_DATA_DIR
#error "snapshot_fuzz_test requires the HABF_TEST_DATA_DIR compile definition"
#endif

namespace habf {
namespace {

// Version-1 *legacy* HABF snapshot header offsets: magic u32, version u32,
// total_bits u64, delta f64, k u64, cell_bits u8, fast u8, seed u64, then
// the variable-length payload. The hostile-field tests below patch at these
// offsets, so they must drive the legacy fixture — under HBF1 every field
// lives inside a CRC-guarded section and a patch is caught as a checksum
// error before field validation even runs (covered separately further
// down).
constexpr size_t kOffTotalBits = 8;
constexpr size_t kOffDelta = 16;
constexpr size_t kOffK = 24;

// Legacy SHR2 sharded snapshot header offsets (two-choice framing): magic
// u32, version u32, salt u64, num_shards u32, num_buckets u32, then
// num_buckets x u16 directory entries, num_shards x f64 routed weights, and
// the per-shard sub-snapshots.
constexpr size_t kOffShardCount = 16;
constexpr size_t kOffBucketCount = 20;
constexpr size_t kOffDirectory = 24;

const Dataset& SharedData() {
  static const Dataset data = [] {
    DatasetOptions options;
    options.num_positives = 2000;
    options.num_negatives = 2000;
    options.seed = 909;
    return GenerateShallaLike(options);
  }();
  return data;
}

/// A committed legacy golden fixture (tests/format_compat_test.cc): 128
/// keys, 2^14 bits; the sharded ones have 4 shards, the SHR2 one a
/// 4096-bucket directory.
std::string LegacyFixture(const char* name) {
  std::string bytes;
  EXPECT_TRUE(
      ReadFileBytes(std::string(HABF_TEST_DATA_DIR) + "/" + name, &bytes))
      << name;
  return bytes;
}

std::string LegacyHabfSnapshot() {
  return LegacyFixture("habf_legacy_v1.snapshot");
}
std::string LegacyShardedSnapshot() {
  return LegacyFixture("shrd_uniform_v1.snapshot");
}
std::string LegacyTwoChoiceSnapshot() {
  return LegacyFixture("shr2_two_choice_v2.snapshot");
}

std::string HabfSnapshot() {
  HabfOptions options;
  options.total_bits = 2000 * 10;
  const Habf filter =
      Habf::Build(SharedData().positives, SharedData().negatives, options);
  std::string bytes;
  filter.Serialize(&bytes);
  return bytes;
}

std::string ShardedSnapshot() {
  HabfOptions options;
  options.total_bits = 2000 * 10;
  ShardedBuildOptions sharding;
  sharding.num_shards = 3;
  sharding.num_threads = 1;
  const auto filter = BuildShardedHabf(SharedData().positives,
                                       SharedData().negatives, options,
                                       sharding);
  std::string bytes;
  filter.Serialize(&bytes);
  return bytes;
}

/// A two-choice snapshot: same build sets, small directory so the
/// truncation fuzz spends iterations on every region (header, directory,
/// sub-snapshots).
std::string TwoChoiceSnapshot() {
  HabfOptions options;
  options.total_bits = 2000 * 10;
  ShardedBuildOptions sharding;
  sharding.num_shards = 3;
  sharding.num_threads = 1;
  sharding.routing = RoutingMode::kTwoChoice;
  sharding.num_routing_buckets = 64;
  const auto filter = BuildShardedHabf(SharedData().positives,
                                       SharedData().negatives, options,
                                       sharding);
  std::string bytes;
  filter.Serialize(&bytes);
  return bytes;
}

/// Loads `bytes` with `deserialize` and, when a filter comes back, runs a
/// few queries — the contract under corruption is "reject or behave", never
/// crash.
template <typename DeserializeFn>
void LoadAndProbe(const std::string& bytes, DeserializeFn&& deserialize) {
  const auto filter = deserialize(std::string_view(bytes));
  if (!filter.has_value()) return;
  for (int i = 0; i < 8; ++i) {
    (void)filter->MightContain("fuzz-probe-" + std::to_string(i));
  }
  (void)filter->MightContain("");
}

template <typename DeserializeFn>
void FuzzTruncations(const std::string& bytes, DeserializeFn&& deserialize) {
  Xoshiro256 rng(0xF022ULL);
  for (int iter = 0; iter < 150; ++iter) {
    const size_t cut = rng.NextBounded(bytes.size());
    LoadAndProbe(bytes.substr(0, cut), deserialize);
  }
  // Every prefix of the header region, exhaustively.
  for (size_t cut = 0; cut < 64 && cut < bytes.size(); ++cut) {
    LoadAndProbe(bytes.substr(0, cut), deserialize);
  }
}

template <typename DeserializeFn>
void FuzzBitFlips(const std::string& bytes, DeserializeFn&& deserialize) {
  Xoshiro256 rng(0xB17FULL);
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = bytes;
    const size_t flips = 1 + rng.NextBounded(8);
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = rng.NextBounded(mutated.size());
      mutated[pos] = static_cast<char>(
          static_cast<uint8_t>(mutated[pos]) ^
          static_cast<uint8_t>(1u << rng.NextBounded(8)));
    }
    LoadAndProbe(mutated, deserialize);
  }
}

void PatchU64(std::string* bytes, size_t offset, uint64_t value) {
  ASSERT_LE(offset + 8, bytes->size());
  std::memcpy(bytes->data() + offset, &value, 8);
}

void PatchDouble(std::string* bytes, size_t offset, double value) {
  uint64_t raw;
  std::memcpy(&raw, &value, 8);
  PatchU64(bytes, offset, raw);
}

TEST(SnapshotFuzzTest, HabfTruncationsNeverCrash) {
  FuzzTruncations(HabfSnapshot(), Habf::Deserialize);
  FuzzTruncations(LegacyHabfSnapshot(), Habf::Deserialize);
}

TEST(SnapshotFuzzTest, HabfBitFlipsNeverCrash) {
  FuzzBitFlips(HabfSnapshot(), Habf::Deserialize);
  FuzzBitFlips(LegacyHabfSnapshot(), Habf::Deserialize);
}

TEST(SnapshotFuzzTest, ShardedTruncationsNeverCrash) {
  FuzzTruncations(ShardedSnapshot(), ShardedFilter<Habf>::Deserialize);
  FuzzTruncations(LegacyShardedSnapshot(),
                  ShardedFilter<Habf>::Deserialize);
}

TEST(SnapshotFuzzTest, ShardedBitFlipsNeverCrash) {
  FuzzBitFlips(ShardedSnapshot(), ShardedFilter<Habf>::Deserialize);
  FuzzBitFlips(LegacyShardedSnapshot(),
               ShardedFilter<Habf>::Deserialize);
}

TEST(SnapshotFuzzTest, TwoChoiceTruncationsNeverCrash) {
  FuzzTruncations(TwoChoiceSnapshot(), ShardedFilter<Habf>::Deserialize);
  FuzzTruncations(LegacyTwoChoiceSnapshot(),
                  ShardedFilter<Habf>::Deserialize);
}

TEST(SnapshotFuzzTest, TwoChoiceBitFlipsNeverCrash) {
  FuzzBitFlips(TwoChoiceSnapshot(), ShardedFilter<Habf>::Deserialize);
  FuzzBitFlips(LegacyTwoChoiceSnapshot(),
               ShardedFilter<Habf>::Deserialize);
}

TEST(SnapshotFuzzTest, NonFiniteDeltaRejected) {
  for (double hostile : {std::nan(""), HUGE_VAL, -HUGE_VAL, 1e300}) {
    std::string bytes = LegacyHabfSnapshot();
    PatchDouble(&bytes, kOffDelta, hostile);
    EXPECT_FALSE(Habf::Deserialize(bytes).has_value()) << hostile;
  }
}

TEST(SnapshotFuzzTest, AbsurdTotalBitsRejected) {
  for (uint64_t hostile :
       {uint64_t{0}, uint64_t{63}, uint64_t{1} << 40, uint64_t{1} << 62,
        ~uint64_t{0}}) {
    std::string bytes = LegacyHabfSnapshot();
    PatchU64(&bytes, kOffTotalBits, hostile);
    EXPECT_FALSE(Habf::Deserialize(bytes).has_value()) << hostile;
  }
}

TEST(SnapshotFuzzTest, AbsurdKRejected) {
  for (uint64_t hostile : {uint64_t{0}, uint64_t{17}, uint64_t{255},
                           uint64_t{1} << 33}) {
    std::string bytes = LegacyHabfSnapshot();
    PatchU64(&bytes, kOffK, hostile);
    EXPECT_FALSE(Habf::Deserialize(bytes).has_value()) << hostile;
  }
}

TEST(SnapshotFuzzTest, MismatchedPayloadSizesRejected) {
  // A plausible header over a payload sized for a different filter: the
  // word-count cross-check must reject it before allocating for the header.
  std::string bytes = LegacyHabfSnapshot();
  PatchU64(&bytes, kOffTotalBits, uint64_t{1} << 30);
  EXPECT_FALSE(Habf::Deserialize(bytes).has_value());
}

TEST(SnapshotFuzzTest, TrailingGarbageRejected) {
  // Both framings reject trailing bytes — HBF1 because the section table
  // must consume the container exactly, legacy via its own end check.
  for (const std::string& habf_bytes : {HabfSnapshot(), LegacyHabfSnapshot()}) {
    EXPECT_FALSE(Habf::Deserialize(habf_bytes + "x").has_value());
    EXPECT_FALSE(
        Habf::Deserialize(habf_bytes + std::string(64, '\0')).has_value());
  }
  for (const std::string& sharded_bytes :
       {ShardedSnapshot(), TwoChoiceSnapshot(), LegacyShardedSnapshot(),
        LegacyTwoChoiceSnapshot()}) {
    EXPECT_FALSE(
        ShardedFilter<Habf>::Deserialize(sharded_bytes + "x").has_value());
  }
}

TEST(SnapshotFuzzTest, EmptyAndTinyInputsRejected) {
  EXPECT_FALSE(Habf::Deserialize("").has_value());
  EXPECT_FALSE(Habf::Deserialize("H").has_value());
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize("").has_value());
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize("SHRD").has_value());
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize("SHR2").has_value());
}

TEST(SnapshotFuzzTest, OutOfRangeDirectoryShardIdRejected) {
  // The fixture was built with 4 shards; every directory entry naming
  // shard >= 4 must be rejected before any shard sub-snapshot is parsed.
  std::string bytes = LegacyTwoChoiceSnapshot();
  for (uint16_t hostile : {uint16_t{4}, uint16_t{255}, uint16_t{0xFFFF}}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + kOffDirectory + 10 * 2, &hostile, 2);
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(mutated).has_value())
        << hostile;
  }
}

TEST(SnapshotFuzzTest, HostileBucketCountsRejectedBeforeAllocation) {
  // Zero, beyond-bound, and payload-starved bucket counts must all fail in
  // the header check — a 4-billion-bucket claim over a few-KiB payload
  // cannot be allowed to size the directory vector first.
  std::string bytes = LegacyTwoChoiceSnapshot();
  for (uint32_t hostile :
       {uint32_t{0}, static_cast<uint32_t>(kMaxRoutingBuckets + 1),
        uint32_t{1} << 24, ~uint32_t{0}}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + kOffBucketCount, &hostile, 4);
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(mutated).has_value())
        << hostile;
  }
  // An in-range count the payload cannot actually hold is just as hostile.
  std::string starved = bytes;
  const uint32_t too_many = 1u << 19;  // within kMaxRoutingBuckets
  std::memcpy(starved.data() + kOffBucketCount, &too_many, 4);
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(starved).has_value());
}

TEST(SnapshotFuzzTest, HostileShardCountInShr2Rejected) {
  std::string bytes = LegacyTwoChoiceSnapshot();
  for (uint32_t hostile : {uint32_t{0}, uint32_t{4097}, ~uint32_t{0}}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + kOffShardCount, &hostile, 4);
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(mutated).has_value())
        << hostile;
  }
}

TEST(SnapshotFuzzTest, NonFiniteRoutedWeightRejected) {
  // The per-shard routed weights sit right after the directory.
  std::string bytes = LegacyTwoChoiceSnapshot();
  uint32_t num_buckets = 0;
  std::memcpy(&num_buckets, bytes.data() + kOffBucketCount, 4);
  ASSERT_EQ(num_buckets, 4096u);
  const size_t weights_offset = kOffDirectory + size_t{num_buckets} * 2;
  for (double hostile : {std::nan(""), HUGE_VAL, -1.0}) {
    std::string mutated = bytes;
    PatchDouble(&mutated, weights_offset, hostile);
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(mutated).has_value())
        << hostile;
  }
}

TEST(SnapshotFuzzTest, LegacyShrdSnapshotStillLoadsBitExactly) {
  // Backward compatibility is part of the format contract: the legacy
  // framing keeps loading, with every shard and every member intact. The
  // golden-fixture gate (tests/format_compat_test.cc) adds the HBF1
  // migration check.
  const auto restored =
      ShardedFilter<Habf>::Deserialize(LegacyShardedSnapshot());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_shards(), 4u);
  EXPECT_EQ(restored->routing(), RoutingMode::kUniform);
  for (int i = 0; i < 128; ++i) {
    const std::string key = "compat-key-" + std::to_string(i);
    EXPECT_TRUE(restored->MightContain(key)) << key;
  }
}

// --- HBF1 container-level hostility (DESIGN.md §10) -------------------------
// The sectioned framing is validated before any section payload is parsed:
// header layout is magic u32 | version u32 | content_tag u32 | section_count
// u32, then per section tag u32 | length u64 | crc u32 | payload.

TEST(SnapshotFuzzTest, Hbf1PayloadCorruptionCaughtByCrc) {
  // A flip anywhere inside a section payload fails that section's CRC and
  // the load refuses — field-level plausibility never gets a say.
  std::string habf = HabfSnapshot();
  habf[40] = static_cast<char>(static_cast<uint8_t>(habf[40]) ^ 0x01);
  EXPECT_FALSE(Habf::Deserialize(habf).has_value());
  std::string sharded = TwoChoiceSnapshot();
  sharded[40] = static_cast<char>(static_cast<uint8_t>(sharded[40]) ^ 0x80);
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(sharded).has_value());
}

TEST(SnapshotFuzzTest, Hbf1HostileSectionCountRejected) {
  // Zero (required sections then missing), beyond kMaxContainerSections, and
  // absurd counts must all fail before any section header is trusted.
  const std::string bytes = HabfSnapshot();
  for (uint32_t hostile :
       {uint32_t{0}, static_cast<uint32_t>(kMaxContainerSections + 1),
        ~uint32_t{0}}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + 12, &hostile, 4);
    EXPECT_FALSE(Habf::Deserialize(mutated).has_value()) << hostile;
  }
}

TEST(SnapshotFuzzTest, Hbf1HostileSectionLengthRejected) {
  // Lengths pointing past the container (or swallowing the later sections)
  // must fail framing before any allocation; a shortened length breaks the
  // CRC / trailing-byte accounting instead. The first section's length
  // field sits at offset 20.
  const std::string bytes = TwoChoiceSnapshot();
  for (uint64_t hostile :
       {uint64_t{0}, static_cast<uint64_t>(bytes.size()), uint64_t{1} << 32,
        ~uint64_t{0}}) {
    std::string mutated = bytes;
    std::memcpy(mutated.data() + 20, &hostile, 8);
    EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(mutated).has_value())
        << hostile;
  }
}

TEST(SnapshotFuzzTest, Hbf1WrongContentTagRejected) {
  // A structurally valid container of the wrong content type must be
  // refused up front (a sharded container is not an HABF snapshot).
  std::string habf = HabfSnapshot();
  const uint32_t hostile = FourCc("NOPE");
  std::memcpy(habf.data() + 8, &hostile, 4);
  EXPECT_FALSE(Habf::Deserialize(habf).has_value());
  const std::string sharded = ShardedSnapshot();
  EXPECT_FALSE(Habf::Deserialize(sharded).has_value());
  EXPECT_FALSE(ShardedFilter<Habf>::Deserialize(HabfSnapshot()).has_value());
}

// --- DYNF: the dynamic tier's checkpoint ------------------------------------

/// A recovered dynamic filter behind the Deserialize-shaped interface the
/// fuzz helpers above drive.
struct RecoveredDynf {
  std::unique_ptr<DynamicShardedHabf> filter;
  bool MightContain(std::string_view key) const {
    return filter->MightContain(key);
  }
};

/// Recovers `bytes` as the only file of a durability directory. Failure is
/// nullopt with *error naming why.
std::optional<RecoveredDynf> OpenDynf(std::string_view bytes,
                                      std::string* error = nullptr) {
  // One directory per test: ctest -j runs the cases as parallel processes.
  const std::string dir =
      ::testing::TempDir() + "snapshot_fuzz_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_TRUE(WriteFileBytes(DynamicSnapshotPath(dir), bytes));
  std::string open_error;
  RecoveredDynf recovered{DynamicShardedHabf::Open(dir, {}, &open_error)};
  if (error != nullptr) *error = open_error;
  if (recovered.filter == nullptr) return std::nullopt;
  return recovered;
}

std::string DynfCheckpoint() {
  return LegacyFixture("dynf_two_choice_v1.snapshot");
}

/// The checkpoint with its KEYS payload replaced (every CRC valid).
std::string WithKeysPayload(const std::string& checkpoint,
                            std::string_view keys) {
  const std::optional<SectionReader> table = SectionReader::Parse(checkpoint);
  EXPECT_TRUE(table.has_value());
  std::string out;
  SectionWriter writer(&out, table->content_tag());
  for (const SectionReader::Section& section : table->sections()) {
    writer.AddSection(section.tag, section.tag == kDynamicKeysTag
                                       ? keys
                                       : *table->Find(section.tag));
  }
  writer.Finish();
  return out;
}

TEST(SnapshotFuzzTest, DynfTruncationsAndBitFlipsNeverCrash) {
  const std::string checkpoint = DynfCheckpoint();
  ASSERT_TRUE(OpenDynf(checkpoint).has_value());
  const auto open = [](std::string_view bytes) { return OpenDynf(bytes); };
  FuzzTruncations(checkpoint, open);
  FuzzBitFlips(checkpoint, open);
}

TEST(SnapshotFuzzTest, DynfHostileKeysPayloadsRejected) {
  const std::string checkpoint = DynfCheckpoint();
  const std::optional<SectionReader> table = SectionReader::Parse(checkpoint);
  ASSERT_TRUE(table.has_value());
  const std::string keys(*table->Find(kDynamicKeysTag));
  // Re-wrapping the intact payload still recovers.
  ASSERT_TRUE(OpenDynf(WithKeysPayload(checkpoint, keys)).has_value());

  const auto shards = [](uint32_t count, const std::string& body) {
    std::string out;
    BinaryWriter(&out).WriteU32(count);
    return out + body;
  };
  const auto set = [](uint64_t count, const std::string& body) {
    std::string out;
    BinaryWriter(&out).WriteU64(count);
    return out + body;
  };
  const std::string empty_set = set(0, "");
  std::string dup_body;
  BinaryWriter(&dup_body).WriteBytes("dynf-member-1");
  BinaryWriter(&dup_body).WriteBytes("dynf-member-1");
  std::string past_end;
  BinaryWriter(&past_end).WriteU64(1000);
  past_end += "abc";
  std::string lying_first = keys;  // shard 0's count off by one
  uint64_t first_count;
  std::memcpy(&first_count, lying_first.data() + 4, 8);
  ++first_count;
  std::memcpy(lying_first.data() + 4, &first_count, 8);

  const std::vector<std::pair<const char*, std::string>> hostile = {
      {"empty", ""},
      {"short shard count", std::string(3, '\0')},
      {"shard count mismatch",
       shards(3, empty_set + empty_set + empty_set)},
      {"count larger than the payload",
       shards(4, set(uint64_t{1} << 62, ""))},
      {"count that lies", lying_first},
      {"length past the end",
       shards(4, set(1, past_end) + empty_set + empty_set + empty_set)},
      {"missing shard", shards(4, empty_set + empty_set + empty_set)},
      {"trailing bytes", keys + "x"},
      {"duplicate key",
       shards(4, set(2, dup_body) + empty_set + empty_set + empty_set)},
  };
  for (const auto& [name, payload] : hostile) {
    std::string error;
    EXPECT_FALSE(OpenDynf(WithKeysPayload(checkpoint, payload), &error)
                     .has_value())
        << name;
    EXPECT_NE(error.find("checkpoint section KEYS is malformed"),
              std::string::npos)
        << name << ": " << error;
  }
}

}  // namespace
}  // namespace habf
