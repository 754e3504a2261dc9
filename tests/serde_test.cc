// Round-trip and corruption tests for the binary serialization layer and
// the filters' Save/Load support.

#include "util/serde.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bloom/xor_filter.h"
#include "core/habf.h"
#include "workload/dataset.h"

namespace habf {
namespace {

TEST(BinaryRoundTrip, PrimitivesAndBytes) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFULL);
  writer.WriteDouble(3.141592653589793);
  writer.WriteBytes("hello");
  writer.WriteWords({1, 2, 3});

  BinaryReader reader(buffer);
  EXPECT_EQ(reader.ReadU8(), 0xAB);
  EXPECT_EQ(reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.ReadU64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(reader.ReadDouble(), 3.141592653589793);
  EXPECT_EQ(reader.ReadBytes(), "hello");
  EXPECT_EQ(reader.ReadWords(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BinaryRoundTrip, TruncationDetected) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteU64(42);
  BinaryReader reader(std::string_view(buffer).substr(0, 4));
  reader.ReadU64();
  EXPECT_FALSE(reader.ok());
}

TEST(BinaryRoundTrip, OversizedWordCountRejected) {
  std::string buffer;
  BinaryWriter writer(&buffer);
  writer.WriteU64(uint64_t{1} << 60);  // claims 2^60 words
  BinaryReader reader(buffer);
  reader.ReadWords();
  EXPECT_FALSE(reader.ok());
}

TEST(FileBytes, RoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/serde_file_test.bin";
  const std::string payload("binary\0payload", 14);
  ASSERT_TRUE(WriteFileBytes(path, payload));
  std::string read_back;
  ASSERT_TRUE(ReadFileBytes(path, &read_back));
  EXPECT_EQ(read_back, payload);
  std::remove(path.c_str());
  EXPECT_FALSE(ReadFileBytes(path + ".does-not-exist", &read_back));
}

TEST(FileBytes, ReadsEverySizeAroundTheOldChunkWhole) {
  const std::string path = ::testing::TempDir() + "/serde_read_sizes.bin";
  for (const size_t size :
       {size_t{0}, size_t{65535}, size_t{65536}, size_t{65537},
        (size_t{1} << 20) + 11}) {
    SCOPED_TRACE(size);
    std::string payload(size, '\0');
    for (size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<char>((i * 131 + i / 251) & 0xFF);
    }
    ASSERT_TRUE(WriteFileBytes(path, payload));
    std::string read_back = "stale contents";
    ASSERT_TRUE(ReadFileBytes(path, &read_back));
    EXPECT_TRUE(read_back == payload);
  }
  std::remove(path.c_str());
}

TEST(FileBytes, DirectoryIsNotAFile) {
  std::string read_back;
  EXPECT_FALSE(ReadFileBytes(::testing::TempDir(), &read_back));
}

TEST(FileBytes, AtomicWriteRoundTripsAndLeavesNoTempFile) {
  const std::string dir =
      ::testing::TempDir() + "/serde_atomic_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/snapshot.bin";
  const std::string payload("atomic\0payload", 14);
  ASSERT_TRUE(WriteFileBytesAtomic(path, payload));
  std::string read_back;
  ASSERT_TRUE(ReadFileBytes(path, &read_back));
  EXPECT_EQ(read_back, payload);
  // The temp file was renamed away: the directory holds only the target.
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename(), "snapshot.bin")
        << "leftover temp file: " << entry.path();
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

TEST(FileBytes, AtomicWriteReplacesExistingFileWhole) {
  const std::string path =
      ::testing::TempDir() + "/serde_atomic_replace.bin";
  ASSERT_TRUE(WriteFileBytesAtomic(path, "old-contents-that-are-longer"));
  ASSERT_TRUE(WriteFileBytesAtomic(path, "new"));
  std::string read_back;
  ASSERT_TRUE(ReadFileBytes(path, &read_back));
  EXPECT_EQ(read_back, "new") << "replacement must not mix with old bytes";
  std::remove(path.c_str());
}

TEST(FileBytes, AtomicWriteFailsCleanlyIntoMissingDirectory) {
  const std::string path =
      ::testing::TempDir() + "/serde_no_such_dir/snapshot.bin";
  EXPECT_FALSE(WriteFileBytesAtomic(path, "payload"));
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(FileBytes, AtomicWriteFsyncsTheParentDirectory) {
  // The rename itself lives in the parent directory; without fsync()ing the
  // directory fd a power loss can roll the entry back even though the data
  // blocks are durable. The counter is the only observable proof the
  // directory-fd path ran.
  const std::string path =
      ::testing::TempDir() + "/serde_atomic_dirsync.bin";
  const uint64_t before = AtomicWriteDirSyncCountForTest();
  ASSERT_TRUE(WriteFileBytesAtomic(path, "durable"));
  EXPECT_EQ(AtomicWriteDirSyncCountForTest(), before + 1);
  std::remove(path.c_str());

  // A failed write (missing directory) must not count a directory sync.
  const uint64_t after = AtomicWriteDirSyncCountForTest();
  EXPECT_FALSE(WriteFileBytesAtomic(
      ::testing::TempDir() + "/serde_no_such_dir/x.bin", "payload"));
  EXPECT_EQ(AtomicWriteDirSyncCountForTest(), after);
}

// ---------------------------------------------------------------------------
// HBF1 sectioned container framing
// ---------------------------------------------------------------------------

constexpr uint32_t kTestContentTag = FourCc("TSTC");
constexpr uint32_t kTagAlpha = FourCc("ALPH");
constexpr uint32_t kTagBeta = FourCc("BETA");
constexpr uint32_t kTagExtra = FourCc("ZZZZ");

std::string MakeContainer() {
  std::string bytes;
  SectionWriter writer(&bytes, kTestContentTag);
  writer.AddSection(kTagAlpha, "alpha-payload");
  writer.AddSection(kTagExtra, "bytes from a future writer");
  writer.AddSection(kTagBeta, std::string("beta\0payload", 12));
  writer.Finish();
  return bytes;
}

TEST(SectionContainer, RoundTripFindsEverySection) {
  const std::string bytes = MakeContainer();
  EXPECT_TRUE(SectionReader::LooksLikeContainer(bytes));
  const auto reader = SectionReader::Parse(bytes);
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->content_tag(), kTestContentTag);
  ASSERT_EQ(reader->sections().size(), 3u);
  EXPECT_TRUE(reader->AllCrcOk());
  EXPECT_EQ(reader->Find(kTagAlpha), "alpha-payload");
  EXPECT_EQ(reader->Find(kTagBeta), std::string_view("beta\0payload", 12));
}

TEST(SectionContainer, UnknownSectionsAreSkippedNotFatal) {
  // A reader that only knows ALPH/BETA still finds them both even though an
  // unknown ZZZZ section sits between them — forward compatibility.
  const std::string bytes = MakeContainer();
  const auto reader = SectionReader::Parse(bytes);
  ASSERT_TRUE(reader.has_value());
  EXPECT_TRUE(reader->Find(kTagAlpha).has_value());
  EXPECT_TRUE(reader->Find(kTagBeta).has_value());
  EXPECT_FALSE(reader->Find(FourCc("NONE")).has_value());
}

TEST(SectionContainer, EmptyPayloadSectionRoundTrips) {
  std::string bytes;
  SectionWriter writer(&bytes, kTestContentTag);
  writer.AddSection(kTagAlpha, "");
  writer.Finish();
  const auto reader = SectionReader::Parse(bytes);
  ASSERT_TRUE(reader.has_value());
  const auto payload = reader->Find(kTagAlpha);
  ASSERT_TRUE(payload.has_value());
  EXPECT_TRUE(payload->empty());
}

TEST(SectionContainer, CrcMismatchParsesButFindRefuses) {
  std::string bytes = MakeContainer();
  const auto intact = SectionReader::Parse(bytes);
  ASSERT_TRUE(intact.has_value());
  // Flip one byte inside the ALPH payload (first section, payload at 32).
  const size_t victim = intact->sections()[0].payload_offset + 3;
  bytes[victim] = static_cast<char>(static_cast<uint8_t>(bytes[victim]) ^ 1);

  const auto reader = SectionReader::Parse(bytes);
  ASSERT_TRUE(reader.has_value()) << "CRC damage is not a framing error";
  EXPECT_FALSE(reader->AllCrcOk());
  EXPECT_FALSE(reader->Find(kTagAlpha).has_value())
      << "Find must refuse a section whose CRC fails";
  EXPECT_TRUE(reader->Find(kTagBeta).has_value())
      << "other sections stay readable";
  const SectionReader::Section& damaged = reader->sections()[0];
  EXPECT_FALSE(damaged.crc_ok);
  EXPECT_NE(damaged.stored_crc, damaged.computed_crc);
}

TEST(SectionContainer, HostileSectionCountRejected) {
  const std::string bytes = MakeContainer();
  for (uint32_t hostile : {uint32_t{0}, kMaxContainerSections + 1,
                           ~uint32_t{0}}) {
    std::string bad = bytes;
    std::memcpy(&bad[12], &hostile, 4);  // section_count field
    EXPECT_FALSE(SectionReader::Parse(bad).has_value())
        << "section_count=" << hostile;
  }
}

TEST(SectionContainer, HostileSectionLengthRejectedBeforeAllocation) {
  const std::string bytes = MakeContainer();
  for (uint64_t hostile : {uint64_t{bytes.size()}, uint64_t{1} << 32,
                           ~uint64_t{0}}) {
    std::string bad = bytes;
    std::memcpy(&bad[20], &hostile, 8);  // first section's length field
    EXPECT_FALSE(SectionReader::Parse(bad).has_value())
        << "length=" << hostile;
  }
}

TEST(SectionContainer, EveryTruncationIsAFramingError) {
  // The container ends exactly after the last section, so every strict
  // prefix must fail Parse — including cuts that land on section boundaries
  // (the header still promises more sections than remain).
  const std::string bytes = MakeContainer();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        SectionReader::Parse(std::string_view(bytes).substr(0, cut))
            .has_value())
        << "cut=" << cut;
  }
}

TEST(SectionContainer, TrailingGarbageRejected) {
  std::string bytes = MakeContainer();
  bytes.push_back('\0');
  EXPECT_FALSE(SectionReader::Parse(bytes).has_value());
  EXPECT_FALSE(SectionReader::LooksLikeContainer("HB"));
}

class HabfSerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatasetOptions options;
    options.num_positives = 8000;
    options.num_negatives = 8000;
    options.seed = 301;
    data_ = GenerateShallaLike(options);
  }
  Dataset data_;
};

TEST_F(HabfSerdeTest, RoundTripPreservesEveryAnswer) {
  HabfOptions options;
  options.total_bits = 8000 * 10;
  const Habf original = Habf::Build(data_.positives, data_.negatives, options);

  std::string bytes;
  original.Serialize(&bytes);
  const auto restored = Habf::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());

  for (const auto& key : data_.positives) {
    ASSERT_TRUE(restored->Contains(key)) << key;
  }
  for (const auto& wk : data_.negatives) {
    EXPECT_EQ(original.Contains(wk.key), restored->Contains(wk.key))
        << wk.key;
  }
  for (int i = 0; i < 2000; ++i) {
    const std::string probe = "serde-probe-" + std::to_string(i);
    EXPECT_EQ(original.Contains(probe), restored->Contains(probe));
  }
  EXPECT_EQ(restored->expressor().num_inserted(),
            original.expressor().num_inserted());
}

TEST_F(HabfSerdeTest, FastVariantRoundTrips) {
  HabfOptions options;
  options.total_bits = 8000 * 10;
  options.fast = true;
  const Habf original = Habf::Build(data_.positives, data_.negatives, options);
  std::string bytes;
  original.Serialize(&bytes);
  const auto restored = Habf::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->options().fast);
  for (int i = 0; i < 500; ++i) {
    const std::string probe = "fast-probe-" + std::to_string(i);
    EXPECT_EQ(original.Contains(probe), restored->Contains(probe));
  }
}

TEST_F(HabfSerdeTest, FileRoundTrip) {
  HabfOptions options;
  options.total_bits = 8000 * 10;
  const Habf original = Habf::Build(data_.positives, data_.negatives, options);
  const std::string path = ::testing::TempDir() + "/habf_filter_test.habf";
  ASSERT_TRUE(original.SaveToFile(path));
  const auto restored = Habf::LoadFromFile(path);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->options().total_bits, original.options().total_bits);
  std::remove(path.c_str());
}

TEST_F(HabfSerdeTest, CorruptionRejected) {
  HabfOptions options;
  options.total_bits = 8000 * 10;
  const Habf original = Habf::Build(data_.positives, data_.negatives, options);
  std::string bytes;
  original.Serialize(&bytes);

  // Bad magic.
  std::string bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(Habf::Deserialize(bad).has_value());

  // Truncated payloads at several cut points.
  for (size_t cut : {size_t{3}, size_t{16}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(
        Habf::Deserialize(std::string_view(bytes).substr(0, cut)).has_value())
        << "cut=" << cut;
  }

  // Empty input.
  EXPECT_FALSE(Habf::Deserialize("").has_value());
}

TEST(XorSerdeTest, RoundTripPreservesAnswers) {
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back("xk-" + std::to_string(i));
  const auto original = XorFilter::Build(keys, 9);
  ASSERT_TRUE(original.has_value());

  std::string bytes;
  original->Serialize(&bytes);
  const auto restored = XorFilter::Deserialize(bytes);
  ASSERT_TRUE(restored.has_value());
  for (const auto& key : keys) ASSERT_TRUE(restored->MightContain(key));
  for (int i = 0; i < 5000; ++i) {
    const std::string probe = "xp-" + std::to_string(i);
    EXPECT_EQ(original->MightContain(probe), restored->MightContain(probe));
  }
}

TEST(XorSerdeTest, CorruptionRejected) {
  std::vector<std::string> keys{"one", "two", "three"};
  const auto original = XorFilter::Build(keys, 8);
  ASSERT_TRUE(original.has_value());
  std::string bytes;
  original->Serialize(&bytes);
  std::string bad = bytes;
  bad[1] ^= 0x55;
  EXPECT_FALSE(XorFilter::Deserialize(bad).has_value());
  EXPECT_FALSE(XorFilter::Deserialize("short").has_value());
}

}  // namespace
}  // namespace habf
