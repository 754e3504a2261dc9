// Minimal binary serialization used by the filters' Save/Load support:
// little-endian fixed-width integers, length-prefixed byte strings, and
// bounds-checked reading. The format is versioned per filter (each filter
// writes its own magic + version header).

#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace habf {

/// Appends fixed-width little-endian values to a byte string.
class BinaryWriter {
 public:
  /// Writes into `*out` (appended; not cleared). `out` must outlive the
  /// writer.
  explicit BinaryWriter(std::string* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void WriteU16(uint16_t v) {
    char buf[2];
    std::memcpy(buf, &v, 2);
    out_->append(buf, 2);
  }

  void WriteU32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out_->append(buf, 4);
  }

  void WriteU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->append(buf, 8);
  }

  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    WriteU64(bits);
  }

  /// Length-prefixed byte string.
  void WriteBytes(std::string_view bytes) {
    WriteU64(bytes.size());
    out_->append(bytes.data(), bytes.size());
  }

  /// Raw 64-bit word array with a length prefix (in words).
  void WriteWords(const std::vector<uint64_t>& words) {
    WriteU64(words.size());
    for (uint64_t w : words) WriteU64(w);
  }

 private:
  std::string* out_;
};

/// Bounds-checked reader over a byte view. After any failed read, ok() is
/// false and all subsequent reads return zero values.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t ReadU8() {
    if (!Require(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  uint32_t ReadU32() {
    if (!Require(4)) return 0;
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  uint64_t ReadU64() {
    if (!Require(8)) return 0;
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  double ReadDouble() {
    const uint64_t bits = ReadU64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  std::string ReadBytes() {
    const uint64_t n = ReadU64();
    if (!Require(n)) return {};
    std::string bytes(data_.substr(pos_, n));
    pos_ += n;
    return bytes;
  }

  /// Advances past `n` bytes without reading them (section payloads are
  /// consumed by per-section parsers, not by this reader).
  void Skip(uint64_t n) {
    if (Require(n)) pos_ += n;
  }

  std::vector<uint64_t> ReadWords() {
    const uint64_t n = ReadU64();
    if (!ok_ || n > remaining() / 8) {
      ok_ = false;
      return {};
    }
    std::vector<uint64_t> words(n);
    for (uint64_t i = 0; i < n; ++i) words[i] = ReadU64();
    return words;
  }

 private:
  bool Require(uint64_t n) {
    if (!ok_ || n > data_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// HBF1 sectioned container (DESIGN.md §10)
//
// Every snapshot in the repo serializes through one self-describing framing:
//
//   header:   u32 magic "HBF1" | u32 container_version | u32 content_tag
//             | u32 section_count
//   section:  u32 tag | u64 length | u32 crc32(payload) | payload bytes
//
// Sections are laid out back to back; the container ends exactly after the
// last section (trailing bytes are a framing error). Readers look sections up
// by tag and skip tags they do not know, so a newer writer can add sections
// without breaking an older reader. Every length is validated against the
// remaining buffer before anything is allocated.
// ---------------------------------------------------------------------------

/// Four-character section/content tags, e.g. FourCc("OPTS").
constexpr uint32_t FourCc(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

/// Container magic ("HBF1") and version.
inline constexpr uint32_t kContainerMagic = FourCc("HBF1");
inline constexpr uint32_t kContainerVersion = 1;
/// Upper bound on sections per container; real snapshots use < 10, so a
/// larger count is a corrupt or hostile header, rejected before allocation.
inline constexpr uint32_t kMaxContainerSections = 64;

/// Appends an HBF1 container to `*out`: construct, AddSection() per payload,
/// Finish() exactly once (patches the section count into the header).
class SectionWriter {
 public:
  SectionWriter(std::string* out, uint32_t content_tag);
  ~SectionWriter();

  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;

  /// Appends one tagged section (length + CRC32 framed).
  void AddSection(uint32_t tag, std::string_view payload);

  /// Patches the section count. Must be called exactly once, after the last
  /// AddSection.
  void Finish();

 private:
  std::string* out_;
  size_t count_offset_;
  uint32_t num_sections_ = 0;
  bool finished_ = false;
};

/// Parses an HBF1 container over a borrowed view (`data` must outlive the
/// reader). Parse() validates the framing — magic, version, section count
/// bound, every section length against the remaining bytes, no trailing
/// garbage — and computes each section's CRC. Find() additionally refuses
/// sections whose CRC does not match, so a caller that only uses Find()
/// never observes corrupt payload bytes.
class SectionReader {
 public:
  struct Section {
    uint32_t tag = 0;
    size_t payload_offset = 0;  // absolute offset of the payload in `data`
    uint64_t length = 0;
    uint32_t stored_crc = 0;
    uint32_t computed_crc = 0;
    bool crc_ok = false;
  };

  /// True if `data` starts with the HBF1 magic (cheap format sniff; does not
  /// validate anything else).
  static bool LooksLikeContainer(std::string_view data);

  /// Returns std::nullopt on any framing violation. CRC mismatches do NOT
  /// fail Parse — they are recorded per section (crc_ok) so `habf_tool
  /// inspect` can show exactly which section is corrupt.
  static std::optional<SectionReader> Parse(std::string_view data);

  uint32_t content_tag() const { return content_tag_; }
  const std::vector<Section>& sections() const { return sections_; }

  /// Payload view of the first section with `tag`, or std::nullopt if the
  /// section is absent or its CRC check failed.
  std::optional<std::string_view> Find(uint32_t tag) const;

  /// True when every section's CRC matches.
  bool AllCrcOk() const;

 private:
  SectionReader() = default;

  std::string_view data_;
  uint32_t content_tag_ = 0;
  std::vector<Section> sections_;
};

/// Writes `data` to `path` by truncate + write. NOT crash-atomic: a crash
/// mid-write leaves a torn file. Fine for scratch/test data; snapshots go
/// through WriteFileBytesAtomic.
bool WriteFileBytes(const std::string& path, std::string_view data);

/// Crash-atomic replacement write: `data` goes to a temp file next to
/// `path` (same directory, so the rename cannot cross filesystems), is
/// flushed and fsync()ed, then rename()d into place — POSIX rename is
/// atomic, so readers of `path` see either the complete old file or the
/// complete new one, never a torn half-write. After the rename the parent
/// directory is fsync()ed as well — on ext4/xfs the rename itself lives in
/// the directory, so without that fsync a power loss can roll the directory
/// entry back to the old file (or to nothing, for a first write) even though
/// the data blocks hit disk. The temp file is removed on any failure.
/// Returns false on any I/O error.
bool WriteFileBytesAtomic(const std::string& path, std::string_view data);

/// Number of successful parent-directory fsyncs performed by
/// WriteFileBytesAtomic in this process. Test-only: lets a test assert the
/// directory-fd durability path actually ran (it has no other observable
/// effect short of pulling the power cord).
uint64_t AtomicWriteDirSyncCountForTest();

/// Reads the whole file into `*out`. Returns false on any I/O error.
bool ReadFileBytes(const std::string& path, std::string* out);

}  // namespace habf
