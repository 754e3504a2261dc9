#include "util/serde.h"

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "hashing/crc32.h"

namespace habf {

// --- HBF1 sectioned container ------------------------------------------------

SectionWriter::SectionWriter(std::string* out, uint32_t content_tag)
    : out_(out) {
  BinaryWriter writer(out_);
  writer.WriteU32(kContainerMagic);
  writer.WriteU32(kContainerVersion);
  writer.WriteU32(content_tag);
  count_offset_ = out_->size();
  writer.WriteU32(0);  // patched by Finish()
}

SectionWriter::~SectionWriter() {
  // Finish() is part of the contract; a forgotten call would emit a container
  // that claims zero sections and silently drops every payload on read.
  if (!finished_) Finish();
}

void SectionWriter::AddSection(uint32_t tag, std::string_view payload) {
  BinaryWriter writer(out_);
  writer.WriteU32(tag);
  writer.WriteU64(payload.size());
  writer.WriteU32(Crc32(payload.data(), payload.size()));
  out_->append(payload.data(), payload.size());
  ++num_sections_;
}

void SectionWriter::Finish() {
  finished_ = true;
  const uint32_t count = num_sections_;
  char buf[4];
  std::memcpy(buf, &count, 4);
  out_->replace(count_offset_, 4, buf, 4);
}

bool SectionReader::LooksLikeContainer(std::string_view data) {
  if (data.size() < 4) return false;
  uint32_t magic;
  std::memcpy(&magic, data.data(), 4);
  return magic == kContainerMagic;
}

std::optional<SectionReader> SectionReader::Parse(std::string_view data) {
  BinaryReader reader(data);
  const uint32_t magic = reader.ReadU32();
  const uint32_t version = reader.ReadU32();
  const uint32_t content_tag = reader.ReadU32();
  const uint32_t num_sections = reader.ReadU32();
  if (!reader.ok() || magic != kContainerMagic ||
      version != kContainerVersion || num_sections > kMaxContainerSections) {
    return std::nullopt;
  }

  SectionReader result;
  result.data_ = data;
  result.content_tag_ = content_tag;
  result.sections_.reserve(num_sections);
  size_t offset = 16;  // past the header
  for (uint32_t i = 0; i < num_sections; ++i) {
    // Each header field is bounds-checked by the reader; the payload length
    // is checked against the remaining bytes before the payload is touched,
    // so a hostile length can never index past the buffer.
    const uint32_t tag = reader.ReadU32();
    const uint64_t length = reader.ReadU64();
    const uint32_t stored_crc = reader.ReadU32();
    if (!reader.ok() || length > reader.remaining()) return std::nullopt;
    offset += 16;  // section header just consumed
    Section section;
    section.tag = tag;
    section.payload_offset = offset;
    section.length = length;
    section.stored_crc = stored_crc;
    section.computed_crc = Crc32(data.data() + offset, length);
    section.crc_ok = section.computed_crc == stored_crc;
    result.sections_.push_back(section);
    reader.Skip(length);
    offset += length;
  }
  // The container must end exactly after its last section: trailing bytes
  // mean a corrupt count or a truncated/concatenated file.
  if (!reader.ok() || reader.remaining() != 0) return std::nullopt;
  return result;
}

std::optional<std::string_view> SectionReader::Find(uint32_t tag) const {
  for (const Section& section : sections_) {
    if (section.tag != tag) continue;
    if (!section.crc_ok) return std::nullopt;
    return data_.substr(section.payload_offset, section.length);
  }
  return std::nullopt;
}

bool SectionReader::AllCrcOk() const {
  for (const Section& section : sections_) {
    if (!section.crc_ok) return false;
  }
  return true;
}

// --- file I/O ----------------------------------------------------------------

bool WriteFileBytes(const std::string& path, std::string_view data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool ok = written == data.size() && std::fclose(f) == 0;
  if (written != data.size()) std::fclose(f);
  return ok;
}

namespace {

std::atomic<uint64_t> dir_sync_count{0};

// fsync()s the directory containing `path` so a just-completed rename in it
// is durable. On ext4/xfs the rename is a directory-entry update: fsync on
// the file alone leaves the *name* change in the directory's dirty journal,
// and a crash can resurface the old file.
bool SyncParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  if (ok) dir_sync_count.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace

uint64_t AtomicWriteDirSyncCountForTest() {
  return dir_sync_count.load(std::memory_order_relaxed);
}

bool WriteFileBytesAtomic(const std::string& path, std::string_view data) {
  // Temp name is unique per process (pid) AND per call (atomic counter), so
  // concurrent savers of the same snapshot — whether two processes or two
  // threads of one — never scribble on each other's temp file; the renames
  // then serialize and the last one wins whole.
  static std::atomic<uint64_t> save_counter{0};
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long long>(getpid())) +
      "." + std::to_string(save_counter.fetch_add(1));
  FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  // Flush userspace buffers, then force the bytes to disk *before* the
  // rename publishes the file — otherwise a power loss could install a name
  // pointing at unwritten data, the exact torn-snapshot this exists to
  // prevent. POSIX rename() atomically replaces an existing destination.
  ok = ok && std::fflush(f) == 0 && fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  ok = ok && std::rename(tmp_path.c_str(), path.c_str()) == 0;
  // The rename itself lives in the parent directory's metadata; fsync it so
  // the new name survives a crash (rename-without-dir-fsync is the classic
  // ext4/xfs torn-publish bug).
  ok = ok && SyncParentDir(path);
  if (!ok) std::remove(tmp_path.c_str());
  return ok;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out->clear();
  // Size the buffer once from fstat (one byte over, so the read that sees
  // EOF needs no growth), then read to EOF: a file that changes size while
  // it is read still comes back whole, through the doubling below.
  struct stat st;
  size_t capacity = 1 << 16;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    capacity = static_cast<size_t>(st.st_size) + 1;
  }
  out->resize(capacity);
  size_t filled = 0;
  bool ok = true;
  for (;;) {
    if (filled == out->size()) out->resize(2 * out->size());
    const ssize_t n = ::read(fd, &(*out)[filled], out->size() - filled);
    if (n > 0) {
      filled += static_cast<size_t>(n);
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ok = false;
      break;
    }
  }
  ::close(fd);
  out->resize(ok ? filled : 0);
  return ok;
}

}  // namespace habf
