#include "core/delta_wal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "hashing/crc32.h"
#include "util/serde.h"

namespace habf {

namespace {

/// Collects (epoch, path) of every WAL file in `dir`, sorted by epoch.
std::vector<std::pair<uint64_t, std::string>> ListWalFiles(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return files;
  while (dirent* entry = readdir(d)) {
    const std::string_view name(entry->d_name);
    constexpr std::string_view kPrefix = "wal-";
    constexpr std::string_view kSuffix = ".log";
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.substr(0, kPrefix.size()) != kPrefix ||
        name.substr(name.size() - kSuffix.size()) != kSuffix) {
      continue;
    }
    const std::string digits(
        name.substr(kPrefix.size(),
                    name.size() - kPrefix.size() - kSuffix.size()));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    char* end = nullptr;
    const unsigned long long epoch = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    files.emplace_back(static_cast<uint64_t>(epoch),
                       dir + "/" + std::string(name));
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

bool FsyncDirectory(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = fsync(fd) == 0;
  close(fd);
  return ok;
}

}  // namespace

void EncodeWalRecord(std::string* out, uint64_t seq, bool inserted,
                     std::string_view key) {
  std::string payload;
  BinaryWriter payload_writer(&payload);
  payload_writer.WriteU64(seq);
  payload_writer.WriteU8(inserted ? 1 : 0);
  payload.append(key.data(), key.size());

  BinaryWriter frame_writer(out);
  frame_writer.WriteU32(static_cast<uint32_t>(payload.size()));
  frame_writer.WriteU32(Crc32(payload.data(), payload.size()));
  out->append(payload);
}

std::string WalFilePath(const std::string& dir, uint64_t epoch) {
  return dir + "/wal-" + std::to_string(epoch) + ".log";
}

// --- writer ------------------------------------------------------------------

DeltaWalWriter::DeltaWalWriter(std::string dir, bool do_fsync)
    : dir_(std::move(dir)), do_fsync_(do_fsync) {}

std::unique_ptr<DeltaWalWriter> DeltaWalWriter::Open(const std::string& dir,
                                                     uint64_t epoch,
                                                     uint64_t next_seq,
                                                     bool do_fsync) {
  std::unique_ptr<DeltaWalWriter> writer(new DeltaWalWriter(dir, do_fsync));
  {
    MutexLock lock(writer->mu_);
    writer->next_seq_ = next_seq;
    writer->durable_seq_ = next_seq - 1;
    writer->epoch_ = epoch;
  }
  {
    MutexLock io_lock(writer->io_mu_);
    if (!writer->OpenEpochFileLocked(epoch)) return nullptr;
  }
  return writer;
}

DeltaWalWriter::~DeltaWalWriter() {
  Sync();  // best effort: callers that needed the guarantee already SyncTo'd
  MutexLock io_lock(io_mu_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

bool DeltaWalWriter::OpenEpochFileLocked(uint64_t epoch) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  const std::string path = WalFilePath(dir_, epoch);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return false;

  std::string header;
  BinaryWriter writer(&header);
  writer.WriteU32(kWalMagic);
  writer.WriteU32(kWalVersion);
  writer.WriteU64(epoch);
  // start_seq: informational (replay trusts per-record seqs). Written under
  // io_mu_ only, so read next_seq_ via a short mu_ hold.
  uint64_t start_seq;
  {
    MutexLock lock(mu_);
    start_seq = next_seq_;
  }
  writer.WriteU64(start_seq);

  bool ok = std::fwrite(header.data(), 1, header.size(), file_) ==
            header.size();
  ok = ok && std::fflush(file_) == 0;
  if (do_fsync_) {
    // Header to disk before any record references this epoch, and the
    // directory entry to disk so the file exists after a crash at all.
    ok = ok && fsync(fileno(file_)) == 0 && FsyncDirectory(dir_);
  }
  return ok;
}

bool DeltaWalWriter::WriteBatchLocked(const std::string& batch) {
  if (file_ == nullptr) return false;
  if (batch.empty()) return true;
  bool ok = std::fwrite(batch.data(), 1, batch.size(), file_) == batch.size();
  ok = ok && std::fflush(file_) == 0;
  if (do_fsync_) ok = ok && fsync(fileno(file_)) == 0;
  return ok;
}

uint64_t DeltaWalWriter::Enqueue(std::string_view key, bool inserted) {
  MutexLock lock(mu_);
  if (io_failed_) return 0;
  const uint64_t seq = next_seq_++;
  EncodeWalRecord(&pending_, seq, inserted, key);
  return seq;
}

bool DeltaWalWriter::SyncTo(uint64_t seq) {
  for (;;) {
    std::string batch;
    uint64_t batch_max = 0;
    {
      MutexLock lock(mu_);
      if (durable_seq_ >= seq) return true;
      if (io_failed_) return false;
      if (flush_in_progress_) {
        // Another leader's flush covers records up to its batch_max; wait
        // and re-check — we may be covered, or become the next leader.
        cv_.Wait(mu_);
        continue;
      }
      flush_in_progress_ = true;
      batch.swap(pending_);
      batch_max = next_seq_ - 1;
    }
    bool ok;
    {
      MutexLock io_lock(io_mu_);
      ok = WriteBatchLocked(batch);
    }
    {
      MutexLock lock(mu_);
      flush_in_progress_ = false;
      if (ok) {
        durable_seq_ = std::max(durable_seq_, batch_max);
      } else {
        io_failed_ = true;
      }
      cv_.NotifyAll();
      if (durable_seq_ >= seq) return true;
      if (io_failed_) return false;
    }
  }
}

uint64_t DeltaWalWriter::Append(std::string_view key, bool inserted) {
  const uint64_t seq = Enqueue(key, inserted);
  if (seq == 0) return 0;
  return SyncTo(seq) ? seq : 0;
}

bool DeltaWalWriter::Sync() {
  uint64_t target;
  {
    MutexLock lock(mu_);
    target = next_seq_ - 1;
  }
  return SyncTo(target);
}

bool DeltaWalWriter::Rotate(uint64_t new_epoch) {
  std::string batch;
  uint64_t batch_max = 0;
  {
    MutexLock lock(mu_);
    // Become the (sole) leader so no concurrent flush interleaves with the
    // file swap.
    while (flush_in_progress_) cv_.Wait(mu_);
    if (io_failed_) return false;
    flush_in_progress_ = true;
    batch.swap(pending_);
    batch_max = next_seq_ - 1;
  }
  bool ok;
  {
    MutexLock io_lock(io_mu_);
    // Drain the outstanding batch into the old epoch, then switch files:
    // every record enqueued before Rotate lands in an epoch <= the old one,
    // every record enqueued after in the new one.
    ok = WriteBatchLocked(batch) && OpenEpochFileLocked(new_epoch);
  }
  {
    MutexLock lock(mu_);
    flush_in_progress_ = false;
    if (ok) {
      durable_seq_ = std::max(durable_seq_, batch_max);
      epoch_ = new_epoch;
    } else {
      io_failed_ = true;
    }
    cv_.NotifyAll();
  }
  return ok;
}

uint64_t DeltaWalWriter::epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

uint64_t DeltaWalWriter::last_enqueued_seq() const {
  MutexLock lock(mu_);
  return next_seq_ - 1;
}

bool DeltaWalWriter::healthy() const {
  MutexLock lock(mu_);
  return !io_failed_;
}

// --- replay ------------------------------------------------------------------

namespace {

/// Records a tolerated torn tail: `path` keeps its first `keep_bytes`.
bool TornTail(const std::string& path, uint64_t keep_bytes,
              WalReplayResult* result) {
  result->tail_truncated = true;
  result->torn_path = path;
  result->torn_keep_bytes = keep_bytes;
  return true;
}

/// Replays one file into `result`. `is_last` selects torn-tail tolerance.
/// Returns false (with result->error set) on corruption.
bool ReplayWalFile(const std::string& path, uint64_t expected_epoch,
                   bool is_last, uint64_t min_seq, uint64_t* prev_seq,
                   WalReplayResult* result) {
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    result->error = "cannot read WAL file " + path;
    return false;
  }
  if (bytes.size() < kWalHeaderBytes) {
    // A crash between file creation and the header fsync leaves a short
    // header; in the newest file that is a torn (empty) log, not damage.
    if (is_last) return TornTail(path, 0, result);
    result->error = "truncated WAL header in " + path;
    return false;
  }
  BinaryReader reader(bytes);
  const uint32_t magic = reader.ReadU32();
  const uint32_t version = reader.ReadU32();
  const uint64_t epoch = reader.ReadU64();
  reader.ReadU64();  // start_seq: informational
  if (magic != kWalMagic || version != kWalVersion ||
      epoch != expected_epoch) {
    result->error = "bad WAL header in " + path;
    return false;
  }

  size_t offset = kWalHeaderBytes;
  while (reader.remaining() > 0) {
    if (reader.remaining() < kWalFrameBytes) {
      if (is_last) return TornTail(path, offset, result);
      result->error = "truncated WAL record in " + path + " at offset " +
                      std::to_string(offset);
      return false;
    }
    const uint32_t payload_len = reader.ReadU32();
    const uint32_t stored_crc = reader.ReadU32();
    if (payload_len > reader.remaining()) {
      // The frame header was written but the payload was cut: the shape of
      // a torn append. Tolerated only at the very end of the newest file.
      if (is_last) return TornTail(path, offset, result);
      result->error = "truncated WAL record in " + path + " at offset " +
                      std::to_string(offset);
      return false;
    }
    const std::string_view payload(bytes.data() + (bytes.size() -
                                                   reader.remaining()),
                                   payload_len);
    reader.Skip(payload_len);
    if (payload_len < kWalMinPayloadBytes ||
        Crc32(payload.data(), payload.size()) != stored_crc) {
      // A complete frame with a bad CRC cannot come from truncation — the
      // log is damaged. Named failure, wherever it sits.
      result->error = "corrupt WAL record in " + path + " at offset " +
                      std::to_string(offset);
      return false;
    }
    BinaryReader payload_reader(payload);
    const uint64_t seq = payload_reader.ReadU64();
    const bool inserted = payload_reader.ReadU8() != 0;
    std::string key(payload.substr(9));
    if (seq <= *prev_seq) {
      result->error = "WAL sequence regression in " + path + " at offset " +
                      std::to_string(offset);
      return false;
    }
    *prev_seq = seq;
    result->max_seq = seq;
    if (seq > min_seq) {
      WalRecord record;
      record.seq = seq;
      record.inserted = inserted;
      record.key = std::move(key);
      result->records.push_back(std::move(record));
    }
    offset += kWalFrameBytes + payload_len;
  }
  return true;
}

}  // namespace

WalReplayResult ReplayWalDir(const std::string& dir, uint64_t min_epoch,
                             uint64_t min_seq) {
  WalReplayResult result;
  result.max_epoch = min_epoch;
  const auto files = ListWalFiles(dir);
  uint64_t prev_seq = 0;
  for (size_t i = 0; i < files.size(); ++i) {
    if (files[i].first < min_epoch) continue;
    const bool is_last = i + 1 == files.size();
    if (!ReplayWalFile(files[i].second, files[i].first, is_last, min_seq,
                       &prev_seq, &result)) {
      return result;
    }
    result.max_epoch = std::max(result.max_epoch, files[i].first);
    if (result.tail_truncated) break;  // torn tail ends the log
  }
  return result;
}

bool RepairTornWalTail(const std::string& dir, const WalReplayResult& replay) {
  if (replay.torn_path.empty()) return true;
  const char* path = replay.torn_path.c_str();
  if (replay.torn_keep_bytes < kWalHeaderBytes) {
    return std::remove(path) == 0 && FsyncDirectory(dir);
  }
  const int fd = open(path, O_WRONLY);
  if (fd < 0) return false;
  const bool ok =
      ftruncate(fd, static_cast<off_t>(replay.torn_keep_bytes)) == 0 &&
      fsync(fd) == 0;
  close(fd);
  return ok;
}

size_t RemoveWalFilesBelow(const std::string& dir, uint64_t keep_epoch) {
  size_t removed = 0;
  for (const auto& [epoch, path] : ListWalFiles(dir)) {
    if (epoch >= keep_epoch) continue;
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  if (removed > 0) FsyncDirectory(dir);
  return removed;
}

}  // namespace habf
