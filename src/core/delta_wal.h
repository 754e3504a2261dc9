// Append-only write-ahead log for the dynamic filter's delta tier
// (DESIGN.md §10). Every acknowledged Insert/Remove is framed, CRC32-checked
// and fsync()ed to an epoch-numbered log file before the caller learns it
// succeeded, so DynamicShardedHabf::Open can replay the pending mutation set
// after a crash with zero false negatives.
//
// File layout (one file per epoch, `wal-<epoch>.log` in the WAL directory):
//
//   header:  u32 magic "HWAL" | u32 version | u64 epoch | u64 start_seq
//   record:  u32 payload_len | u32 crc32(payload)
//            payload = u64 seq | u8 op (1=insert, 0=remove) | key bytes
//
// Sequence numbers are assigned under the writer mutex and strictly increase
// across epochs; replay orders files by epoch and rejects any seq
// regression. A snapshot records (epoch, last_seq) at capture time, so
// recovery reads only epochs >= the snapshot's and skips records with
// seq <= last_seq — replaying the remainder on top of the snapshot is
// last-wins idempotent.
//
// Group commit: Enqueue() appends the encoded record to an in-memory batch
// under a short critical section; SyncTo() elects one caller as the flush
// leader, which writes and fsyncs the whole accumulated batch outside the
// mutex while later writers keep enqueueing. Concurrent committers therefore
// share one fsync instead of paying one each.
//
// Torn-tail tolerance: a crash mid-append leaves a prefix of a record at the
// end of the *last* file (incomplete frame, or a frame longer than the
// remaining bytes). Replay treats exactly that as a clean end of log. A
// complete frame whose CRC mismatches, or any damage in a non-last file, is
// real corruption and fails replay naming the file and offset — truncation
// cannot produce those shapes, only bit rot or a bug can. Because of that
// rule a torn tail must be cut off (RepairTornWalTail) before any newer
// epoch file is created.

#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotated_sync.h"

namespace habf {

/// WAL file framing constants (shared with tests and `habf_tool inspect`).
inline constexpr uint32_t kWalMagic = 0x4C415748;  // "HWAL"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderBytes = 24;
/// Frame = payload length + CRC; payload = seq (8) + op (1) + key bytes.
inline constexpr size_t kWalFrameBytes = 8;
inline constexpr size_t kWalMinPayloadBytes = 9;

/// One replayed mutation.
struct WalRecord {
  uint64_t seq = 0;
  bool inserted = false;  // true = insert, false = remove (tombstone)
  std::string key;
};

/// Appends one framed record to `*out` (the writer's batch encoding; exposed
/// for the fault-injection tests, which build hostile logs byte by byte).
void EncodeWalRecord(std::string* out, uint64_t seq, bool inserted,
                     std::string_view key);

/// The WAL file path for `epoch` inside `dir`.
std::string WalFilePath(const std::string& dir, uint64_t epoch);

/// Group-committing WAL appender. Thread-safe; all locking through the
/// annotated wrappers (DESIGN.md §9).
class DeltaWalWriter {
 public:
  /// Creates (truncating) the epoch file, writes and fsyncs its header, and
  /// fsyncs the directory so the file itself survives a crash. `next_seq` is
  /// the first sequence number this writer will hand out. Returns nullptr on
  /// any I/O error. `do_fsync=false` drops the fsync per group commit (bench
  /// and test use only — no durability).
  static std::unique_ptr<DeltaWalWriter> Open(const std::string& dir,
                                              uint64_t epoch,
                                              uint64_t next_seq,
                                              bool do_fsync = true);

  /// Flushes any enqueued records (best effort) and closes the file.
  ~DeltaWalWriter();

  DeltaWalWriter(const DeltaWalWriter&) = delete;
  DeltaWalWriter& operator=(const DeltaWalWriter&) = delete;

  /// Assigns the next sequence number and buffers the encoded record.
  /// Returns the sequence, or 0 if the writer is failed. The record is NOT
  /// durable until SyncTo(seq) (or a later Sync) returns true — callers
  /// acknowledge the mutation only after that.
  uint64_t Enqueue(std::string_view key, bool inserted) HABF_EXCLUDES(mu_);

  /// Blocks until every record with sequence <= `seq` is written and
  /// fsynced (group commit: one caller flushes the whole batch, the rest
  /// wait). False if the writer hit an I/O error.
  bool SyncTo(uint64_t seq) HABF_EXCLUDES(mu_, io_mu_);

  /// Enqueue + SyncTo in one call. Returns the durable sequence, 0 on error.
  uint64_t Append(std::string_view key, bool inserted);

  /// Flushes everything enqueued so far.
  bool Sync() HABF_EXCLUDES(mu_, io_mu_);

  /// Flushes the current batch into the old epoch file, then switches
  /// appends to a freshly created `new_epoch` file (header fsynced, dir
  /// fsynced). Called at checkpoint time; false on I/O error (the writer is
  /// failed afterwards).
  bool Rotate(uint64_t new_epoch) HABF_EXCLUDES(mu_, io_mu_);

  /// Epoch currently being appended to.
  uint64_t epoch() const HABF_EXCLUDES(mu_);

  /// Last sequence number handed out by Enqueue (not necessarily durable).
  uint64_t last_enqueued_seq() const HABF_EXCLUDES(mu_);

  /// False once any I/O error occurred; the writer stays failed.
  bool healthy() const HABF_EXCLUDES(mu_);

 private:
  DeltaWalWriter(std::string dir, bool do_fsync);

  /// Writes + flushes `batch` to the current file. Empty batches succeed.
  bool WriteBatchLocked(const std::string& batch) HABF_REQUIRES(io_mu_);
  /// Closes the current file (if any) and opens + syncs the `epoch` file.
  bool OpenEpochFileLocked(uint64_t epoch) HABF_REQUIRES(io_mu_);

  const std::string dir_;
  const bool do_fsync_;

  mutable Mutex mu_;
  CondVar cv_;
  std::string pending_ HABF_GUARDED_BY(mu_);
  uint64_t next_seq_ HABF_GUARDED_BY(mu_) = 1;
  uint64_t durable_seq_ HABF_GUARDED_BY(mu_) = 0;
  uint64_t epoch_ HABF_GUARDED_BY(mu_) = 0;
  bool flush_in_progress_ HABF_GUARDED_BY(mu_) = false;
  bool io_failed_ HABF_GUARDED_BY(mu_) = false;

  /// Held only by the elected flush leader, outside mu_, for the actual
  /// file I/O — committers keep enqueueing under mu_ during an fsync.
  Mutex io_mu_ HABF_ACQUIRED_AFTER(mu_);
  std::FILE* file_ HABF_GUARDED_BY(io_mu_) = nullptr;
};

/// Result of replaying a WAL directory.
struct WalReplayResult {
  /// Records with seq > min_seq from files with epoch >= min_epoch, in
  /// strictly increasing seq order.
  std::vector<WalRecord> records;
  /// Highest sequence seen (including skipped ones); 0 if none.
  uint64_t max_seq = 0;
  /// Highest epoch among the replayed files; min_epoch if none existed.
  uint64_t max_epoch = 0;
  /// True if the last file ended in a torn record (tolerated).
  bool tail_truncated = false;
  /// The file that ended torn ("" if none) and the length of its
  /// whole-record prefix; a length below kWalHeaderBytes means its header
  /// itself was torn.
  std::string torn_path;
  uint64_t torn_keep_bytes = 0;
  /// Non-empty = replay failed; names the corrupt file/record.
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Replays every `wal-<epoch>.log` in `dir` with epoch >= `min_epoch`, in
/// epoch order, skipping records with seq <= `min_seq` (already folded into
/// the snapshot being recovered). See the file comment for the exact
/// torn-tail vs corruption rules.
WalReplayResult ReplayWalDir(const std::string& dir, uint64_t min_epoch,
                             uint64_t min_seq);

/// Makes the log end on a whole record again after `replay` found a torn
/// tail: truncates the torn file to its whole-record prefix and fsyncs it,
/// or, when even the header was torn, removes the file and fsyncs `dir`.
/// A no-op without a torn tail. False on I/O error.
bool RepairTornWalTail(const std::string& dir, const WalReplayResult& replay);

/// Deletes every WAL file in `dir` with epoch < `keep_epoch` (checkpoint
/// garbage collection; called only after the referencing snapshot is
/// durable). Returns the number of files removed.
size_t RemoveWalFilesBelow(const std::string& dir, uint64_t keep_epoch);

}  // namespace habf
