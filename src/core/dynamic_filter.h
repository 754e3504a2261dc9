// Dynamic HABF (DESIGN.md §7): a mutable delta tier layered over the
// immutable sharded HABF base, so the build-once filter of the paper can
// serve the continuous insert/delete stream of its motivating deployment
// (LSM engines — the memtable→run merge discipline of src/sim/lsm).
//
// Layering, youngest tier first (the vinyl/LevelDB memtable shape):
//   * delta  — an exact table of every key mutated since the last
//     compaction of its shard (inserted keys and deletion tombstones),
//     fronted by a CountingBloomFilter over the mutated keys so the common
//     case — a key nobody has touched — costs one bloom probe before
//     falling through to the base;
//   * base   — the usual immutable ShardedFilter<Habf>, served through a
//     FilterStore so compaction can hot-swap it under live readers.
//
// Query: delta-overlay-then-base. An inserted key answers true from the
// delta (exact — zero false negatives); a deleted key is masked by its
// exact tombstone (false, never a false negative for anyone else, so
// HABF's one-sided error is preserved); an untouched key falls through to
// the base snapshot. The counting-bloom front can only send extra keys to
// the exact table (false positives), never hide a mutated key, so it is
// pure fast path.
//
// Compaction rebuilds **only the dirty shards** — those whose mutated-key
// fraction exceeds DynamicOptions::dirty_fraction_threshold — through the
// existing BuildShardedHabfAsync machinery (one single-shard async build
// per dirty shard, fanned out on a worker pool), clones the clean shards
// byte-for-byte from the current snapshot, and publishes the assembled
// filter through FilterStore. The publish and the delta drain happen under
// one writer-side critical section, so a reader either still resolves a
// mutated key from the delta (pre-drain) or acquires a base snapshot that
// already contains it (post-publish) — a key is never invisible mid-swap
// (the zero-false-negative argument, DESIGN.md §7).

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bloom/counting_bloom.h"
#include "core/delta_wal.h"
#include "core/filter_store.h"
#include "core/member_set.h"
#include "core/sharded_filter.h"
#include "util/annotated_sync.h"
#include "util/serde.h"

namespace habf {

/// HBF1 content + section tags of a dynamic-filter checkpoint snapshot
/// (DESIGN.md §10). The snapshot is the full recoverable state: build
/// config, routing directory, serialized base, authoritative per-shard key
/// sets, advisory negatives, and the resident delta — plus the (epoch, seq)
/// watermark that tells recovery where WAL replay starts.
constexpr uint32_t kDynamicContentTag = FourCc("DYNF");
constexpr uint32_t kDynamicConfigTag = FourCc("DCFG");
constexpr uint32_t kDynamicRoutingTag = FourCc("RDIR");
constexpr uint32_t kDynamicBaseTag = FourCc("BASE");
constexpr uint32_t kDynamicKeysTag = FourCc("KEYS");
constexpr uint32_t kDynamicNegativesTag = FourCc("NEGS");
constexpr uint32_t kDynamicDeltaTag = FourCc("DELT");

/// The checkpoint snapshot path inside a durability directory.
std::string DynamicSnapshotPath(const std::string& dir);

/// Tuning knobs of the dynamic tier.
struct DynamicOptions {
  /// A shard is compacted when mutated_keys / max(1, shard_keys) exceeds
  /// this. 0.0 means "any mutation makes the shard dirty".
  double dirty_fraction_threshold = 0.05;
  /// Counting-bloom front sizing. Undersizing is safe — saturated counters
  /// degrade the fast path toward "always consult the exact table", never
  /// correctness — but ~8 counters per expected resident delta key keeps
  /// the untouched-key path at one bloom probe.
  size_t delta_counters = size_t{1} << 16;
  size_t delta_hashes = 4;
  /// Workers for the per-dirty-shard rebuild fan-out; 0 = one per hardware
  /// thread, capped at the shard count.
  size_t compaction_threads = 0;
  /// Optional pooled query fan-out applied to every published base filter
  /// (initial build included), i.e. ShardedFilter::SetQueryPool. The pool
  /// must outlive this DynamicShardedHabf.
  ThreadPool* query_pool = nullptr;
  size_t query_pool_threshold = kDefaultParallelQueryThreshold;
};

/// What one compaction pass did (returned by CompactDirtyShards and
/// accumulated into DynamicStats).
struct CompactionReport {
  /// Shards whose dirty fraction exceeded the threshold and were rebuilt.
  size_t shards_rebuilt = 0;
  /// Delta entries folded into the new base and drained.
  size_t keys_drained = 0;
  /// Largest per-shard dirty fraction observed when the pass started.
  double max_dirty_fraction = 0.0;
  /// Wall time of the rebuild+assemble+publish phase (0 if nothing dirty).
  uint64_t rebuild_ns = 0;
  /// FilterStore version of the published base (0 if nothing was published).
  uint64_t published_version = 0;
  /// True if the pass ended in a durable checkpoint (durable mode only).
  bool checkpointed = false;
};

/// Cumulative counters (monotonic; snapshot via stats()).
struct DynamicStats {
  uint64_t inserts = 0;
  uint64_t removes = 0;
  uint64_t compactions = 0;       // passes that rebuilt at least one shard
  uint64_t shards_rebuilt = 0;    // total across all compactions
  uint64_t keys_drained = 0;      // total delta entries folded into bases
  uint64_t front_rotations = 0;   // counting-bloom front resizes (grow+shrink)
  uint64_t checkpoints = 0;       // durable snapshots written
  // Phase split of the Open() that recovered this filter (all 0 for a
  // filter that was built, not recovered). They sum to at most Open's wall
  // time; the recovery constructor is counted under replay.
  uint64_t recovery_read_ns = 0;     // reading the checkpoint file
  uint64_t recovery_parse_ns = 0;    // CRCs, DCFG, RDIR, BASE, NEGS, DELT
  uint64_t recovery_members_ns = 0;  // KEYS into the per-shard member sets
  uint64_t recovery_replay_ns = 0;   // WAL replay + applying the delta
  uint64_t recovery_repair_ns = 0;   // torn-tail repair + the new epoch
};

/// A sharded HABF that accepts Insert/Remove after construction and models
/// the Filter concept (MightContain/ContainsBatch/MemoryUsageBytes/Name),
/// so every measurement template in eval/metrics.h applies unchanged.
///
/// Thread-safety: any number of concurrent readers (MightContain,
/// ContainsBatch, stats/introspection) against any number of writers
/// (Insert, Remove) and at most one compaction pass at a time —
/// CompactDirtyShards serializes internally, and the optional background
/// thread is just a caller of it. Readers never block on a rebuild: the
/// TPJO work runs outside the delta lock, which is held only for the
/// final publish+drain step.
///
/// The lock discipline is compiler-enforced (util/annotated_sync.h,
/// DESIGN.md §9): delta state is HABF_GUARDED_BY(delta_mutex_), compaction
/// state by compaction_mutex_, and the §7 zero-false-negative reader order
/// — consult the delta BEFORE pinning a base snapshot — is encoded as
/// delta_mutex_ HABF_ACQUIRED_BEFORE(base_acquire_order_), so a reader
/// that pins the base first and then takes the delta lock fails to compile
/// under Clang -Wthread-safety-beta (regression-tested by the
/// negative-compile matrix in tests/static_analysis/).
///
/// Ownership: unlike the build-once entry points, the dynamic filter is
/// the authoritative owner of its positive key set (per shard) — rebuilding
/// a shard requires the keys, which the compact filter structures do not
/// retain. Negatives from construction are kept per shard and re-applied
/// on every rebuild (minus any that have since been inserted as positives).
class DynamicShardedHabf {
 public:
  /// Builds the initial base with BuildShardedHabf(options, sharding) and
  /// takes ownership of the authoritative key sets. Throws
  /// std::invalid_argument if dynamic.dirty_fraction_threshold is not a
  /// finite value >= 0 or the delta sizing is zero.
  DynamicShardedHabf(std::vector<std::string> positives,
                     std::vector<WeightedKey> negatives,
                     const HabfOptions& options,
                     const ShardedBuildOptions& sharding,
                     const DynamicOptions& dynamic = {});

  /// Stops the background compactor (if running) and joins it.
  ~DynamicShardedHabf();

  DynamicShardedHabf(const DynamicShardedHabf&) = delete;
  DynamicShardedHabf& operator=(const DynamicShardedHabf&) = delete;

  // --- mutations ----------------------------------------------------------

  /// Makes `key` a member, visible to every query that starts after this
  /// returns. Inserting a key that is already a member is a harmless no-op
  /// at the membership level (the delta entry is folded away on the next
  /// compaction of its shard).
  ///
  /// Returns true when the mutation is acknowledged: applied and, with
  /// durability on, fsynced to the WAL. False when the WAL failed. Its
  /// failure is sticky (a failed fsync cannot be retried safely), so every
  /// later mutation is refused before it touches memory. The one whose
  /// write failed may already be visible; it is not acknowledged, and a
  /// recovery may or may not keep it.
  bool Insert(std::string_view key) HABF_EXCLUDES(delta_mutex_);

  /// Makes `key` a non-member via an exact tombstone: queries for it answer
  /// false until a compaction rebuilds its shard without the key (after
  /// which it behaves like any other non-member, i.e. the usual one-sided
  /// false-positive probability applies). Removing a non-member is allowed
  /// — the tombstone then merely masks a potential base false positive.
  /// Returns what Insert returns.
  bool Remove(std::string_view key) HABF_EXCLUDES(delta_mutex_);

  // --- Filter concept -----------------------------------------------------

  /// Delta-overlay-then-base membership test. Zero false negatives for the
  /// construction set plus every inserted (and not since removed) key.
  bool MightContain(std::string_view key) const HABF_EXCLUDES(delta_mutex_);

  /// Batched counterpart: resolves the whole batch against the delta under
  /// one shared lock, then sends the unresolved keys through the base
  /// snapshot's native grouped ContainsBatch. Answers are identical to
  /// per-key MightContain calls at the same point in the mutation order.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const
      HABF_EXCLUDES(delta_mutex_);

  /// Resident bytes: current base snapshot + counting-bloom front + exact
  /// delta table (entries + key payload). The authoritative key sets are
  /// deliberately excluded — they are the data the filter summarizes, not
  /// the filter.
  size_t MemoryUsageBytes() const HABF_EXCLUDES(delta_mutex_);

  const char* Name() const { return "dynamic-sharded-habf"; }

  // --- compaction ---------------------------------------------------------

  /// Rebuilds every shard whose dirty fraction exceeds the threshold (all
  /// mutated shards when the threshold is 0), folds the captured delta
  /// entries into the new base, publishes it, and drains exactly those
  /// entries. Safe to call from any thread; concurrent calls serialize.
  /// Mutations that land while the rebuild runs stay in the delta and are
  /// picked up by a later pass. Returns what the pass did.
  CompactionReport CompactDirtyShards()
      HABF_EXCLUDES(compaction_mutex_, delta_mutex_);

  /// Starts a background thread that runs CompactDirtyShards whenever a
  /// shard crosses the dirty threshold (checked on every mutation) or
  /// `interval` elapses, whichever comes first. Idempotent.
  void StartBackgroundCompaction(std::chrono::milliseconds interval)
      HABF_EXCLUDES(lifecycle_mutex_, background_mutex_);

  /// Stops and joins the background thread (no-op if not running). Any
  /// in-flight pass completes first.
  void StopBackgroundCompaction()
      HABF_EXCLUDES(lifecycle_mutex_, background_mutex_);

  // --- durability (delta WAL + checkpoint snapshots, DESIGN.md §10) -------

  /// Turns on durability rooted at `dir` (created if missing): writes an
  /// initial checkpoint snapshot and opens the delta WAL, after which every
  /// Insert/Remove is framed, CRC'd and fsynced to the log before it
  /// returns. Idempotent once enabled. False (with *error set) on I/O
  /// failure — the filter keeps operating memory-only.
  bool EnableDurability(const std::string& dir, std::string* error = nullptr)
      HABF_EXCLUDES(compaction_mutex_, delta_mutex_);

  /// True while durability is enabled and the WAL is healthy. A log I/O
  /// error makes the filter read-only for good: queries keep working,
  /// mutations are refused (Insert/Remove return false).
  bool durable() const HABF_EXCLUDES(delta_mutex_);

  /// Writes a checkpoint: rotates the WAL to a fresh epoch, crash-atomically
  /// replaces the snapshot file, then deletes the log epochs the new
  /// snapshot supersedes. Runs automatically after every compaction pass
  /// that rebuilt a shard, and on the first pass after Open(). False if
  /// durability is off or on I/O failure.
  bool Checkpoint(std::string* error = nullptr)
      HABF_EXCLUDES(compaction_mutex_, delta_mutex_);

  /// Recovers a durable filter from `dir`: parses the checkpoint snapshot,
  /// replays the WAL tail on top (in sequence order, last-wins, skipping
  /// records the snapshot already folded in — a torn final record is
  /// tolerated, anything else corrupt fails by name), cuts a torn tail off
  /// its file and re-enables durability at a fresh epoch. It writes no
  /// checkpoint: the next CompactDirtyShards pass (or an explicit
  /// Checkpoint) collapses the replayed epochs, and until then a second
  /// crash replays them again. Every mutation acknowledged before the crash
  /// is present afterwards — zero false negatives
  /// (tests/crash_recovery_test.cc). Returns nullptr with *error naming the
  /// corrupt section/record on failure. The split of its time is in stats().
  static std::unique_ptr<DynamicShardedHabf> Open(
      const std::string& dir, const DynamicOptions& dynamic = {},
      std::string* error = nullptr);

  /// WAL epoch currently appended to (0 when not durable). Test hook.
  uint64_t wal_epoch() const HABF_EXCLUDES(delta_mutex_);

  /// Last WAL sequence handed out (0 when not durable). Test hook.
  uint64_t wal_last_seq() const HABF_EXCLUDES(delta_mutex_);

  // --- introspection ------------------------------------------------------

  size_t num_shards() const { return num_shards_; }

  /// Options every shard rebuild uses (persisted in the checkpoint).
  const HabfOptions& base_options() const { return base_options_; }

  /// Shard `key` routes to (same salt + directory as the base).
  size_t ShardOf(std::string_view key) const;

  /// Mutated-key entries currently resident in the delta.
  size_t delta_size() const HABF_EXCLUDES(delta_mutex_);

  /// Mutated-key entries pending for `shard`.
  size_t dirty_keys(size_t shard) const HABF_EXCLUDES(delta_mutex_);

  /// dirty_keys(shard) / max(1, authoritative keys of shard).
  double dirty_fraction(size_t shard) const HABF_EXCLUDES(delta_mutex_);

  /// Pins the current base snapshot (version grows by one per publish).
  FilterStore<ShardedFilter<Habf>>::VersionedSnapshot AcquireBase() const {
    return base_.Acquire();
  }

  DynamicStats stats() const HABF_EXCLUDES(delta_mutex_);

 private:
  /// Exact state of a mutated key: inserted (member) or tombstoned
  /// (non-member), plus the shard it routes to.
  struct DeltaEntry {
    uint32_t shard = 0;
    bool inserted = false;
  };

  /// One dirty shard's captured work: the keys and their states as of the
  /// capture, used both to build the new shard and to drain precisely those
  /// entries whose state did not change while the build ran.
  struct CapturedShard {
    size_t shard = 0;
    std::vector<std::pair<std::string, bool>> entries;  // (key, inserted)
  };

  /// Checkpoint-parsed state, handed to the recovery constructor. The base
  /// rides in an optional because ShardedFilter has no default constructor.
  struct RecoveredState {
    size_t num_shards = 1;
    uint64_t salt = kDefaultShardSalt;
    RoutingDirectory directory;
    HabfOptions base_options;
    double bits_per_key = 10.0;
    uint64_t compaction_epoch = 0;
    uint64_t replay_epoch = 1;  // WAL replay starts at this epoch...
    uint64_t last_seq = 0;      // ...skipping records with seq <= this
    std::optional<ShardedFilter<Habf>> base;
    std::vector<MemberSet> shard_keys;
    uint64_t members_ns = 0;  // time spent parsing KEYS
    std::vector<std::vector<WeightedKey>> shard_negatives;
    std::vector<std::pair<std::string, bool>> delta;  // (key, inserted)
  };

  /// Recovery constructor: adopts checkpoint state instead of building.
  /// The resident delta and WAL tail are applied by Open() afterwards,
  /// under a real writer lock.
  DynamicShardedHabf(RecoveredState state, const DynamicOptions& dynamic);

  /// Parses a checkpoint container into *out (no I/O). False with *error
  /// naming the offending section — the wording the fault-injection tests
  /// assert on.
  static bool ParseSnapshotBytes(std::string_view bytes, RecoveredState* out,
                                 std::string* error);

  size_t ShardOfLocked(std::string_view key) const;
  void NotifyCompactorIfDirtyLocked(size_t shard)
      HABF_REQUIRES(delta_mutex_) HABF_EXCLUDES(background_mutex_);
  void BackgroundLoop(std::chrono::milliseconds interval)
      HABF_EXCLUDES(background_mutex_);

  /// Insert/Remove: WAL-enqueues (refusing if the log failed), applies,
  /// then waits for the fsync.
  bool ApplyLogged(std::string_view key, bool inserted)
      HABF_EXCLUDES(delta_mutex_);

  /// The shared mutation body: updates the exact table, the counting-bloom
  /// front, the dirty counters and (when `count_stats`) the insert/remove
  /// counters; returns the shard the key routes to. `count_stats` is false
  /// during recovery replay so recovered stats do not double-count.
  size_t ApplyMutationLocked(std::string_view key, bool inserted,
                             bool count_stats) HABF_REQUIRES(delta_mutex_);

  /// Resizes the counting-bloom front when occupancy drifts out of band:
  /// grows (doubling to >= 16 counters per resident key) once the delta
  /// exceeds counters/8, shrinks back toward DynamicOptions::delta_counters
  /// once it falls under counters/64. Re-adds every resident key to the new
  /// front, so the no-false-negatives-over-the-delta invariant is preserved
  /// across the swap.
  void MaybeRotateFrontLocked() HABF_REQUIRES(delta_mutex_);

  /// The checkpoint body. Holding compaction_mutex_ throughout pins the
  /// base and the authoritative key sets (only the compactor replaces
  /// them); the WAL rotation and the delta capture share one writer
  /// critical section, so every record the new snapshot does not fold in
  /// lives in epochs >= the rotated one. Success clears checkpoint_pending_.
  bool CheckpointLocked(std::string* error) HABF_REQUIRES(compaction_mutex_)
      HABF_EXCLUDES(delta_mutex_);

  /// Compaction-path reads of the authoritative key sets (§9 escape E1).
  /// Safe without delta_mutex_ because the compactor is the only writer of
  /// shard_keys_/shard_negatives_ and every write takes BOTH
  /// compaction_mutex_ and the delta writer lock; holding either is
  /// therefore enough to read. The analysis can express only one guard per
  /// field (delta_mutex_, the one readers use), so these REQUIRES-checked
  /// accessors carry the compactor side of the protocol.
  const MemberSet& ShardKeysUnderCompaction(
      size_t shard) const HABF_REQUIRES(compaction_mutex_)
      HABF_NO_THREAD_SAFETY_ANALYSIS {
    return shard_keys_[shard];
  }
  const std::vector<WeightedKey>& ShardNegativesUnderCompaction(
      size_t shard) const HABF_REQUIRES(compaction_mutex_)
      HABF_NO_THREAD_SAFETY_ANALYSIS {
    return shard_negatives_[shard];
  }

  // Routing state, fixed at construction (the directory never changes —
  // compaction reuses it so inserted keys keep routing to the shard that
  // was rebuilt with them).
  size_t num_shards_ = 1;
  uint64_t salt_ = kDefaultShardSalt;
  RoutingDirectory directory_;

  // Build configuration for rebuilds.
  HabfOptions base_options_;
  double bits_per_key_ = 10.0;
  DynamicOptions dynamic_options_;

  // Authoritative per-shard key sets and advisory negatives. Written only
  // by the compactor, which holds compaction_mutex_ AND the delta writer
  // lock for every replacement; readable under either (introspection reads
  // take delta_mutex_ — the declared guard — and the compactor's phase-2
  // reads go through the ShardKeysUnderCompaction accessors above).
  std::vector<MemberSet> shard_keys_ HABF_GUARDED_BY(delta_mutex_);
  std::vector<std::vector<WeightedKey>> shard_negatives_
      HABF_GUARDED_BY(delta_mutex_);

  // The delta tier. delta_mutex_ guards delta_, delta_filter_, dirty_ and
  // stats_; readers take it shared, mutations and the publish+drain step
  // take it exclusive. The ACQUIRED_BEFORE edges encode the lock-order
  // table of DESIGN.md §9: the compactor acquires compaction_mutex_ →
  // delta writer lock; readers acquire delta → base pin (the §7 proof);
  // mutators acquire delta → background_mutex_ (the compactor kick).
  mutable SharedMutex delta_mutex_
      HABF_ACQUIRED_AFTER(compaction_mutex_)
      HABF_ACQUIRED_BEFORE(base_acquire_order_, background_mutex_);
  std::unordered_map<std::string, DeltaEntry> delta_
      HABF_GUARDED_BY(delta_mutex_);
  CountingBloomFilter delta_filter_ HABF_GUARDED_BY(delta_mutex_);
  std::vector<size_t> dirty_ HABF_GUARDED_BY(delta_mutex_);
  DynamicStats stats_ HABF_GUARDED_BY(delta_mutex_);

  // Durability (DESIGN.md §10). The writer is installed under the delta
  // writer lock and never replaced afterwards, so mutators may stash the
  // raw pointer inside the lock and SyncTo() through it after release —
  // the WAL append order matches the apply order (both happen under the
  // writer lock), while the fsync itself never stalls readers.
  std::string wal_dir_ HABF_GUARDED_BY(delta_mutex_);
  std::unique_ptr<DeltaWalWriter> wal_ HABF_GUARDED_BY(delta_mutex_);
  uint64_t front_generation_ HABF_GUARDED_BY(delta_mutex_) = 0;

  // The immutable base, hot-swapped by compaction. Pinning a snapshot is a
  // lock-free atomic load; base_acquire_order_ is the annotation-only
  // stand-in for that pin, so the delta-before-base reader order above is
  // enforced at compile time even though no real lock is taken.
  FilterStore<ShardedFilter<Habf>> base_;
  mutable OrderingToken base_acquire_order_;

  // Compaction serialization + the shared rebuild pool.
  Mutex compaction_mutex_;
  uint64_t compaction_epoch_ HABF_GUARDED_BY(compaction_mutex_) = 0;
  // Set by Open(): the recovered state is not yet in a checkpoint, so the
  // next CompactDirtyShards pass checkpoints even if it rebuilt nothing.
  bool checkpoint_pending_ HABF_GUARDED_BY(compaction_mutex_) = false;
  ThreadPool compaction_pool_;

  // Background compactor. lifecycle_mutex_ serializes whole Start/Stop
  // calls (including the join), closing the race where a Start interleaved
  // with a finishing Stop reset background_stop_ and left Stop joining a
  // loop that would never exit. background_mutex_ is the condvar lock the
  // loop itself uses; Start/Stop take it only briefly, never across the
  // join.
  Mutex lifecycle_mutex_ HABF_ACQUIRED_BEFORE(background_mutex_);
  Mutex background_mutex_;
  CondVar background_cv_;
  std::thread background_thread_ HABF_GUARDED_BY(lifecycle_mutex_);
  bool background_stop_ HABF_GUARDED_BY(background_mutex_) = false;
  bool background_kick_ HABF_GUARDED_BY(background_mutex_) = false;
  std::atomic<bool> background_running_{false};
};

}  // namespace habf
