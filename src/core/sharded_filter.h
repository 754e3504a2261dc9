// Sharded filter (DESIGN.md §4): hash-partitions the key space into S
// shards, each an independent filter over its slice of the keys. This is
// the multi-core answer to the paper's dominant cost, TPJO construction
// (paper §IV): S shard builds are embarrassingly parallel and run on a
// util/thread_pool.h worker pool, while queries route by the shard hash.
//
// ShardedFilter<F> models the Filter concept itself:
//   * MightContain routes the key to its shard;
//   * ContainsBatch groups a batch by shard, runs each shard's native
//     prefetching batch loop over its group, and scatters the answers back;
//   * MemoryUsageBytes sums the shards.
// so every measurement template, FilterRef, and the CLI work on it
// unchanged. The sharded snapshot is versioned and wraps one sub-snapshot
// per shard through the shard filter's own Serialize/Deserialize.

#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/weighted_bloom.h"  // for WeightedKey
#include "core/filter_interface.h"
#include "core/habf.h"
#include "core/routing_directory.h"
#include "hashing/xxhash.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace habf {

/// Salt of the shard-routing hash. Distinct from every seed used inside the
/// shard filters so routing stays independent of their probe positions.
constexpr uint64_t kDefaultShardSalt = 0x5348415244ULL;  // "SHARD"

/// Legacy sharded snapshot framing (magic + version + shard directory):
/// uniform hash routing, no routing directory. Read-only: Deserialize
/// accepts it, nothing writes it any more.
constexpr uint32_t kShardedSnapshotMagic = 0x44524853;  // "SHRD"
constexpr uint32_t kShardedSnapshotVersion = 1;
/// Legacy two-choice sharded snapshot framing (read-only): SHRD plus the
/// persisted routing directory and per-shard routed weights (DESIGN.md §6).
constexpr uint32_t kShardedSnapshotMagicV2 = 0x32524853;  // "SHR2"
constexpr uint32_t kShardedSnapshotVersionV2 = 1;
/// Upper bound on the shard count accepted from a snapshot header; anything
/// larger is a corrupt or hostile file, not a real deployment.
constexpr size_t kMaxSnapshotShards = 4096;

/// HBF1 content + section tags of the sharded snapshot (DESIGN.md §10).
/// SCFG carries salt + shard count, RDIR the two-choice routing directory
/// (absent under uniform routing), SHDS the per-shard sub-snapshots.
constexpr uint32_t kShardedContentTag = FourCc("SHRD");
constexpr uint32_t kShardedConfigTag = FourCc("SCFG");
constexpr uint32_t kShardedRoutingTag = FourCc("RDIR");
constexpr uint32_t kShardedShardsTag = FourCc("SHDS");

/// How keys are mapped to shards, at build and query time alike.
enum class RoutingMode : uint8_t {
  /// shard = XxHash64(key, salt) % num_shards. Balances key *counts*; blind
  /// to key weight (a skewed cost mass lands wherever the hash says).
  kUniform = 0,
  /// shard = directory[XxHash64(key, salt) % num_buckets], with the
  /// directory balanced by cumulative key weight via power-of-two-choices
  /// placement (core/routing_directory.h).
  kTwoChoice = 1,
};

/// Shard of `key` under `salt`: a routing hash independent of the filters'
/// probe hashing.
inline size_t ShardOfKey(std::string_view key, uint64_t salt,
                         size_t num_shards) {
  return static_cast<size_t>(XxHash64(key.data(), key.size(), salt) %
                             num_shards);
}

/// Splits `total_bits` across shards proportionally to `weights` (positive
/// key counts) by largest-remainder apportionment, then rebalances so every
/// shard gets at least `floor_bits` (the minimum Habf::ComputeSizing
/// accepts). Invariant: the result sums to exactly
/// max(total_bits, floor_bits * weights.size()) — no floor-truncation drift
/// and no unrebalanced empty-shard overshoot. All-zero weights split evenly.
std::vector<size_t> ApportionShardBits(size_t total_bits,
                                       const std::vector<size_t>& weights,
                                       size_t floor_bits = 64);

/// Build/runtime parameters of the sharded build entry points.
struct ShardedBuildOptions {
  /// Number of hash partitions (>= 1).
  size_t num_shards = 1;
  /// Worker threads for the parallel build; 0 = one per hardware thread
  /// (capped at num_shards). 1 shard always builds inline.
  size_t num_threads = 0;
  /// Shard-routing salt; persisted in the snapshot so queries on a restored
  /// filter route identically.
  uint64_t salt = kDefaultShardSalt;
  /// Key→shard placement policy. kTwoChoice builds a weight-balanced
  /// routing directory (persisted in the snapshot); with one shard the
  /// mode is irrelevant and no directory is built.
  RoutingMode routing = RoutingMode::kUniform;
  /// Directory size for kTwoChoice (clamped to
  /// [num_shards, kMaxRoutingBuckets]); ignored under kUniform.
  size_t num_routing_buckets = kDefaultRoutingBuckets;
};

/// A filter hash-partitioned into independent per-shard filters. F must
/// model the Filter concept; Serialize/Deserialize additionally require
/// `void F::Serialize(std::string*) const` and
/// `static std::optional<F> F::Deserialize(std::string_view)`.
template <typename F>
class ShardedFilter {
 public:
  /// Assembles a uniform-routed sharded filter from already-built shards.
  /// The shard assignment of every key queried later must match the
  /// partitioning the shards were built with (same salt, same shard count).
  ShardedFilter(std::vector<F> shards, uint64_t salt)
      : shards_(std::move(shards)), salt_(salt) {
    assert(!shards_.empty());
    assert(shards_.size() <= kMaxSnapshotShards);  // else Deserialize rejects
    name_ = std::string("sharded-") + shards_.front().Name();
  }

  /// Assembles a two-choice-routed sharded filter: `directory` maps routing
  /// buckets to shards and must have been built against the same salt and
  /// shard count the keys were partitioned with. An empty directory
  /// degrades to uniform routing (the single-shard build path).
  ShardedFilter(std::vector<F> shards, uint64_t salt,
                RoutingDirectory directory)
      : ShardedFilter(std::move(shards), salt) {
    directory_ = std::move(directory);
    assert(directory_.empty() ||
           (directory_.num_shards() == shards_.size() &&
            directory_.num_buckets() <= kMaxRoutingBuckets));
  }

  // Movable, not copyable (the shard filters themselves need not be
  // copyable). A move is not safe against concurrent queries on the source.
  ShardedFilter(const ShardedFilter&) = delete;
  ShardedFilter& operator=(const ShardedFilter&) = delete;
  ShardedFilter(ShardedFilter&&) = default;
  ShardedFilter& operator=(ShardedFilter&&) = default;

  size_t num_shards() const { return shards_.size(); }
  uint64_t salt() const { return salt_; }
  const F& shard(size_t i) const { return shards_[i]; }

  /// Consumes the filter and returns its shards — the inverse of the
  /// shard-vector constructors. Lets the dynamic tier's per-shard rebuild
  /// (a num_shards==1 async build) extract the finished shard for
  /// reassembly into a full filter. Like any move, not safe against
  /// concurrent queries on *this.
  std::vector<F> TakeShards() && { return std::move(shards_); }

  RoutingMode routing() const {
    return directory_.empty() ? RoutingMode::kUniform
                              : RoutingMode::kTwoChoice;
  }
  /// The persisted routing directory (empty under uniform routing).
  const RoutingDirectory& directory() const { return directory_; }

  size_t ShardOf(std::string_view key) const {
    if (directory_.empty()) return ShardOfKey(key, salt_, shards_.size());
    return directory_.bucket_to_shard[RoutingBucketOfKey(
        key, salt_, directory_.num_buckets())];
  }

  // --- Filter concept -----------------------------------------------------

  bool MightContain(std::string_view key) const {
    return shards_[ShardOf(key)].MightContain(key);
  }

  /// Groups the batch by shard, runs each shard's native batch loop over
  /// its contiguous group, and scatters the per-key answers back into
  /// `out[]` in input order. Returns the positive count. The grouping
  /// scratch is thread-local (grown, never shrunk) so steady-state batch
  /// queries allocate nothing; concurrent readers each use their own.
  size_t ContainsBatch(KeySpan keys, uint8_t* out) const {
    const size_t n = keys.size();
    if (n == 0) return 0;
    if (shards_.size() == 1) return QueryBatch(shards_[0], keys, out);

    static thread_local BatchScratch scratch;
    scratch.Resize(n, shards_.size());

    // Pass 1: route every key and count the group sizes.
    std::fill(scratch.offsets.begin(), scratch.offsets.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t s = ShardOf(keys[i]);
      scratch.shard_of[i] = static_cast<uint32_t>(s);
      ++scratch.offsets[s + 1];
    }
    for (size_t s = 1; s <= shards_.size(); ++s) {
      scratch.offsets[s] += scratch.offsets[s - 1];
    }

    // Pass 2: gather each shard's keys contiguously, remembering the
    // original slot of every gathered key.
    std::copy(scratch.offsets.begin(), scratch.offsets.end() - 1,
              scratch.cursor.begin());
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = scratch.cursor[scratch.shard_of[i]]++;
      scratch.grouped[slot] = keys[i];
      scratch.origin[slot] = static_cast<uint32_t>(i);
    }

    // Pass 3: one native batch query per non-empty group.
    size_t positives = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t begin = scratch.offsets[s];
      const size_t count = scratch.offsets[s + 1] - begin;
      if (count == 0) continue;
      positives += QueryBatch(shards_[s],
                              KeySpan(scratch.grouped.data() + begin, count),
                              scratch.grouped_out.data() + begin);
    }
    for (size_t i = 0; i < n; ++i) {
      out[scratch.origin[i]] = scratch.grouped_out[i];
    }
    return positives;
  }

  size_t MemoryUsageBytes() const {
    size_t total = 0;
    for (const F& shard : shards_) total += shard.MemoryUsageBytes();
    return total;
  }

  const char* Name() const { return name_.c_str(); }

  // --- persistence (versioned sharded snapshot) ---------------------------

  /// Appends the sharded snapshot as an HBF1 sectioned container (content
  /// "SHRD"; DESIGN.md §10): an SCFG section (salt + shard count), an RDIR
  /// section for two-choice routing, and an SHDS section of
  /// length-prefixed per-shard sub-snapshots (each produced by
  /// F::Serialize).
  void Serialize(std::string* out) const {
    std::string config;
    BinaryWriter config_writer(&config);
    config_writer.WriteU64(salt_);
    config_writer.WriteU32(static_cast<uint32_t>(shards_.size()));

    std::string shard_blob;
    BinaryWriter shard_writer(&shard_blob);
    for (const F& shard : shards_) {
      std::string sub;
      shard.Serialize(&sub);
      shard_writer.WriteBytes(sub);
    }

    SectionWriter container(out, kShardedContentTag);
    container.AddSection(kShardedConfigTag, config);
    if (!directory_.empty()) {
      std::string routing;
      directory_.AppendPayload(&routing);
      container.AddSection(kShardedRoutingTag, routing);
    }
    container.AddSection(kShardedShardsTag, shard_blob);
    container.Finish();
  }

  /// Restores a sharded filter from any accepted framing — HBF1, legacy
  /// SHRD, or legacy SHR2, sniffed by magic. Returns nullopt on any framing
  /// error, an out-of-range shard or bucket count, a directory entry naming
  /// a nonexistent shard, a non-finite or negative routed weight, trailing
  /// garbage, a section CRC mismatch, or a sub-snapshot F rejects. Every
  /// header bound is checked *before* the corresponding allocation.
  static std::optional<ShardedFilter> Deserialize(std::string_view data) {
    if (SectionReader::LooksLikeContainer(data)) {
      return DeserializeHbf1(data);
    }
    BinaryReader reader(data);
    const uint32_t magic = reader.ReadU32();
    const bool two_choice = magic == kShardedSnapshotMagicV2;
    if (!two_choice && magic != kShardedSnapshotMagic) return std::nullopt;
    if (reader.ReadU32() !=
        (two_choice ? kShardedSnapshotVersionV2 : kShardedSnapshotVersion)) {
      return std::nullopt;
    }
    const uint64_t salt = reader.ReadU64();
    const uint32_t num_shards = reader.ReadU32();
    if (!reader.ok() || num_shards == 0 || num_shards > kMaxSnapshotShards) {
      return std::nullopt;
    }
    RoutingDirectory directory;
    if (two_choice) {
      const uint32_t num_buckets = reader.ReadU32();
      // A hostile bucket count must fail here, before the directory vectors
      // are sized: bounded range AND the payload actually holds the entries.
      if (!reader.ok() || num_buckets == 0 ||
          num_buckets > kMaxRoutingBuckets ||
          reader.remaining() < size_t{num_buckets} * 2 + num_shards * 8) {
        return std::nullopt;
      }
      directory.bucket_to_shard.resize(num_buckets);
      for (uint32_t b = 0; b < num_buckets; ++b) {
        const uint16_t lo = reader.ReadU8();
        const uint16_t hi = reader.ReadU8();
        const uint16_t shard = static_cast<uint16_t>(lo | (hi << 8));
        if (shard >= num_shards) return std::nullopt;
        directory.bucket_to_shard[b] = shard;
      }
      directory.shard_weights.resize(num_shards);
      for (uint32_t s = 0; s < num_shards; ++s) {
        const double weight = reader.ReadDouble();
        if (!std::isfinite(weight) || weight < 0.0) return std::nullopt;
        directory.shard_weights[s] = weight;
      }
      if (!reader.ok()) return std::nullopt;
    }
    std::vector<F> shards;
    shards.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const std::string sub = reader.ReadBytes();
      if (!reader.ok()) return std::nullopt;
      std::optional<F> shard = F::Deserialize(sub);
      if (!shard.has_value()) return std::nullopt;
      shards.push_back(std::move(*shard));
    }
    if (reader.remaining() != 0) return std::nullopt;
    return ShardedFilter(std::move(shards), salt, std::move(directory));
  }

  bool SaveToFile(const std::string& path) const {
    std::string bytes;
    Serialize(&bytes);
    // Atomic replace: a crash mid-save can never leave a torn snapshot that
    // only surfaces at load time.
    return WriteFileBytesAtomic(path, bytes);
  }

  static std::optional<ShardedFilter> LoadFromFile(const std::string& path) {
    std::string bytes;
    if (!ReadFileBytes(path, &bytes)) return std::nullopt;
    return Deserialize(bytes);
  }

 private:
  /// HBF1 arm of Deserialize: sections looked up by tag (unknown tags are
  /// skipped for forward compat), every payload CRC-checked by Find before
  /// its bytes are parsed.
  static std::optional<ShardedFilter> DeserializeHbf1(std::string_view data) {
    const std::optional<SectionReader> container = SectionReader::Parse(data);
    if (!container.has_value() ||
        container->content_tag() != kShardedContentTag) {
      return std::nullopt;
    }
    const std::optional<std::string_view> config =
        container->Find(kShardedConfigTag);
    const std::optional<std::string_view> shard_blob =
        container->Find(kShardedShardsTag);
    if (!config.has_value() || !shard_blob.has_value()) return std::nullopt;

    BinaryReader config_reader(*config);
    const uint64_t salt = config_reader.ReadU64();
    const uint32_t num_shards = config_reader.ReadU32();
    if (!config_reader.ok() || config_reader.remaining() != 0 ||
        num_shards == 0 || num_shards > kMaxSnapshotShards) {
      return std::nullopt;
    }

    RoutingDirectory directory;
    const std::optional<std::string_view> routing =
        container->Find(kShardedRoutingTag);
    if (routing.has_value()) {
      std::optional<RoutingDirectory> parsed =
          RoutingDirectory::ParsePayload(*routing, num_shards);
      if (!parsed.has_value()) return std::nullopt;
      directory = std::move(*parsed);
    }

    BinaryReader shard_reader(*shard_blob);
    std::vector<F> shards;
    shards.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      const std::string sub = shard_reader.ReadBytes();
      if (!shard_reader.ok()) return std::nullopt;
      std::optional<F> shard = F::Deserialize(sub);
      if (!shard.has_value()) return std::nullopt;
      shards.push_back(std::move(*shard));
    }
    if (shard_reader.remaining() != 0) return std::nullopt;
    return ShardedFilter(std::move(shards), salt, std::move(directory));
  }

  /// Per-thread grouping workspace of ContainsBatch.
  struct BatchScratch {
    std::vector<uint32_t> shard_of;
    std::vector<uint32_t> origin;
    std::vector<size_t> offsets;
    std::vector<size_t> cursor;
    std::vector<std::string_view> grouped;
    std::vector<uint8_t> grouped_out;

    void Resize(size_t num_keys, size_t num_shards) {
      if (shard_of.size() < num_keys) {
        shard_of.resize(num_keys);
        origin.resize(num_keys);
        grouped.resize(num_keys);
        grouped_out.resize(num_keys);
      }
      if (offsets.size() < num_shards + 1) {
        offsets.resize(num_shards + 1);
        cursor.resize(num_shards);
      }
    }
  };

  std::vector<F> shards_;
  uint64_t salt_;
  /// Two-choice bucket→shard table; empty = uniform hash routing.
  RoutingDirectory directory_;
  std::string name_;
};

/// Hash-partitions the build sets and runs one TPJO build per shard on a
/// worker pool (parallel across shards; each shard build is the unchanged
/// single-threaded algorithm). `options.total_bits` is the *global* budget,
/// split across shards by ApportionShardBits so bits-per-key — and
/// therefore the FPR bound — is preserved and the per-shard budgets sum
/// exactly to it. With num_shards == 1 the result answers identically to
/// Habf::Build.
///
/// Zero-copy: partitioning builds shard-contiguous *view permutations* over
/// the caller's key storage instead of copying strings, so peak key memory
/// during the build is ~1x the input (plus O(n) pointer-sized views). The
/// viewed storage must outlive the call. A worker task that throws (e.g.
/// std::bad_alloc in a shard build) propagates out of this function via the
/// pool's WaitAll.
ShardedFilter<Habf> BuildShardedHabf(StringSpan positives,
                                     WeightedKeySpan negatives,
                                     const HabfOptions& options,
                                     const ShardedBuildOptions& sharding);

/// Convenience overload over owning vectors: partitions directly from the
/// vectors' storage through the same zero-copy core (no key copies, and no
/// intermediate flat view vector either — only the grouped permutation is
/// materialized).
ShardedFilter<Habf> BuildShardedHabf(const std::vector<std::string>& positives,
                                     const std::vector<WeightedKey>& negatives,
                                     const HabfOptions& options,
                                     const ShardedBuildOptions& sharding);

// --- asynchronous build (DESIGN.md §5) --------------------------------------

/// Thrown by BuildHandle::TakeResult when Cancel() abandoned at least one
/// shard build, so no complete filter exists to take.
class BuildCancelledError : public std::runtime_error {
 public:
  BuildCancelledError() : std::runtime_error("sharded HABF build cancelled") {}
};

class BuildHandle;

/// Starts a sharded HABF build without blocking on the TPJO work: the key
/// spaces are partitioned synchronously (cheap, O(n) routing hashes), one
/// build task per shard is submitted, and a future-like BuildHandle is
/// returned immediately. The finished filter is *bit-for-bit identical* to
/// the synchronous BuildShardedHabf result for the same inputs — both run
/// the same partition/apportion/seed plan — so a service can overlap TPJO
/// construction with serving an old snapshot and hot-swap on completion
/// (core/filter_store.h).
///
/// Pool choice: with `pool == nullptr` the handle owns a private worker pool
/// (min(num_threads, num_shards) workers, at least 1 — an async build never
/// runs inline on the caller). Passing a shared pool is allowed and safe —
/// shard tasks contain their exceptions, so a failed build never poisons
/// another client's WaitAll — but note two sharing effects: a WaitAll
/// barrier on the shared pool (e.g. a pooled ContainsBatch fan-out) also
/// waits for any rebuild tasks already queued, and a 0-worker (inline) pool
/// degenerates the "async" build into completing during this call.
///
/// Lifetime: the spans view caller storage, which must stay alive until the
/// handle completes (Wait()/TakeResult() returns, or the handle is
/// destroyed — destruction cancels remaining shards and blocks until
/// in-flight ones finish, so tasks never outlive the storage).
BuildHandle BuildShardedHabfAsync(StringSpan positives,
                                  WeightedKeySpan negatives,
                                  const HabfOptions& options,
                                  const ShardedBuildOptions& sharding,
                                  ThreadPool* pool = nullptr);

/// Vector convenience overload; the vectors must outlive the handle's
/// completion exactly like the spans above.
BuildHandle BuildShardedHabfAsync(const std::vector<std::string>& positives,
                                  const std::vector<WeightedKey>& negatives,
                                  const HabfOptions& options,
                                  const ShardedBuildOptions& sharding,
                                  ThreadPool* pool = nullptr);

/// Future-like handle to an in-flight sharded build. Movable, not copyable.
///
/// Internals are a Mutex/CondVar-protected State (sharded_filter.cc) whose
/// fields carry HABF_GUARDED_BY annotations — the handle's progress counters
/// and result slots are compiler-checked against unguarded access
/// (util/annotated_sync.h, DESIGN.md §9).
///
/// Lifecycle: exactly one of TakeResult() (returns the filter or throws) or
/// destruction (cancels + joins) consumes the build. Cancellation is
/// cooperative and *best-effort*: Cancel() flips a CancellationToken that
/// every not-yet-started shard task observes before building, so queued
/// shards are abandoned promptly, but a shard already inside its TPJO build
/// runs to completion (TPJO is monolithic); if every shard finished before
/// the flag was observed, the result is intact and TakeResult still returns
/// it.
class BuildHandle {
 public:
  /// An empty handle (as if moved-from): Ready() is true, TakeResult throws.
  BuildHandle() = default;

  BuildHandle(BuildHandle&&) noexcept;
  /// Abandons the currently held build (Cancel + Wait) before taking over
  /// the other one.
  BuildHandle& operator=(BuildHandle&&) noexcept;
  BuildHandle(const BuildHandle&) = delete;
  BuildHandle& operator=(const BuildHandle&) = delete;

  /// Cancels remaining shards and blocks until in-flight shard tasks have
  /// finished, so no task can outlive the caller's key storage and no pool
  /// task is leaked. Call Cancel() + Wait() yourself first if you want the
  /// teardown latency out of the destructor.
  ~BuildHandle();

  /// True once every shard task has finished (built, failed, or been
  /// abandoned by Cancel). Never blocks. A moved-from handle is Ready.
  bool Ready() const;

  /// Blocks until Ready().
  void Wait() const;

  /// Requests cooperative cancellation (idempotent, never blocks): shard
  /// tasks not yet started are abandoned; the one currently building (if
  /// any) completes. See the class comment for the race with completion.
  void Cancel();

  /// Whether Cancel() has been called (not whether it won the race).
  bool CancelRequested() const;

  /// Shards whose TPJO build has completed so far (monotonic; equals
  /// num_shards() on a fully successful build).
  size_t CompletedShards() const;

  size_t num_shards() const;

  /// Waits, then consumes the result: returns the finished filter, rethrows
  /// the first exception a shard build escaped with, or throws
  /// BuildCancelledError if cancellation abandoned any shard. A second call
  /// (or a call on a moved-from handle) throws std::logic_error — the
  /// result is gone.
  ShardedFilter<Habf> TakeResult();

  /// Opaque shared state between the handle and its shard tasks (defined in
  /// sharded_filter.cc — incomplete everywhere else, so the construction
  /// path below is usable only by the BuildShardedHabfAsync implementation).
  struct State;

  /// Internal: handles are obtained from BuildShardedHabfAsync.
  BuildHandle(std::shared_ptr<State> state,
              std::unique_ptr<ThreadPool> owned_pool);

 private:
  /// Cancel + Wait + release (the destructor/move-assign teardown).
  void Abandon();

  /// Shared with the shard tasks; deliberately pool-free so the last
  /// reference may be dropped from a worker thread without self-joining.
  std::shared_ptr<State> state_;
  /// Destroyed before state_ is released (declared after it), joining the
  /// private workers while the handle still pins the shared state.
  std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace habf
