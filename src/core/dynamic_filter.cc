#include "core/dynamic_filter.h"

#include <sys/stat.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/annotated_sync.h"
#include "util/timer.h"

#include "hashing/hash_function.h"  // Fmix64

namespace habf {
namespace {

const DynamicOptions& ValidateDynamicOptions(const DynamicOptions& dynamic) {
  if (!(std::isfinite(dynamic.dirty_fraction_threshold) &&
        dynamic.dirty_fraction_threshold >= 0.0)) {
    throw std::invalid_argument(
        "DynamicOptions::dirty_fraction_threshold must be a finite value "
        ">= 0");
  }
  return dynamic;
}

size_t ComputeCompactionThreads(const DynamicOptions& dynamic,
                                size_t num_shards) {
  if (dynamic.compaction_threads > 0) return dynamic.compaction_threads;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::max<size_t>(1, std::min(hw, std::max<size_t>(1, num_shards)));
}

/// Byte-level clone of a finished shard (Habf owns a unique_ptr provider, so
/// there is no copy constructor; the snapshot round-trip is the supported
/// clone path and restores a query-identical filter).
Habf CloneShard(const Habf& shard) {
  std::string bytes;
  shard.Serialize(&bytes);
  std::optional<Habf> clone = Habf::Deserialize(bytes);
  assert(clone.has_value() && "own Serialize output must deserialize");
  return std::move(*clone);
}

}  // namespace

std::string DynamicSnapshotPath(const std::string& dir) {
  return dir + "/snapshot.habf";
}

DynamicShardedHabf::DynamicShardedHabf(std::vector<std::string> positives,
                                       std::vector<WeightedKey> negatives,
                                       const HabfOptions& options,
                                       const ShardedBuildOptions& sharding,
                                       const DynamicOptions& dynamic)
    : base_options_(options),
      dynamic_options_(ValidateDynamicOptions(dynamic)),
      compaction_pool_(
          ComputeCompactionThreads(dynamic_options_, sharding.num_shards)) {
  ShardedFilter<Habf> filter =
      BuildShardedHabf(positives, negatives, options, sharding);
  num_shards_ = filter.num_shards();
  salt_ = filter.salt();
  directory_ = filter.directory();
  bits_per_key_ = positives.empty()
                      ? static_cast<double>(options.total_bits)
                      : static_cast<double>(options.total_bits) /
                            static_cast<double>(positives.size());

  shard_keys_.resize(num_shards_);
  shard_negatives_.resize(num_shards_);
  dirty_.assign(num_shards_, 0);
  // Route once, size each shard's blob and index exactly, then append.
  std::vector<uint32_t> shard_of(positives.size());
  std::vector<size_t> shard_count(num_shards_, 0);
  std::vector<size_t> shard_bytes(num_shards_, 0);
  for (size_t i = 0; i < positives.size(); ++i) {
    const size_t s = ShardOf(positives[i]);
    shard_of[i] = static_cast<uint32_t>(s);
    ++shard_count[s];
    shard_bytes[s] += positives[i].size();
  }
  std::vector<MemberSet::Builder> members(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    members[s].Reserve(shard_count[s], shard_bytes[s]);
  }
  for (size_t i = 0; i < positives.size(); ++i) {
    members[shard_of[i]].Add(positives[i]);
  }
  for (size_t s = 0; s < num_shards_; ++s) {
    shard_keys_[s] = members[s].Finish();
  }
  for (WeightedKey& wk : negatives) {
    const size_t s = ShardOf(wk.key);
    shard_negatives_[s].push_back(std::move(wk));
  }

  base_.Publish(std::move(filter));
}

DynamicShardedHabf::~DynamicShardedHabf() { StopBackgroundCompaction(); }

size_t DynamicShardedHabf::ShardOf(std::string_view key) const {
  if (directory_.empty()) return ShardOfKey(key, salt_, num_shards_);
  return directory_.bucket_to_shard[RoutingBucketOfKey(
      key, salt_, directory_.num_buckets())];
}

size_t DynamicShardedHabf::ApplyMutationLocked(std::string_view key,
                                               bool inserted,
                                               bool count_stats) {
  const size_t shard = ShardOf(key);
  if (delta_.Upsert(key, inserted)) ++dirty_[shard];
  if (count_stats) {
    if (inserted) {
      ++stats_.inserts;
    } else {
      ++stats_.removes;
    }
  }
  return shard;
}

bool DynamicShardedHabf::Insert(std::string_view key) {
  return ApplyLogged(key, /*inserted=*/true);
}

bool DynamicShardedHabf::Remove(std::string_view key) {
  return ApplyLogged(key, /*inserted=*/false);
}

bool DynamicShardedHabf::ApplyLogged(std::string_view key, bool inserted) {
  DeltaWalWriter* wal = nullptr;
  uint64_t seq = 0;
  {
    WriterLock lock(delta_mutex_);
    if (wal_ != nullptr) {
      // Logged under the writer lock, so the log order equals the apply
      // order, and before the apply: a failed log refuses the mutation
      // with memory untouched. The fsync (SyncTo below) happens after
      // release so readers and other writers never stall behind the disk.
      wal = wal_.get();
      seq = wal->Enqueue(key, inserted);
      if (seq == 0) return false;
    }
    const size_t shard =
        ApplyMutationLocked(key, inserted, /*count_stats=*/true);
    NotifyCompactorIfDirtyLocked(shard);
  }
  return wal == nullptr || wal->SyncTo(seq);
}

bool DynamicShardedHabf::MightContain(std::string_view key) const {
  {
    ReaderLock lock(delta_mutex_);
    // The table is exact, so a miss proves the key is unmutated and the
    // base answer below is authoritative.
    if (const std::optional<bool> state = delta_.Find(key)) return *state;
  }
  // Pinned *after* releasing the delta lock. If a compaction drained this
  // key between our delta miss and this Acquire, the drain happened under
  // the writer lock — i.e. after the base holding the key was published —
  // so the snapshot we acquire here already contains it (DESIGN.md §7).
  // The TokenLock makes the order compiler-checked: delta_mutex_ is
  // declared ACQUIRED_BEFORE(base_acquire_order_), so a reader holding
  // this pin token could not (re)take the delta lock.
  TokenLock base_order(base_acquire_order_);
  const auto snap = base_.Acquire();
  return snap.filter->MightContain(key);
}

size_t DynamicShardedHabf::ContainsBatch(KeySpan keys, uint8_t* out) const {
  const size_t n = keys.size();
  if (n == 0) return 0;

  // Per-thread scratch mirroring ShardedFilter::ContainsBatch — steady-state
  // batches allocate nothing.
  struct Scratch {
    std::vector<std::string_view> unresolved;
    std::vector<uint32_t> origin;
    std::vector<uint8_t> sub_out;
  };
  static thread_local Scratch scratch;
  scratch.unresolved.clear();
  scratch.origin.clear();

  size_t positives = 0;
  {
    ReaderLock lock(delta_mutex_);
    for (size_t i = 0; i < n; ++i) {
      if (const std::optional<bool> state = delta_.Find(keys[i])) {
        out[i] = *state ? 1 : 0;
        positives += out[i];
        continue;
      }
      scratch.unresolved.push_back(keys[i]);
      scratch.origin.push_back(static_cast<uint32_t>(i));
    }
  }
  if (scratch.unresolved.empty()) return positives;

  // Same ordering argument as MightContain: the base acquired after a delta
  // miss is at least as new as any compaction that drained these keys.
  scratch.sub_out.resize(scratch.unresolved.size());
  TokenLock base_order(base_acquire_order_);
  const auto snap = base_.Acquire();
  positives += snap.filter->ContainsBatch(
      KeySpan(scratch.unresolved.data(), scratch.unresolved.size()),
      scratch.sub_out.data());
  for (size_t j = 0; j < scratch.unresolved.size(); ++j) {
    out[scratch.origin[j]] = scratch.sub_out[j];
  }
  return positives;
}

size_t DynamicShardedHabf::MemoryUsageBytes() const {
  size_t total = 0;
  {
    TokenLock base_order(base_acquire_order_);
    const auto snap = base_.Acquire();
    total += snap.filter->MemoryUsageBytes();
  }
  ReaderLock lock(delta_mutex_);
  return total + delta_.MemoryUsageBytes();
}

size_t DynamicShardedHabf::delta_size() const {
  ReaderLock lock(delta_mutex_);
  return delta_.size();
}

size_t DynamicShardedHabf::dirty_keys(size_t shard) const {
  assert(shard < num_shards_);
  ReaderLock lock(delta_mutex_);
  return dirty_[shard];
}

double DynamicShardedHabf::dirty_fraction(size_t shard) const {
  assert(shard < num_shards_);
  ReaderLock lock(delta_mutex_);
  const size_t denom = std::max<size_t>(1, shard_keys_[shard].size());
  return static_cast<double>(dirty_[shard]) / static_cast<double>(denom);
}

DynamicStats DynamicShardedHabf::stats() const {
  ReaderLock lock(delta_mutex_);
  return stats_;
}

CompactionReport DynamicShardedHabf::CompactDirtyShards() {
  MutexLock compaction_lock(compaction_mutex_);
  CompactionReport report;

  // --- Phase 1: capture. Snapshot the dirty shards' delta entries under a
  // shared lock; mutations keep flowing, and anything that lands after this
  // point simply stays in the delta for a later pass.
  struct ShardRebuild {
    size_t shard = 0;
    std::vector<std::pair<std::string, bool>> entries;  // (key, inserted)
    MemberSet new_keys;
    std::vector<std::string_view> keys;        // views into new_keys
    std::vector<WeightedKeyView> negatives;    // views into shard_negatives_
    HabfOptions opts;
    BuildHandle handle;
  };
  std::vector<ShardRebuild> rebuilds;
  {
    ReaderLock lock(delta_mutex_);
    std::vector<uint8_t> dirty_shard(num_shards_, 0);
    for (size_t s = 0; s < num_shards_; ++s) {
      const size_t denom = std::max<size_t>(1, shard_keys_[s].size());
      const double fraction =
          static_cast<double>(dirty_[s]) / static_cast<double>(denom);
      report.max_dirty_fraction = std::max(report.max_dirty_fraction, fraction);
      if (dirty_[s] > 0 &&
          fraction > dynamic_options_.dirty_fraction_threshold) {
        dirty_shard[s] = 1;
      }
    }
    std::vector<size_t> rebuild_index(num_shards_, SIZE_MAX);
    for (size_t s = 0; s < num_shards_; ++s) {
      if (!dirty_shard[s]) continue;
      rebuild_index[s] = rebuilds.size();
      rebuilds.emplace_back();
      rebuilds.back().shard = s;
    }
    for (const DeltaTable::Entry entry : delta_) {
      const size_t idx = rebuild_index[ShardOf(entry.key)];
      if (idx != SIZE_MAX) {
        rebuilds[idx].entries.emplace_back(entry.key, entry.inserted);
      }
    }
  }
  if (rebuilds.empty()) {
    // Nothing to rebuild, but a recovered state not yet checkpointed is
    // collapsed here (the background loop's first tick after Open).
    if (checkpoint_pending_) report.checkpointed = CheckpointLocked(nullptr);
    return report;
  }

  // --- Phase 2: rebuild the dirty shards, readers undisturbed. Each shard's
  // new key set is the authoritative set with the captured delta folded in;
  // construction-time negatives are re-applied minus any that have since
  // become positives. One single-shard async build per dirty shard, fanned
  // out on the shared compaction pool with a fresh per-epoch seed (so a
  // rebuilt shard never reuses probe positions an adversary has observed).
  const auto t0 = std::chrono::steady_clock::now();
  ++compaction_epoch_;
  for (ShardRebuild& rb : rebuilds) {
    rb.new_keys = MemberSet::Rebuild(ShardKeysUnderCompaction(rb.shard),
                                     rb.entries);
    rb.keys.assign(rb.new_keys.begin(), rb.new_keys.end());
    for (const WeightedKey& wk : ShardNegativesUnderCompaction(rb.shard)) {
      if (!rb.new_keys.Contains(wk.key)) {
        rb.negatives.emplace_back(wk.key, wk.cost);
      }
    }
    rb.opts = base_options_;
    rb.opts.total_bits = std::max<size_t>(
        64, static_cast<size_t>(bits_per_key_ *
                                static_cast<double>(rb.keys.size())));
    rb.opts.seed = Fmix64(base_options_.seed ^
                          (0x9E3779B97F4A7C15ULL *
                           (compaction_epoch_ * num_shards_ + rb.shard + 1)));
  }
  // Launch after every ShardRebuild is in place: the async spans view the
  // keys/negatives vectors above, which no longer move. The key views point
  // into new_keys' blob, which stays put until the handles are consumed.
  for (ShardRebuild& rb : rebuilds) {
    ShardedBuildOptions single;
    single.num_shards = 1;
    single.num_threads = 1;
    single.salt = salt_;
    rb.handle = BuildShardedHabfAsync(rb.keys, rb.negatives, rb.opts, single,
                                      &compaction_pool_);
  }

  // Assemble the next base: rebuilt shards from the handles, clean shards
  // cloned byte-for-byte from the current snapshot.
  std::vector<Habf> new_shards;
  new_shards.reserve(rebuilds.size());
  for (ShardRebuild& rb : rebuilds) {
    std::vector<Habf> built = std::move(rb.handle).TakeResult().TakeShards();
    assert(built.size() == 1);
    new_shards.push_back(std::move(built.front()));
  }
  std::vector<Habf> shards;
  shards.reserve(num_shards_);
  {
    // The token scope proves at compile time that this FilterStore pin is
    // released before the publish+drain writer section below — a pin is
    // never held under the delta writer lock (DESIGN.md §9).
    TokenLock base_order(base_acquire_order_);
    const auto snap = base_.Acquire();
    size_t next_rebuilt = 0;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (next_rebuilt < rebuilds.size() &&
          rebuilds[next_rebuilt].shard == s) {
        shards.push_back(std::move(new_shards[next_rebuilt]));
        ++next_rebuilt;
      } else {
        shards.push_back(CloneShard(snap.filter->shard(s)));
      }
    }
  }
  ShardedFilter<Habf> next(std::move(shards), salt_, directory_);

  // --- Phase 3: publish, then drain, inside ONE writer critical section.
  // Ordering is the zero-false-negative crux: once a captured entry leaves
  // the delta, any reader that misses it in the delta acquired the shared
  // lock after this block — hence after Publish — so its base snapshot is
  // the one just built with the key folded in. An entry whose state changed
  // while the rebuild ran is NOT drained: its current state still overrides
  // the new base, exactly as intended.
  size_t drained = 0;
  {
    WriterLock lock(delta_mutex_);
    report.published_version = base_.Publish(std::move(next));
    for (ShardRebuild& rb : rebuilds) {
      const size_t dropped = delta_.Drop(rb.entries);
      assert(dirty_[rb.shard] >= dropped);
      dirty_[rb.shard] -= dropped;
      drained += dropped;
      shard_keys_[rb.shard] = std::move(rb.new_keys);
    }
    // One rebuild from the survivors, so the index needs no deleted-slot
    // markers.
    delta_.Sweep();
    ++stats_.compactions;
    stats_.shards_rebuilt += rebuilds.size();
    stats_.keys_drained += drained;
  }

  report.shards_rebuilt = rebuilds.size();
  report.keys_drained = drained;
  report.rebuild_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  // Durable mode: every pass that rebuilt a shard ends in a checkpoint, so
  // the WAL only ever carries the mutations since the last pass and recovery
  // replay stays short. (A quiet no-op when durability is off.)
  report.checkpointed = CheckpointLocked(nullptr);
  return report;
}

bool DynamicShardedHabf::EnableDurability(const std::string& dir,
                                          std::string* error) {
  MutexLock compaction_lock(compaction_mutex_);
  {
    WriterLock lock(delta_mutex_);
    if (wal_ != nullptr) return true;  // already durable — idempotent
    ::mkdir(dir.c_str(), 0777);  // best effort; Open below reports failures
    std::unique_ptr<DeltaWalWriter> wal = DeltaWalWriter::Open(dir, 1, 1);
    if (wal == nullptr) {
      if (error != nullptr) *error = "cannot create WAL in " + dir;
      return false;
    }
    wal_dir_ = dir;
    wal_ = std::move(wal);
  }
  // The initial checkpoint establishes the snapshot the first recovery
  // will start from (and rotates the log to epoch 2).
  return CheckpointLocked(error);
}

bool DynamicShardedHabf::durable() const {
  ReaderLock lock(delta_mutex_);
  return wal_ != nullptr && wal_->healthy();
}

uint64_t DynamicShardedHabf::wal_epoch() const {
  ReaderLock lock(delta_mutex_);
  return wal_ == nullptr ? 0 : wal_->epoch();
}

uint64_t DynamicShardedHabf::wal_last_seq() const {
  ReaderLock lock(delta_mutex_);
  return wal_ == nullptr ? 0 : wal_->last_enqueued_seq();
}

bool DynamicShardedHabf::Checkpoint(std::string* error) {
  MutexLock compaction_lock(compaction_mutex_);
  return CheckpointLocked(error);
}

bool DynamicShardedHabf::CheckpointLocked(std::string* error) {
  // --- Phase A: rotate the WAL and capture the resident delta under ONE
  // writer critical section. Everything the snapshot folds in has
  // seq <= last_seq; everything after lands in epochs >= new_epoch — the
  // invariant recovery's skip-by-seq replay rests on.
  std::string wal_dir;
  uint64_t new_epoch = 0;
  uint64_t last_seq = 0;
  std::string delta_payload;
  {
    WriterLock lock(delta_mutex_);
    if (wal_ == nullptr) {
      if (error != nullptr) *error = "durability is not enabled";
      return false;
    }
    wal_dir = wal_dir_;
    new_epoch = wal_->epoch() + 1;
    if (!wal_->Rotate(new_epoch)) {
      if (error != nullptr) *error = "WAL rotation failed in " + wal_dir;
      return false;
    }
    last_seq = wal_->last_enqueued_seq();
    delta_.AppendPayload(&delta_payload);
  }

  // --- Phase B: serialize the rest outside the delta lock. The base and
  // the authoritative key sets cannot move underneath us — only the
  // compactor replaces them, and we hold compaction_mutex_.
  std::string config_payload;
  {
    BinaryWriter writer(&config_payload);
    writer.WriteU64(salt_);
    writer.WriteU32(static_cast<uint32_t>(num_shards_));
    writer.WriteDouble(bits_per_key_);
    writer.WriteU64(base_options_.total_bits);
    writer.WriteDouble(base_options_.delta);
    writer.WriteU64(base_options_.k);
    writer.WriteU8(static_cast<uint8_t>(base_options_.cell_bits));
    writer.WriteU8(base_options_.fast ? 1 : 0);
    writer.WriteU8(base_options_.allow_double_adjustment ? 1 : 0);
    writer.WriteU64(base_options_.seed);
    writer.WriteU64(compaction_epoch_);
    writer.WriteU64(new_epoch);
    writer.WriteU64(last_seq);
    WriteHabfFamily(base_options_, &writer);
  }
  std::string base_payload;
  {
    TokenLock base_order(base_acquire_order_);
    const auto snap = base_.Acquire();
    snap.filter->Serialize(&base_payload);
  }
  std::string keys_payload;
  {
    BinaryWriter writer(&keys_payload);
    writer.WriteU32(static_cast<uint32_t>(num_shards_));
    for (size_t s = 0; s < num_shards_; ++s) {
      ShardKeysUnderCompaction(s).AppendPayload(&keys_payload);
    }
  }
  std::string negatives_payload;
  {
    BinaryWriter writer(&negatives_payload);
    writer.WriteU32(static_cast<uint32_t>(num_shards_));
    for (size_t s = 0; s < num_shards_; ++s) {
      const std::vector<WeightedKey>& negatives =
          ShardNegativesUnderCompaction(s);
      writer.WriteU64(negatives.size());
      for (const WeightedKey& wk : negatives) {
        writer.WriteBytes(wk.key);
        writer.WriteDouble(wk.cost);
      }
    }
  }

  std::string bytes;
  SectionWriter container(&bytes, kDynamicContentTag);
  container.AddSection(kDynamicConfigTag, config_payload);
  if (!directory_.empty()) {
    std::string routing_payload;
    directory_.AppendPayload(&routing_payload);
    container.AddSection(kDynamicRoutingTag, routing_payload);
  }
  container.AddSection(kDynamicBaseTag, base_payload);
  container.AddSection(kDynamicKeysTag, keys_payload);
  container.AddSection(kDynamicNegativesTag, negatives_payload);
  container.AddSection(kDynamicDeltaTag, delta_payload);
  container.Finish();

  if (!WriteFileBytesAtomic(DynamicSnapshotPath(wal_dir), bytes)) {
    if (error != nullptr) {
      *error = "cannot write checkpoint snapshot " + DynamicSnapshotPath(wal_dir);
    }
    return false;
  }
  // Only after the referencing snapshot is durably on disk may the old
  // epochs go — a crash before this line replays them harmlessly (skipped
  // by seq), a crash after needs only the rotated epoch onward.
  RemoveWalFilesBelow(wal_dir, new_epoch);
  checkpoint_pending_ = false;
  {
    WriterLock lock(delta_mutex_);
    ++stats_.checkpoints;
  }
  return true;
}

DynamicShardedHabf::DynamicShardedHabf(RecoveredState state,
                                       const DynamicOptions& dynamic)
    : num_shards_(state.num_shards),
      salt_(state.salt),
      directory_(std::move(state.directory)),
      base_options_(state.base_options),
      bits_per_key_(state.bits_per_key),
      dynamic_options_(ValidateDynamicOptions(dynamic)),
      shard_keys_(std::move(state.shard_keys)),
      shard_negatives_(std::move(state.shard_negatives)),
      compaction_pool_(
          ComputeCompactionThreads(dynamic_options_, state.num_shards)) {
  dirty_.assign(num_shards_, 0);
  compaction_epoch_ = state.compaction_epoch;
  base_.Publish(std::move(*state.base));
}

bool DynamicShardedHabf::ParseSnapshotBytes(std::string_view bytes,
                                            RecoveredState* out,
                                            std::string* error) {
  const std::optional<SectionReader> container = SectionReader::Parse(bytes);
  if (!container.has_value() ||
      container->content_tag() != kDynamicContentTag) {
    if (error != nullptr) {
      *error = "checkpoint snapshot is not a DYNF HBF1 container";
    }
    return false;
  }
  // Find() refuses CRC-damaged sections, so "missing or fails its CRC" is
  // one condition; the fault-injection tests assert these section names.
  const auto section = [&container, error](
                           uint32_t tag,
                           const char* name) -> std::optional<std::string_view> {
    std::optional<std::string_view> payload = container->Find(tag);
    if (!payload.has_value() && error != nullptr) {
      *error = std::string("checkpoint section ") + name +
               " is missing or fails its CRC";
    }
    return payload;
  };

  const auto config = section(kDynamicConfigTag, "DCFG");
  if (!config.has_value()) return false;
  {
    BinaryReader reader(*config);
    out->salt = reader.ReadU64();
    const uint32_t num_shards = reader.ReadU32();
    out->bits_per_key = reader.ReadDouble();
    out->base_options.total_bits = reader.ReadU64();
    out->base_options.delta = reader.ReadDouble();
    out->base_options.k = reader.ReadU64();
    out->base_options.cell_bits = reader.ReadU8();
    out->base_options.fast = reader.ReadU8() != 0;
    out->base_options.allow_double_adjustment = reader.ReadU8() != 0;
    out->base_options.seed = reader.ReadU64();
    out->compaction_epoch = reader.ReadU64();
    out->replay_epoch = reader.ReadU64();
    out->last_seq = reader.ReadU64();
    if (!reader.ok() || !ReadHabfFamily(&reader, &out->base_options) ||
        reader.remaining() != 0 || num_shards == 0 ||
        num_shards > kMaxSnapshotShards ||
        !std::isfinite(out->bits_per_key) || out->bits_per_key <= 0.0 ||
        out->replay_epoch == 0) {
      if (error != nullptr) *error = "checkpoint section DCFG is malformed";
      return false;
    }
    out->num_shards = num_shards;
  }

  // The routing section is optional (hash routing writes none) — but
  // "present and CRC-damaged" must not silently degrade to hash routing,
  // so presence is checked against the raw section table, not Find().
  bool routing_present = false;
  for (const SectionReader::Section& s : container->sections()) {
    if (s.tag == kDynamicRoutingTag) routing_present = true;
  }
  if (routing_present) {
    const auto routing = section(kDynamicRoutingTag, "RDIR");
    if (!routing.has_value()) return false;
    std::optional<RoutingDirectory> directory =
        RoutingDirectory::ParsePayload(*routing, out->num_shards);
    if (!directory.has_value()) {
      if (error != nullptr) *error = "checkpoint section RDIR is malformed";
      return false;
    }
    out->directory = std::move(*directory);
  }

  const auto base_payload = section(kDynamicBaseTag, "BASE");
  if (!base_payload.has_value()) return false;
  std::optional<ShardedFilter<Habf>> base =
      ShardedFilter<Habf>::Deserialize(*base_payload);
  if (!base.has_value() || base->num_shards() != out->num_shards ||
      base->salt() != out->salt) {
    if (error != nullptr) {
      *error = "checkpoint section BASE does not deserialize";
    }
    return false;
  }
  out->base.emplace(std::move(*base));

  const auto keys_payload = section(kDynamicKeysTag, "KEYS");
  if (!keys_payload.has_value()) return false;
  {
    const Stopwatch members_watch;
    // u32 shard count, then each shard's MemberSet payload back to back:
    // every slice is bounds-checked, then copied and indexed in one go.
    std::string_view rest = *keys_payload;
    const uint32_t num_shards = BinaryReader(rest).ReadU32();
    bool ok = rest.size() >= 4 && num_shards == out->num_shards;
    if (ok) {
      rest.remove_prefix(4);
      out->shard_keys.reserve(num_shards);
    }
    for (uint32_t s = 0; ok && s < num_shards; ++s) {
      std::optional<MemberSet> members = MemberSet::ParsePayload(&rest);
      ok = members.has_value();
      if (ok) out->shard_keys.push_back(std::move(*members));
    }
    if (!ok || !rest.empty()) {
      if (error != nullptr) *error = "checkpoint section KEYS is malformed";
      return false;
    }
    out->members_ns = members_watch.ElapsedNanos();
  }

  const auto negatives_payload = section(kDynamicNegativesTag, "NEGS");
  if (!negatives_payload.has_value()) return false;
  {
    BinaryReader reader(*negatives_payload);
    const uint32_t num_shards = reader.ReadU32();
    bool ok = reader.ok() && num_shards == out->num_shards;
    if (ok) out->shard_negatives.resize(num_shards);
    for (uint32_t s = 0; ok && s < num_shards; ++s) {
      const uint64_t count = reader.ReadU64();
      ok = reader.ok() && count <= reader.remaining() / 16;
      if (!ok) break;
      out->shard_negatives[s].reserve(count);
      for (uint64_t i = 0; ok && i < count; ++i) {
        WeightedKey wk;
        wk.key = reader.ReadBytes();
        wk.cost = reader.ReadDouble();
        ok = reader.ok() && std::isfinite(wk.cost);
        if (ok) out->shard_negatives[s].push_back(std::move(wk));
      }
    }
    if (!ok || reader.remaining() != 0) {
      if (error != nullptr) *error = "checkpoint section NEGS is malformed";
      return false;
    }
  }

  const auto delta_payload = section(kDynamicDeltaTag, "DELT");
  if (!delta_payload.has_value()) return false;
  std::optional<DeltaTable> delta = DeltaTable::ParsePayload(*delta_payload);
  if (!delta.has_value()) {
    if (error != nullptr) *error = "checkpoint section DELT is malformed";
    return false;
  }
  out->delta = std::move(*delta);
  return true;
}

std::unique_ptr<DynamicShardedHabf> DynamicShardedHabf::Open(
    const std::string& dir, const DynamicOptions& dynamic,
    std::string* error) {
  DynamicStats split;
  Stopwatch watch;
  std::string bytes;
  if (!ReadFileBytes(DynamicSnapshotPath(dir), &bytes)) {
    if (error != nullptr) {
      *error = "cannot read checkpoint snapshot " + DynamicSnapshotPath(dir);
    }
    return nullptr;
  }
  split.recovery_read_ns = watch.ElapsedNanos();

  watch.Reset();
  RecoveredState state;
  if (!ParseSnapshotBytes(bytes, &state, error)) return nullptr;
  split.recovery_members_ns = state.members_ns;
  split.recovery_parse_ns = watch.ElapsedNanos() - state.members_ns;

  watch.Reset();
  WalReplayResult replay =
      ReplayWalDir(dir, state.replay_epoch, state.last_seq);
  if (!replay.ok()) {
    if (error != nullptr) *error = replay.error;
    return nullptr;
  }

  // Pull what the constructor does not consume out of `state` before the
  // move: the resident delta and the WAL tail are applied below under a
  // real writer lock (the analysis-checked path), not inside the ctor.
  DeltaTable resident = std::move(state.delta);
  const uint64_t next_epoch =
      std::max(replay.max_epoch, state.replay_epoch) + 1;
  const uint64_t next_seq = std::max(replay.max_seq, state.last_seq) + 1;

  std::unique_ptr<DynamicShardedHabf> filter(
      new DynamicShardedHabf(std::move(state), dynamic));
  {
    WriterLock lock(filter->delta_mutex_);
    filter->delta_ = std::move(resident);
    for (const DeltaTable::Entry entry : filter->delta_) {
      ++filter->dirty_[filter->ShardOf(entry.key)];
    }
    // Replay is already in seq order and last-wins idempotent on top of
    // the snapshot's resident delta.
    for (const WalRecord& record : replay.records) {
      filter->ApplyMutationLocked(record.key, record.inserted,
                                  /*count_stats=*/false);
    }
  }
  split.recovery_replay_ns = watch.ElapsedNanos();

  // Repair before the new epoch exists (DESIGN.md §10): once epoch
  // next_epoch is on disk the torn file is no longer the last one, and the
  // next recovery would reject its tail as corruption.
  watch.Reset();
  if (!RepairTornWalTail(dir, replay)) {
    if (error != nullptr) {
      *error = "cannot repair torn WAL tail " + replay.torn_path;
    }
    return nullptr;
  }
  std::unique_ptr<DeltaWalWriter> wal =
      DeltaWalWriter::Open(dir, next_epoch, next_seq);
  if (wal == nullptr) {
    if (error != nullptr) *error = "cannot reopen WAL in " + dir;
    return nullptr;
  }
  split.recovery_repair_ns = watch.ElapsedNanos();
  {
    WriterLock lock(filter->delta_mutex_);
    filter->wal_dir_ = dir;
    filter->wal_ = std::move(wal);
    filter->stats_.recovery_read_ns = split.recovery_read_ns;
    filter->stats_.recovery_parse_ns = split.recovery_parse_ns;
    filter->stats_.recovery_members_ns = split.recovery_members_ns;
    filter->stats_.recovery_replay_ns = split.recovery_replay_ns;
    filter->stats_.recovery_repair_ns = split.recovery_repair_ns;
  }
  // No collapse checkpoint here: the replayed epochs stay on disk until the
  // next compaction pass (or Checkpoint) folds them into a snapshot.
  {
    MutexLock compaction_lock(filter->compaction_mutex_);
    filter->checkpoint_pending_ = true;
  }
  return filter;
}

void DynamicShardedHabf::NotifyCompactorIfDirtyLocked(size_t shard) {
  if (!background_running_.load(std::memory_order_relaxed)) return;
  const double denom =
      static_cast<double>(std::max<size_t>(1, shard_keys_[shard].size()));
  if (static_cast<double>(dirty_[shard]) >
      dynamic_options_.dirty_fraction_threshold * denom) {
    {
      MutexLock bg(background_mutex_);
      background_kick_ = true;
    }
    background_cv_.NotifyOne();
  }
}

void DynamicShardedHabf::StartBackgroundCompaction(
    std::chrono::milliseconds interval) {
  MutexLock lifecycle(lifecycle_mutex_);
  if (background_thread_.joinable()) return;  // already running — idempotent
  {
    MutexLock lock(background_mutex_);
    background_stop_ = false;
    background_kick_ = false;
  }
  background_running_.store(true, std::memory_order_relaxed);
  background_thread_ =
      std::thread(&DynamicShardedHabf::BackgroundLoop, this, interval);
}

void DynamicShardedHabf::StopBackgroundCompaction() {
  // lifecycle_mutex_ is held across the join, so a concurrent Start cannot
  // interleave with the teardown. The previous protocol (thread moved out
  // under the condvar lock, joined outside it) had a real hang: a Start
  // racing a finishing Stop would reset background_stop_ before the old
  // loop observed it, and Stop's join() then waited forever on a loop with
  // no stop request (regression:
  // DynamicFilterTest.BackgroundCompactionStartStopRace).
  MutexLock lifecycle(lifecycle_mutex_);
  if (!background_thread_.joinable()) return;
  {
    MutexLock lock(background_mutex_);
    background_stop_ = true;
  }
  background_running_.store(false, std::memory_order_relaxed);
  background_cv_.NotifyAll();
  background_thread_.join();
  background_thread_ = std::thread();
}

void DynamicShardedHabf::BackgroundLoop(std::chrono::milliseconds interval) {
  for (;;) {
    {
      MutexLock lock(background_mutex_);
      // Manual deadline loop instead of wait_for + predicate lambda: the
      // guarded reads of background_stop_/background_kick_ stay in a scope
      // the thread-safety analysis can see holds background_mutex_.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      bool timed_out = false;
      while (!background_stop_ && !background_kick_ && !timed_out) {
        timed_out = !background_cv_.WaitUntil(background_mutex_, deadline);
      }
      if (background_stop_) return;
      background_kick_ = false;
    }
    // An elapsed interval compacts too (threshold kicks just arrive early).
    CompactDirtyShards();
  }
}

}  // namespace habf
