// Hot-swap serving layer (DESIGN.md §5): a FilterStore<F> owns the
// *current* immutable filter snapshot and lets any number of reader threads
// keep answering queries from it while a replacement is being built
// (typically by BuildShardedHabfAsync) and atomically installed.
//
// The scheme is RCU-flavored shared_ptr swapping:
//   * Acquire() atomically loads the current snapshot and returns it as a
//     shared_ptr<const F> — a *pin*: the snapshot a reader holds stays fully
//     valid (and immutable) no matter how many Publish() calls happen while
//     the reader uses it.
//   * Publish() atomically installs a finished filter as the new current
//     snapshot. Readers that Acquire() afterwards see the new filter;
//     readers still holding the old pin are unaffected.
//   * An old snapshot is reclaimed when the last pin to it is released —
//     there is no grace period to manage and no reader-side locking beyond
//     the atomic shared_ptr load.
//
// Readers therefore never block on a rebuild and never observe a torn or
// half-swapped filter: every Acquire() yields a snapshot that was Publish()ed
// whole (tests/filter_store_test.cc hammers this under concurrent swaps).
//
// Version numbers: Publish() tags each installed snapshot with the next
// version (1, 2, ...), readable via Acquire()'s VersionedSnapshot. version()
// reports the latest published version (0 = nothing published yet).
//
// Lock discipline (DESIGN.md §9): the store itself is lock-free, but a pin
// participates in the system-wide acquisition order. Callers that overlay a
// delta tier must release the delta lock *before* Acquire() and must never
// hold a pin while taking the delta writer lock — DynamicShardedHabf makes
// this compiler-checked by scoping every Acquire() inside a TokenLock on an
// OrderingToken declared ACQUIRED_AFTER the delta lock
// (util/annotated_sync.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/serde.h"

namespace habf {

/// HBF1 content + section tags of a FilterStore snapshot (DESIGN.md §10):
/// the current filter plus the version Publish() assigned it, so a restarted
/// service can resume serving (and numbering) where it left off. There is no
/// legacy framing — store persistence is HBF1-native.
constexpr uint32_t kStoreContentTag = FourCc("STOR");
constexpr uint32_t kStoreVersionTag = FourCc("SVER");
constexpr uint32_t kStoreFilterTag = FourCc("SFLT");

/// Serves queries from an immutable current snapshot of F while rebuilds
/// happen elsewhere. F is typically ShardedFilter<Habf> or Habf but can be
/// any type (the store never calls into F itself).
///
/// Thread-safety: Acquire()/version() from any number of threads, Publish()
/// from any thread, all concurrently. Concurrent Publish() calls serialize
/// on the atomic swap; the one that lands last wins the "current" slot and
/// versions stay unique and monotonic.
template <typename F>
class FilterStore {
 public:
  /// A pinned snapshot: the filter plus the version Publish() assigned it.
  /// Holding the `filter` shared_ptr keeps the snapshot alive across any
  /// number of later swaps.
  struct VersionedSnapshot {
    std::shared_ptr<const F> filter;  // nullptr if nothing published yet
    uint64_t version = 0;             // 0 iff filter is nullptr
  };

  FilterStore() = default;

  /// Convenience: constructs with `initial` already published as version 1.
  explicit FilterStore(F initial) { Publish(std::move(initial)); }

  FilterStore(const FilterStore&) = delete;
  FilterStore& operator=(const FilterStore&) = delete;

  /// Atomically pins and returns the current snapshot. Never blocks on a
  /// concurrent Publish (beyond the atomic shared_ptr exchange). The filter
  /// is nullptr — version 0 — until the first Publish.
  VersionedSnapshot Acquire() const {
    std::shared_ptr<const Versioned> current =
        std::atomic_load_explicit(&current_, std::memory_order_acquire);
    if (current == nullptr) return {};
    // Alias the filter out of the versioned wrapper: one control block, so
    // the pin semantics are unchanged.
    return {std::shared_ptr<const F>(current, &current->filter),
            current->version};
  }

  /// Atomically installs `next` as the current snapshot and returns the
  /// version it was assigned. Readers holding older pins are unaffected;
  /// the displaced snapshot is reclaimed when its last pin drops.
  ///
  /// Installs are *monotonic* even under racing publishers: the CAS loop
  /// refuses to replace a newer current snapshot with an older one, so a
  /// reader can never observe the acquired version go backwards (the loser
  /// of the race still gets its unique version number back — its snapshot
  /// was simply superseded before it landed).
  uint64_t Publish(F next) {
    const uint64_t version =
        next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
    auto versioned = std::make_shared<const Versioned>(
        Versioned{std::move(next), version});
    std::shared_ptr<const Versioned> expected =
        std::atomic_load_explicit(&current_, std::memory_order_acquire);
    while (expected == nullptr || expected->version < version) {
      if (std::atomic_compare_exchange_strong_explicit(
              &current_, &expected, versioned, std::memory_order_release,
              std::memory_order_acquire)) {
        break;
      }
      // CAS failure refreshed `expected`; loop re-checks who is newer.
    }
    return version;
  }

  /// Latest version handed out by Publish (0 = nothing published yet).
  /// Once every in-flight Publish returns, this equals the current
  /// snapshot's version; mid-race it can briefly run ahead of it.
  uint64_t version() const {
    return next_version_.load(std::memory_order_relaxed);
  }

  // --- persistence (HBF1 container, DESIGN.md §10) ------------------------
  // Requires `void F::Serialize(std::string*) const` and
  // `static std::optional<F> F::Deserialize(std::string_view)`.

  /// A snapshot parsed back from SaveToFile output.
  struct LoadedSnapshot {
    F filter;
    uint64_t version = 0;
  };

  /// Serializes the *current* snapshot (filter + version) into an HBF1
  /// container. Returns false if nothing has been published yet.
  bool SerializeCurrent(std::string* out) const {
    const VersionedSnapshot current = Acquire();
    if (current.filter == nullptr) return false;
    std::string version_payload;
    BinaryWriter(&version_payload).WriteU64(current.version);
    std::string filter_payload;
    current.filter->Serialize(&filter_payload);
    SectionWriter container(out, kStoreContentTag);
    container.AddSection(kStoreVersionTag, version_payload);
    container.AddSection(kStoreFilterTag, filter_payload);
    container.Finish();
    return true;
  }

  /// Crash-atomically writes the current snapshot to `path`. False if the
  /// store is empty or on any I/O error.
  bool SaveToFile(const std::string& path) const {
    std::string bytes;
    if (!SerializeCurrent(&bytes)) return false;
    return WriteFileBytesAtomic(path, bytes);
  }

  /// Parses a SerializeCurrent/SaveToFile container without touching any
  /// store (static): the filter plus the version it was published as.
  static std::optional<LoadedSnapshot> ParseSnapshot(std::string_view data) {
    const std::optional<SectionReader> container = SectionReader::Parse(data);
    if (!container.has_value() ||
        container->content_tag() != kStoreContentTag) {
      return std::nullopt;
    }
    const std::optional<std::string_view> version_payload =
        container->Find(kStoreVersionTag);
    const std::optional<std::string_view> filter_payload =
        container->Find(kStoreFilterTag);
    if (!version_payload.has_value() || !filter_payload.has_value()) {
      return std::nullopt;
    }
    BinaryReader version_reader(*version_payload);
    const uint64_t version = version_reader.ReadU64();
    if (!version_reader.ok() || version_reader.remaining() != 0 ||
        version == 0) {
      return std::nullopt;
    }
    std::optional<F> filter = F::Deserialize(*filter_payload);
    if (!filter.has_value()) return std::nullopt;
    return LoadedSnapshot{std::move(*filter), version};
  }

  /// Restores a saved snapshot into this store: the filter is published and
  /// the version counter fast-forwarded so the restored snapshot keeps (at
  /// least) its saved version number and later publishes stay monotonic.
  /// Intended for startup on an empty store; false on I/O or format errors.
  bool LoadFromFile(const std::string& path) {
    std::string bytes;
    if (!ReadFileBytes(path, &bytes)) return false;
    std::optional<LoadedSnapshot> loaded = ParseSnapshot(bytes);
    if (!loaded.has_value()) return false;
    // Fast-forward the version counter to just below the saved version so
    // the Publish below reassigns exactly it (or later, under races).
    uint64_t expected = next_version_.load(std::memory_order_relaxed);
    while (expected < loaded->version - 1 &&
           !next_version_.compare_exchange_weak(expected, loaded->version - 1,
                                                std::memory_order_relaxed)) {
    }
    Publish(std::move(loaded->filter));
    return true;
  }

 private:
  struct Versioned {
    F filter;
    uint64_t version;
  };

  /// Accessed exclusively through the std::atomic_load/atomic_store free
  /// functions (the C++17 atomic-shared_ptr interface).
  std::shared_ptr<const Versioned> current_;
  std::atomic<uint64_t> next_version_{0};
};

}  // namespace habf
