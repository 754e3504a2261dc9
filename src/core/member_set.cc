#include "core/member_set.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hashing/xxhash.h"
#include "util/serde.h"

namespace habf {
namespace {

/// Salt separating the key index's hash stream from the filters' and the
/// shard router's.
constexpr uint64_t kMemberSalt = 0x4D454D42455253ULL;  // "MEMBERS"

constexpr size_t kLenBytes = sizeof(uint64_t);
constexpr size_t kMaxOffset = std::numeric_limits<uint32_t>::max();

/// DeltaTable state bytes: 0 and 1 are the DELT values, kDropped marks an
/// entry for the next Sweep and never leaves the table.
constexpr char kDropped = 2;

}  // namespace

uint32_t KeyIndex::Fingerprint(std::string_view key) {
  const uint32_t fingerprint =
      static_cast<uint32_t>(XxHash64(key.data(), key.size(), kMemberSalt));
  return fingerprint == 0 ? 1 : fingerprint;
}

const KeyIndex::Slot& KeyIndex::Probe(const std::string& blob,
                                      std::string_view key,
                                      uint32_t fingerprint) const {
  size_t pos = HomeSlot(fingerprint);
  for (;;) {
    const Slot& slot = slots_[pos];
    if (slot.fingerprint == 0 ||
        (slot.fingerprint == fingerprint &&
         KeyAt(blob.data() + slot.offset) == key)) {
      return slot;
    }
    if (++pos == slots_.size()) pos = 0;
  }
}

void KeyIndex::Reindex(size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  for (const Slot& slot : old) {
    if (slot.fingerprint == 0) continue;
    size_t pos = HomeSlot(slot.fingerprint);
    while (slots_[pos].fingerprint != 0) {
      if (++pos == slots_.size()) pos = 0;
    }
    slots_[pos] = slot;
  }
}

// --- MemberSet ---------------------------------------------------------------

bool MemberSet::IndexKey(std::string_view key, uint32_t offset) {
  const uint32_t fingerprint = KeyIndex::Fingerprint(key);
  KeyIndex::Slot& slot = index_.Probe(blob_, key, fingerprint);
  if (slot.fingerprint != 0) return false;
  slot = KeyIndex::Slot{fingerprint, offset};
  return true;
}

bool MemberSet::Contains(std::string_view key) const {
  if (size_ == 0) return false;
  return index_.Probe(blob_, key, KeyIndex::Fingerprint(key)).fingerprint !=
         0;
}

void MemberSet::AppendPayload(std::string* out) const {
  BinaryWriter(out).WriteU64(size_);
  out->append(blob_);
}

std::optional<MemberSet> MemberSet::ParsePayload(std::string_view* payload) {
  BinaryReader reader(*payload);
  const uint64_t count = reader.ReadU64();
  // Every key costs at least its length prefix, so a count that fits is
  // bounded by the payload itself.
  if (!reader.ok() || count > reader.remaining() / kLenBytes) {
    return std::nullopt;
  }
  const std::string_view rest = payload->substr(kLenBytes);
  // Walk the lengths first: the blob and the index are allocated only once
  // the whole slice is known to be well framed.
  size_t end = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (end > kMaxOffset || rest.size() - end < kLenBytes) return std::nullopt;
    uint64_t len;
    std::memcpy(&len, rest.data() + end, kLenBytes);
    end += kLenBytes;
    if (len > rest.size() - end) return std::nullopt;
    end += static_cast<size_t>(len);
  }

  MemberSet set;
  set.blob_.assign(rest.data(), end);
  if (count > 0) set.index_.Reindex(CapacityFor(static_cast<size_t>(count)));
  for (size_t offset = 0; offset < end;) {
    const std::string_view key = KeyIndex::KeyAt(set.blob_.data() + offset);
    if (!set.IndexKey(key, static_cast<uint32_t>(offset))) {
      return std::nullopt;  // a set never writes a key twice
    }
    offset += kLenBytes + key.size();
  }
  set.size_ = static_cast<size_t>(count);
  *payload = rest.substr(end);
  return set;
}

MemberSet MemberSet::Rebuild(
    const MemberSet& old,
    const std::vector<std::pair<std::string, bool>>& changes) {
  Builder changed;
  size_t inserted = 0;
  size_t inserted_bytes = 0;
  changed.Reserve(changes.size(), 0);
  for (const auto& [key, member] : changes) {
    changed.Add(key);
    if (member) {
      ++inserted;
      inserted_bytes += key.size();
    }
  }
  const MemberSet changed_keys = changed.Finish();

  Builder next;
  next.Reserve(old.size() + inserted, old.blob_.size() + inserted_bytes +
                                          kLenBytes * inserted);
  for (const std::string_view key : old) {
    if (!changed_keys.Contains(key)) next.Add(key);
  }
  for (const auto& [key, member] : changes) {
    if (member) next.Add(key);
  }
  return next.Finish();
}

void MemberSet::Builder::Reserve(size_t keys, size_t key_bytes) {
  set_.blob_.reserve(key_bytes + kLenBytes * keys);
  if (set_.index_.capacity() < CapacityFor(keys)) {
    set_.index_.Reindex(CapacityFor(keys));
  }
}

bool MemberSet::Builder::Add(std::string_view key) {
  const size_t offset = set_.blob_.size();
  if (offset > kMaxOffset) {
    throw std::length_error("MemberSet: one shard's keys exceed 4 GiB");
  }
  if (set_.index_.capacity() < CapacityFor(set_.size_ + 1)) {
    set_.index_.Reindex(
        std::max(CapacityFor(set_.size_ + 1), 2 * set_.index_.capacity()));
  }
  if (!set_.IndexKey(key, static_cast<uint32_t>(offset))) return false;
  BinaryWriter(&set_.blob_).WriteBytes(key);
  ++set_.size_;
  return true;
}

MemberSet MemberSet::Builder::Finish() {
  // Trim the doubling slack back to the fixed 3/4 load: slots only, no key
  // is read again.
  if (set_.size_ == 0) {
    set_.index_.Release();
  } else if (set_.index_.capacity() != CapacityFor(set_.size_)) {
    set_.index_.Reindex(CapacityFor(set_.size_));
  }
  MemberSet done = std::move(set_);
  set_ = MemberSet();
  return done;
}

// --- DeltaTable --------------------------------------------------------------

std::optional<bool> DeltaTable::Find(std::string_view key) const {
  if (size_ == 0) return std::nullopt;
  const KeyIndex::Slot& slot =
      index_.Probe(blob_, key, KeyIndex::Fingerprint(key));
  if (slot.fingerprint == 0) return std::nullopt;
  return blob_[slot.offset + kLenBytes + key.size()] != 0;
}

bool DeltaTable::Upsert(std::string_view key, bool inserted) {
  const char state = inserted ? 1 : 0;
  const uint32_t fingerprint = KeyIndex::Fingerprint(key);
  if (index_.capacity() < CapacityFor(size_ + 1)) {
    index_.Reindex(std::max(CapacityFor(size_ + 1), 2 * index_.capacity()));
  }
  KeyIndex::Slot& slot = index_.Probe(blob_, key, fingerprint);
  if (slot.fingerprint != 0) {
    blob_[slot.offset + kLenBytes + key.size()] = state;
    return false;
  }
  const size_t offset = blob_.size();
  if (offset > kMaxOffset) {
    throw std::length_error("DeltaTable: the delta's keys exceed 4 GiB");
  }
  slot = KeyIndex::Slot{fingerprint, static_cast<uint32_t>(offset)};
  BinaryWriter(&blob_).WriteBytes(key);
  blob_.push_back(state);
  ++size_;
  return true;
}

size_t DeltaTable::Drop(
    const std::vector<std::pair<std::string, bool>>& captured) {
  if (size_ == 0) return 0;
  size_t dropped = 0;
  for (const auto& [key, inserted] : captured) {
    const KeyIndex::Slot& slot =
        index_.Probe(blob_, key, KeyIndex::Fingerprint(key));
    if (slot.fingerprint == 0) continue;
    char& state = blob_[slot.offset + kLenBytes + key.size()];
    if (state == (inserted ? 1 : 0)) {
      state = kDropped;
      ++dropped;
    }
  }
  return dropped;
}

void DeltaTable::Sweep() {
  DeltaTable kept;
  for (const char* pos = blob_.data(); pos != blob_.data() + blob_.size();) {
    const std::string_view key = KeyIndex::KeyAt(pos);
    const char state = key.data()[key.size()];
    if (state != kDropped) kept.Upsert(key, state != 0);
    pos += kLenBytes + key.size() + 1;
  }
  *this = std::move(kept);
}

void DeltaTable::AppendPayload(std::string* out) const {
  BinaryWriter(out).WriteU64(size_);
  out->append(blob_);
}

std::optional<DeltaTable> DeltaTable::ParsePayload(std::string_view payload) {
  BinaryReader reader(payload);
  const uint64_t count = reader.ReadU64();
  // Every entry costs at least its length prefix and its state byte.
  if (!reader.ok() || count > reader.remaining() / (kLenBytes + 1)) {
    return std::nullopt;
  }
  const std::string_view rest = payload.substr(kLenBytes);
  size_t end = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (end > kMaxOffset || rest.size() - end < kLenBytes) return std::nullopt;
    uint64_t len;
    std::memcpy(&len, rest.data() + end, kLenBytes);
    end += kLenBytes;
    if (len >= rest.size() - end) return std::nullopt;
    end += static_cast<size_t>(len);
    if (static_cast<uint8_t>(rest[end]) > 1) return std::nullopt;
    ++end;
  }
  if (end != rest.size()) return std::nullopt;

  DeltaTable table;
  table.blob_.reserve(end);
  if (count > 0) table.index_.Reindex(CapacityFor(static_cast<size_t>(count)));
  for (size_t offset = 0; offset < end;) {
    const std::string_view key = KeyIndex::KeyAt(rest.data() + offset);
    table.Upsert(key, key.data()[key.size()] != 0);
    offset += kLenBytes + key.size() + 1;
  }
  return table;
}

}  // namespace habf
