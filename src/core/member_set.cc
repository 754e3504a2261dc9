#include "core/member_set.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "hashing/xxhash.h"
#include "util/serde.h"

namespace habf {
namespace {

/// Salt separating the member index's hash stream from the filters', the
/// shard router's and the delta front's.
constexpr uint64_t kMemberSalt = 0x4D454D42455253ULL;  // "MEMBERS"

constexpr size_t kLenBytes = sizeof(uint64_t);
constexpr size_t kMaxOffset = std::numeric_limits<uint32_t>::max();

}  // namespace

uint32_t MemberSet::Fingerprint(std::string_view key) {
  const uint32_t fingerprint =
      static_cast<uint32_t>(XxHash64(key.data(), key.size(), kMemberSalt));
  return fingerprint == 0 ? 1 : fingerprint;
}

bool MemberSet::IndexKey(std::string_view key, uint32_t fingerprint,
                         uint32_t offset) {
  size_t pos = HomeSlot(fingerprint);
  for (;;) {
    Slot& slot = index_[pos];
    if (slot.fingerprint == 0) {
      slot.fingerprint = fingerprint;
      slot.offset = offset;
      return true;
    }
    if (slot.fingerprint == fingerprint && KeyAt(slot.offset) == key) {
      return false;
    }
    if (++pos == index_.size()) pos = 0;
  }
}

void MemberSet::Reindex(size_t capacity) {
  std::vector<Slot> old(capacity);
  old.swap(index_);
  for (const Slot& slot : old) {
    if (slot.fingerprint == 0) continue;
    size_t pos = HomeSlot(slot.fingerprint);
    while (index_[pos].fingerprint != 0) {
      if (++pos == index_.size()) pos = 0;
    }
    index_[pos] = slot;
  }
}

bool MemberSet::Contains(std::string_view key) const {
  if (index_.empty()) return false;
  const uint32_t fingerprint = Fingerprint(key);
  size_t pos = HomeSlot(fingerprint);
  for (;;) {
    const Slot& slot = index_[pos];
    if (slot.fingerprint == 0) return false;
    if (slot.fingerprint == fingerprint && KeyAt(slot.offset) == key) {
      return true;
    }
    if (++pos == index_.size()) pos = 0;
  }
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
  if (count > 0) set.index_.resize(CapacityFor(static_cast<size_t>(count)));
  for (size_t offset = 0; offset < end;) {
    const std::string_view key = set.KeyAt(static_cast<uint32_t>(offset));
    if (!set.IndexKey(key, Fingerprint(key), static_cast<uint32_t>(offset))) {
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
  if (set_.index_.size() < CapacityFor(keys)) set_.Reindex(CapacityFor(keys));
}

bool MemberSet::Builder::Add(std::string_view key) {
  const size_t offset = set_.blob_.size();
  if (offset > kMaxOffset) {
    throw std::length_error("MemberSet: one shard's keys exceed 4 GiB");
  }
  if (set_.index_.size() < CapacityFor(set_.size_ + 1)) {
    set_.Reindex(std::max(CapacityFor(set_.size_ + 1), 2 * set_.index_.size()));
  }
  if (!set_.IndexKey(key, Fingerprint(key), static_cast<uint32_t>(offset))) {
    return false;
  }
  BinaryWriter(&set_.blob_).WriteBytes(key);
  ++set_.size_;
  return true;
}

MemberSet MemberSet::Builder::Finish() {
  // Trim the doubling slack back to the fixed 3/4 load: slots only, no key
  // is read again.
  if (set_.size_ == 0) {
    set_.index_.clear();
    set_.index_.shrink_to_fit();
  } else if (set_.index_.size() != CapacityFor(set_.size_)) {
    set_.Reindex(CapacityFor(set_.size_));
  }
  MemberSet done = std::move(set_);
  set_ = MemberSet();
  return done;
}

}  // namespace habf
