#include "bloom/xor_filter.h"

#include <cassert>

#include "hashing/xxhash.h"
#include "util/serde.h"

namespace habf {
namespace {

// Maps a 64-bit hash slice onto [0, n) without modulo bias.
inline size_t Reduce(uint64_t x, size_t n) {
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(x) * n) >> 64);
}

inline uint64_t Rotl64(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

}  // namespace

XorFilter::XorFilter(size_t segment_length, unsigned fingerprint_bits,
                     uint64_t seed)
    : segment_length_(segment_length),
      fingerprint_bits_(fingerprint_bits),
      seed_(seed),
      slots_(3 * segment_length * fingerprint_bits) {}

XorFilter::Slots3 XorFilter::SlotsOf(std::string_view key) const {
  const uint64_t h = XxHash64(key.data(), key.size(), seed_);
  return {Reduce(h, segment_length_),
          segment_length_ + Reduce(Rotl64(h, 21), segment_length_),
          2 * segment_length_ + Reduce(Rotl64(h, 42), segment_length_)};
}

uint64_t XorFilter::Fingerprint(std::string_view key) const {
  const uint64_t h = XxHash64(key.data(), key.size(), seed_ ^ 0xf1e2d3c4b5a69788ULL);
  const uint64_t mask = fingerprint_bits_ == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << fingerprint_bits_) - 1;
  // Reserve 0 so a key probing three never-assigned slots cannot match;
  // this costs a 2^-w sliver of the fingerprint space.
  uint64_t fp = h & mask;
  if (fp == 0) fp = 1;
  return fp;
}

std::optional<XorFilter> XorFilter::Build(const std::vector<std::string>& keys,
                                          unsigned fingerprint_bits,
                                          uint64_t seed, int max_attempts) {
  assert(fingerprint_bits >= 1 && fingerprint_bits <= 32);
  const size_t n = keys.size();
  // Standard sizing: 1.23n + 32 slots split into three equal segments.
  const size_t capacity = static_cast<size_t>(1.23 * static_cast<double>(n)) + 32;
  const size_t segment_length = (capacity + 2) / 3;

  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    XorFilter filter(segment_length, fingerprint_bits,
                     seed + static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ULL);
    const size_t num_slots = filter.num_slots();

    // Peeling state: per-slot xor of incident key ids and degree counts.
    std::vector<uint64_t> xor_ids(num_slots, 0);
    std::vector<uint32_t> degree(num_slots, 0);
    std::vector<Slots3> key_slots(n);

    for (size_t i = 0; i < n; ++i) {
      key_slots[i] = filter.SlotsOf(keys[i]);
      for (size_t s : {key_slots[i].h0, key_slots[i].h1, key_slots[i].h2}) {
        xor_ids[s] ^= i;
        ++degree[s];
      }
    }

    // Queue of degree-1 slots; peel to a stack of (key, slot) pairs.
    std::vector<size_t> queue;
    queue.reserve(num_slots);
    for (size_t s = 0; s < num_slots; ++s) {
      if (degree[s] == 1) queue.push_back(s);
    }

    std::vector<std::pair<uint64_t, size_t>> stack;  // (key index, slot)
    stack.reserve(n);
    while (!queue.empty()) {
      const size_t slot = queue.back();
      queue.pop_back();
      if (degree[slot] != 1) continue;
      const uint64_t key_idx = xor_ids[slot];
      stack.emplace_back(key_idx, slot);
      for (size_t s : {key_slots[key_idx].h0, key_slots[key_idx].h1,
                       key_slots[key_idx].h2}) {
        xor_ids[s] ^= key_idx;
        --degree[s];
        if (degree[s] == 1) queue.push_back(s);
      }
    }

    if (stack.size() != n) continue;  // cyclic hypergraph; reseed

    // Assign fingerprints in reverse peeling order.
    const unsigned w = fingerprint_bits;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const uint64_t key_idx = it->first;
      const size_t slot = it->second;
      const Slots3& s3 = key_slots[key_idx];
      uint64_t value = filter.Fingerprint(keys[key_idx]);
      value ^= filter.slots_.GetField(s3.h0 * w, w);
      value ^= filter.slots_.GetField(s3.h1 * w, w);
      value ^= filter.slots_.GetField(s3.h2 * w, w);
      // Undo the double count of `slot` itself (its current value is part of
      // the xor above), then store.
      value ^= filter.slots_.GetField(slot * w, w);
      filter.slots_.SetField(slot * w, w, value);
    }
    return filter;
  }
  return std::nullopt;
}

bool XorFilter::MightContain(std::string_view key) const {
  const Slots3 s3 = SlotsOf(key);
  const unsigned w = fingerprint_bits_;
  const uint64_t stored = slots_.GetField(s3.h0 * w, w) ^
                          slots_.GetField(s3.h1 * w, w) ^
                          slots_.GetField(s3.h2 * w, w);
  return stored == Fingerprint(key);
}

size_t XorFilter::ContainsBatch(KeySpan keys, uint8_t* out) const {
  constexpr size_t kBlock = 32;
  const unsigned w = fingerprint_bits_;
  const uint64_t* words = slots_.words().data();
  Slots3 slots[kBlock];
  uint64_t fps[kBlock];
  size_t positives = 0;
  for (size_t base = 0; base < keys.size(); base += kBlock) {
    const size_t count =
        keys.size() - base < kBlock ? keys.size() - base : kBlock;
    // Stage 1: hash the block; prefetch each key's three slot words.
    for (size_t i = 0; i < count; ++i) {
      slots[i] = SlotsOf(keys[base + i]);
      fps[i] = Fingerprint(keys[base + i]);
      __builtin_prefetch(&words[slots[i].h0 * w >> 6], 0, 3);
      __builtin_prefetch(&words[slots[i].h1 * w >> 6], 0, 3);
      __builtin_prefetch(&words[slots[i].h2 * w >> 6], 0, 3);
    }
    // Stage 2: xor-probe against the now-cached words.
    for (size_t i = 0; i < count; ++i) {
      const uint64_t stored = slots_.GetField(slots[i].h0 * w, w) ^
                              slots_.GetField(slots[i].h1 * w, w) ^
                              slots_.GetField(slots[i].h2 * w, w);
      const bool hit = stored == fps[i];
      out[base + i] = hit ? 1 : 0;
      positives += hit ? 1 : 0;
    }
  }
  return positives;
}

namespace {
constexpr uint32_t kXorMagic = 0x46524F58;  // "XORF" (legacy format)
constexpr uint32_t kXorVersion = 1;

// HBF1 content + section tags for an XorFilter snapshot (DESIGN.md §10).
constexpr uint32_t kXorContentTag = FourCc("XORF");
constexpr uint32_t kXorConfigTag = FourCc("XCFG");
constexpr uint32_t kXorSlotsTag = FourCc("SLOT");

struct XorSnapshotFields {
  uint64_t segment_length = 0;
  uint32_t fingerprint_bits = 0;
  uint64_t seed = 0;
  std::vector<uint64_t> words;
};

bool ParseLegacyXorSnapshot(std::string_view data, XorSnapshotFields* fields) {
  BinaryReader reader(data);
  if (reader.ReadU32() != kXorMagic) return false;
  if (reader.ReadU32() != kXorVersion) return false;
  fields->segment_length = reader.ReadU64();
  fields->fingerprint_bits = reader.ReadU32();
  fields->seed = reader.ReadU64();
  fields->words = reader.ReadWords();
  return reader.ok();
}

bool ParseHbf1XorSnapshot(std::string_view data, XorSnapshotFields* fields) {
  const std::optional<SectionReader> container = SectionReader::Parse(data);
  if (!container.has_value() || container->content_tag() != kXorContentTag) {
    return false;
  }
  const std::optional<std::string_view> config =
      container->Find(kXorConfigTag);
  const std::optional<std::string_view> slots = container->Find(kXorSlotsTag);
  if (!config.has_value() || !slots.has_value()) return false;
  BinaryReader config_reader(*config);
  fields->segment_length = config_reader.ReadU64();
  fields->fingerprint_bits = config_reader.ReadU32();
  fields->seed = config_reader.ReadU64();
  if (!config_reader.ok() || config_reader.remaining() != 0) return false;
  BinaryReader slots_reader(*slots);
  fields->words = slots_reader.ReadWords();
  return slots_reader.ok() && slots_reader.remaining() == 0;
}
}  // namespace

void XorFilter::Serialize(std::string* out) const {
  std::string config;
  BinaryWriter config_writer(&config);
  config_writer.WriteU64(segment_length_);
  config_writer.WriteU32(fingerprint_bits_);
  config_writer.WriteU64(seed_);
  std::string slots;
  BinaryWriter(&slots).WriteWords(slots_.words());
  SectionWriter container(out, kXorContentTag);
  container.AddSection(kXorConfigTag, config);
  container.AddSection(kXorSlotsTag, slots);
  container.Finish();
}

std::optional<XorFilter> XorFilter::Deserialize(std::string_view data) {
  XorSnapshotFields fields;
  const bool parsed = SectionReader::LooksLikeContainer(data)
                          ? ParseHbf1XorSnapshot(data, &fields)
                          : ParseLegacyXorSnapshot(data, &fields);
  if (!parsed || fields.segment_length == 0 || fields.fingerprint_bits < 1 ||
      fields.fingerprint_bits > 32) {
    return std::nullopt;
  }
  XorFilter filter(fields.segment_length, fields.fingerprint_bits,
                   fields.seed);
  if (!filter.slots_.LoadWords(std::move(fields.words))) return std::nullopt;
  return filter;
}

unsigned XorFilter::FingerprintBitsForBudget(size_t total_bits,
                                             size_t num_keys) {
  if (num_keys == 0) return 8;
  const double b = static_cast<double>(total_bits) /
                   static_cast<double>(num_keys);
  double w = b / 1.23 + 32.0 / static_cast<double>(num_keys);
  if (w < 1.0) w = 1.0;
  if (w > 32.0) w = 32.0;
  return static_cast<unsigned>(w);
}

}  // namespace habf
