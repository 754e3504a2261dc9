#include "bloom/partitioned_bloom.h"

#include <cassert>

#include "hashing/xxhash.h"

namespace habf {
namespace {

std::vector<uint8_t> Iota(size_t k) {
  std::vector<uint8_t> fns(k);
  for (size_t i = 0; i < k; ++i) fns[i] = static_cast<uint8_t>(i);
  return fns;
}

}  // namespace

PartitionedBloomFilter::PartitionedBloomFilter(
    const std::vector<std::string>& positives, const Options& options)
    : options_(options),
      provider_(HashFamily::Global().size(), options.seed),
      filter_(options.num_bits, &provider_, Iota(options.k)) {
  assert(options.k >= 1 && options.k <= provider_.NumFunctions());
  assert(options.num_groups >= 1);
  uint8_t fns[32];
  for (const auto& key : positives) {
    GroupFns(GroupOf(key), fns);
    filter_.AddWith(key, fns, options_.k);
  }
}

size_t PartitionedBloomFilter::GroupOf(std::string_view key) const {
  const uint64_t h =
      XxHash64(key.data(), key.size(), options_.seed ^ 0x67726f7570ULL);
  return static_cast<size_t>(h % options_.num_groups);
}

void PartitionedBloomFilter::GroupFns(size_t group, uint8_t* fns) const {
  const size_t family = provider_.NumFunctions();
  for (size_t i = 0; i < options_.k; ++i) {
    fns[i] = static_cast<uint8_t>((group + i) % family);
  }
}

bool PartitionedBloomFilter::MightContain(std::string_view key) const {
  uint8_t fns[32];
  GroupFns(GroupOf(key), fns);
  return filter_.TestWith(key, fns, options_.k);
}

size_t PartitionedBloomFilter::ContainsBatch(KeySpan keys,
                                             uint8_t* out) const {
  return filter_.TestBatchValues(
      keys.size(), options_.k,
      [this, keys](size_t i, uint64_t* values) {
        uint8_t fns[32];
        GroupFns(GroupOf(keys[i]), fns);
        filter_.provider()->Values(keys[i], fns, options_.k, values);
      },
      out);
}

}  // namespace habf
