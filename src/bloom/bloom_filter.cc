#include "bloom/bloom_filter.h"

#include <cassert>
#include <cmath>

namespace habf {

BloomFilter::BloomFilter(size_t num_bits, const HashProvider* provider,
                         std::vector<uint8_t> default_fns)
    : num_bits_(num_bits),
      provider_(provider),
      default_fns_(std::move(default_fns)),
      bits_(num_bits) {
  assert(num_bits > 0);
  assert(provider != nullptr);
  assert(!default_fns_.empty());
  for (uint8_t idx : default_fns_) {
    assert(idx < provider_->NumFunctions());
    (void)idx;
  }
}

void BloomFilter::Add(std::string_view key) {
  AddWith(key, default_fns_.data(), default_fns_.size());
}

bool BloomFilter::MightContain(std::string_view key) const {
  return TestWith(key, default_fns_.data(), default_fns_.size());
}

void BloomFilter::AddWith(std::string_view key, const uint8_t* fns, size_t n) {
  uint64_t values[32];
  assert(n <= 32);
  provider_->Values(key, fns, n, values);
  for (size_t i = 0; i < n; ++i) {
    bits_.Set(static_cast<size_t>(values[i] % num_bits_));
  }
}

bool BloomFilter::TestWith(std::string_view key, const uint8_t* fns,
                           size_t n) const {
  uint64_t values[32];
  assert(n <= 32);
  provider_->Values(key, fns, n, values);
  return TestValues(values, n);
}

SeededBloomFilter::SeededBloomFilter(size_t num_bits, size_t k, HashFn fn,
                                     uint64_t seed_base)
    : num_bits_(num_bits),
      k_(k),
      fn_(fn),
      seed_base_(seed_base),
      bits_(num_bits) {
  assert(num_bits > 0);
  assert(k >= 1);
}

void SeededBloomFilter::Add(std::string_view key) {
  for (size_t i = 0; i < k_; ++i) {
    const uint64_t v = fn_(key.data(), key.size(), seed_base_ + i);
    bits_.Set(static_cast<size_t>(v % num_bits_));
  }
}

bool SeededBloomFilter::MightContain(std::string_view key) const {
  for (size_t i = 0; i < k_; ++i) {
    const uint64_t v = fn_(key.data(), key.size(), seed_base_ + i);
    if (!bits_.Get(static_cast<size_t>(v % num_bits_))) return false;
  }
  return true;
}

size_t OptimalNumHashes(double bits_per_key, size_t max_k) {
  const double k = std::log(2.0) * bits_per_key;
  size_t rounded = static_cast<size_t>(std::lround(k));
  if (rounded < 1) rounded = 1;
  if (rounded > max_k) rounded = max_k;
  return rounded;
}

}  // namespace habf
