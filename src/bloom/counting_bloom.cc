#include "bloom/counting_bloom.h"

#include <cassert>

namespace habf {

CountingBloomFilter::CountingBloomFilter(size_t num_counters, size_t k,
                                         uint64_t seed)
    : num_counters_(num_counters),
      k_(k),
      provider_(k, seed),
      counters_(num_counters * kCounterBits) {
  assert(num_counters >= 1);
  assert(k >= 1);
}

void CountingBloomFilter::Add(std::string_view key) {
  const DoubleHashProvider::Digests d = provider_.DigestsOf(key);
  for (size_t i = 0; i < k_; ++i) {
    const size_t pos = Position(d, i);
    const uint64_t c = CounterAt(pos);
    if (c < kCounterMax) SetCounter(pos, c + 1);
  }
}

void CountingBloomFilter::Remove(std::string_view key) {
  const DoubleHashProvider::Digests d = provider_.DigestsOf(key);
  for (size_t i = 0; i < k_; ++i) {
    const size_t pos = Position(d, i);
    const uint64_t c = CounterAt(pos);
    // Saturated counters must stay (we no longer know the true count);
    // decrementing them could introduce false negatives elsewhere. Zero
    // counters must stay too: the 4-bit field would wrap 0→15, fabricating
    // membership for every key that aliases the position (see the Remove
    // contract in counting_bloom.h).
    if (c > 0 && c < kCounterMax) SetCounter(pos, c - 1);
  }
}

bool CountingBloomFilter::MightContain(std::string_view key) const {
  const DoubleHashProvider::Digests d = provider_.DigestsOf(key);
  for (size_t i = 0; i < k_; ++i) {
    if (CounterAt(Position(d, i)) == 0) return false;
  }
  return true;
}

double CountingBloomFilter::FillRatio() const {
  size_t nonzero = 0;
  for (size_t i = 0; i < num_counters_; ++i) {
    if (CounterAt(i) != 0) ++nonzero;
  }
  return num_counters_ == 0 ? 0.0
                            : static_cast<double>(nonzero) /
                                  static_cast<double>(num_counters_);
}

}  // namespace habf
