#include "hashing/hash_provider.h"

#include <cassert>

namespace habf {

GlobalHashProvider::GlobalHashProvider(size_t count, uint64_t seed)
    : count_(count), seed_(seed) {
  assert(count >= 1 && count <= HashFamily::Global().size());
}

DoubleHashProvider::DoubleHashProvider(size_t count, uint64_t seed)
    : count_(count),
      seed1_(seed ^ 0xA24BAED4963EE407ULL),
      seed2_(seed ^ 0x9FB21C651E98DF25ULL) {
  assert(count >= 1);
}

const char* DoubleHashProvider::Name(size_t idx) const {
  (void)idx;
  return "double-hash";
}

OnePassHashProvider::OnePassHashProvider(size_t count, uint64_t seed)
    : count_(count),
      seed1_(seed ^ 0xA24BAED4963EE407ULL),
      seed2_(seed ^ 0x9FB21C651E98DF25ULL) {
  assert(count >= 1);
}

const char* OnePassHashProvider::Name(size_t idx) const {
  (void)idx;
  return "one-pass";
}

}  // namespace habf
