// Indexed hash providers used by the HABF core and the Bloom substrate.
//
// A provider presents N indexed hash functions over string keys. Three
// implementations:
//  * GlobalHashProvider — the first N distinct functions of Table II (the
//    paper's HABF).
//  * DoubleHashProvider — the Kirsch-Mitzenmacher simulated family
//    g_i(x) = h1(x) + (i+1) * h2(x), with two real xxHash64 digests per key
//    (the paper's f-HABF, §III-G).
//  * OnePassHashProvider — the same simulated family from one xxHash64 per
//    key: h2 is a mix of h1, and so is the HashExpressor's entry value. The
//    HABF default (DESIGN.md §3).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "hashing/hash_function.h"
#include "hashing/xxhash.h"

namespace habf {

/// Abstract family of `NumFunctions()` indexed hash functions.
class HashProvider {
 public:
  virtual ~HashProvider() = default;

  /// Number of indexable functions.
  virtual size_t NumFunctions() const = 0;

  /// Raw 64-bit value of function `idx` on `key`.
  virtual uint64_t Value(std::string_view key, size_t idx) const = 0;

  /// Batched evaluation: values of functions `idxs[0..n)` on `key` into
  /// `out`. Lets double-hashing providers amortize the two real digests.
  virtual void Values(std::string_view key, const uint8_t* idxs, size_t n,
                      uint64_t* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = Value(key, idxs[i]);
  }

  /// Display name of function `idx`.
  virtual const char* Name(size_t idx) const = 0;

  /// Raw value of the HashExpressor's dedicated entry function f seeded
  /// with `f_seed` (reduced mod ω to a key's first cell). By default an
  /// xxHash64 of the key of its own.
  virtual uint64_t EntryValue(std::string_view key, uint64_t f_seed) const {
    return XxHash64(key.data(), key.size(), f_seed);
  }
};

/// The two digests of a key under a double-hashing family: function i is
/// h1 + (i+1) * h2. The providers make h2 odd, so the stride is coprime to
/// any power-of-two modulus.
struct HashDigests {
  uint64_t h1;
  uint64_t h2;
  uint64_t Value(size_t idx) const {
    return h1 + (static_cast<uint64_t>(idx) + 1) * h2;
  }
  void Values(const uint8_t* idxs, size_t n, uint64_t* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = Value(idxs[i]);
  }
};

/// The first `count` distinct functions of the global Table II family.
class GlobalHashProvider final : public HashProvider {
 public:
  /// Exposes the first `count` (<= 22) functions, evaluated with `seed`.
  explicit GlobalHashProvider(size_t count, uint64_t seed = 0);

  size_t NumFunctions() const override { return count_; }
  uint64_t Value(std::string_view key, size_t idx) const override {
    return HashFamily::Global().Hash(idx, key, seed_);
  }
  const char* Name(size_t idx) const override {
    return HashFamily::Global().Name(idx);
  }

 private:
  size_t count_;
  uint64_t seed_;
};

/// Kirsch-Mitzenmacher double hashing over xxHash64: two real digests per
/// key, `count` simulated functions g_i = h1 + (i+1) * h2.
class DoubleHashProvider final : public HashProvider {
 public:
  explicit DoubleHashProvider(size_t count, uint64_t seed = 0);

  /// The two real digests of a key.
  using Digests = HashDigests;

  size_t NumFunctions() const override { return count_; }

  /// Both digests of `key`, for callers that evaluate many functions of it.
  Digests DigestsOf(std::string_view key) const {
    return {XxHash64(key.data(), key.size(), seed1_),
            XxHash64(key.data(), key.size(), seed2_) | 1u};
  }

  uint64_t Value(std::string_view key, size_t idx) const override {
    return DigestsOf(key).Value(idx);
  }

  void Values(std::string_view key, const uint8_t* idxs, size_t n,
              uint64_t* out) const override {
    DigestsOf(key).Values(idxs, n, out);
  }

  const char* Name(size_t idx) const override;

 private:
  size_t count_;
  uint64_t seed1_;
  uint64_t seed2_;
};

/// The one-pass digest family: h1 = xxHash64(key), h2 = Fmix64(h1 ^ s2) | 1,
/// `count` simulated functions g_i = h1 + (i+1) * h2, and the entry value
/// Fmix64(h1 ^ f_seed). A key is read once; everything else is mixing.
class OnePassHashProvider final : public HashProvider {
 public:
  explicit OnePassHashProvider(size_t count, uint64_t seed = 0);

  size_t NumFunctions() const override { return count_; }

  /// The key's digests: its one xxHash64 pass plus one mix.
  HashDigests DigestsOf(std::string_view key) const {
    const uint64_t h1 = XxHash64(key.data(), key.size(), seed1_);
    return {h1, Fmix64(h1 ^ seed2_) | 1u};
  }

  /// EntryValue() from the key's digests.
  static uint64_t EntryValueOf(const HashDigests& d, uint64_t f_seed) {
    return Fmix64(d.h1 ^ f_seed);
  }

  uint64_t Value(std::string_view key, size_t idx) const override {
    return DigestsOf(key).Value(idx);
  }

  void Values(std::string_view key, const uint8_t* idxs, size_t n,
              uint64_t* out) const override {
    DigestsOf(key).Values(idxs, n, out);
  }

  uint64_t EntryValue(std::string_view key, uint64_t f_seed) const override {
    return EntryValueOf(DigestsOf(key), f_seed);
  }

  const char* Name(size_t idx) const override;

 private:
  size_t count_;
  uint64_t seed1_;
  uint64_t seed2_;
};

}  // namespace habf
