#include "hashing/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "hashing/hash_function.h"

namespace habf {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;  // reflected IEEE polynomial

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the classic byte table. tables[k][b] is the CRC of byte b
// followed by k zero bytes, so one step folds 8 input bytes with 8
// independent lookups instead of a chain of 8 dependent ones.
constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

/// Slicing-by-8 over the CRC register itself (no pre/post inversion), so the
/// fold can hand its register to it for the tail.
uint32_t UpdatePortable(uint32_t crc, const uint8_t* p, size_t len) {
  // Little-endian loads, like every other fixed-width field in the wire
  // and snapshot formats (util/serde.h): byte 0 lands in the low bits. The
  // lookups of the high word do not depend on `crc`, so they go first and
  // overlap the previous step; only the low word's four sit on the chain.
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t low;
    uint32_t high;
    std::memcpy(&low, p, 4);
    std::memcpy(&high, p + 4, 4);
    low ^= crc;
    crc = kTables[3][high & 0xFFu] ^ kTables[2][(high >> 8) & 0xFFu] ^
          kTables[1][(high >> 16) & 0xFFu] ^ kTables[0][high >> 24] ^
          kTables[7][low & 0xFFu] ^ kTables[6][(low >> 8) & 0xFFu] ^
          kTables[5][(low >> 16) & 0xFFu] ^ kTables[4][low >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)

// Folding constants for the reflected IEEE polynomial (Gopal et al., Intel,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ", 2009).
// Each is x^n mod P(x), bit-reflected and shifted left by one, for the fold
// distance n it serves: 4x128 bits per step of the main loop, 128 bits when
// the four lanes collapse into one, then 64 and 32 bits down to the final
// Barrett reduction by P(x) and its quotient u = floor(x^64 / P(x)).
constexpr uint64_t kFold512Low = 0x154442BD4u;   // x^(4*128+32) mod P
constexpr uint64_t kFold512High = 0x1C6E41596u;  // x^(4*128-32) mod P
constexpr uint64_t kFold128Low = 0x1751997D0u;   // x^(128+32) mod P
constexpr uint64_t kFold128High = 0x0CCAA009Eu;  // x^(128-32) mod P
constexpr uint64_t kFold64 = 0x163CD6124u;       // x^64 mod P
constexpr uint64_t kPolyReflected = 0x1DB710641u;
constexpr uint64_t kBarrettMu = 0x1F7011641u;

#define HABF_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

HABF_CLMUL_TARGET inline __m128i Load(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Multiplies the low and high halves of `x` by the two constants of `k`
/// and adds (xors) the products into `next`: `x` carried forward by the
/// fold distance of `k`, onto the data that follows it.
HABF_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i low = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i high = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(low, high), next);
}

/// Carry-less-multiply fold of `len` bytes (a multiple of 16, at least 64)
/// into the CRC register `crc`; returns the register after them.
HABF_CLMUL_TARGET uint32_t UpdateClmul(uint32_t crc, const uint8_t* p,
                                       size_t len) {
  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  len -= 64;

  const __m128i k512 = _mm_set_epi64x(kFold512High, kFold512Low);
  for (; len >= 64; p += 64, len -= 64) {
    x0 = Fold(x0, k512, Load(p));
    x1 = Fold(x1, k512, Load(p + 16));
    x2 = Fold(x2, k512, Load(p + 32));
    x3 = Fold(x3, k512, Load(p + 48));
  }

  const __m128i k128 = _mm_set_epi64x(kFold128High, kFold128Low);
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = Fold(x0, k128, Load(p));

  // 128 -> 64 bits: the low half times x^(128-32) lands on the high half,
  // which appends 32 zero bits to the message.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k128, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 -> 32 bits plus the 32-bit shift: the low word times x^64.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, kFold64), 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction of the remaining 64 bits by P(x).
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kPolyReflected);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef HABF_CLMUL_TARGET

bool DetectClmul() {
  // Runs from a static initializer, possibly before the CPU model the
  // feature tests read has been filled in.
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

uint32_t UpdateClmul(uint32_t crc, const uint8_t* p, size_t len) {
  return UpdatePortable(crc, p, len);
}

bool DetectClmul() { return false; }

#endif

/// Inputs shorter than this never reach the fold, which starts from four
/// 16-byte lanes.
constexpr size_t kClmulMinBytes = 64;

// Chosen once, at start-up. A Crc32 call from another static initializer
// that runs before this one reads false and takes the portable loop, which
// returns the same value.
const bool kHasClmul = DetectClmul();

}  // namespace

uint32_t Crc32Portable(const void* data, size_t len, uint32_t init) {
  return ~UpdatePortable(~init, static_cast<const uint8_t*>(data), len);
}

bool Crc32HasClmul() { return kHasClmul; }

uint32_t Crc32Clmul(const void* data, size_t len, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  if (len >= kClmulMinBytes) {
    const size_t folded = len & ~size_t{15};
    crc = UpdateClmul(crc, p, folded);
    p += folded;
    len -= folded;
  }
  return ~UpdatePortable(crc, p, len);
}

uint32_t Crc32(const void* data, size_t len, uint32_t init) {
  return kHasClmul ? Crc32Clmul(data, len, init)
                   : Crc32Portable(data, len, init);
}

uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed) {
  const uint32_t crc =
      Crc32(data, len, static_cast<uint32_t>(seed ^ (seed >> 32)));
  return Fmix64(crc ^ (seed << 32) ^ len);
}

}  // namespace habf
