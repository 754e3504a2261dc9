#include "hashing/crc32.h"

#include <array>
#include <cstring>

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

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
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
  return ~crc;
}

uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed) {
  const uint32_t crc =
      Crc32(data, len, static_cast<uint32_t>(seed ^ (seed >> 32)));
  return Fmix64(crc ^ (seed << 32) ^ len);
}

}  // namespace habf
