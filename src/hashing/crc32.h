// Software CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8
// (Kounavis & Berry, ISCC 2005): eight compile-time 256-entry tables fold
// eight input bytes per step, and a byte-at-a-time loop takes the tail. The
// result is bit-identical to the bit-serial reflected definition for every
// (data, len, init), which tests/hashing_test.cc checks against such an
// oracle.
//
// It is hot twice over: every HNP1 frame body is CRC'd on encode and on
// decode, and crc32 is a Table II family member, so whenever it is one of
// a filter's H0 functions every key pays one CRC in round 1. HBF1
// sections and WAL records are checked with it as well. The family adapter
// widens the 32-bit CRC with Fmix64 and folds the seed into the initial
// register.

#pragma once

#include <cstddef>
#include <cstdint>

namespace habf {

/// Raw CRC-32 (IEEE, reflected) of the buffer with initial register `init`.
/// Chains: Crc32(b, lb, Crc32(a, la)) is the CRC of `a` followed by `b`.
uint32_t Crc32(const void* data, size_t len, uint32_t init = 0);

/// Family-signature adapter: seeded, widened CRC-32.
uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed);

}  // namespace habf
