// CRC-32 (IEEE 802.3 polynomial, reflected), the check of every HNP1 frame,
// HBF1 section and WAL record, and the crc32 member of the Table II family.
//
// Two kernels compute it, bit-identical for every (data, len, init):
//
// - The carry-less-multiply fold (Gopal et al., Intel, "Fast CRC Computation
//   for Generic Polynomials Using PCLMULQDQ", 2009): four 128-bit lanes fold
//   64 input bytes per step, then collapse and Barrett-reduce to 32 bits. It
//   covers the 16-byte-multiple prefix of inputs of 64 bytes or more and is
//   compiled only for x86-64, with a function-level target attribute, so
//   the library keeps its baseline -march.
// - Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight compile-time
//   256-entry tables fold eight bytes per step, and a byte-at-a-time loop
//   takes the rest. It computes every shorter input and the fold's tail,
//   all of Crc32 on CPUs without PCLMULQDQ, and is the reference the fold
//   is tested against.
//
// Crc32 picks the fold once, at start-up, when the CPU reports PCLMULQDQ and
// SSE4.1; nothing else selects it. tests/hashing_test.cc checks both kernels
// against a bit-serial oracle.
//
// It is hot twice over: every HNP1 frame body is CRC'd on encode and on
// decode, and whenever crc32 is one of a filter's H0 functions every key
// pays one CRC in round 1. The family adapter widens the 32-bit CRC with
// Fmix64 and folds the seed into the initial register.

#pragma once

#include <cstddef>
#include <cstdint>

namespace habf {

/// Raw CRC-32 (IEEE, reflected) of the buffer with initial register `init`.
/// Chains: Crc32(b, lb, Crc32(a, la)) is the CRC of `a` followed by `b`.
uint32_t Crc32(const void* data, size_t len, uint32_t init = 0);

/// Crc32 by slicing-by-8 alone: the fallback on CPUs without the fold and
/// the reference the fold is tested against.
uint32_t Crc32Portable(const void* data, size_t len, uint32_t init = 0);

/// True when this CPU runs the carry-less-multiply fold (x86-64 with
/// PCLMULQDQ and SSE4.1), i.e. when Crc32 uses it for inputs of 64 bytes
/// or more.
bool Crc32HasClmul();

/// Crc32 through the carry-less-multiply fold for every input of 64 bytes or
/// more, whatever Crc32 chose. Call only when Crc32HasClmul(); on other
/// targets it is Crc32Portable.
uint32_t Crc32Clmul(const void* data, size_t len, uint32_t init = 0);

/// Family-signature adapter: seeded, widened CRC-32.
uint64_t Crc32Hash(const void* data, size_t len, uint64_t seed);

}  // namespace habf
