// Copyright 2026 The skewsearch Authors.
// 64-bit mixing / finalization primitives.
//
// These are the raw building blocks for the path hashes of Section 3 of the
// paper: fast avalanche mixers used to (a) derive path keys incrementally
// and (b) produce per-(path, item) uniform values in [0,1). A genuinely
// pairwise-independent alternative lives in hashing/pairwise.h.
//
// Everything here is inline: the path engine evaluates these once per
// hash draw, so a call per mix would cost as much as the mix itself.

#ifndef SKEWSEARCH_HASHING_MIX_H_
#define SKEWSEARCH_HASHING_MIX_H_

#include <cmath>
#include <cstdint>

namespace skewsearch {

/// MurmurHash3 fmix64 finalizer: bijective avalanche mix of 64 bits.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// xxHash3-style avalanche (distinct constants from Mix64).
inline uint64_t Avalanche64(uint64_t x) {
  x ^= x >> 37;
  x *= 0x165667919e3779f9ULL;
  x ^= x >> 32;
  return x;
}

/// Combines two words into one well-mixed word (non-commutative, so order
/// matters — required for hashing *ordered* paths).
inline uint64_t MixPair(uint64_t a, uint64_t b) {
  // Asymmetric combination: rotating one side breaks commutativity so that
  // MixPair(a, b) != MixPair(b, a) in general.
  uint64_t x = a + 0x9e3779b97f4a7c15ULL;
  x ^= (b << 23) | (b >> 41);
  x = Mix64(x);
  x += b;
  return Avalanche64(x);
}

/// Maps 64 random bits to a double uniform in [0, 1) (53-bit mantissa).
inline double ToUnitInterval(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// One past the largest value of `bits >> 11`: the cutoff that rejects
/// nothing.
inline constexpr uint64_t kUnitIntervalOne = uint64_t{1} << 53;

/// The integer form of a comparison against ToUnitInterval: for every
/// \p bits and every double \p t,
///
///   (t < 1.0 && ToUnitInterval(bits) >= t)  <=>  (bits >> 11) >= UnitCutoff(t)
///
/// so t >= 1 and NaN map to kUnitIntervalOne (never true), t <= 0 to 0
/// (always true), and t in (0, 1) to ceil(t * 2^53) — exact, because
/// ToUnitInterval is (bits >> 11) * 2^-53 and scaling by a power of two
/// loses nothing.
inline uint64_t UnitCutoff(double t) {
  if (!(t < 1.0)) return kUnitIntervalOne;
  if (!(t > 0.0)) return 0;
  return static_cast<uint64_t>(std::ceil(t * 0x1.0p53));
}

}  // namespace skewsearch

#endif  // SKEWSEARCH_HASHING_MIX_H_
