#include "hashing/mix.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace {

TEST(Mix64Test, Deterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_NE(Mix64(12345), Mix64(12346));
}

TEST(Mix64Test, BijectiveOnSample) {
  // fmix64 is a bijection; no collisions on any sample.
  std::set<uint64_t> outputs;
  for (uint64_t x = 0; x < 10000; ++x) outputs.insert(Mix64(x));
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Mix64Test, AvalancheOnSingleBitFlips) {
  // Flipping one input bit should flip ~32 of 64 output bits.
  int total_flips = 0;
  const int kTrials = 64 * 100;
  for (uint64_t x = 1; x <= 100; ++x) {
    for (int bit = 0; bit < 64; ++bit) {
      uint64_t diff = Mix64(x) ^ Mix64(x ^ (uint64_t{1} << bit));
      total_flips += __builtin_popcountll(diff);
    }
  }
  double avg = static_cast<double>(total_flips) / kTrials;
  EXPECT_NEAR(avg, 32.0, 1.5);
}

TEST(Avalanche64Test, DeterministicAndDistinctFromMix64) {
  EXPECT_EQ(Avalanche64(777), Avalanche64(777));
  // Both finalizers fix 0 (xor/multiply structure), so start from 1.
  int equal = 0;
  for (uint64_t x = 1; x <= 1000; ++x) {
    if (Avalanche64(x) == Mix64(x)) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(MixPairTest, OrderSensitive) {
  // Hashing ordered paths requires MixPair(a,b) != MixPair(b,a).
  int symmetric = 0;
  for (uint64_t a = 1; a <= 100; ++a) {
    uint64_t b = a * 7919 + 13;
    if (MixPair(a, b) == MixPair(b, a)) ++symmetric;
  }
  EXPECT_EQ(symmetric, 0);
}

TEST(MixPairTest, NoCollisionsOnGrid) {
  std::set<uint64_t> outputs;
  for (uint64_t a = 0; a < 100; ++a) {
    for (uint64_t b = 0; b < 100; ++b) outputs.insert(MixPair(a, b));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(ToUnitIntervalTest, RangeAndExtremes) {
  EXPECT_GE(ToUnitInterval(0), 0.0);
  EXPECT_LT(ToUnitInterval(~uint64_t{0}), 1.0);
  EXPECT_EQ(ToUnitInterval(0), 0.0);
}

TEST(ToUnitIntervalTest, UniformMean) {
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += ToUnitInterval(Mix64(static_cast<uint64_t>(i) + 1));
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(MixKnownAnswerTest, PinsOutputs) {
  // Frozen outputs: the path keys of every saved index depend on them.
  EXPECT_EQ(Mix64(0x0123456789abcdefULL), 0x87cbfbfe89022ceaULL);
  EXPECT_EQ(Avalanche64(0x0123456789abcdefULL), 0x653196ee4f4a174aULL);
  EXPECT_EQ(MixPair(0x0123456789abcdefULL, 42), 0xb37e5880e59ba1dfULL);
}

// The comparison the path engine replaces: a draw rejects when it is at
// or above the threshold.
bool DoubleRejects(uint64_t bits, double t) {
  return ToUnitInterval(bits) >= t;
}

bool CutoffRejects(uint64_t bits, double t) {
  return (bits >> 11) >= UnitCutoff(t);
}

// Checks \p t against bit patterns whose top 53 bits sit at and around
// the cutoff, with random low bits (which both forms must ignore).
void CheckAroundCutoff(double t, Rng* rng) {
  const uint64_t cut = UnitCutoff(t);
  for (int64_t delta = -2; delta <= 2; ++delta) {
    const int64_t m = static_cast<int64_t>(cut) + delta;
    if (m < 0 || m >= static_cast<int64_t>(kUnitIntervalOne)) continue;
    for (int i = 0; i < 4; ++i) {
      const uint64_t bits =
          (static_cast<uint64_t>(m) << 11) | (rng->NextUint64() & 0x7ff);
      ASSERT_EQ(DoubleRejects(bits, t), CutoffRejects(bits, t))
          << "t=" << t << " m=" << m;
    }
  }
  for (uint64_t bits : {uint64_t{0}, ~uint64_t{0}, uint64_t{0x7ff},
                        uint64_t{1} << 63}) {
    ASSERT_EQ(DoubleRejects(bits, t), CutoffRejects(bits, t)) << "t=" << t;
  }
}

TEST(UnitCutoffTest, ExactAtGridPointsAndTheirNeighbours) {
  Rng rng(53);
  const uint64_t one = kUnitIntervalOne;
  std::vector<uint64_t> grid = {1, 2, 3, 1000, one / 2, one - 2, one - 1};
  grid.push_back(one / 2 + 1);
  for (int i = 0; i < 1000; ++i) {
    grid.push_back(1 + rng.NextBounded(kUnitIntervalOne - 1));
  }
  for (uint64_t k : grid) {
    const double t = static_cast<double>(k) * 0x1.0p-53;  // exact
    EXPECT_EQ(UnitCutoff(t), k);
    CheckAroundCutoff(t, &rng);
    CheckAroundCutoff(std::nextafter(t, 0.0), &rng);
    CheckAroundCutoff(std::nextafter(t, 1.0), &rng);
  }
}

TEST(UnitCutoffTest, SpecialValues) {
  Rng rng(54);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const double below_tiny = std::nextafter(tiny, 0.0);
  const double below_one = std::nextafter(1.0, 0.0);
  const double above_one = std::nextafter(1.0, 2.0);
  for (double t : {0.0, -0.0, -1.0, -inf, denorm, tiny, 1.0, 1.5, inf, nan}) {
    CheckAroundCutoff(t, &rng);
  }
  for (double t : {2 * denorm, below_tiny, 0x1.0p-60, 0x1.0p-53, below_one,
                   above_one, 1e300}) {
    CheckAroundCutoff(t, &rng);
  }
  // t <= 0 rejects every draw; t >= 1 and NaN accept every draw, as
  // `threshold < 1.0 && draw >= threshold` does.
  EXPECT_EQ(UnitCutoff(0.0), 0u);
  EXPECT_EQ(UnitCutoff(-inf), 0u);
  EXPECT_EQ(UnitCutoff(denorm), 1u);
  EXPECT_EQ(UnitCutoff(1.0), kUnitIntervalOne);
  EXPECT_EQ(UnitCutoff(inf), kUnitIntervalOne);
  EXPECT_EQ(UnitCutoff(nan), kUnitIntervalOne);
  EXPECT_EQ(UnitCutoff(below_one), kUnitIntervalOne - 1);
}

TEST(UnitCutoffTest, RandomBitPatterns) {
  // 10^6 random (bits, t) pairs: t is half the time a random double bit
  // pattern (any sign, exponent, NaN or infinity) and half the time a
  // draw value nudged by a few ulps, which lands near a cutoff.
  Rng rng(55);
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t bits = rng.NextUint64();
    double t;
    if (i % 2 == 0) {
      t = std::bit_cast<double>(rng.NextUint64());
    } else {
      t = ToUnitInterval(rng.NextUint64());
      for (uint64_t step = rng.NextBounded(4); step > 0; --step) {
        t = std::nextafter(t, i % 4 == 1 ? 0.0 : 1.0);
      }
    }
    ASSERT_EQ(DoubleRejects(bits, t), CutoffRejects(bits, t))
        << "bits=" << bits << " t=" << t;
  }
}

}  // namespace
}  // namespace skewsearch
