#include "hashing/path_hasher.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hashing/mix.h"

namespace skewsearch {
namespace {

TEST(PathHasherTest, RootKeysDifferAcrossRepetitions) {
  PathHasher hasher(42, 16);
  std::set<uint64_t> roots;
  for (uint32_t rep = 0; rep < 100; ++rep) {
    roots.insert(hasher.RootKey(rep));
  }
  EXPECT_EQ(roots.size(), 100u);
}

TEST(PathHasherTest, RootKeysDifferAcrossSeeds) {
  PathHasher a(1, 16), b(2, 16);
  EXPECT_NE(a.RootKey(0), b.RootKey(0));
}

TEST(PathHasherTest, ExtendKeyOrderSensitive) {
  PathHasher hasher(42, 16);
  uint64_t root = hasher.RootKey(0);
  uint64_t ab = hasher.ExtendKey(hasher.ExtendKey(root, 1), 2);
  uint64_t ba = hasher.ExtendKey(hasher.ExtendKey(root, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(PathHasherTest, ExtendKeyDistinctItems) {
  PathHasher hasher(42, 16);
  uint64_t root = hasher.RootKey(0);
  std::set<uint64_t> keys;
  for (uint32_t item = 0; item < 10000; ++item) {
    keys.insert(hasher.ExtendKey(root, item));
  }
  EXPECT_EQ(keys.size(), 10000u);
}

TEST(PathHasherTest, LevelDrawDeterministic) {
  PathHasher hasher(42, 16);
  EXPECT_DOUBLE_EQ(hasher.LevelDraw(1, 777, 3), hasher.LevelDraw(1, 777, 3));
}

TEST(PathHasherTest, LevelDrawInUnitInterval) {
  PathHasher hasher(42, 16);
  for (uint32_t item = 0; item < 1000; ++item) {
    double u = hasher.LevelDraw(1 + (item % 16), item * 17, item);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PathHasherTest, LevelDrawVariesWithLevel) {
  PathHasher hasher(42, 16);
  int equal = 0;
  for (int level = 1; level < 16; ++level) {
    if (hasher.LevelDraw(level, 12345, 7) ==
        hasher.LevelDraw(level + 1, 12345, 7)) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(PathHasherTest, LevelDrawUniformMean) {
  PathHasher hasher(42, 16);
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += hasher.LevelDraw(1 + (i % 16),
                            static_cast<uint64_t>(i) * 2654435761ULL,
                            static_cast<uint32_t>(i % 977));
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(PathHasherTest, DrawRateMatchesThreshold) {
  // Fraction of draws below a threshold s should be ~s — this is the
  // property the sampling recursion relies on.
  PathHasher hasher(123, 16);
  for (double s : {0.05, 0.2, 0.5}) {
    int below = 0;
    const int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) {
      if (hasher.LevelDraw(3, static_cast<uint64_t>(i) * 7919 + 1,
                           static_cast<uint32_t>(i % 1009)) < s) {
        ++below;
      }
    }
    EXPECT_NEAR(static_cast<double>(below) / kDraws, s, 0.01)
        << "threshold " << s;
  }
}

TEST(PathHasherTest, PairwiseEngineAlsoUniform) {
  PathHasher hasher(321, 16, HashEngine::kPairwise);
  double sum = 0.0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double u = hasher.LevelDraw(1 + (i % 16),
                                static_cast<uint64_t>(i) * 104729 + 3,
                                static_cast<uint32_t>(i % 499));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(PathHasherTest, EnginesProduceDifferentDraws) {
  PathHasher mixer(42, 16, HashEngine::kMixer);
  PathHasher pairwise(42, 16, HashEngine::kPairwise);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (mixer.LevelDraw(1, static_cast<uint64_t>(i), 5) ==
        pairwise.LevelDraw(1, static_cast<uint64_t>(i), 5)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(PathHasherTest, SharedPrefixConsistency) {
  // The core correctness property: two parties extending the same path
  // prefix with the same item observe the same draw, regardless of which
  // vector they are processing.
  PathHasher hasher(42, 16);
  uint64_t path_of_x = hasher.ExtendKey(hasher.RootKey(3), 17);
  uint64_t path_of_q = hasher.ExtendKey(hasher.RootKey(3), 17);
  EXPECT_EQ(path_of_x, path_of_q);
  EXPECT_DOUBLE_EQ(hasher.LevelDraw(2, path_of_x, 99),
                   hasher.LevelDraw(2, path_of_q, 99));
}

TEST(PathHasherTest, KnownAnswers) {
  // Frozen outputs at a fixed seed, independent of any index file: the
  // keys and draws of every saved index depend on them. Level 13 wraps
  // to the first level function (max_level 12).
  for (HashEngine engine : {HashEngine::kMixer, HashEngine::kPairwise}) {
    PathHasher hasher(20260417, 12, engine);
    const uint64_t root0 = hasher.RootKey(0);
    const uint64_t root7 = hasher.RootKey(7);
    const uint64_t ext1 = hasher.ExtendKey(root0, 17);
    const uint64_t ext2 = hasher.ExtendKey(ext1, 4093);
    EXPECT_EQ(root0, 0x6574416301a8a85bULL);
    EXPECT_EQ(root7, 0x57d694df557e4c3aULL);
    EXPECT_EQ(ext1, 0x3cedda0d7b9f052eULL);
    EXPECT_EQ(ext2, 0x4b0abad3ab988b09ULL);
    const double draws[4] = {
        hasher.LevelDraw(1, root0, 17), hasher.LevelDraw(2, ext1, 4093),
        hasher.LevelDraw(12, ext2, 5), hasher.LevelDraw(13, root7, 0)};
    if (engine == HashEngine::kMixer) {
      EXPECT_EQ(draws[0], 0x1.89a13b1ce00e6p-1);
      EXPECT_EQ(draws[1], 0x1.12ebd5d7a1b9p-2);
      EXPECT_EQ(draws[2], 0x1.93c3e0aa0ed1fp-1);
      EXPECT_EQ(draws[3], 0x1.97c47111308a2p-1);
    } else {
      EXPECT_EQ(draws[0], 0x1.5d0c484162a42p-1);
      EXPECT_EQ(draws[1], 0x1.06f31dd1e782p-1);
      EXPECT_EQ(draws[2], 0x1.1e3ffd5328ee6p-3);
      EXPECT_EQ(draws[3], 0x1.b27c750814ccbp-1);
    }
  }
}

TEST(PathHasherTest, PremixedFormsMatch) {
  // The path engine mixes each item once and combines it per draw; the
  // composed forms must equal ExtendKey / LevelDraw exactly.
  for (HashEngine engine : {HashEngine::kMixer, HashEngine::kPairwise}) {
    PathHasher hasher(99, 7, engine);
    for (uint32_t i = 0; i < 2000; ++i) {
      const uint64_t key = Mix64(i) ^ hasher.RootKey(i % 5);
      const uint32_t item = i * 2654435761u;
      const int level = 1 + static_cast<int>(i % 9);
      EXPECT_EQ(hasher.ExtendKey(key, item),
                PathHasher::ExtendKeyMixed(key,
                                           PathHasher::ExtendItemMix(item)));
      const uint64_t child = PathHasher::DrawChild(
          key, hasher.LevelSalt(level), PathHasher::DrawItemMix(item));
      const PairwiseHash* pairwise = hasher.LevelPairwise(level);
      double draw = ToUnitInterval(PathHasher::MixerDrawBits(child));
      if (pairwise != nullptr) draw = pairwise->HashUnit(child);
      EXPECT_EQ(hasher.LevelDraw(level, key, item), draw);
      EXPECT_EQ(pairwise != nullptr, engine == HashEngine::kPairwise);
    }
  }
}

}  // namespace
}  // namespace skewsearch
