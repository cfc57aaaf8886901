// Copyright 2026 The skewsearch Authors.
// PathHasher: the randomness source of the chosen-path recursion.
//
// The paper (Section 3) fixes k hash functions h_j : [d]^j -> [0,1], one
// per path length, drawn from a pairwise-independent family. A path
// v = (i_1, ..., i_j) is extended by item i iff h_{j+1}(v o i) < s(x, j, i).
//
// We represent a path by a 64-bit *key* built incrementally:
//
//   key(empty, rep)   = Mix(seed, rep)            -- one root per repetition
//   key(v o i)        = MixPair(key(v), Mix(i))
//
// Distinct paths map to distinct keys up to 64-bit collisions (birthday
// bound; ~2^24 live paths => collision probability < 2^-16 per build, and a
// key collision can only *add* candidate checks, never lose the planted
// match, so correctness is unaffected).
//
// The level draw h_{j+1}(v o i) is a function of (level, key(v), i) only —
// crucially NOT of x — so data vectors and queries make identical decisions
// on identical path prefixes, which is what makes F(x) and F(q) intersect.

#ifndef SKEWSEARCH_HASHING_PATH_HASHER_H_
#define SKEWSEARCH_HASHING_PATH_HASHER_H_

#include <cstdint>
#include <vector>

#include "hashing/mix.h"
#include "hashing/pairwise.h"

namespace skewsearch {

/// Selects the hash engine behind the level draws.
enum class HashEngine {
  /// Seeded xxhash/murmur-style mixer. Fastest; passes our statistical
  /// independence tests; the default.
  kMixer,
  /// Degree-one polynomial over 2^61-1 applied to the mixed key: genuinely
  /// pairwise independent, matching the paper's assumption exactly.
  kPairwise,
};

/// \brief Deterministic randomness for path growth and path identity.
///
/// Thread-safe for concurrent reads after construction.
class PathHasher {
 public:
  /// \param seed   master seed; everything is a deterministic function of it.
  /// \param max_level  largest path length that will be queried.
  /// \param engine     hash engine for the level draws.
  PathHasher(uint64_t seed, int max_level,
             HashEngine engine = HashEngine::kMixer);

  /// Root key for repetition \p rep (the empty path of that repetition).
  uint64_t RootKey(uint32_t rep) const;

  /// Key of the path v o i given the key of v.
  uint64_t ExtendKey(uint64_t path_key, uint32_t item) const;

  /// The level draw h_{level}(v o i) in [0, 1): the uniform variate compared
  /// against the sampling threshold s(x, j, i). \p level is the length of
  /// the path being created (j + 1), 1-based.
  double LevelDraw(int level, uint64_t path_key, uint32_t item) const;

  // Pre-mixed-item forms. ExtendKey and LevelDraw each mix the item with
  // a fixed constant before combining it with the path key; those mixes
  // depend on the item alone, so the path engine computes them once per
  // vector and reuses them for every (repetition, node) it expands:
  //
  //   ExtendKey(key, i) == ExtendKeyMixed(key, ExtendItemMix(i))
  //   c = DrawChild(key, LevelSalt(l), DrawItemMix(i))
  //   LevelDraw(l, key, i) == LevelPairwise(l)->HashUnit(c)      (kPairwise)
  //                        == ToUnitInterval(MixerDrawBits(c))   (kMixer)

  /// The item half of ExtendKey.
  static uint64_t ExtendItemMix(uint32_t item) {
    return Mix64(0x1234567890abcdefULL ^ item);
  }
  /// The item half of LevelDraw.
  static uint64_t DrawItemMix(uint32_t item) {
    return Mix64(0x9e3779b97f4a7c15ULL ^ item);
  }
  static uint64_t ExtendKeyMixed(uint64_t path_key, uint64_t item_mix) {
    return MixPair(path_key, item_mix);
  }
  /// Salt of the level-\p level hash function (levels wrap modulo
  /// max_level()).
  uint64_t LevelSalt(int level) const {
    return level_salts_[LevelIndex(level)];
  }
  /// The 64-bit identity of the child path v o i that the level draw
  /// hashes: the draw must identify the *child*, so it combines the
  /// parent key with the item.
  static uint64_t DrawChild(uint64_t path_key, uint64_t level_salt,
                            uint64_t item_mix) {
    return MixPair(path_key ^ level_salt, item_mix);
  }
  /// The level-\p level pairwise hash function, or null under kMixer.
  const PairwiseHash* LevelPairwise(int level) const {
    if (engine_ != HashEngine::kPairwise) return nullptr;
    return &level_hashes_[LevelIndex(level)];
  }
  /// The kMixer draw's random bits; the draw is ToUnitInterval of them.
  static uint64_t MixerDrawBits(uint64_t child) { return Avalanche64(child); }

  /// Number of per-level hash functions owned (== max_level).
  int max_level() const { return max_level_; }

 private:
  size_t LevelIndex(int level) const {
    return static_cast<size_t>(level - 1) % level_salts_.size();
  }

  uint64_t seed_;
  int max_level_;
  HashEngine engine_;
  std::vector<uint64_t> level_salts_;       // one per level, for kMixer
  std::vector<PairwiseHash> level_hashes_;  // one per level, for kPairwise
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_HASHING_PATH_HASHER_H_
