// Copyright 2026 The skewsearch Authors.
// The chosen-path recursion (Section 3): computing the filter set F(x).
//
// F(x) is grown level by level. A path v of length j is extended by every
// item i of x (not already on v, when sampling without replacement) whose
// level draw h_{j+1}(v o i) falls below the policy threshold s(x, j, i).
// A freshly created path becomes a *filter* — a member of F(x) — as soon
// as its stop condition holds:
//
//   kProbability:  prod_{k} p_{i_k} <= 1/n    (the paper's dynamic depth)
//   kFixedDepth:   |v| == fixed_depth         (classic Chosen Path)
//
// The engine is deterministic given the PathHasher, so running it on a
// data vector and on a query produces consistent decisions on shared path
// prefixes — the property Lemma 5's collision argument relies on.

#ifndef SKEWSEARCH_CORE_PATH_ENGINE_H_
#define SKEWSEARCH_CORE_PATH_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/path_policy.h"
#include "data/distribution.h"
#include "data/sparse_vector.h"
#include "hashing/path_hasher.h"

namespace skewsearch {

/// Stop conditions for path growth.
enum class StopRule {
  kProbability,  ///< stop once prod p_{i_k} <= 1/n (the paper's rule)
  kFixedDepth,   ///< stop at a fixed path length (classic Chosen Path)
};

/// \brief Engine configuration.
struct PathEngineOptions {
  StopRule stop_rule = StopRule::kProbability;
  /// ln(n): the probability stop threshold (sum of ln(1/p) >= log_n).
  double log_n = 0.0;
  /// Path length for kFixedDepth.
  int fixed_depth = 0;
  /// Hard cap on path length regardless of stop rule (safety).
  int max_depth = 64;
  /// Safety valve: stop expanding after this many live+emitted paths per
  /// element per repetition; overruns are reported in PathGenStats.
  size_t max_paths = size_t{1} << 22;
  /// Paper's scheme samples items *without* replacement (i in x \ v);
  /// classic Chosen Path samples with replacement (i in x).
  bool without_replacement = true;
};

/// \brief Per-invocation counters.
struct PathGenStats {
  size_t filters_emitted = 0;  ///< |F(x)| for this repetition
  size_t nodes_expanded = 0;   ///< interior recursion nodes processed
  size_t draws = 0;            ///< hash draws evaluated
  bool cap_hit = false;        ///< true if max_paths truncated the growth
};

class PathEngine;

/// \brief Per-vector preparation and reusable buffers of the path engine.
///
/// PathEngine::Prepare fills it for one vector x: both item mixes of the
/// path hashes and ln(1/p_i) per item, plus (without replacement, |x| <=
/// 64) the position masks that replace the ancestor walk. Threshold rows
/// s(x, j, .) are filled the first time any repetition reaches depth j.
/// Generate reuses all of it for any repetition range, so the per-item
/// work is paid once per vector. Reuse across vectors keeps the
/// allocations; one thread at a time; x is borrowed until the next
/// Prepare.
class PathScratch {
 private:
  friend class PathEngine;

  struct Item {
    uint64_t extend_mix;  // PathHasher::ExtendItemMix(x[k])
    uint64_t draw_mix;    // PathHasher::DrawItemMix(x[k])
    double log_inv_p;     // ln(1 / p_{x[k]})
    uint64_t same_item;   // positions holding x[k] (mask mode only)
  };
  struct Threshold {
    double value;     // s(x, depth, x[k])
    uint64_t cutoff;  // UnitCutoff(value)
  };
  // One node of a repetition's recursion tree. Children are appended
  // behind their parents' level, so each level is a contiguous index
  // range of the arena and no frontier list is needed.
  struct Node {
    uint64_t key;
    double log_inv_prod;  // sum of ln(1/p_i) along the path
    uint64_t used;        // positions already on the path (mask mode)
    int32_t parent;       // arena index; the root is index 0
    uint32_t pos;         // position in x of the item appended last
  };

  const PathEngine* engine_ = nullptr;  // who prepared it
  std::span<const ItemId> x_;
  bool use_mask_ = false;
  std::vector<Item> items_;
  std::vector<Threshold> thresholds_;  // depth-major, |x| per depth
  std::vector<Node> arena_;
  std::vector<ItemId> on_path_;  // the expanded node's items (walk mode)
};

/// \brief Computes filter sets F(x).
///
/// One level-synchronous engine over a repetition range: Prepare does a
/// vector's per-item work once, Generate grows each repetition's tree of
/// the range level by level. Per level it fetches the threshold row and
/// hash salt; per draw it mixes two words and compares integers (kMixer:
/// the draw's 53 random bits against UnitCutoff(threshold); kPairwise
/// compares doubles against the same row). "All repetitions" is [0, L);
/// keys and PathGenStats do not depend on how a range is split.
///
/// Stateless between calls; thread-safe with one PathScratch per thread.
class PathEngine {
 public:
  /// All pointers are borrowed and must outlive the engine.
  PathEngine(const ProductDistribution* dist, const ThresholdPolicy* policy,
             const PathHasher* hasher, const PathEngineOptions& options);

  /// Prepares \p x into \p scratch for Generate (see PathScratch).
  void Prepare(std::span<const ItemId> x, PathScratch* scratch) const;

  /// Appends the filter keys of F_r(x) for r in [rep_begin, rep_end) to
  /// \p keys, repetition by repetition, for the vector last prepared into
  /// \p scratch. \p offsets (may be null) is set to the rep_end -
  /// rep_begin + 1 positions in \p keys bracketing each repetition's
  /// group. \p stats (may be null) receives counters summed over the
  /// range with cap_hit = "any repetition truncated"; \p capped_reps (may
  /// be null) receives the number of truncated repetitions.
  void Generate(PathScratch* scratch, uint32_t rep_begin, uint32_t rep_end,
                std::vector<uint64_t>* keys,
                std::vector<size_t>* offsets = nullptr,
                PathGenStats* stats = nullptr,
                size_t* capped_reps = nullptr) const;

  /// One-shot Prepare + Generate of repetition \p rep with a fresh
  /// scratch: appends the filter keys of F_rep(x) to \p out. \p stats
  /// may be null.
  void ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* out, PathGenStats* stats) const;

  const PathEngineOptions& options() const { return options_; }

 private:
  /// The threshold row of \p depth, filled on first use.
  const PathScratch::Threshold* LevelThresholds(PathScratch* scratch,
                                                int depth) const;

  /// How GenerateRep skips items already on a path.
  enum class Exclusion {
    kNone,  ///< sampling with replacement: nothing is skipped
    kMask,  ///< |x| <= 64: test the node's position mask
    kWalk,  ///< |x| > 64: list the ancestors' items once per node
  };

  template <Exclusion kExclusion>
  PathGenStats GenerateRep(PathScratch* scratch, uint32_t rep,
                           std::vector<uint64_t>* keys) const;

  const ProductDistribution* dist_;
  const ThresholdPolicy* policy_;
  const PathHasher* hasher_;
  PathEngineOptions options_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_PATH_ENGINE_H_
