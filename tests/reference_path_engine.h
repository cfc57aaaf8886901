// Copyright 2026 The skewsearch Authors.
// Frozen reference copy of the chosen-path engine as it stood before the
// hoisted filter-generation rewrite of core/path_engine.{h,cc}.
//
// Test-only and deliberately slow: every draw makes a virtual threshold
// call and out-of-line LevelDraw/ExtendKey calls, the without-replacement
// check walks the ancestor chain, and ComputeFiltersAllReps advances all
// repetitions through one shared arena. The differential test
// (core_path_engine_reference_test.cc) and bench/micro_path_engine.cc
// assert that core/path_engine.h emits byte-identical keys and identical
// PathGenStats. Do not "fix" or speed this file up: its value is that it
// does not change.

#ifndef SKEWSEARCH_TESTS_REFERENCE_PATH_ENGINE_H_
#define SKEWSEARCH_TESTS_REFERENCE_PATH_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/path_engine.h"
#include "core/path_policy.h"
#include "data/distribution.h"
#include "data/sparse_vector.h"
#include "hashing/path_hasher.h"

namespace skewsearch {
namespace reference {

namespace detail {

// One node of the recursion forest, stored in a flat arena. Parent links
// let the without-replacement check walk the (short) ancestor chain instead
// of storing an item set per node.
struct Node {
  uint64_t key;
  double log_inv_prod;  // sum of ln(1/p_i) along the path
  int32_t parent;       // index into the arena, -1 for roots
  ItemId item;          // item appended to create this node
  int32_t depth;        // path length; 0 for the root (whose item is unused)
};

inline bool PathContains(const std::vector<Node>& arena, int32_t node,
                         ItemId item) {
  // The root (depth 0) carries no item; stop before inspecting it.
  while (node >= 0 && arena[static_cast<size_t>(node)].depth > 0) {
    if (arena[static_cast<size_t>(node)].item == item) return true;
    node = arena[static_cast<size_t>(node)].parent;
  }
  return false;
}

// Node of the fused all-repetitions forest: same layout plus the owning
// repetition, so one arena can interleave all L recursion trees.
struct FusedNode {
  uint64_t key;
  double log_inv_prod;
  int32_t parent;
  ItemId item;
  int32_t depth;
  uint32_t rep;
};

inline bool FusedPathContains(const std::vector<FusedNode>& arena,
                              int32_t node, ItemId item) {
  while (node >= 0 && arena[static_cast<size_t>(node)].depth > 0) {
    if (arena[static_cast<size_t>(node)].item == item) return true;
    node = arena[static_cast<size_t>(node)].parent;
  }
  return false;
}

}  // namespace detail

/// \brief The reference engine: same constructor and outputs as
/// skewsearch::PathEngine, none of its hoisting.
class PathEngine {
 public:
  PathEngine(const ProductDistribution* dist, const ThresholdPolicy* policy,
             const PathHasher* hasher, const PathEngineOptions& options)
      : dist_(dist), policy_(policy), hasher_(hasher), options_(options) {}

  /// Appends the filter keys of F(x) for repetition \p rep to \p out.
  void ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* out, PathGenStats* stats) const {
    using detail::Node;
    using detail::PathContains;
    PathGenStats local;
    if (!x.empty()) {
      std::vector<Node> arena;
      arena.reserve(64);
      std::vector<int32_t> frontier;
      std::vector<int32_t> next;

      arena.push_back(Node{hasher_->RootKey(rep), 0.0, -1, 0, 0});
      frontier.push_back(0);

      const size_t vec_size = x.size();
      bool done = false;
      while (!frontier.empty() && !done) {
        next.clear();
        for (int32_t node_idx : frontier) {
          // Copy the node: the arena may reallocate while children are
          // added.
          const Node node = arena[static_cast<size_t>(node_idx)];
          if (node.depth >= options_.max_depth) continue;
          local.nodes_expanded++;
          const int level = node.depth + 1;
          for (ItemId item : x) {
            if (options_.without_replacement &&
                PathContains(arena, node_idx, item)) {
              continue;
            }
            local.draws++;
            double threshold = policy_->Threshold(vec_size, node.depth, item);
            if (threshold < 1.0 &&
                hasher_->LevelDraw(level, node.key, item) >= threshold) {
              continue;
            }
            Node child;
            child.key = hasher_->ExtendKey(node.key, item);
            child.log_inv_prod = node.log_inv_prod + dist_->LogInvP(item);
            child.parent = node_idx;
            child.item = item;
            child.depth = level;

            bool is_filter =
                options_.stop_rule == StopRule::kProbability
                    ? child.log_inv_prod >= options_.log_n
                    : child.depth >= options_.fixed_depth;
            if (is_filter) {
              out->push_back(child.key);
              local.filters_emitted++;
            } else {
              arena.push_back(child);
              next.push_back(static_cast<int32_t>(arena.size() - 1));
            }
            if (arena.size() + local.filters_emitted >= options_.max_paths) {
              local.cap_hit = true;
              done = true;
              break;
            }
          }
          if (done) break;
        }
        frontier.swap(next);
      }
    }
    if (stats != nullptr) *stats = local;
  }

  /// Computes F_r(x) for every r in [0, reps) in one fused pass; groups
  /// are bracketed by \p offsets (reps + 1 entries).
  void ComputeFiltersAllReps(std::span<const ItemId> x, uint32_t reps,
                             std::vector<uint64_t>* keys,
                             std::vector<size_t>* offsets,
                             PathGenStats* stats,
                             size_t* capped_reps = nullptr) const {
    using detail::FusedNode;
    using detail::FusedPathContains;
    PathGenStats total;
    size_t capped = 0;
    keys->clear();
    offsets->assign(static_cast<size_t>(reps) + 1, 0);
    if (!x.empty() && reps > 0) {
      std::vector<std::pair<uint32_t, uint64_t>> emitted;
      std::vector<FusedNode> arena;
      arena.reserve(static_cast<size_t>(reps) * 2);
      std::vector<int32_t> frontier;
      std::vector<int32_t> next;
      std::vector<size_t> live(reps, 1);
      std::vector<size_t> emitted_count(reps, 0);
      std::vector<uint8_t> done(reps, 0);

      for (uint32_t rep = 0; rep < reps; ++rep) {
        arena.push_back(FusedNode{hasher_->RootKey(rep), 0.0, -1, 0, 0, rep});
        frontier.push_back(static_cast<int32_t>(rep));
      }

      const size_t vec_size = x.size();
      std::vector<double> log_inv_p(vec_size);
      for (size_t k = 0; k < vec_size; ++k) {
        log_inv_p[k] = dist_->LogInvP(x[k]);
      }
      std::vector<double> thresholds(vec_size);

      int depth = 0;
      while (!frontier.empty()) {
        if (depth >= options_.max_depth) break;
        for (size_t k = 0; k < vec_size; ++k) {
          thresholds[k] = policy_->Threshold(vec_size, depth, x[k]);
        }
        const int level = depth + 1;
        next.clear();
        for (int32_t node_idx : frontier) {
          const FusedNode node = arena[static_cast<size_t>(node_idx)];
          const uint32_t rep = node.rep;
          if (done[rep]) continue;
          total.nodes_expanded++;
          for (size_t k = 0; k < vec_size; ++k) {
            const ItemId item = x[k];
            if (options_.without_replacement &&
                FusedPathContains(arena, node_idx, item)) {
              continue;
            }
            total.draws++;
            const double threshold = thresholds[k];
            if (threshold < 1.0 &&
                hasher_->LevelDraw(level, node.key, item) >= threshold) {
              continue;
            }
            FusedNode child;
            child.key = hasher_->ExtendKey(node.key, item);
            child.log_inv_prod = node.log_inv_prod + log_inv_p[k];
            child.parent = node_idx;
            child.item = item;
            child.depth = level;
            child.rep = rep;

            const bool is_filter =
                options_.stop_rule == StopRule::kProbability
                    ? child.log_inv_prod >= options_.log_n
                    : child.depth >= options_.fixed_depth;
            if (is_filter) {
              emitted.push_back({rep, child.key});
              emitted_count[rep]++;
              total.filters_emitted++;
            } else {
              arena.push_back(child);
              next.push_back(static_cast<int32_t>(arena.size() - 1));
              live[rep]++;
            }
            if (live[rep] + emitted_count[rep] >= options_.max_paths) {
              total.cap_hit = true;
              done[rep] = 1;
              capped++;
              break;
            }
          }
        }
        frontier.swap(next);
        ++depth;
      }

      for (const auto& [rep, key] : emitted) (*offsets)[rep + 1]++;
      for (size_t r = 1; r <= reps; ++r) (*offsets)[r] += (*offsets)[r - 1];
      keys->resize(emitted.size());
      std::vector<size_t> cursor(offsets->begin(), offsets->end() - 1);
      for (const auto& [rep, key] : emitted) (*keys)[cursor[rep]++] = key;
    }
    if (stats != nullptr) *stats = total;
    if (capped_reps != nullptr) *capped_reps = capped;
  }

 private:
  const ProductDistribution* dist_;
  const ThresholdPolicy* policy_;
  const PathHasher* hasher_;
  PathEngineOptions options_;
};

}  // namespace reference
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_PATH_ENGINE_H_
