#include "core/path_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "core/query_stats.h"
#include "hashing/mix.h"

namespace skewsearch {

PathEngine::PathEngine(const ProductDistribution* dist,
                       const ThresholdPolicy* policy, const PathHasher* hasher,
                       const PathEngineOptions& options)
    : dist_(dist), policy_(policy), hasher_(hasher), options_(options) {}

void PathEngine::Prepare(std::span<const ItemId> x,
                         PathScratch* scratch) const {
  const size_t n = x.size();
  scratch->engine_ = this;
  scratch->x_ = x;
  scratch->use_mask_ = options_.without_replacement && n <= 64;
  scratch->thresholds_.clear();
  scratch->items_.resize(n);
  bool distinct = true;  // sparse vectors are sorted and duplicate-free
  for (size_t k = 0; k < n; ++k) {
    PathScratch::Item& item = scratch->items_[k];
    item.extend_mix = PathHasher::ExtendItemMix(x[k]);
    item.draw_mix = PathHasher::DrawItemMix(x[k]);
    item.log_inv_p = dist_->LogInvP(x[k]);
    item.same_item = scratch->use_mask_ ? uint64_t{1} << k : 0;
    if (k > 0 && x[k] <= x[k - 1]) distinct = false;
  }
  if (scratch->use_mask_ && !distinct) {
    // A repeated item must be excluded at every position holding it, as
    // the ancestor walk (which compares items, not positions) would.
    for (size_t k = 0; k < n; ++k) {
      for (size_t j = 0; j < n; ++j) {
        if (x[j] == x[k]) scratch->items_[k].same_item |= uint64_t{1} << j;
      }
    }
  }
}

const PathScratch::Threshold* PathEngine::LevelThresholds(
    PathScratch* scratch, int depth) const {
  const size_t n = scratch->x_.size();
  std::vector<PathScratch::Threshold>& table = scratch->thresholds_;
  while (table.size() < (static_cast<size_t>(depth) + 1) * n) {
    const int row = static_cast<int>(table.size() / n);
    for (ItemId item : scratch->x_) {
      const double t = policy_->Threshold(n, row, item);
      table.push_back({t, UnitCutoff(t)});
    }
  }
  return &table[static_cast<size_t>(depth) * n];
}

template <PathEngine::Exclusion kExclusion>
PathGenStats PathEngine::GenerateRep(PathScratch* scratch, uint32_t rep,
                                     std::vector<uint64_t>* keys) const {
  using Node = PathScratch::Node;
  PathGenStats stats;
  const std::span<const ItemId> x = scratch->x_;
  const PathScratch::Item* items = scratch->items_.data();
  const size_t n = x.size();
  std::vector<Node>& arena = scratch->arena_;
  arena.clear();
  arena.push_back(Node{hasher_->RootKey(rep), 0.0, 0, -1, 0});

  size_t level_begin = 0;
  for (int depth = 0; level_begin < arena.size() && depth < options_.max_depth;
       ++depth) {
    const int level = depth + 1;
    const PathScratch::Threshold* thresholds = LevelThresholds(scratch, depth);
    const uint64_t salt = hasher_->LevelSalt(level);
    const PairwiseHash* pairwise = hasher_->LevelPairwise(level);
    // The kFixedDepth stop rule depends on the level alone.
    const bool fixed_depth_reached = level >= options_.fixed_depth;
    const size_t level_end = arena.size();
    for (size_t idx = level_begin; idx < level_end; ++idx) {
      // Copy the node: the arena may reallocate while children are added.
      const Node node = arena[idx];
      stats.nodes_expanded++;
      // Draws item k for this node; false once the path cap is hit.
      auto draw = [&](size_t k) {
        stats.draws++;
        const PathScratch::Item& item = items[k];
        const uint64_t child =
            PathHasher::DrawChild(node.key, salt, item.draw_mix);
        if (pairwise != nullptr) {
          // A threshold >= 1 (or NaN) accepts unconditionally.
          const double t = thresholds[k].value;
          if (t < 1.0 && pairwise->HashUnit(child) >= t) return true;
        } else if ((PathHasher::MixerDrawBits(child) >> 11) >=
                   thresholds[k].cutoff) {
          return true;
        }
        const uint64_t key =
            PathHasher::ExtendKeyMixed(node.key, item.extend_mix);
        const double log_inv_prod = node.log_inv_prod + item.log_inv_p;
        bool is_filter = fixed_depth_reached;
        if (options_.stop_rule == StopRule::kProbability) {
          is_filter = log_inv_prod >= options_.log_n;
        }
        if (is_filter) {
          keys->push_back(key);
          stats.filters_emitted++;
        } else {
          arena.push_back(Node{key, log_inv_prod, node.used | item.same_item,
                               static_cast<int32_t>(idx),
                               static_cast<uint32_t>(k)});
        }
        if (arena.size() + stats.filters_emitted >= options_.max_paths) {
          stats.cap_hit = true;
          return false;
        }
        return true;
      };
      if constexpr (kExclusion == Exclusion::kMask) {
        const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
        for (uint64_t open = all & ~node.used; open != 0; open &= open - 1) {
          if (!draw(static_cast<size_t>(std::countr_zero(open)))) return stats;
        }
      } else {
        // kWalk walks the ancestor chain once per node, not once per
        // item; the root (index 0) carries no item. kNone skips nothing.
        std::vector<ItemId>& on_path = scratch->on_path_;
        on_path.clear();
        for (size_t a = idx; kExclusion == Exclusion::kWalk && a > 0;
             a = static_cast<size_t>(arena[a].parent)) {
          on_path.push_back(x[arena[a].pos]);
        }
        for (size_t k = 0; k < n; ++k) {
          if (std::find(on_path.begin(), on_path.end(), x[k]) !=
              on_path.end()) {
            continue;  // x[k] is already on the path
          }
          if (!draw(k)) return stats;
        }
      }
    }
    level_begin = level_end;
  }
  return stats;
}

void PathEngine::Generate(PathScratch* scratch, uint32_t rep_begin,
                          uint32_t rep_end, std::vector<uint64_t>* keys,
                          std::vector<size_t>* offsets, PathGenStats* stats,
                          size_t* capped_reps) const {
  assert(scratch->engine_ == this && "scratch prepared by another engine");
  Exclusion exclusion = Exclusion::kNone;
  if (scratch->use_mask_) {
    exclusion = Exclusion::kMask;
  } else if (options_.without_replacement) {
    exclusion = Exclusion::kWalk;
  }
  auto generate_rep = [&](uint32_t rep) {
    switch (exclusion) {
      case Exclusion::kMask:
        return GenerateRep<Exclusion::kMask>(scratch, rep, keys);
      case Exclusion::kWalk:
        return GenerateRep<Exclusion::kWalk>(scratch, rep, keys);
      case Exclusion::kNone:
        break;
    }
    return GenerateRep<Exclusion::kNone>(scratch, rep, keys);
  };
  PathGenStats total;
  size_t capped = 0;
  if (offsets != nullptr) offsets->assign(1, keys->size());
  for (uint32_t rep = rep_begin; rep < rep_end; ++rep) {
    if (!scratch->x_.empty()) {
      const PathGenStats one = generate_rep(rep);
      AddPathGenStats(&total, one);
      if (one.cap_hit) capped++;
    }
    if (offsets != nullptr) offsets->push_back(keys->size());
  }
  if (stats != nullptr) *stats = total;
  if (capped_reps != nullptr) *capped_reps = capped;
}

void PathEngine::ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                                std::vector<uint64_t>* out,
                                PathGenStats* stats) const {
  PathScratch scratch;
  Prepare(x, &scratch);
  Generate(&scratch, rep, rep + 1, out, nullptr, stats);
}

}  // namespace skewsearch
