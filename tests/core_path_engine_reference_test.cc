// Differential test: core/path_engine.h against the frozen reference
// engine in reference_path_engine.h. Every configuration must produce
// byte-identical keys and identical PathGenStats, per repetition and over
// repetition ranges.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/path_engine.h"
#include "core/path_policy.h"
#include "data/generators.h"
#include "reference_path_engine.h"
#include "util/random.h"

namespace skewsearch {
namespace {

constexpr size_t kDimension = 400;

void ExpectSameStats(const PathGenStats& want, const PathGenStats& got,
                     const std::string& where) {
  EXPECT_EQ(want.filters_emitted, got.filters_emitted) << where;
  EXPECT_EQ(want.nodes_expanded, got.nodes_expanded) << where;
  EXPECT_EQ(want.draws, got.draws) << where;
  EXPECT_EQ(want.cap_hit, got.cap_hit) << where;
}

// \p size distinct items of [0, kDimension), sorted.
std::vector<ItemId> DistinctItems(size_t size, Rng* rng) {
  std::vector<ItemId> ids;
  while (ids.size() < size) {
    ids.push_back(static_cast<ItemId>(rng->NextBounded(kDimension)));
    ids = SparseVector::FromIds(std::move(ids)).ids();
  }
  return ids;
}

enum class PolicyKind { kAdversarial, kCorrelated, kClassic };

struct Case {
  PolicyKind policy;
  HashEngine engine;
  StopRule stop_rule;
  bool without_replacement;
  size_t max_paths;
  int max_depth;
  double log_n;

  std::string Name() const {
    return "policy=" + std::to_string(static_cast<int>(policy)) +
           " engine=" + std::to_string(static_cast<int>(engine)) +
           " stop=" + std::to_string(static_cast<int>(stop_rule)) +
           " wo_repl=" + std::to_string(without_replacement) +
           " max_paths=" + std::to_string(max_paths) +
           " max_depth=" + std::to_string(max_depth) +
           " log_n=" + std::to_string(log_n);
  }
};

class PathEngineReferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Zipf-skewed item probabilities: a few frequent items, a long rare
    // tail, so paths stop at very different depths.
    dist_ = std::make_unique<ProductDistribution>(
        ZipfProbabilities(kDimension, 1.0, 0.4).value());
  }

  std::unique_ptr<ThresholdPolicy> MakePolicy(PolicyKind kind) const {
    switch (kind) {
      case PolicyKind::kAdversarial:
        return std::make_unique<AdversarialPolicy>(0.5);
      case PolicyKind::kCorrelated:
        return std::make_unique<CorrelatedPolicy>(dist_.get(), 0.6, 0.5);
      case PolicyKind::kClassic:
        break;
    }
    return std::make_unique<ClassicChosenPathPolicy>(0.5);
  }

  // Runs every check of one configuration on one vector. \p scratch is
  // shared across calls, so reuse across vectors of different sizes and
  // engines is exercised too.
  void Check(const Case& c, std::span<const ItemId> x, uint32_t reps,
             PathScratch* scratch) {
    const std::string where = c.Name() + " |x|=" + std::to_string(x.size());
    auto policy = MakePolicy(c.policy);
    PathHasher hasher(97, 12, c.engine);
    PathEngineOptions options;
    options.stop_rule = c.stop_rule;
    options.log_n = c.log_n;
    options.fixed_depth = 3;
    options.max_depth = c.max_depth;
    options.max_paths = c.max_paths;
    options.without_replacement = c.without_replacement;
    reference::PathEngine want(dist_.get(), policy.get(), &hasher, options);
    PathEngine got(dist_.get(), policy.get(), &hasher, options);

    // Per repetition: Generate(r, r + 1) and the one-shot form.
    got.Prepare(x, scratch);
    std::vector<uint64_t> concat;
    PathGenStats summed;
    size_t summed_capped = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      std::vector<uint64_t> want_keys, got_keys, one_shot;
      PathGenStats want_stats, got_stats, one_shot_stats;
      want.ComputeFilters(x, rep, &want_keys, &want_stats);
      got.Generate(scratch, rep, rep + 1, &got_keys, nullptr, &got_stats);
      got.ComputeFilters(x, rep, &one_shot, &one_shot_stats);
      const std::string at = where + " rep=" + std::to_string(rep);
      ASSERT_EQ(want_keys, got_keys) << at;
      ASSERT_EQ(want_keys, one_shot) << at;
      ExpectSameStats(want_stats, got_stats, at);
      ExpectSameStats(want_stats, one_shot_stats, at);
      concat.insert(concat.end(), want_keys.begin(), want_keys.end());
      summed.filters_emitted += want_stats.filters_emitted;
      summed.nodes_expanded += want_stats.nodes_expanded;
      summed.draws += want_stats.draws;
      summed.cap_hit = summed.cap_hit || want_stats.cap_hit;
      if (want_stats.cap_hit) summed_capped++;
    }

    // All repetitions: the reference's fused pass against [0, reps).
    std::vector<uint64_t> want_all, got_all;
    std::vector<size_t> want_offsets, got_offsets;
    PathGenStats want_all_stats, got_all_stats;
    size_t want_capped = 0, got_capped = 0;
    want.ComputeFiltersAllReps(x, reps, &want_all, &want_offsets,
                               &want_all_stats, &want_capped);
    got.Generate(scratch, 0, reps, &got_all, &got_offsets, &got_all_stats,
                 &got_capped);
    ASSERT_EQ(want_all, got_all) << where;
    ASSERT_EQ(want_offsets, got_offsets) << where;
    ExpectSameStats(want_all_stats, got_all_stats, where + " all reps");
    EXPECT_EQ(want_capped, got_capped) << where;
    ASSERT_EQ(concat, got_all) << where;
    ExpectSameStats(summed, got_all_stats, where + " summed");
    EXPECT_EQ(summed_capped, got_capped) << where;

    // Ranges [0, a) + [a, b) + [b, reps) concatenate to [0, reps).
    for (uint32_t a = 0; a <= reps; a += 2) {
      const uint32_t b = std::min(reps, a + 3);
      std::vector<uint64_t> pieces;
      PathGenStats s1, s2, s3;
      size_t c1 = 0, c2 = 0, c3 = 0;
      got.Generate(scratch, 0, a, &pieces, nullptr, &s1, &c1);
      got.Generate(scratch, a, b, &pieces, nullptr, &s2, &c2);
      got.Generate(scratch, b, reps, &pieces, nullptr, &s3, &c3);
      ASSERT_EQ(pieces, got_all) << where << " split " << a << "," << b;
      EXPECT_EQ(s1.draws + s2.draws + s3.draws, got_all_stats.draws);
      EXPECT_EQ(s1.nodes_expanded + s2.nodes_expanded + s3.nodes_expanded,
                got_all_stats.nodes_expanded);
      EXPECT_EQ(c1 + c2 + c3, got_capped);
    }
  }

  std::unique_ptr<ProductDistribution> dist_;
};

TEST_F(PathEngineReferenceTest, ByteIdenticalAcrossConfigurations) {
  Rng rng(2026);
  std::vector<std::vector<ItemId>> vectors;
  for (size_t size : {0, 1, 63, 64, 65, 200}) {
    vectors.push_back(DistinctItems(size, &rng));
  }
  const double log_n = std::log(3000.0);
  std::vector<Case> cases;
  for (PolicyKind policy : {PolicyKind::kAdversarial, PolicyKind::kCorrelated,
                            PolicyKind::kClassic}) {
    for (HashEngine engine : {HashEngine::kMixer, HashEngine::kPairwise}) {
      for (StopRule stop : {StopRule::kProbability, StopRule::kFixedDepth}) {
        for (bool without : {true, false}) {
          // Unconstrained, a forced cap hit, and a depth bound that the
          // stop rule never reaches first (log_n far too large).
          cases.push_back({policy, engine, stop, without, 20000, 64, log_n});
          cases.push_back({policy, engine, stop, without, 9, 64, log_n});
          cases.push_back({policy, engine, stop, without, 20000, 2, 1e9});
        }
      }
    }
  }
  PathScratch scratch;
  size_t capped_cases = 0;
  size_t depth_bound_cases = 0;
  for (const Case& c : cases) {
    for (const auto& x : vectors) {
      Check(c, x, 5, &scratch);
      if (HasFatalFailure()) return;
    }
    if (c.max_paths == 9) capped_cases++;
    if (c.max_depth == 2) depth_bound_cases++;
  }
  EXPECT_EQ(cases.size(), 72u);
  EXPECT_EQ(capped_cases, 24u);
  EXPECT_EQ(depth_bound_cases, 24u);
}

TEST_F(PathEngineReferenceTest, CapAndDepthBoundActuallyTrigger) {
  // Guards the configuration grid above: the small cap truncates and the
  // depth bound stops growth with live paths left.
  Rng rng(7);
  const std::vector<ItemId> x = DistinctItems(64, &rng);
  auto policy = MakePolicy(PolicyKind::kAdversarial);
  PathHasher hasher(97, 12);
  PathEngineOptions options;
  options.log_n = std::log(3000.0);
  options.max_paths = 9;
  PathEngine capped(dist_.get(), policy.get(), &hasher, options);
  PathScratch scratch;
  PathGenStats stats;
  size_t capped_reps = 0;
  std::vector<uint64_t> keys;
  capped.Prepare(x, &scratch);
  capped.Generate(&scratch, 0, 5, &keys, nullptr, &stats, &capped_reps);
  EXPECT_TRUE(stats.cap_hit);
  EXPECT_GE(capped_reps, 1u);

  options.max_paths = 20000;
  options.max_depth = 2;
  options.log_n = 1e9;
  PathEngine bounded(dist_.get(), policy.get(), &hasher, options);
  keys.clear();
  bounded.Prepare(x, &scratch);
  bounded.Generate(&scratch, 0, 5, &keys, nullptr, &stats);
  EXPECT_TRUE(keys.empty());  // nothing reaches a probability of 1/n
  EXPECT_FALSE(stats.cap_hit);
  EXPECT_GT(stats.nodes_expanded, 5u);  // roots and depth-1 nodes
}

TEST_F(PathEngineReferenceTest, RepeatedItemsMatchTheAncestorWalk) {
  // Raw spans may repeat an item; the position mask (|x| <= 64) and the
  // per-node ancestor list (|x| > 64) must exclude every position holding
  // an item already on the path, as the reference's item comparison does.
  const std::vector<ItemId> short_x = {5, 9, 5, 300, 9, 9, 42, 5};
  std::vector<ItemId> long_x;  // 80 positions, 50 distinct items, unsorted
  for (size_t i = 0; i < 80; ++i) {
    long_x.push_back(static_cast<ItemId>((i * 37) % 50 * 7));
  }
  PathScratch scratch;
  for (std::span<const ItemId> x : {std::span<const ItemId>(short_x),
                                    std::span<const ItemId>(long_x)}) {
    for (PolicyKind policy : {PolicyKind::kAdversarial,
                              PolicyKind::kCorrelated, PolicyKind::kClassic}) {
      for (bool without : {true, false}) {
        Case c{policy, HashEngine::kMixer, StopRule::kProbability, without,
               20000, 64, std::log(3000.0)};
        Check(c, x, 4, &scratch);
      }
    }
  }
}

}  // namespace
}  // namespace skewsearch
