#include "core/path_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

// A policy with a fixed threshold, for controlled engine tests.
class FixedPolicy : public ThresholdPolicy {
 public:
  explicit FixedPolicy(double s) : s_(s) {}
  double Threshold(size_t, int, ItemId) const override { return s_; }

 private:
  double s_;
};

// Engine variant that records full paths by re-running the recursion
// manually — used to validate invariants. We reconstruct paths by walking
// the same decisions the engine makes.
struct TestContext {
  ProductDistribution dist;
  PathHasher hasher;
  TestContext(ProductDistribution d, uint64_t seed, int levels)
      : dist(std::move(d)), hasher(seed, levels) {}
};

TEST(PathEngineTest, EmptyVectorProducesNoFilters) {
  auto dist = UniformProbabilities(10, 0.3).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(1, 8);
  PathEngineOptions options;
  options.log_n = std::log(100.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<uint64_t> out;
  PathGenStats stats;
  engine.ComputeFilters({}, 0, &out, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.filters_emitted, 0u);
}

TEST(PathEngineTest, DeterministicAcrossCalls) {
  auto dist = UniformProbabilities(100, 0.25).value();
  FixedPolicy policy(0.3);
  PathHasher hasher(7, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({1, 5, 9, 20, 33, 47, 60, 78, 90});
  std::vector<uint64_t> a, b;
  engine.ComputeFilters(x.span(), 0, &a, nullptr);
  engine.ComputeFilters(x.span(), 0, &b, nullptr);
  EXPECT_EQ(a, b);
}

TEST(PathEngineTest, RepetitionsProduceDifferentFilters) {
  auto dist = UniformProbabilities(100, 0.25).value();
  FixedPolicy policy(0.3);
  PathHasher hasher(7, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({1, 5, 9, 20, 33, 47, 60, 78, 90});
  std::vector<uint64_t> a, b;
  engine.ComputeFilters(x.span(), 0, &a, nullptr);
  engine.ComputeFilters(x.span(), 1, &b, nullptr);
  std::set<uint64_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::vector<uint64_t> common;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(common));
  EXPECT_TRUE(common.empty());
}

TEST(PathEngineTest, StopRuleBoundsPathProbability) {
  // With threshold 1 (take every item) and all p = 0.5 the engine must
  // emit exactly the paths of length ceil(log2 n): each path stops at the
  // first length where (1/2)^len <= 1/n.
  const size_t n = 100;
  auto dist = UniformProbabilities(8, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(11, 16);
  PathEngineOptions options;
  options.log_n = std::log(static_cast<double>(n));
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<uint64_t> out;
  PathGenStats stats;
  engine.ComputeFilters(x.span(), 0, &out, &stats);
  // ceil(log2 100) = 7; paths = 8 P 7 ordered selections without
  // replacement = 8!/(8-7)! = 40320... all chosen since threshold 1.
  // Depth: ln(100)/ln(2) = 6.64 -> length 7.
  size_t expected = 1;
  for (size_t k = 8; k > 1; --k) expected *= k;  // 8*7*6*5*4*3*2 = 40320
  EXPECT_EQ(out.size(), expected);
}

TEST(PathEngineTest, RareItemsShortenPaths) {
  // One ultra-rare item: a path through it should stop immediately
  // (p <= 1/n), giving length-1 filters.
  const size_t n = 1000;
  std::vector<double> p{0.0005, 0.5, 0.5, 0.5};
  auto dist = ProductDistribution::Create(p).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(13, 16);
  PathEngineOptions options;
  options.log_n = std::log(static_cast<double>(n));
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0});
  std::vector<uint64_t> out;
  engine.ComputeFilters(x.span(), 0, &out, nullptr);
  // Only the single path (0), which stops right away.
  EXPECT_EQ(out.size(), 1u);
}

TEST(PathEngineTest, WithoutReplacementNeverRepeatsItems) {
  // With only 3 items of p = 0.5 and n = 1000 (needs depth 10), paths can
  // never reach the stop rule without repeating; without replacement the
  // recursion must die out, emitting nothing, rather than looping.
  auto dist = UniformProbabilities(3, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(17, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  options.without_replacement = true;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2});
  std::vector<uint64_t> out;
  engine.ComputeFilters(x.span(), 0, &out, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(PathEngineTest, WithReplacementCanRepeat) {
  // Same setup but with replacement: paths of length 10 exist.
  auto dist = UniformProbabilities(3, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(17, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2});
  std::vector<uint64_t> out;
  engine.ComputeFilters(x.span(), 0, &out, nullptr);
  // 3^10 paths all taken with threshold 1.
  EXPECT_EQ(out.size(), static_cast<size_t>(std::pow(3, 10)));
}

TEST(PathEngineTest, FixedDepthStopRule) {
  auto dist = UniformProbabilities(5, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(19, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2, 3, 4});
  std::vector<uint64_t> out;
  engine.ComputeFilters(x.span(), 0, &out, nullptr);
  EXPECT_EQ(out.size(), 25u);  // 5^2 ordered pairs with replacement
}

TEST(PathEngineTest, ThresholdScalesFilterCount) {
  // Halving the threshold should roughly quarter depth-2 path counts.
  auto dist = UniformProbabilities(200, 0.5).value();
  PathHasher hasher(23, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;

  auto count_for = [&](double s) {
    FixedPolicy policy(s);
    PathEngine engine(&dist, &policy, &hasher, options);
    SparseVector x = SparseVector::FromSorted([] {
      std::vector<ItemId> ids(200);
      for (ItemId i = 0; i < 200; ++i) ids[i] = i;
      return ids;
    }());
    double total = 0;
    for (uint32_t rep = 0; rep < 50; ++rep) {
      std::vector<uint64_t> out;
      engine.ComputeFilters(x.span(), rep, &out, nullptr);
      total += static_cast<double>(out.size());
    }
    return total / 50.0;
  };
  double full = count_for(0.2);   // E = (200*0.2)^2 = 1600
  double half = count_for(0.1);   // E = (200*0.1)^2 = 400
  EXPECT_NEAR(full / half, 4.0, 0.8);
}

TEST(PathEngineTest, CapTruncatesAndReports) {
  auto dist = UniformProbabilities(50, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(29, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 4;
  options.without_replacement = false;
  options.max_paths = 1000;  // far below 50^4
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<ItemId> ids(50);
  for (ItemId i = 0; i < 50; ++i) ids[i] = i;
  SparseVector x = SparseVector::FromSorted(ids);
  std::vector<uint64_t> out;
  PathGenStats stats;
  engine.ComputeFilters(x.span(), 0, &out, &stats);
  EXPECT_TRUE(stats.cap_hit);
  EXPECT_LE(out.size(), 1001u);
}

TEST(PathEngineTest, StatsCountNodesAndDraws) {
  auto dist = UniformProbabilities(20, 0.5).value();
  FixedPolicy policy(0.5);
  PathHasher hasher(31, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<ItemId> ids(20);
  for (ItemId i = 0; i < 20; ++i) ids[i] = i;
  SparseVector x = SparseVector::FromSorted(ids);
  std::vector<uint64_t> out;
  PathGenStats stats;
  engine.ComputeFilters(x.span(), 0, &out, &stats);
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GE(stats.draws, stats.nodes_expanded);  // >= |x| draws per node
  EXPECT_EQ(stats.filters_emitted, out.size());
}

TEST(PathEngineTest, SharedItemsYieldSharedFilters) {
  // Two vectors sharing most items should share filters; disjoint vectors
  // share none. This is the collision property the index relies on.
  auto dist = UniformProbabilities(300, 0.05).value();
  AdversarialPolicy policy(0.5);
  PathHasher hasher(37, 16);
  PathEngineOptions options;
  options.log_n = std::log(500.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  std::vector<ItemId> base;
  for (ItemId i = 0; i < 40; ++i) base.push_back(i);
  SparseVector x = SparseVector::FromSorted(base);
  std::vector<ItemId> mostly = base;
  mostly.erase(mostly.begin(), mostly.begin() + 4);  // drop 4 of 40
  for (ItemId i = 100; i < 104; ++i) mostly.push_back(i);
  SparseVector y = SparseVector::FromIds(mostly);
  std::vector<ItemId> other;
  for (ItemId i = 200; i < 240; ++i) other.push_back(i);
  SparseVector z = SparseVector::FromSorted(other);

  size_t shared_xy = 0, shared_xz = 0;
  for (uint32_t rep = 0; rep < 30; ++rep) {
    std::vector<uint64_t> fx, fy, fz;
    engine.ComputeFilters(x.span(), rep, &fx, nullptr);
    engine.ComputeFilters(y.span(), rep, &fy, nullptr);
    engine.ComputeFilters(z.span(), rep, &fz, nullptr);
    std::set<uint64_t> sx(fx.begin(), fx.end());
    for (uint64_t k : fy) shared_xy += sx.count(k);
    for (uint64_t k : fz) shared_xz += sx.count(k);
  }
  EXPECT_GT(shared_xy, 0u);
  EXPECT_EQ(shared_xz, 0u);
}

TEST(PathEngineTest, FusedAllRepsMatchesPerRepByteForByte) {
  // One Generate over [0, reps) must reproduce each repetition's key
  // stream exactly — same keys, same order — and sum the stats.
  auto dist = TwoBlockProbabilities(20, 0.3, 300, 0.01).value();
  FixedPolicy policy(0.25);
  PathHasher hasher(11, 32);
  PathEngineOptions options;
  options.log_n = std::log(2000.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  Rng rng(55);
  PathScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector x = dist.Sample(&rng);
    const uint32_t reps = 1 + static_cast<uint32_t>(trial % 7);

    std::vector<uint64_t> fused;
    std::vector<size_t> offsets;
    PathGenStats fused_stats;
    size_t capped = 0;
    engine.Prepare(x.span(), &scratch);
    engine.Generate(&scratch, 0, reps, &fused, &offsets, &fused_stats,
                    &capped);
    ASSERT_EQ(offsets.size(), reps + 1);
    ASSERT_EQ(offsets.front(), 0u);
    ASSERT_EQ(offsets.back(), fused.size());
    EXPECT_EQ(capped, 0u);

    size_t emitted = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      std::vector<uint64_t> single;
      PathGenStats stats;
      engine.ComputeFilters(x.span(), rep, &single, &stats);
      emitted += stats.filters_emitted;
      ASSERT_EQ(offsets[rep + 1] - offsets[rep], single.size()) << rep;
      for (size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(fused[offsets[rep] + i], single[i])
            << "rep " << rep << " pos " << i;
      }
    }
    EXPECT_EQ(fused_stats.filters_emitted, emitted);
  }
}

TEST(PathEngineTest, FusedAllRepsHandlesEmptyVectorAndZeroReps) {
  auto dist = UniformProbabilities(10, 0.3).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(1, 8);
  PathEngineOptions options;
  options.log_n = std::log(100.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  PathScratch scratch;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  engine.Prepare({}, &scratch);
  engine.Generate(&scratch, 0, 4, &keys, &offsets, nullptr);
  EXPECT_TRUE(keys.empty());
  ASSERT_EQ(offsets.size(), 5u);

  SparseVector x = SparseVector::Of({1, 3, 5});
  engine.Prepare(x.span(), &scratch);
  engine.Generate(&scratch, 0, 0, &keys, &offsets, nullptr);
  EXPECT_TRUE(keys.empty());
  ASSERT_EQ(offsets.size(), 1u);
}

TEST(PathEngineTest, GenerateAppendsAndOffsetsAreAbsolute) {
  // Generate appends behind existing keys; offsets index the whole
  // buffer, so a caller can collect several vectors into one.
  auto dist = UniformProbabilities(50, 0.2).value();
  FixedPolicy policy(0.5);
  PathHasher hasher(3, 16);
  PathEngineOptions options;
  options.log_n = std::log(500.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({2, 4, 8, 16, 32, 33, 40});

  PathScratch scratch;
  engine.Prepare(x.span(), &scratch);
  std::vector<uint64_t> keys = {7, 7, 7};
  std::vector<size_t> offsets;
  engine.Generate(&scratch, 2, 5, &keys, &offsets, nullptr);
  ASSERT_EQ(offsets.size(), 4u);
  EXPECT_EQ(offsets.front(), 3u);
  EXPECT_EQ(offsets.back(), keys.size());
  for (uint32_t rep = 2; rep < 5; ++rep) {
    std::vector<uint64_t> single;
    engine.ComputeFilters(x.span(), rep, &single, nullptr);
    EXPECT_EQ(std::vector<uint64_t>(keys.begin() + offsets[rep - 2],
                                    keys.begin() + offsets[rep - 1]),
              single);
  }
}

}  // namespace
}  // namespace skewsearch
