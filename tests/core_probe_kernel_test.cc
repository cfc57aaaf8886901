// The probe kernel (core/probe.h) behind every index flavour's Query,
// QueryAll and the distributed worker's Probe.
//
// WorkCounterPins fixes the summed QueryStats and the answered ids of
// each flavour at fixed seeds on Zipf data. The constants were recorded
// from the per-flavour loops the kernel replaced, so they pin each
// posting source's skip order: dedup first, then the source's admit
// check (tombstones, missing items, the self-join exclusion), then one
// counted verification. A mismatch prints the measured row in the
// table's own syntax.
//
// The trace tests check that every flavour records the same query
// metrics and phase spans, from the same code.

#include "core/probe.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/dynamic_index.h"
#include "core/sharded_index.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "distributed/worker.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

/// Summed work counters of one query batch plus a digest of its answers.
struct Pin {
  size_t filters = 0;
  size_t candidates = 0;
  size_t distinct = 0;
  size_t verifications = 0;
  size_t answers = 0;   ///< hits (Query) or matches (QueryAll / Probe)
  uint64_t digest = 0;  ///< FNV-1a over (query index, answered id)
};

bool operator==(const Pin& a, const Pin& b) {
  return a.filters == b.filters && a.candidates == b.candidates &&
         a.distinct == b.distinct && a.verifications == b.verifications &&
         a.answers == b.answers && a.digest == b.digest;
}

std::string Row(const Pin& p) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "{%zu, %zu, %zu, %zu, %zu, 0x%016llxULL}",
                p.filters, p.candidates, p.distinct, p.verifications,
                p.answers, static_cast<unsigned long long>(p.digest));
  return buf;
}

void Fold(uint64_t* digest, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (value >> (8 * byte)) & 0xff;
    *digest *= 0x100000001b3ULL;
  }
}

void AddStats(Pin* pin, const QueryStats& stats) {
  pin->filters += stats.filters;
  pin->candidates += stats.candidates;
  pin->distinct += stats.distinct_candidates;
  pin->verifications += stats.verifications;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr double kAllThreshold = 0.3;

/// Query() over every query vector.
template <typename Index>
Pin PinQuery(const Index& index, const Dataset& queries) {
  Pin pin;
  pin.digest = kFnvOffset;
  for (VectorId i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    auto hit = index.Query(queries.Get(i), &stats);
    AddStats(&pin, stats);
    if (!hit) continue;
    pin.answers++;
    Fold(&pin.digest, i);
    Fold(&pin.digest, hit->id);
  }
  return pin;
}

/// QueryAll() at kAllThreshold over every query vector.
template <typename Index>
Pin PinQueryAll(const Index& index, const Dataset& queries) {
  Pin pin;
  pin.digest = kFnvOffset;
  for (VectorId i = 0; i < queries.size(); ++i) {
    QueryStats stats;
    std::vector<Match> all = index.QueryAll(queries.Get(i), kAllThreshold,
                                            &stats);
    AddStats(&pin, stats);
    for (const Match& m : all) {
      pin.answers++;
      Fold(&pin.digest, i);
      Fold(&pin.digest, m.id);
    }
  }
  return pin;
}

class ProbeKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = ZipfProbabilities(2000, 0.8, 0.3).value();
    Rng rng(1515);
    data_ = GenerateDataset(dist_, 1500, &rng);
    // 30 planted queries (alpha-correlated with a stored vector), then
    // 10 fresh draws from the distribution (mostly misses).
    CorrelatedQuerySampler sampler(&dist_, 0.7);
    Rng qrng(1516);
    for (int t = 0; t < 30; ++t) {
      VectorId target = static_cast<VectorId>(qrng.NextBounded(data_.size()));
      queries_.Add(sampler.SampleCorrelated(data_.Get(target), &qrng).span());
    }
    for (int t = 0; t < 10; ++t) queries_.Add(dist_.Sample(&qrng).span());
    path_ = test::TempPath("probe_kernel", this, ".skf");
  }

  void TearDown() override { std::remove(path_.c_str()); }

  SkewedIndexOptions IndexOptions() const {
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = 0.7;
    options.repetitions = 8;
    options.seed = 777;
    return options;
  }

  ShardedIndexOptions ShardedOptions(int num_shards) const {
    ShardedIndexOptions options;
    options.index = IndexOptions();
    options.num_shards = num_shards;
    return options;
  }

  DynamicIndexOptions DynamicOptions() const {
    DynamicIndexOptions options;
    options.index = IndexOptions();
    options.num_shards = 2;
    return options;
  }

  /// A fixed churn: 40 inserted vectors (fresh draws), then removal of
  /// every 7th base id and every 3rd inserted id. No compaction runs,
  /// so tombstoned postings stay in place for the admit check to skip.
  void Churn(DynamicIndex* index) {
    Rng rng(1517);
    std::vector<VectorId> inserted;
    while (inserted.size() < 40) {
      SparseVector v = dist_.Sample(&rng);
      if (v.span().empty()) continue;
      Result<VectorId> id = index->Insert(v.span());
      ASSERT_TRUE(id.ok());
      inserted.push_back(*id);
    }
    for (VectorId id = 0; id < data_.size(); id += 7) {
      ASSERT_TRUE(index->Remove(id).ok());
    }
    for (size_t i = 0; i < inserted.size(); i += 3) {
      ASSERT_TRUE(index->Remove(inserted[i]).ok());
    }
  }

  ProductDistribution dist_;
  Dataset data_;
  Dataset queries_;
  std::string path_;
};

#define EXPECT_PIN(expected, actual)                                      \
  do {                                                                    \
    const Pin measured = (actual);                                        \
    EXPECT_TRUE((expected) == measured) << "measured: " << Row(measured); \
  } while (0)

TEST_F(ProbeKernelTest, WorkCounterPinsSkewedPathIndex) {
  SkewedPathIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, IndexOptions()).ok());
  EXPECT_PIN((Pin{915, 135, 60, 60, 26, 0x7c69b10b6eceeda4ULL}),
             PinQuery(index, queries_));
  EXPECT_PIN((Pin{3251, 1522, 118, 118, 52, 0xf09d9d6cc49397a2ULL}),
             PinQueryAll(index, queries_));
}

TEST_F(ProbeKernelTest, WorkCounterPinsShardedHeapAndMapped) {
  struct Case {
    int shards;
    Pin query;
    Pin all;
  };
  const Case cases[] = {
      {1, Pin{915, 135, 60, 60, 26, 0x7c69b10b6eceeda4ULL},
       Pin{3251, 1522, 118, 118, 52, 0xf09d9d6cc49397a2ULL}},
      {4, Pin{915, 141, 67, 67, 26, 0x7c69b10b6eceeda4ULL},
       Pin{3251, 1522, 118, 118, 52, 0xf09d9d6cc49397a2ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("K=" + std::to_string(c.shards));
    ShardedIndex heap;
    ASSERT_TRUE(heap.Build(&data_, &dist_, ShardedOptions(c.shards)).ok());
    EXPECT_PIN(c.query, PinQuery(heap, queries_));
    EXPECT_PIN(c.all, PinQueryAll(heap, queries_));
    ASSERT_TRUE(heap.Freeze(path_).ok());
    ShardedIndex mapped;
    ASSERT_TRUE(mapped.MapFrozen(path_, &data_, &dist_).ok());
    ASSERT_TRUE(mapped.frozen_file() != nullptr);
    EXPECT_PIN(c.query, PinQuery(mapped, queries_));
    EXPECT_PIN(c.all, PinQueryAll(mapped, queries_));
  }
}

TEST_F(ProbeKernelTest, WorkCounterPinsDynamicAfterChurn) {
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, DynamicOptions()).ok());
  Churn(&index);
  ASSERT_GT(index.num_tombstones(), 0u);
  EXPECT_PIN((Pin{927, 145, 64, 53, 25, 0x1ab77b295dea3c8bULL}),
             PinQuery(index, queries_));
  EXPECT_PIN((Pin{3251, 1527, 119, 98, 43, 0xf4f18c552550a436ULL}),
             PinQueryAll(index, queries_));
}

TEST_F(ProbeKernelTest, WorkCounterPinsDynamicUnderSecondEdition) {
  // Every shard migrates to the re-derived edition; the view holds one
  // live edition (a view with two live editions at once has no test
  // hook and is covered by the maintenance suites).
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, DynamicOptions()).ok());
  Churn(&index);
  ASSERT_TRUE(index.RebuildForSize(2 * data_.size()).ok());
  ASSERT_EQ(index.edition_version(), 1u);
  EXPECT_PIN((Pin{1098, 65, 45, 45, 25, 0x1ab77b295dea3c8bULL}),
             PinQuery(index, queries_));
  EXPECT_PIN((Pin{3978, 1541, 75, 75, 39, 0x07eee830f34af689ULL}),
             PinQueryAll(index, queries_));
}

TEST_F(ProbeKernelTest, WorkCounterPinsJoinWorkerProbe) {
  SkewedPathIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, IndexOptions()).ok());
  JoinWorker worker(0, index.filter_table(), &data_, kAllThreshold,
                    Measure::kBraunBlanquet);
  // Probes in scan order (matches stay unsorted), once as an R-S probe
  // with the query vectors and once as a self-join over the data.
  auto probe_all = [&](const Dataset& probes, bool self_join) {
    Pin pin;
    pin.digest = kFnvOffset;
    for (VectorId i = 0; i < probes.size(); ++i) {
      ProbeRequest request;
      request.left = i;
      request.items = probes.Get(i);
      request.exclude_left_and_below = self_join;
      request.keys = index.ComputeFilterKeys(request.items);
      pin.filters += request.keys.size();
      ProbeResponse response = worker.Probe(request);
      pin.candidates += response.candidates;
      pin.verifications += response.verifications;
      for (const Match& m : response.matches) {
        pin.answers++;
        Fold(&pin.digest, i);
        Fold(&pin.digest, m.id);
      }
    }
    return pin;
  };
  EXPECT_PIN((Pin{3251, 1522, 0, 118, 52, 0x837646a275e33baaULL}),
             probe_all(queries_, false));
  EXPECT_PIN((Pin{91959, 103529, 0, 1543, 461, 0x5ed7158a2706d1ddULL}),
             probe_all(data_, true));
}

/// Runs \p query_once under a ScopedTrace and returns the span names
/// it recorded; checks that the global query.count rose by \p queries.
template <typename Fn>
std::vector<std::string> TracedNames(uint64_t queries, Fn&& query_once) {
  obs::Counter* count =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  const uint64_t before = count->Value();
  std::vector<std::string> names;
  {
    obs::ScopedTrace trace;
    query_once();
    for (const obs::TraceEntry& entry : trace.entries()) {
      names.emplace_back(entry.name);
    }
  }
  EXPECT_EQ(count->Value(), before + queries);
  return names;
}

bool Has(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& n : names) {
    if (n == name) return true;
  }
  return false;
}

void ExpectQueryTrace(const std::vector<std::string>& names) {
  EXPECT_TRUE(Has(names, "span.query.filters"));
  EXPECT_TRUE(Has(names, "span.query.verify"));
  EXPECT_TRUE(Has(names, "query.latency_ns"));
}

template <typename Index>
void ExpectEveryQueryTraced(const Index& index, const Dataset& queries) {
  ExpectQueryTrace(
      TracedNames(1, [&] { (void)index.Query(queries.Get(0)); }));
  const std::vector<std::string> all = TracedNames(
      0, [&] { (void)index.QueryAll(queries.Get(0), kAllThreshold); });
  EXPECT_TRUE(Has(all, "span.query.all"));
}

TEST_F(ProbeKernelTest, EveryFlavourRecordsTheQueryTrace) {
  {
    SCOPED_TRACE("SkewedPathIndex");
    SkewedPathIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, IndexOptions()).ok());
    ExpectEveryQueryTraced(index, queries_);
  }
  {
    SCOPED_TRACE("ShardedIndex heap");
    ShardedIndex heap;
    ASSERT_TRUE(heap.Build(&data_, &dist_, ShardedOptions(4)).ok());
    ExpectEveryQueryTraced(heap, queries_);
    ASSERT_TRUE(heap.Freeze(path_).ok());
    SCOPED_TRACE("ShardedIndex mapped");
    ShardedIndex mapped;
    ASSERT_TRUE(mapped.MapFrozen(path_, &data_, &dist_).ok());
    ExpectEveryQueryTraced(mapped, queries_);
  }
  {
    SCOPED_TRACE("DynamicIndex");
    DynamicIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, DynamicOptions()).ok());
    ExpectEveryQueryTraced(index, queries_);
  }
}

TEST_F(ProbeKernelTest, JoinWorkerProbeRecordsTheAllSpan) {
  SkewedPathIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, IndexOptions()).ok());
  JoinWorker worker(0, index.filter_table(), &data_, kAllThreshold,
                    Measure::kBraunBlanquet);
  ProbeRequest request;
  request.items = queries_.Get(0);
  request.keys = index.ComputeFilterKeys(request.items);
  const std::vector<std::string> names =
      TracedNames(0, [&] { (void)worker.Probe(request); });
  EXPECT_TRUE(Has(names, "span.query.all"));
}

}  // namespace
}  // namespace skewsearch
