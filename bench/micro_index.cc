// Copyright 2026 The skewsearch Authors.
// Microbenchmarks: end-to-end index operations — filter generation,
// build throughput, and query latency for the paper's index and the
// baselines — plus the posting-table lookup on a mapped SKF1 table:
// FilterTable::Lookup through the radix directory against a plain
// std::lower_bound over the same keys_span(). The two must return the
// same posting list for every probe key (exit 1 otherwise).
// Standalone timer harness (bench_util.h).
//
// Flags: --json FILE            write metrics JSON (see bench_util.h)
//        --require-speedup X    exit nonzero unless the directory lookup
//                               is >= X times faster than lower_bound

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "baselines/chosen_path.h"
#include "baselines/prefix_filter.h"
#include "bench_util.h"
#include "core/inverted_index.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

// Lookup by binary search over the whole key array: the mapped-table
// path before the directory, kept here as the cell's reference.
std::span<const VectorId> LowerBoundLookup(const FilterTable& table,
                                           uint64_t key) {
  auto keys = table.keys_span();
  auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return {};
  return table.postings_at(static_cast<size_t>(it - keys.begin()));
}

struct MappedLookupCell {
  size_t keys = 0;
  size_t probes = 0;
  size_t hits = 0;
  size_t mismatches = 0;
  double directory_ns = 0.0;    // per probe key
  double lower_bound_ns = 0.0;  // per probe key
  bool ok = false;
};

// Freezes \p index to an SKF1 file, maps it back and probes the mapped
// table with every stored key plus the filter keys of \p queries (hits
// and misses, as in a search), in shuffled order.
MappedLookupCell RunMappedLookup(const SkewedPathIndex& index,
                                 const Dataset& data,
                                 const ProductDistribution& dist,
                                 const std::vector<SparseVector>& queries) {
  MappedLookupCell cell;
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/skewsearch_micro_index_" +
                           std::to_string(::getpid()) + ".skf";
  SkewedPathIndex mapped;
  const bool mapped_ok = index.Freeze(path).ok() &&
                         mapped.MapFrozen(path, &data, &dist).ok();
  std::remove(path.c_str());  // the mapping outlives the name
  if (!mapped_ok) return cell;
  const FilterTable& table = mapped.filter_table();

  std::vector<uint64_t> probes(table.keys_span().begin(),
                               table.keys_span().end());
  for (const SparseVector& q : queries) {
    for (uint64_t key : index.ComputeFilterKeys(q.span())) {
      probes.push_back(key);
    }
  }
  Rng shuffle_rng(9);
  shuffle_rng.Shuffle(&probes);

  for (uint64_t key : probes) {
    auto got = table.Lookup(key);
    auto expect = LowerBoundLookup(table, key);
    if (got.data() != expect.data() || got.size() != expect.size()) {
      ++cell.mismatches;
    }
    cell.hits += !got.empty();
  }
  const auto [lower_bound_ns, directory_ns] = bench::FastestAlternating(
      [&] {
        size_t sum = 0;
        for (uint64_t key : probes) sum += LowerBoundLookup(table, key).size();
        bench::DoNotOptimize(sum);
      },
      [&] {
        size_t sum = 0;
        for (uint64_t key : probes) sum += table.Lookup(key).size();
        bench::DoNotOptimize(sum);
      });
  const double n = static_cast<double>(std::max<size_t>(probes.size(), 1));
  cell.keys = table.num_keys();
  cell.probes = probes.size();
  cell.directory_ns = directory_ns / n;
  cell.lower_bound_ns = lower_bound_ns / n;
  cell.ok = true;
  return cell;
}

int Run(int argc, char** argv) {
  double require_speedup = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--require-speedup") == 0) {
      require_speedup = std::atof(argv[i + 1]);
    }
  }

  bench::Banner("Index micro-operations");
  bench::JsonReporter reporter("micro_index");

  auto dist = TwoBlockProbabilities(150, 0.25, 10000, 0.005).value();
  Rng rng(1);
  Dataset data = GenerateDataset(dist, 2048, &rng);
  CorrelatedQuerySampler sampler(&dist, 0.7);

  SkewedPathIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.repetitions = 8;
  options.delta = 0.1;
  if (!index.Build(&data, &dist, options).ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }

  bench::Table table({"operation", "ns/op"});

  Rng key_rng(2);
  SparseVector x = dist.Sample(&key_rng);
  const double keys_ns = bench::NsPerOp(
      [&] { bench::DoNotOptimize(index.ComputeFilterKeys(x.span())); }, 5,
      0.02);
  table.AddRow({"ComputeFilterKeys", bench::Fmt(keys_ns, 1)});
  reporter.Metric("compute_filter_keys_ns", keys_ns, /*stable=*/false, "ns");
  reporter.Metric("filter_keys_per_vector",
                  static_cast<double>(index.ComputeFilterKeys(x.span()).size()),
                  /*stable=*/true, "keys");

  Rng query_rng(3);
  SparseVector q = sampler.SampleCorrelated(data.Get(17), &query_rng);
  const double query_ns = bench::NsPerOp(
      [&] { bench::DoNotOptimize(index.Query(q.span())); }, 5, 0.02);
  table.AddRow({"SkewedPathIndex::Query", bench::Fmt(query_ns, 1)});
  reporter.Metric("query_ns", query_ns, /*stable=*/false, "ns");

  {
    auto small_dist = TwoBlockProbabilities(100, 0.25, 4000, 0.005).value();
    Rng build_rng(4);
    Dataset small = GenerateDataset(small_dist, 1024, &build_rng);
    SkewedIndexOptions build_options;
    build_options.mode = IndexMode::kCorrelated;
    build_options.alpha = 0.7;
    build_options.repetitions = 4;
    build_options.delta = 0.1;
    const double build_ns = bench::NsPerOp(
        [&] {
          SkewedPathIndex fresh;
          bench::DoNotOptimize(fresh.Build(&small, &small_dist,
                                           build_options));
        },
        3, 0.05);
    table.AddRow({"Build(n=1024)", bench::Fmt(build_ns, 0)});
    reporter.Metric("build_1024_ns", build_ns, /*stable=*/false, "ns");
  }

  {
    PrefixFilterIndex prefix;
    PrefixFilterOptions prefix_options;
    prefix_options.b1 = 0.5;
    if (prefix.Build(&data, prefix_options).ok()) {
      Rng prefix_rng(5);
      SparseVector pq = sampler.SampleCorrelated(data.Get(17), &prefix_rng);
      const double prefix_ns = bench::NsPerOp(
          [&] { bench::DoNotOptimize(prefix.Query(pq.span())); }, 5, 0.02);
      table.AddRow({"PrefixFilter::Query", bench::Fmt(prefix_ns, 1)});
      reporter.Metric("prefix_query_ns", prefix_ns, /*stable=*/false, "ns");
    }
  }

  {
    ChosenPathIndex cp;
    ChosenPathOptions cp_options;
    cp_options.b1 = 0.6;
    cp_options.b2 = 0.15;
    cp_options.repetitions = 8;
    cp_options.verify_threshold = 0.5;
    if (cp.Build(&data, &dist, cp_options).ok()) {
      Rng cp_rng(6);
      SparseVector cq = sampler.SampleCorrelated(data.Get(17), &cp_rng);
      const double cp_ns = bench::NsPerOp(
          [&] { bench::DoNotOptimize(cp.Query(cq.span())); }, 5, 0.02);
      table.AddRow({"ChosenPath::Query", bench::Fmt(cp_ns, 1)});
      reporter.Metric("chosen_path_query_ns", cp_ns, /*stable=*/false, "ns");
    }
  }

  Rng sample_rng(7);
  const double sample_ns = bench::NsPerOp(
      [&] { bench::DoNotOptimize(dist.Sample(&sample_rng)); }, 5, 0.02);
  table.AddRow({"ProductDistribution::Sample", bench::Fmt(sample_ns, 1)});
  table.Print();

  std::vector<SparseVector> lookup_queries;
  Rng lookup_rng(8);
  for (VectorId id = 0; id < 1000; ++id) {
    lookup_queries.push_back(sampler.SampleCorrelated(data.Get(id),
                                                      &lookup_rng));
  }
  const MappedLookupCell cell =
      RunMappedLookup(index, data, dist, lookup_queries);
  if (!cell.ok) {
    std::fprintf(stderr, "freeze/map of the lookup cell failed\n");
    return 1;
  }
  const double speedup =
      cell.directory_ns > 0.0 ? cell.lower_bound_ns / cell.directory_ns : 0.0;
  bench::Table lookups({"mapped lookup", "keys", "probes", "hits",
                        "ns/key", "speedup"});
  lookups.AddRow({"std::lower_bound", bench::Fmt(cell.keys),
                  bench::Fmt(cell.probes), bench::Fmt(cell.hits),
                  bench::Fmt(cell.lower_bound_ns, 1), "1.00"});
  lookups.AddRow({"FilterTable::Lookup", bench::Fmt(cell.keys),
                  bench::Fmt(cell.probes), bench::Fmt(cell.hits),
                  bench::Fmt(cell.directory_ns, 1), bench::Fmt(speedup, 2)});
  lookups.Print();
  bench::Note("lookup mismatches: " + bench::Fmt(cell.mismatches));
  reporter.Metric("mapped_lookup_keys", static_cast<double>(cell.keys),
                  /*stable=*/true, "keys");
  reporter.Metric("mapped_lookup_probes", static_cast<double>(cell.probes),
                  /*stable=*/true, "keys");
  reporter.Metric("mapped_lookup_hits", static_cast<double>(cell.hits),
                  /*stable=*/true, "keys");
  reporter.Metric("mapped_lookup_mismatches",
                  static_cast<double>(cell.mismatches), /*stable=*/true,
                  "keys");
  reporter.Metric("mapped_lookup_directory_ns", cell.directory_ns,
                  /*stable=*/false, "ns");
  reporter.Metric("mapped_lookup_lower_bound_ns", cell.lower_bound_ns,
                  /*stable=*/false, "ns");
  reporter.Metric("mapped_lookup_speedup", speedup, /*stable=*/false, "x");

  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  if (cell.mismatches != 0) {
    std::fprintf(stderr, "directory/lower_bound lookup mismatch\n");
    return 1;
  }
  if (require_speedup > 0.0 && speedup < require_speedup) {
    std::fprintf(stderr, "lookup speedup %.2f below required %.2f\n",
                 speedup, require_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
