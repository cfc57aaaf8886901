// Copyright 2026 The skewsearch Authors.
// The `search` and `search-frozen` workloads: one client in a closed loop
// issuing a fixed, seeded query list against a heap SkewedPathIndex, or
// against a 4-shard ShardedIndex served from its frozen SKF1 file mapped
// back with MapFrozen. Both answer the same list, and search-frozen checks
// its answers against a heap SkewedPathIndex built in the same process.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "harness.h"

namespace perfbench {

namespace {

using skewsearch::QueryStats;

constexpr size_t kVectors = 3000;
constexpr size_t kQueries = 2000;  // 3 planted : 1 unplanted
constexpr double kAlpha = 0.5;
constexpr int kShards = 4;
constexpr int kSetups = 5;

struct SearchInput {
  skewsearch::ProductDistribution dist;
  Dataset data;
  Dataset queries;
  std::vector<int64_t> targets;  ///< planted target id, -1 when unplanted
};

SearchInput MakeInput(uint64_t seed) {
  SearchInput in;
  in.dist = ZipfDistribution();
  skewsearch::Rng rng(seed ^ 0x5ea4c4ULL);
  in.data = skewsearch::GenerateDataset(in.dist, kVectors, &rng);
  Dataset fresh = NonEmptySamples(in.dist, kQueries / 4, &rng);
  skewsearch::CorrelatedQuerySampler sampler(&in.dist, kAlpha);
  for (size_t i = 0; i < kQueries; ++i) {
    if (i % 4 == 3) {
      in.queries.Add(fresh.Get(static_cast<VectorId>(i / 4)));
      in.targets.push_back(-1);
      continue;
    }
    while (true) {
      const auto target = static_cast<VectorId>(rng.NextBounded(kVectors));
      if (in.data.Get(target).empty()) continue;
      skewsearch::SparseVector q =
          sampler.SampleCorrelated(in.data.Get(target), &rng);
      if (q.size() == 0) continue;
      in.queries.Add(q.span());
      in.targets.push_back(target);
      break;
    }
  }
  return in;
}

bool SameAnswer(const std::optional<Match>& a, const std::optional<Match>& b) {
  return a.has_value() == b.has_value() && (!a || *a == *b);
}

}  // namespace

int RunSearch(const Args& args, bool frozen) {
  Report report(args.workload);
  Tracer tracer(args.trace);
  const SearchInput in = MakeInput(args.seed);
  const skewsearch::SkewedIndexOptions index_options;  // library defaults

  // search-frozen must return what the heap monolithic index returns.
  std::vector<std::optional<Match>> reference;
  if (frozen) {
    skewsearch::SkewedPathIndex heap;
    skewsearch::Status built = heap.Build(&in.data, &in.dist, index_options);
    report.Check(built.ok(), "reference build: " + built.ToString());
    for (VectorId i = 0; i < in.queries.size(); ++i) {
      reference.push_back(heap.Query(in.queries.Get(i)));
    }
  }

  // Set-up, repeated; the last one serves the queries.
  std::unique_ptr<skewsearch::SkewedPathIndex> index;
  std::unique_ptr<skewsearch::ShardedIndex> sharded;
  const std::string frozen_path =
      args.workdir + "/search-frozen-" + std::to_string(::getpid()) + ".skf";
  std::vector<double> setup_s, freeze_s, map_ms;
  for (int k = 0; k < kSetups; ++k) {
    index.reset();
    sharded.reset();
    SpanScope setup_span(&tracer, "setup", 0);
    const int64_t start = NowNs();
    if (!frozen) {
      index = std::make_unique<skewsearch::SkewedPathIndex>();
      skewsearch::Status s = index->Build(&in.data, &in.dist, index_options);
      report.Check(s.ok(), "build: " + s.ToString());
      setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
      continue;
    }
    skewsearch::ShardedIndexOptions options;
    options.index = index_options;
    options.num_shards = kShards;
    skewsearch::ShardedIndex heap;
    skewsearch::Status s = heap.Build(&in.data, &in.dist, options);
    report.Check(s.ok(), "sharded build: " + s.ToString());
    const int64_t built = NowNs();
    s = heap.Freeze(frozen_path);
    report.Check(s.ok(), "freeze: " + s.ToString());
    const int64_t froze = NowNs();
    sharded = std::make_unique<skewsearch::ShardedIndex>();
    s = sharded->MapFrozen(frozen_path, &in.data, &in.dist);
    report.Check(s.ok(), "map: " + s.ToString());
    const int64_t mapped = NowNs();
    setup_s.push_back(static_cast<double>(mapped - start) * 1e-9);
    freeze_s.push_back(static_cast<double>(froze - built) * 1e-9);
    map_ms.push_back(static_cast<double>(mapped - froze) * 1e-6);
  }
  std::filesystem::remove(frozen_path);

  const skewsearch::FilterFamily& family =
      frozen ? sharded->family() : index->family();
  std::vector<const skewsearch::FilterTable*> tables;
  if (frozen) {
    for (int s = 0; s < sharded->num_shards(); ++s) {
      tables.push_back(&sharded->shard_table(s));
    }
  } else {
    tables.push_back(&index->filter_table());
  }
  auto query = [&](VectorId i, QueryStats* stats) {
    return frozen ? sharded->Query(in.queries.Get(i), stats)
                  : index->Query(in.queries.Get(i), stats);
  };

  // Untimed warm-up pass; its answers and work counts are the run's
  // reference, and every timed pass must repeat the answers exactly.
  std::vector<std::optional<Match>> answers(kQueries);
  QueryStats work;
  size_t planted = 0, found_target = 0, hits = 0;
  for (VectorId i = 0; i < kQueries; ++i) {
    QueryStats stats;
    answers[i] = query(i, &stats);
    skewsearch::AddQueryStats(&work, stats);
    report.Attempt();
    if (frozen && !SameAnswer(answers[i], reference[i])) {
      report.Fail("query " + std::to_string(i) +
                  ": mapped sharded answer differs from the heap index");
    }
    hits += answers[i].has_value();
    if (in.targets[i] >= 0) {
      ++planted;
      found_target += answers[i] && static_cast<int64_t>(answers[i]->id) ==
                                        in.targets[i];
    }
  }

  // Timed passes over the fixed list until --seconds have elapsed. In a
  // traced run every other pass is traced: each query gets a "query" span
  // and is followed by its decomposition replay.
  std::vector<double> latency_us, pass_ops_per_s, traced_ops_per_s;
  ReplayScratch scratch;
  ReplayCounts replayed;
  size_t traced_lookups = 0;
  const int64_t loop_start = NowNs();
  for (int pass = 0;
       pass < 2 || static_cast<double>(NowNs() - loop_start) * 1e-9 <
                       args.seconds;
       ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    const int64_t pass_start = NowNs();
    for (VectorId i = 0; i < kQueries; ++i) {
      report.Attempt();
      std::optional<Match> got;
      if (traced) {
        SpanScope span(&tracer, "query", i);
        got = query(i, nullptr);
      } else {
        const int64_t start = NowNs();
        got = query(i, nullptr);
        latency_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
      }
      if (!SameAnswer(got, answers[i])) {
        report.Fail("query " + std::to_string(i) + " changed answer");
      }
      if (!traced) continue;
      SpanScope span(&tracer, "replay", i);
      ReplayCounts counts = ReplayQuery(family, tables, in.data,
                                        in.queries.Get(i), i, &tracer,
                                        &scratch);
      traced_lookups += counts.lookups;
      if (!SameAnswer(counts.found, answers[i])) {
        report.Fail("query " + std::to_string(i) +
                    ": replay through the layer calls found another answer");
      }
      if (pass != 1) continue;  // work counts from the first traced pass
      replayed.reps += counts.reps;
      replayed.keys += counts.keys;
      replayed.candidates += counts.candidates;
      replayed.distinct += counts.distinct;
      replayed.verifications += counts.verifications;
    }
    const double wall = static_cast<double>(NowNs() - pass_start) * 1e-9;
    (traced ? traced_ops_per_s : pass_ops_per_s)
        .push_back(static_cast<double>(kQueries) / wall);
  }

  const double num_queries = static_cast<double>(kQueries);
  const size_t postings = [&] {
    size_t total = 0;
    for (const auto* table : tables) total += table->num_pairs();
    return total;
  }();
  const double bytes =
      frozen ? static_cast<double>(sharded->frozen_file()->file_bytes())
             : static_cast<double>(index->MemoryBytes());
  const std::vector<double> best_us = FastestPerOp(latency_us, kQueries);
  double best_total_us = 0.0;
  for (double us : best_us) best_total_us += us;
  report.EndToEnd("setup_s", Median(setup_s));
  report.EndToEnd("op_p50_us", Median(best_us));
  report.EndToEnd("ops_per_s", num_queries * 1e6 / best_total_us);
  report.EndToEnd("recall",
                  static_cast<double>(found_target) /
                      static_cast<double>(std::max<size_t>(planted, 1)));
  report.EndToEnd("bytes_per_posting",
                  bytes / static_cast<double>(std::max<size_t>(postings, 1)));
  if (auto p99 = Quantile(best_us, 0.99)) {
    report.Extra("op_p99_us", *p99, "us");
  }
  report.Extra("passes_timed", static_cast<double>(pass_ops_per_s.size()),
               "count");

  report.Counter("queries", num_queries);
  report.Counter("hits", static_cast<double>(hits));
  report.Counter("planted_found", static_cast<double>(found_target));
  report.Counter("keys", static_cast<double>(work.filters));
  report.Counter("candidates", static_cast<double>(work.candidates));
  report.Counter("distinct", static_cast<double>(work.distinct_candidates));
  report.Counter("verifications", static_cast<double>(work.verifications));
  report.Counter("postings", static_cast<double>(postings));

  if (args.trace) {
    report.Check(replayed.keys == work.filters &&
                     replayed.candidates == work.candidates &&
                     replayed.distinct == work.distinct_candidates &&
                     replayed.verifications == work.verifications,
                 "replayed work counts differ from the index's QueryStats");
    report.Layer("path_engine.us_per_query",
                 tracer.SelfSeconds("path_engine.filters") * 1e6 /
                     static_cast<double>(tracer.Count("replay")));
    report.Layer("path_engine.reps_per_query",
                 static_cast<double>(replayed.reps) / num_queries);
    report.Layer("path_engine.keys_per_query",
                 static_cast<double>(work.filters) / num_queries);
    report.Layer("inverted_index.lookup_ns_per_key",
                 tracer.SelfSeconds("inverted_index.lookup") * 1e9 /
                     static_cast<double>(std::max<size_t>(traced_lookups, 1)));
    report.Layer("sim.us_per_query",
                 tracer.SelfSeconds("sim.verify") * 1e6 /
                     static_cast<double>(tracer.Count("replay")));
    report.Layer("inverted_index.heap_mb",
                 static_cast<double>(frozen ? sharded->MemoryBytes()
                                            : index->MemoryBytes()) /
                     1e6);
    report.Layer("sharded_index.candidates_per_query",
                 static_cast<double>(work.candidates) / num_queries);
    report.Layer("sharded_index.distinct_per_query",
                 static_cast<double>(work.distinct_candidates) / num_queries);
    report.Layer("sim.verifications_per_query",
                 static_cast<double>(work.verifications) / num_queries);
    report.Layer("sim.useful_ratio",
                 static_cast<double>(hits) /
                     static_cast<double>(
                         std::max<size_t>(work.verifications, 1)));
    if (frozen) {
      report.Layer("frozen_shard.freeze_s", Median(freeze_s));
      report.Layer("frozen_shard.map_ms", Median(map_ms));
    }
    report.Layer("trace.overhead_ratio",
                 Median(pass_ops_per_s) / Median(traced_ops_per_s));
    const BuildReplay build =
        ReplayBuild(family, in.data, frozen ? kShards : 1, &tracer);
    report.Check(build.pairs == postings,
                 "replayed build made " + std::to_string(build.pairs) +
                     " postings, the index has " + std::to_string(postings));
    ReportBuildReplay(build, in.data.size(), &report);
    tracer.Dump(args.workdir + "/trace-" + args.workload + ".tsv");
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  return report.Print(args.trace);
}

}  // namespace perfbench
