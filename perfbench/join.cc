// Copyright 2026 The skewsearch Authors.
// The `join` workload: a self similarity join at b1 = 0.5 (adversarial
// mode) on the distributed backend with 2 in-process workers, over 2000
// Zipf vectors plus 250 planted similar twins (i.i.d. vectors alone are
// almost never 0.5-similar, so without twins the join would return
// nothing). The set-up is DistributedJoin::Build (index, partition plan,
// worker tables); each op is one DistributedJoin::Join call probing a
// fixed chunk of kChunk input vectors through routing, the workers and the
// merge. Whole join calls last long enough that host load swings set their
// time; chunk probes are short, and each one's fastest repeat is timed.
// The chunks cover the input, so one pass probes every input vector
// against the whole input: its pairs above the diagonal must be exactly the
// single-process SelfSimilarityJoin's, which must in turn equal the
// distributed SelfSimilarityJoin's, every pair verifying >= b1; recall is
// measured against brute force.

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>

#include "core/similarity_join.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "distributed/distributed_join.h"
#include "harness.h"

namespace perfbench {

namespace {

using skewsearch::JoinPair;
using Pairs = std::vector<std::tuple<VectorId, VectorId, double>>;

constexpr size_t kVectors = 2000;
constexpr size_t kTwins = 250;
constexpr double kTwinAlpha = 0.8;
constexpr double kB1 = 0.5;
constexpr int kWorkers = 2;
constexpr size_t kChunk = 8;  // probe vectors per op
constexpr int kSetups = 5;
constexpr int kMinPasses = 3;

Dataset MakeInput(const skewsearch::ProductDistribution& dist, uint64_t seed) {
  skewsearch::Rng rng(seed ^ 0x701aULL);
  Dataset data = skewsearch::GenerateDataset(dist, kVectors, &rng);
  skewsearch::CorrelatedQuerySampler twins(&dist, kTwinAlpha);
  for (size_t t = 0; t < kTwins;) {
    const auto source = static_cast<VectorId>(rng.NextBounded(kVectors));
    if (data.Get(source).empty()) continue;
    skewsearch::SparseVector twin =
        twins.SampleCorrelated(data.Get(source), &rng);
    if (twin.size() == 0) continue;
    data.Add(twin.span());
    ++t;
  }
  return data;
}

// Pairs as (smaller id, larger id, similarity), sorted.
Pairs Canonical(const std::vector<JoinPair>& pairs) {
  Pairs out;
  out.reserve(pairs.size());
  for (const JoinPair& p : pairs) {
    out.emplace_back(std::min(p.left, p.right), std::max(p.left, p.right),
                     p.similarity);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// A chunk's R-S pairs as self-join pairs: chunk-local left ids shifted by
// the chunk's first id, keeping only pairs above the diagonal (the self
// join's exclude-left-and-below rule).
Pairs AboveDiagonal(const std::vector<JoinPair>& pairs, VectorId first) {
  Pairs out;
  for (const JoinPair& p : pairs) {
    const VectorId left = first + p.left;
    if (p.right > left) out.emplace_back(left, p.right, p.similarity);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

int RunJoin(const Args& args) {
  Report report(args.workload);
  Tracer tracer(args.trace);
  const skewsearch::ProductDistribution dist = ZipfDistribution();
  const Dataset data = MakeInput(dist, args.seed);
  const double n = static_cast<double>(data.size());

  skewsearch::JoinOptions options;  // library defaults except:
  options.index.mode = skewsearch::IndexMode::kAdversarial;
  options.index.b1 = kB1;
  options.workers = kWorkers;
  skewsearch::JoinOptions local_options = options;
  local_options.workers = 0;
  // The distributed backend configured as SelfSimilarityJoin configures it.
  skewsearch::DistributedJoinOptions distributed;
  distributed.index = options.index;
  distributed.threshold = options.threshold;
  distributed.workers = options.workers;
  distributed.heavy_threshold = options.heavy_threshold;
  distributed.threads = options.probe_threads;
  distributed.probe_batch = options.probe_batch;
  distributed.pipeline = options.pipeline;

  // Set-up: the distributed build — family, posting table, partition plan
  // and worker tables — timed kSetups times; the last one serves the ops.
  std::vector<double> setup_s;
  std::unique_ptr<skewsearch::DistributedJoin> join;
  for (int k = 0; k < kSetups; ++k) {
    join = std::make_unique<skewsearch::DistributedJoin>();
    const int64_t start = NowNs();
    skewsearch::Status s = join->Build(&data, &dist, distributed);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    report.Check(s.ok(), "distributed build: " + s.ToString());
  }

  // The build side as a standalone heap index, for its memory per posting.
  double bytes_per_posting = 0.0;
  {
    skewsearch::SkewedPathIndex index;
    skewsearch::Status s = index.Build(&data, &dist, options.index);
    report.Check(s.ok(), "build: " + s.ToString());
    const size_t postings = index.filter_table().num_pairs();
    bytes_per_posting = static_cast<double>(index.MemoryBytes()) /
                        static_cast<double>(std::max<size_t>(postings, 1));
    if (args.trace) {
      ReportBuildReplay(ReplayBuild(index.family(), data, 1, &tracer),
                        data.size(), &report);
      report.Layer("inverted_index.heap_mb",
                   static_cast<double>(index.MemoryBytes()) / 1e6);
    }
  }

  // References: brute force for recall; the single-process and the
  // distributed SelfSimilarityJoin, which must agree with each other.
  const Pairs exact =
      Canonical(skewsearch::BruteForceSearcher(&data).SelfJoinAbove(kB1));
  const int64_t local_start = NowNs();
  auto local = skewsearch::SelfSimilarityJoin(data, dist, local_options);
  const double local_join_s =
      static_cast<double>(NowNs() - local_start) * 1e-9;
  report.Attempt();
  if (!local.ok()) report.Fail("local join: " + local.status().ToString());
  const Pairs expected = local.ok() ? Canonical(local.value()) : Pairs{};
  for (const auto& [left, right, sim] : expected) {
    const double verified = skewsearch::Similarity(
        skewsearch::Measure::kBraunBlanquet, data.Get(left), data.Get(right));
    report.Check(verified >= kB1, "pair (" + std::to_string(left) + ", " +
                                      std::to_string(right) + ") is below b1");
  }
  skewsearch::JoinStats whole;
  {
    auto got = skewsearch::SelfSimilarityJoin(data, dist, options, &whole);
    report.Attempt();
    if (!got.ok()) {
      report.Fail("distributed join: " + got.status().ToString());
    } else if (Canonical(got.value()) != expected) {
      report.Fail("distributed SelfSimilarityJoin differs from the local one");
    }
  }

  // The op list: fixed chunks covering the input.
  std::vector<Dataset> chunks;
  std::vector<VectorId> chunk_first;
  for (size_t first = 0; first < data.size(); first += kChunk) {
    Dataset chunk;
    const size_t end = std::min(data.size(), first + kChunk);
    for (size_t i = first; i < end; ++i) {
      chunk.Add(data.Get(static_cast<VectorId>(i)));
    }
    chunks.push_back(std::move(chunk));
    chunk_first.push_back(static_cast<VectorId>(first));
  }
  const size_t ops = chunks.size();

  // Untimed warm-up pass: its answers and work counts are the reference
  // every timed pass must repeat, and together they must be the self join.
  std::vector<Pairs> answers(ops);
  skewsearch::DistributedJoinStats work;
  Pairs joined;
  for (size_t c = 0; c < ops; ++c) {
    skewsearch::DistributedJoinStats stats;
    auto got = join->Join(chunks[c], &stats);
    report.Attempt();
    if (!got.ok()) {
      report.Fail("chunk join: " + got.status().ToString());
      continue;
    }
    answers[c] = AboveDiagonal(got.value(), chunk_first[c]);
    joined.insert(joined.end(), answers[c].begin(), answers[c].end());
    work.pairs += stats.pairs;
    work.candidates += stats.candidates;
    work.verifications += stats.verifications;
  }
  std::sort(joined.begin(), joined.end());
  report.Check(joined == expected,
               "chunked distributed probes differ from the self join");

  // Timed passes over the fixed chunk list until --seconds have elapsed;
  // in a traced run every other pass gets spans.
  std::vector<double> op_us, traced_pass_s, untraced_pass_s;
  const int64_t loop_start = NowNs();
  int passes = 0;
  for (; passes < kMinPasses ||
         static_cast<double>(NowNs() - loop_start) * 1e-9 < args.seconds;
       ++passes) {
    const bool traced = args.trace && passes % 2 == 1;
    skewsearch::DistributedJoinStats total;
    const int64_t pass_start = NowNs();
    for (size_t c = 0; c < ops; ++c) {
      skewsearch::DistributedJoinStats stats;
      if (traced) tracer.Open("join.chunk", c);
      const int64_t start = NowNs();
      auto got = join->Join(chunks[c], &stats);
      const int64_t end = NowNs();
      if (traced) {
        // The library reports the call's probe time (route + serve +
        // merge); record it as the child span.
        tracer.Add("similarity_join.probe", c, start,
                   start + static_cast<int64_t>(stats.probe_seconds * 1e9));
        tracer.Close();
      }
      op_us.push_back(static_cast<double>(end - start) * 1e-3);
      report.Attempt();
      if (!got.ok()) {
        report.Fail("chunk join: " + got.status().ToString());
      } else if (AboveDiagonal(got.value(), chunk_first[c]) != answers[c]) {
        report.Fail("chunk " + std::to_string(c) +
                    " answered differently than in the warm-up pass");
      }
      total.pairs += stats.pairs;
      total.candidates += stats.candidates;
      total.verifications += stats.verifications;
    }
    (traced ? traced_pass_s : untraced_pass_s)
        .push_back(static_cast<double>(NowNs() - pass_start) * 1e-9);
    report.Check(total.pairs == work.pairs &&
                     total.candidates == work.candidates &&
                     total.verifications == work.verifications,
                 "join work counts changed between passes");
  }

  // Recall: brute-force pairs the join found (ids only; both sides agree
  // on similarity by construction).
  auto ids = [](const Pairs& pairs) {
    std::vector<std::pair<VectorId, VectorId>> out;
    for (const auto& [a, b, sim] : pairs) out.emplace_back(a, b);
    return out;
  };
  std::vector<std::pair<VectorId, VectorId>> found_pairs;
  const auto exact_ids = ids(exact), joined_ids = ids(joined);
  std::set_intersection(exact_ids.begin(), exact_ids.end(),
                        joined_ids.begin(), joined_ids.end(),
                        std::back_inserter(found_pairs));
  const size_t found = found_pairs.size();

  const std::vector<double> best_us = FastestPerOp(op_us, ops);
  double best_pass_us = 0.0;
  for (double us : best_us) best_pass_us += us;
  report.EndToEnd("setup_s", Median(setup_s));
  report.EndToEnd("op_p50_us", Median(best_us));
  report.EndToEnd("ops_per_s", n / (best_pass_us * 1e-6));
  report.EndToEnd("recall",
                  static_cast<double>(found) /
                      static_cast<double>(std::max<size_t>(exact.size(), 1)));
  report.EndToEnd("bytes_per_posting", bytes_per_posting);
  report.Extra("ops_per_pass", static_cast<double>(ops), "count");
  report.Extra("passes", static_cast<double>(passes), "count");

  report.Counter("vectors", n);
  report.Counter("pairs", static_cast<double>(joined.size()));
  report.Counter("exact_pairs", static_cast<double>(exact.size()));
  report.Counter("found_pairs", static_cast<double>(found));
  report.Counter("candidates", static_cast<double>(work.candidates));
  report.Counter("verifications", static_cast<double>(work.verifications));

  if (args.trace) {
    report.Layer("similarity_join.build_s", whole.build_seconds);
    report.Layer("similarity_join.probe_s", whole.probe_seconds);
    report.Layer("similarity_join.candidates_per_probe",
                 static_cast<double>(work.candidates) / n);
    report.Layer("similarity_join.local_join_s", local_join_s);
    report.Layer("distributed.duplication_factor", whole.duplication_factor);
    report.Layer("distributed.probe_fanout", whole.probe_fanout);
    report.Layer("sim.verifications_per_query",
                 static_cast<double>(work.verifications) / n);
    report.Layer("sim.useful_ratio",
                 static_cast<double>(work.pairs) /
                     static_cast<double>(
                         std::max<size_t>(work.verifications, 1)));
    report.Layer("trace.overhead_ratio",
                 Median(traced_pass_s) / Median(untraced_pass_s));
    tracer.Dump(args.workdir + "/trace-" + args.workload + ".tsv");
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  return report.Print(args.trace);
}

}  // namespace perfbench
