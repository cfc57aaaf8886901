// Copyright 2026 The skewsearch Authors.
// Microbenchmark: filter generation F(x) (the chosen-path engine), the
// dominant cost of a query.
//
// Runs the frozen reference engine (tests/reference_path_engine.h: a
// virtual threshold call and out-of-line hash calls per draw, an
// ancestor walk per item) and core/path_engine.h on the same Zipf
// vectors, in the two shapes callers use:
//
//   per_rep   one repetition at a time, as an early-exit query asks:
//             reference ComputeFilters(x, r) for each r, against one
//             Prepare(x) and Generate(r, r + 1) for each r.
//   all_reps  every repetition at once, as a build or QueryAll asks:
//             reference ComputeFiltersAllReps, against Prepare +
//             Generate(0, L).
//
// Two vector sets: "short" (|x| ~ 30, the search workload's shape, so
// every vector takes the engine's position-mask exclusion) and "long"
// (|x| ~ 100, so every vector has |x| > 64 and takes the ancestor walk).
//
// Fails (exit 1) on any key or PathGenStats mismatch between the two
// engines. With --require-speedup X it also fails unless the new engine
// beats the reference by at least X in every set, shape and policy — a
// same-run ratio, so machine speed cancels out. The CI Release leg
// passes 1.5.
//
// Flags: --json FILE            write metrics JSON (see bench_util.h)
//        --require-speedup X    exit nonzero unless min speedup >= X

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/path_engine.h"
#include "core/path_policy.h"
#include "core/query_stats.h"
#include "data/generators.h"
#include "reference_path_engine.h"
#include "util/random.h"

namespace skewsearch {
namespace {

bool SameStats(const PathGenStats& a, const PathGenStats& b) {
  return a.filters_emitted == b.filters_emitted &&
         a.nodes_expanded == b.nodes_expanded && a.draws == b.draws &&
         a.cap_hit == b.cap_hit;
}

// Vectors per set: enough for stable per-vector means, few enough that
// the run stays in the CI Release leg's budget.
constexpr size_t kVectors = 300;

// One vector set: Zipf d=5000 (exponent 1) scaled to |x| ~ avg_size.
struct VectorSet {
  const char* name;
  std::string suffix;  // metric-name suffix; empty for the short set
  double avg_size;
};

int Run(int argc, char** argv) {
  double require_speedup = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--require-speedup") == 0) {
      require_speedup = std::atof(argv[i + 1]);
    }
  }

  bench::Banner("Filter generation: reference vs hoisted path engine");
  bench::JsonReporter reporter("micro_path_engine");

  // The search workload's n = 3000 and L = ceil(2 ln n) repetitions.
  const double n = 3000.0;
  const uint32_t reps = static_cast<uint32_t>(std::ceil(2.0 * std::log(n)));
  PathHasher hasher(0x5eed5eed5eedULL, 64);
  PathEngineOptions options;
  options.log_n = std::log(n);

  bench::Table table({"set", "policy", "shape", "ref_ns/vec", "new_ns/vec",
                      "speedup", "keys/vec", "draws/vec", "nodes/vec"});
  bool all_agree = true;
  double min_speedup = 0.0;
  bool first = true;
  const VectorSet sets[] = {{"short", "", 30.0}, {"long", "_long", 100.0}};
  for (const VectorSet& set : sets) {
    auto zipf = ZipfProbabilities(5000, 1.0, 0.5);
    const ProductDistribution dist =
        ScaleToAverageSize(zipf.value(), set.avg_size).value();
    Rng rng(20260417);
    std::vector<SparseVector> vectors;
    size_t over_64 = 0;
    while (vectors.size() < kVectors) {
      SparseVector x = dist.Sample(&rng);
      if (x.empty()) continue;
      if (x.size() > 64) over_64++;
      vectors.push_back(std::move(x));
    }
    reporter.Metric("share_over_64" + set.suffix,
                    static_cast<double>(over_64) / kVectors,
                    /*stable=*/true, "ratio");
    bench::Note(std::string(set.name) + " set: " + bench::Fmt(over_64) +
                " of " + bench::Fmt(kVectors) + " vectors have |x| > 64");

    const CorrelatedPolicy correlated(&dist, 0.5, 0.3);
    const AdversarialPolicy adversarial(0.5);
    const std::pair<std::string, const ThresholdPolicy*> configs[] = {
        {"correlated", &correlated}, {"adversarial", &adversarial}};
    const double count = static_cast<double>(vectors.size());
    for (const auto& [name, policy] : configs) {
      reference::PathEngine want(&dist, policy, &hasher, options);
      PathEngine got(&dist, policy, &hasher, options);
      PathScratch scratch;
      std::vector<uint64_t> want_keys, got_keys;
      std::vector<size_t> want_offsets, got_offsets;

      // Agreement and work counts, outside the timed loops.
      PathGenStats work;
      for (const SparseVector& x : vectors) {
        PathGenStats want_stats, got_stats;
        want.ComputeFiltersAllReps(x.span(), reps, &want_keys,
                                   &want_offsets, &want_stats);
        got_keys.clear();
        got.Prepare(x.span(), &scratch);
        got.Generate(&scratch, 0, reps, &got_keys, &got_offsets, &got_stats);
        all_agree = all_agree && want_keys == got_keys &&
                    want_offsets == got_offsets &&
                    SameStats(want_stats, got_stats);
        AddPathGenStats(&work, got_stats);
        for (uint32_t r = 0; r < reps; ++r) {
          want_keys.clear();
          got_keys.clear();
          want.ComputeFilters(x.span(), r, &want_keys, &want_stats);
          got.Generate(&scratch, r, r + 1, &got_keys, nullptr, &got_stats);
          all_agree = all_agree && want_keys == got_keys &&
                      SameStats(want_stats, got_stats);
        }
      }
      const double keys = static_cast<double>(work.filters_emitted) / count;
      const double draws = static_cast<double>(work.draws) / count;
      const double nodes = static_cast<double>(work.nodes_expanded) / count;

      // Timed: one pass covers every vector, so ns/vector = ns / count.
      const auto [ref_per_rep, new_per_rep] = bench::FastestAlternating(
          [&] {
            for (const SparseVector& x : vectors) {
              for (uint32_t r = 0; r < reps; ++r) {
                want_keys.clear();
                want.ComputeFilters(x.span(), r, &want_keys, nullptr);
                bench::DoNotOptimize(want_keys.data());
              }
            }
          },
          [&] {
            for (const SparseVector& x : vectors) {
              got.Prepare(x.span(), &scratch);
              for (uint32_t r = 0; r < reps; ++r) {
                got_keys.clear();
                got.Generate(&scratch, r, r + 1, &got_keys, nullptr, nullptr);
                bench::DoNotOptimize(got_keys.data());
              }
            }
          });
      const auto [ref_all, new_all] = bench::FastestAlternating(
          [&] {
            for (const SparseVector& x : vectors) {
              want.ComputeFiltersAllReps(x.span(), reps, &want_keys,
                                         &want_offsets, nullptr);
              bench::DoNotOptimize(want_keys.data());
            }
          },
          [&] {
            for (const SparseVector& x : vectors) {
              got_keys.clear();
              got.Prepare(x.span(), &scratch);
              got.Generate(&scratch, 0, reps, &got_keys, &got_offsets,
                           nullptr);
              bench::DoNotOptimize(got_keys.data());
            }
          });

      struct Shape {
        const char* name;
        double ref_ns;
        double new_ns;
      };
      for (const Shape& shape : {Shape{"per_rep", ref_per_rep, new_per_rep},
                                 Shape{"all_reps", ref_all, new_all}}) {
        const double speedup = shape.ref_ns / shape.new_ns;
        min_speedup = first ? speedup : std::min(min_speedup, speedup);
        first = false;
        table.AddRow({set.name, name, shape.name,
                      bench::Fmt(shape.ref_ns / count, 0),
                      bench::Fmt(shape.new_ns / count, 0),
                      bench::Fmt(speedup, 2), bench::Fmt(keys, 1),
                      bench::Fmt(draws, 1), bench::Fmt(nodes, 1)});
        const std::string tag = name + "_" + shape.name + set.suffix;
        reporter.Metric("ref_ns_per_vector_" + tag, shape.ref_ns / count,
                        /*stable=*/false, "ns");
        reporter.Metric("new_ns_per_vector_" + tag, shape.new_ns / count,
                        /*stable=*/false, "ns");
        reporter.Metric("speedup_" + tag, speedup, /*stable=*/false, "x");
      }
      const std::string tag = name + set.suffix;
      reporter.Metric("keys_per_vector_" + tag, keys, /*stable=*/true,
                      "keys");
      reporter.Metric("draws_per_vector_" + tag, draws, /*stable=*/true,
                      "draws");
      reporter.Metric("nodes_per_vector_" + tag, nodes, /*stable=*/true,
                      "nodes");
    }
  }
  table.Print();

  reporter.Metric("engines_agree", all_agree ? 1.0 : 0.0, /*stable=*/true,
                  "bool");
  reporter.Metric("min_speedup", min_speedup, /*stable=*/false, "x");
  bench::Note("vectors per set: " + bench::Fmt(kVectors) +
              ", repetitions: " + bench::Fmt(size_t{reps}));
  bench::Note("engines agree (keys and stats): " +
              std::string(all_agree ? "yes" : "NO"));
  bench::Note("min speedup: " + bench::Fmt(min_speedup, 2));

  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  if (!all_agree) {
    std::fprintf(stderr, "reference/new engine mismatch\n");
    return 1;
  }
  if (require_speedup > 0.0 && min_speedup < require_speedup) {
    std::fprintf(stderr, "speedup %.2f below required %.2f\n", min_speedup,
                 require_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
