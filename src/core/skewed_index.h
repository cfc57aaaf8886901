// Copyright 2026 The skewsearch Authors.
// SkewedPathIndex — the paper's primary contribution.
//
// A recursive, data-dependent locality-sensitive-filtering index over
// sparse boolean vectors drawn from a known product distribution
// D[p_1..p_d]. Two modes:
//
//   kAdversarial (Theorem 2): guarantees for *any* query q that has a
//     dataset vector with Braun-Blanquet similarity >= b1; query cost
//     adapts to the query's own frequency profile (exponent rho(q)).
//
//   kCorrelated (Theorem 1): tuned for queries that are alpha-correlated
//     with some dataset vector (Definition 3); thresholds are weighted by
//     the conditional probabilities p_hat_i = p_i(1-alpha) + alpha.
//
// One build performs L independent repetitions (fresh hash functions per
// repetition) to boost the per-repetition success probability of
// Lemma 5 (>= 1/ln n) to a constant; queries probe all repetitions.

#ifndef SKEWSEARCH_CORE_SKEWED_INDEX_H_
#define SKEWSEARCH_CORE_SKEWED_INDEX_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/index_view.h"
#include "core/inverted_index.h"
#include "core/path_engine.h"
#include "core/path_policy.h"
#include "core/query_stats.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "hashing/path_hasher.h"
#include "sim/brute_force.h"
#include "sim/measures.h"
#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

class ThreadPool;       // util/thread_pool.h
class FrozenShardFile;  // core/frozen_shard.h
struct FrozenMapOptions;
namespace probe {
struct TableSources;    // core/probe.h
}  // namespace probe

/// Which of the paper's two analyses the index instantiates.
enum class IndexMode {
  kAdversarial,  ///< Section 5: s(x,j,i) = 1/(b1|x| - j)
  kCorrelated,   ///< Section 6: s(x,j,i) = (1+delta)/(p_hat_i C ln n - j)
};

/// \brief Build- and query-time configuration.
struct SkewedIndexOptions {
  IndexMode mode = IndexMode::kCorrelated;

  /// Braun-Blanquet similarity threshold (kAdversarial).
  double b1 = 0.5;

  /// Target correlation (kCorrelated).
  double alpha = 0.5;

  /// Number of independent repetitions; 0 derives
  /// ceil(repetition_boost * ln n) (Lemma 5 gives 1/ln n per repetition).
  int repetitions = 0;
  double repetition_boost = 2.0;

  /// Master seed; the whole structure is deterministic given it.
  uint64_t seed = 0x5eed5eed5eedULL;

  /// Sampling boost delta for kCorrelated. Negative derives the default:
  /// the paper's 3/sqrt(alpha C) when strict_paper_delta, otherwise
  /// min(3/sqrt(alpha C), 0.3) — the paper itself notes "a smaller
  /// constant is likely sufficient in practice" and the strict value
  /// inflates |F(x)| by n^{ln(1+delta)} for moderate C.
  double delta = -1.0;
  bool strict_paper_delta = false;

  /// Similarity a candidate must reach to be returned. Negative derives
  /// b1 (kAdversarial) or alpha/1.3 (kCorrelated, Lemma 10).
  double verify_threshold = -1.0;

  /// Safety valve passed to the path engine (per element per repetition).
  size_t max_paths_per_element = size_t{1} << 20;

  /// Hard cap on path length.
  int max_depth = 64;

  /// Level-hash engine (mixer by default; pairwise for the paper's exact
  /// independence assumption).
  HashEngine hash_engine = HashEngine::kMixer;

  /// Measure used to verify candidates. The paper's guarantees are stated
  /// for Braun-Blanquet (the default); the candidate-generation machinery
  /// is measure-agnostic, so other measures can be verified too ("results
  /// extend to other similarity measures", §1).
  Measure verify_measure = Measure::kBraunBlanquet;

  /// Build parallelism: number of worker threads; 0 = single-threaded.
  /// Filter keys are deterministic functions of the seed, so the built
  /// index is identical regardless of thread count.
  int build_threads = 0;
};

/// \brief Counters from Build().
struct IndexBuildStats {
  size_t total_filters = 0;        ///< sum over elements and repetitions
  size_t distinct_keys = 0;        ///< distinct filter keys in the table
  double avg_filters_per_element = 0.0;  ///< per repetition
  size_t cap_hits = 0;             ///< elements truncated by the safety valve
  size_t nodes_expanded = 0;
  int repetitions = 0;
  double delta_used = 0.0;         ///< kCorrelated only
  double build_seconds = 0.0;
};

/// \brief The L-repetition path-filter family shared by every index
/// flavor (single, sharded, dynamic).
///
/// Bundles parameter derivation (repetitions, delta, verify threshold,
/// depth bound) with the per-repetition filter computation F_r(x), i.e.
/// everything about the paper's structure that does *not* depend on which
/// vectors are stored. Because filter keys are a deterministic function of
/// (seed, repetition, x) alone, a family built once can generate postings
/// incrementally — for a shard's subset of the data, or for a vector
/// inserted long after the build — and they are guaranteed to match what a
/// monolithic build would have produced.
///
/// Immutable and thread-safe after creation. The distribution is borrowed
/// and must outlive the family.
class FilterFamily {
 public:
  FilterFamily() = default;
  FilterFamily(FilterFamily&&) = default;
  FilterFamily& operator=(FilterFamily&&) = default;

  /// Validates \p options and derives every parameter for a dataset of
  /// \p n vectors drawn from \p dist.
  static Result<FilterFamily> Create(const ProductDistribution* dist,
                                     const SkewedIndexOptions& options,
                                     size_t n);

  /// Rebuilds a family from persisted parameters (the MapFrozen path):
  /// validation and engine construction as in Create, but repetitions /
  /// delta / verify threshold are taken as stored instead of re-derived.
  static Result<FilterFamily> Restore(const ProductDistribution* dist,
                                      const SkewedIndexOptions& options,
                                      size_t n, int repetitions, double delta,
                                      double verify_threshold);

  /// The family's path engine, for loops that stop after any repetition
  /// (early-exit probes): they call its Prepare once per query and
  /// Generate(r, r + 1) per repetition with a reused PathScratch.
  const PathEngine& engine() const { return *engine_; }

  /// One-shot form: appends the filter keys F_r(\p x) of repetition
  /// \p rep to \p keys. \p stats may be null.
  void ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* keys,
                      PathGenStats* stats = nullptr) const;

  /// Every repetition at once: replaces \p keys with repetition 0's
  /// keys, then repetition 1's, ... (the range [0, repetitions()) of the
  /// one engine), and \p offsets (may be null) with the repetitions() + 1
  /// group boundaries. \p stats sums counters over repetitions;
  /// \p capped_reps (may be null) counts truncated repetitions. Loops
  /// over many vectors pass one \p scratch (may be null: a fresh one) so
  /// its buffers are reused.
  void ComputeAllFilters(std::span<const ItemId> x,
                         std::vector<uint64_t>* keys,
                         std::vector<size_t>* offsets = nullptr,
                         PathGenStats* stats = nullptr,
                         size_t* capped_reps = nullptr,
                         PathScratch* scratch = nullptr) const;

  /// True once Create()/Restore() succeeded.
  bool valid() const { return engine_ != nullptr; }

  int repetitions() const { return repetitions_; }
  double delta() const { return delta_; }
  double verify_threshold() const { return verify_threshold_; }
  const SkewedIndexOptions& options() const { return options_; }

 private:
  Status Init(const ProductDistribution* dist, size_t n);

  SkewedIndexOptions options_;
  int repetitions_ = 0;
  double delta_ = 0.0;
  double verify_threshold_ = 0.0;
  const ProductDistribution* dist_ = nullptr;
  std::unique_ptr<ThresholdPolicy> policy_;
  std::unique_ptr<PathHasher> hasher_;
  std::unique_ptr<PathEngine> engine_;
};

/// \brief The skew-adaptive chosen-path index.
///
/// Usage:
/// \code
///   SkewedPathIndex index;
///   SkewedIndexOptions opt;
///   opt.mode = IndexMode::kCorrelated;
///   opt.alpha = 0.7;
///   SKEWSEARCH_RETURN_NOT_OK(index.Build(&data, &dist, opt));
///   if (auto hit = index.Query(q.span())) { ... }
/// \endcode
///
/// The dataset and distribution are borrowed and must outlive the index.
/// Queries are const and safe to issue from multiple threads.
class SkewedPathIndex : public IndexView {
 public:
  SkewedPathIndex() = default;

  /// Builds the inverted filter index over \p data.
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const SkewedIndexOptions& options);

  /// Returns some vector with similarity >= verify_threshold(), scanning
  /// candidates in filter order and stopping at the first hit (the paper's
  /// query semantics), or nullopt.
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// Returns all distinct candidates with similarity >= \p threshold,
  /// sorted by descending similarity (ties by id). Exhausts all filters.
  std::vector<Match> QueryAll(std::span<const ItemId> query, double threshold,
                              QueryStats* stats = nullptr) const;

  /// Returns the k most similar *candidates* (approximate top-k: ranking
  /// is exact among the vectors the filters surface, which under the
  /// paper's guarantees include every sufficiently similar vector w.h.p.).
  std::vector<Match> QueryTopK(std::span<const ItemId> query, size_t k,
                               QueryStats* stats = nullptr) const;

  /// Answers every vector of \p queries as a Query(), using \p threads
  /// workers from a transient pool (<= 1 = serial). Results align
  /// positionally with queries; \p stats (if non-null) is resized
  /// likewise and \p batch_stats (if non-null) receives batch-level
  /// aggregates including the summed PathGenStats. Queries are
  /// independent and the index is immutable, so results are identical
  /// to the serial ones for every thread count.
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, int threads = 0,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  /// Same, but shards onto caller-owned \p pool (null = serial), so one
  /// pool can be reused across many batches. Worker slots reuse their
  /// filter/candidate buffers across the queries they answer.
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, ThreadPool* pool,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  /// Lemma 5 diagnostic: the fraction of repetitions in which F(a) and
  /// F(b) share at least one filter. For a b1-similar (or alpha-
  /// correlated) pair this is the per-repetition success probability the
  /// repetition count is provisioned against (>= 1/ln n per Lemma 5).
  double EstimateCollisionRate(std::span<const ItemId> a,
                               std::span<const ItemId> b) const;

  /// Analytic per-query cost exponent (Lemma 8): solves
  /// sum_{i in q} p_i^rho = b1 |q| for this index's b1. Only meaningful in
  /// kAdversarial mode; kCorrelated returns the global Theorem 1 rho.
  Result<double> PredictQueryExponent(std::span<const ItemId> query) const;

  /// The filter keys F(q) the index would probe for \p query
  /// (diagnostics / tests).
  std::vector<uint64_t> ComputeFilterKeys(std::span<const ItemId> query) const;

  // Shared read-only surface (documented on core/index_view.h).
  bool built() const override { return family_.valid(); }
  const IndexBuildStats& build_stats() const override { return build_stats_; }
  const FilterFamily& family() const override { return family_; }
  double verify_threshold() const override {
    return family_.verify_threshold();
  }
  int repetitions() const override { return build_stats_.repetitions; }
  size_t MemoryBytes() const override { return table_.MemoryBytes(); }

  const SkewedIndexOptions& options() const { return options_; }

  /// The frozen posting lists (diagnostics/tests).
  const FilterTable& filter_table() const { return table_; }

  /// Persists the built index (configuration, the inverted filter table
  /// and a fingerprint of the dataset) as a single-shard SKF1 frozen
  /// file (core/frozen_shard.h), so it can be restored without paying
  /// the build again. Only valid after Build()/MapFrozen().
  Status Freeze(const std::string& path) const;

  /// Restores an index from a file written by Freeze(). The caller
  /// re-supplies the *same* dataset and distribution (both are borrowed,
  /// not serialized); a fingerprint check rejects mismatched data, and
  /// the hash functions are reconstructed deterministically from the
  /// stored seed, so queries are byte-identical to the built index. By
  /// default the posting table is served zero-copy out of the mapped
  /// bytes: start time is metadata validation plus one sequential pass
  /// over the key and offset arrays (the lookup directory and the
  /// offsets' order check). `{.force_heap = true, .verify_payload =
  /// true}` reads the file onto the heap and checks every posting before
  /// the first query.
  Status MapFrozen(const std::string& path, const Dataset* data,
                   const ProductDistribution* dist);
  Status MapFrozen(const std::string& path, const Dataset* data,
                   const ProductDistribution* dist,
                   const FrozenMapOptions& options);

  /// The frozen file backing this index, or null when built in this
  /// process (diagnostics: `mapped()`, `file_bytes()`).
  const FrozenShardFile* frozen_file() const { return frozen_.get(); }

 private:
  /// The one-table posting source the probe kernel scans.
  probe::TableSources Sources() const;

  const Dataset* data_ = nullptr;
  const ProductDistribution* dist_ = nullptr;
  SkewedIndexOptions options_;
  FilterFamily family_;
  FilterTable table_;  // a zero-copy view into frozen_ when restored
  IndexBuildStats build_stats_;
  std::shared_ptr<const FrozenShardFile> frozen_;  // keeps views alive
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SKEWED_INDEX_H_
