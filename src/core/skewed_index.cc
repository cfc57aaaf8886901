#include "core/skewed_index.h"

#include <algorithm>
#include <cmath>

#include "core/batch.h"
#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/probe.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

Status ValidateFamilyOptions(const ProductDistribution* dist,
                             const SkewedIndexOptions& options, size_t n) {
  if (dist == nullptr) {
    return Status::InvalidArgument("dist must be non-null");
  }
  if (n < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  // Negated-conjunction form so NaN (e.g. from a corrupted index header)
  // fails the check instead of slipping past both one-sided comparisons.
  if (options.mode == IndexMode::kAdversarial &&
      !(options.b1 > 0.0 && options.b1 < 1.0)) {
    return Status::InvalidArgument("b1 must be in (0, 1)");
  }
  if (options.mode == IndexMode::kCorrelated &&
      !(options.alpha > 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (options.max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (options.max_paths_per_element == 0) {
    return Status::InvalidArgument("max_paths_per_element must be > 0");
  }
  return Status::OK();
}

}  // namespace

Result<FilterFamily> FilterFamily::Create(const ProductDistribution* dist,
                                          const SkewedIndexOptions& options,
                                          size_t n) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateFamilyOptions(dist, options, n));

  const double log_n = std::log(static_cast<double>(n));
  const double c_constant = dist->CForN(n);

  FilterFamily family;
  family.options_ = options;

  double delta = options.delta;
  if (options.mode == IndexMode::kCorrelated) {
    double paper_delta =
        3.0 / std::sqrt(std::max(1e-9, options.alpha * c_constant));
    if (delta < 0.0) {
      delta = options.strict_paper_delta ? paper_delta
                                         : std::min(paper_delta, 0.3);
    }
    if (options.alpha * c_constant < 15.0) {
      SKEWSEARCH_LOG(kInfo)
          << "alpha*C = " << options.alpha * c_constant
          << " < 15: outside the regime of Lemma 11; rely on repetitions";
    }
  } else {
    delta = 0.0;
  }
  family.delta_ = delta;

  family.verify_threshold_ = options.verify_threshold;
  if (family.verify_threshold_ < 0.0) {
    family.verify_threshold_ = options.mode == IndexMode::kAdversarial
                                   ? options.b1
                                   : options.alpha / 1.3;
  }

  int reps = options.repetitions;
  if (reps <= 0) {
    reps = static_cast<int>(
        std::ceil(options.repetition_boost * std::max(1.0, log_n)));
  }
  family.repetitions_ = reps;

  SKEWSEARCH_RETURN_NOT_OK(family.Init(dist, n));
  return family;
}

Result<FilterFamily> FilterFamily::Restore(const ProductDistribution* dist,
                                           const SkewedIndexOptions& options,
                                           size_t n, int repetitions,
                                           double delta,
                                           double verify_threshold) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateFamilyOptions(dist, options, n));
  if (repetitions < 1 || repetitions > (1 << 20)) {
    return Status::InvalidArgument("repetition count out of range");
  }
  if (!std::isfinite(delta) || delta < 0.0) {
    return Status::InvalidArgument("delta must be finite and >= 0");
  }
  if (!std::isfinite(verify_threshold) || verify_threshold < 0.0 ||
      verify_threshold > 1.0) {
    return Status::InvalidArgument("verify threshold must be in [0, 1]");
  }
  FilterFamily family;
  family.options_ = options;
  family.repetitions_ = repetitions;
  family.delta_ = delta;
  family.verify_threshold_ = verify_threshold;
  SKEWSEARCH_RETURN_NOT_OK(family.Init(dist, n));
  return family;
}

Status FilterFamily::Init(const ProductDistribution* dist, size_t n) {
  dist_ = dist;
  const double log_n = std::log(static_cast<double>(n));
  if (options_.mode == IndexMode::kAdversarial) {
    policy_ = std::make_unique<AdversarialPolicy>(options_.b1);
  } else {
    policy_ =
        std::make_unique<CorrelatedPolicy>(dist_, options_.alpha, delta_);
  }
  // All p_i <= max_p < 1, so every path step adds >= ln(1/max_p) to the
  // stop sum; depth never exceeds ln n / ln(1/max_p) (+1 for the step that
  // crosses the boundary, +1 slack).
  int depth_bound = options_.max_depth;
  if (dist_->MaxP() < 1.0) {
    double per_step = -std::log(dist_->MaxP());
    if (per_step > 1e-9) {
      depth_bound = std::min(
          depth_bound, static_cast<int>(std::ceil(log_n / per_step)) + 2);
    }
  }
  hasher_ = std::make_unique<PathHasher>(options_.seed, depth_bound,
                                         options_.hash_engine);
  PathEngineOptions engine_options;
  engine_options.stop_rule = StopRule::kProbability;
  engine_options.log_n = log_n;
  engine_options.max_depth = depth_bound;
  engine_options.max_paths = options_.max_paths_per_element;
  engine_options.without_replacement = true;
  engine_ = std::make_unique<PathEngine>(dist_, policy_.get(), hasher_.get(),
                                         engine_options);
  return Status::OK();
}

void FilterFamily::ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                                  std::vector<uint64_t>* keys,
                                  PathGenStats* stats) const {
  engine_->ComputeFilters(x, rep, keys, stats);
}

void FilterFamily::ComputeAllFilters(std::span<const ItemId> x,
                                     std::vector<uint64_t>* keys,
                                     std::vector<size_t>* offsets,
                                     PathGenStats* stats,
                                     size_t* capped_reps,
                                     PathScratch* scratch) const {
  PathScratch local;
  if (scratch == nullptr) scratch = &local;
  engine_->Prepare(x, scratch);
  keys->clear();
  engine_->Generate(scratch, 0, static_cast<uint32_t>(repetitions_), keys,
                    offsets, stats, capped_reps);
}

Status SkewedPathIndex::Build(const Dataset* data,
                              const ProductDistribution* dist,
                              const SkewedIndexOptions& options) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  if (data->size() < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  if (data->dimension() > dist->dimension()) {
    return Status::InvalidArgument(
        "dataset items exceed the distribution's universe");
  }
  Result<FilterFamily> family = FilterFamily::Create(dist, options,
                                                     data->size());
  if (!family.ok()) return family.status();

  Timer timer;
  data_ = data;
  dist_ = dist;
  options_ = options;
  family_ = std::move(family).value();

  // Populate the inverted index: the one-shard case of the sharded
  // builder, which emits every vector's keys exactly as a serial loop
  // would and freezes the same table for any thread count.
  build_stats_ = IndexBuildStats{};
  build_stats_.repetitions = family_.repetitions();
  build_stats_.delta_used = family_.delta();
  frozen_.reset();
  std::vector<FilterTable> tables;
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, family_, /*num_shards=*/1, options.build_threads, &build_stats_,
      &tables));
  table_ = std::move(tables[0]);
  if (build_stats_.cap_hits > 0) {
    SKEWSEARCH_LOG(kWarning)
        << "path cap hit for " << build_stats_.cap_hits
        << " (element, repetition) pairs; consider raising "
           "max_paths_per_element";
  }
  build_stats_.build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

std::vector<uint64_t> SkewedPathIndex::ComputeFilterKeys(
    std::span<const ItemId> query) const {
  std::vector<uint64_t> keys;
  if (!family_.valid()) return keys;
  // Groups come out in repetition order: the per-rep concatenation.
  family_.ComputeAllFilters(query, &keys);
  return keys;
}

probe::TableSources SkewedPathIndex::Sources() const {
  return probe::TableSources{{&table_, 1}, data_, &family_};
}

std::optional<Match> SkewedPathIndex::Query(std::span<const ItemId> query,
                                            QueryStats* stats) const {
  return probe::FirstMatch(Sources(), query, options_.verify_measure,
                           nullptr, stats);
}

std::vector<Match> SkewedPathIndex::QueryAll(std::span<const ItemId> query,
                                             double threshold,
                                             QueryStats* stats) const {
  return probe::AllMatches(Sources(), query, options_.verify_measure,
                           threshold, stats);
}

std::vector<Match> SkewedPathIndex::QueryTopK(std::span<const ItemId> query,
                                              size_t k,
                                              QueryStats* stats) const {
  // Rank every surfaced candidate (threshold 0 keeps them all), truncate.
  std::vector<Match> all = QueryAll(query, 0.0, stats);
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<std::optional<Match>> SkewedPathIndex::BatchQuery(
    const Dataset& queries, int threads, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return batch_internal::RunWithTransientPool(threads, [&](ThreadPool* pool) {
    return BatchQuery(queries, pool, stats, batch_stats);
  });
}

std::vector<std::optional<Match>> SkewedPathIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return probe::BatchFirstMatch(Sources(), queries, options_.verify_measure,
                                pool, stats, batch_stats);
}

double SkewedPathIndex::EstimateCollisionRate(
    std::span<const ItemId> a, std::span<const ItemId> b) const {
  if (!family_.valid() || build_stats_.repetitions == 0) return 0.0;
  // One all-repetitions pass per vector; repetition r's keys are the
  // offsets[r]..offsets[r+1] slice of each buffer.
  std::vector<uint64_t> keys_a, keys_b;
  std::vector<size_t> offs_a, offs_b;
  family_.ComputeAllFilters(a, &keys_a, &offs_a);
  family_.ComputeAllFilters(b, &keys_b, &offs_b);
  int collisions = 0;
  PostingSet<uint64_t> set_a;
  for (int rep = 0; rep < build_stats_.repetitions; ++rep) {
    const size_t r = static_cast<size_t>(rep);
    set_a.clear();
    for (size_t i = offs_a[r]; i < offs_a[r + 1]; ++i) {
      set_a.insert(keys_a[i]);
    }
    bool hit = false;
    for (size_t i = offs_b[r]; i < offs_b[r + 1]; ++i) {
      if (set_a.contains(keys_b[i])) {
        hit = true;
        break;
      }
    }
    collisions += hit;
  }
  return static_cast<double>(collisions) /
         static_cast<double>(build_stats_.repetitions);
}

Result<double> SkewedPathIndex::PredictQueryExponent(
    std::span<const ItemId> query) const {
  if (!family_.valid()) {
    return Status::InvalidArgument("index not built");
  }
  if (options_.mode == IndexMode::kCorrelated) {
    return CorrelatedRho(*dist_, options_.alpha);
  }
  std::vector<double> probs;
  probs.reserve(query.size());
  for (ItemId item : query) {
    if (item >= dist_->dimension()) {
      return Status::InvalidArgument("query item outside the universe");
    }
    probs.push_back(dist_->p(item));
  }
  return AdversarialQueryRho(probs, options_.b1);
}

Status SkewedPathIndex::Freeze(const std::string& path) const {
  namespace io = index_io_internal;
  if (!family_.valid()) {
    return Status::InvalidArgument("cannot freeze an unbuilt index");
  }
  const FilterTable* shard = &table_;
  return WriteFrozenShards(path, options_, family_.verify_threshold(),
                           build_stats_, io::Fingerprint(*data_),
                           std::span<const FilterTable* const>(&shard, 1));
}

Status SkewedPathIndex::MapFrozen(const std::string& path,
                                  const Dataset* data,
                                  const ProductDistribution* dist) {
  return MapFrozen(path, data, dist, FrozenMapOptions{});
}

Status SkewedPathIndex::MapFrozen(const std::string& path,
                                  const Dataset* data,
                                  const ProductDistribution* dist,
                                  const FrozenMapOptions& options) {
  Result<FrozenIndexParts> parts =
      RestoreFrozenIndex(path, data, dist, options);
  if (!parts.ok()) return parts.status();
  if (parts->shards.size() != 1) {
    return Status::InvalidArgument(
        "'" + path + "' holds " + std::to_string(parts->shards.size()) +
        " shards; expected an unsharded frozen index");
  }
  data_ = data;
  dist_ = dist;
  options_ = parts->family.options();
  family_ = std::move(parts->family);
  build_stats_ = parts->stats;
  table_ = std::move(parts->shards[0]);
  frozen_ = std::move(parts->file);
  return Status::OK();
}

}  // namespace skewsearch
