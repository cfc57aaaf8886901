#include "distributed/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "hashing/mix.h"

namespace skewsearch {

namespace {

constexpr int kMaxWorkers = 1 << 12;

Status ValidateOptions(const PartitionPlannerOptions& options) {
  if (options.workers < 1 || options.workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be in [1, 4096]");
  }
  if (!(options.sample_fraction > 0.0) || options.sample_fraction > 1.0) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1]");
  }
  if (!(options.estimate.smoothing >= 0.0)) {
    return Status::InvalidArgument("smoothing must be >= 0");
  }
  return Status::OK();
}

}  // namespace

int PartitionPlan::HomeOf(uint64_t key) const {
  // Keys are already avalanche hashes, but a plain modulus would tie the
  // routing to the low bits the FilterTable also sorts by; remix like
  // ShardedIndex::ShardOf does for ids.
  return static_cast<int>(Mix64(key) % static_cast<uint64_t>(workers));
}

void PartitionPlan::RouteKey(uint64_t key, std::vector<int>* out) const {
  if (broadcast) {
    for (int w = 0; w < workers; ++w) out->push_back(w);
    return;
  }
  auto it = heavy.find(key);
  if (it == heavy.end()) {
    out->push_back(HomeOf(key));
    return;
  }
  out->insert(out->end(), it->second.begin(), it->second.end());
}

PartitionPlan PartitionPlan::Broadcast(int workers) {
  PartitionPlan plan;
  plan.workers = workers;
  plan.heavy_threshold = 0;
  plan.broadcast = true;
  plan.estimated_load.assign(static_cast<size_t>(workers), 0.0);
  return plan;
}

size_t PartitionPlan::replicated_slices() const {
  size_t total = 0;
  for (const auto& [key, owners] : heavy) total += owners.size();
  return total;
}

Result<PartitionPlan> PartitionPlanner::PlanFromCounts(
    const std::vector<std::pair<uint64_t, double>>& counts,
    double total_entries, const PartitionPlannerOptions& options) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateOptions(options));
  const int workers = options.workers;

  PartitionPlan plan;
  plan.workers = workers;
  plan.heavy_threshold = options.heavy_threshold;
  if (plan.heavy_threshold == 0) {
    plan.heavy_threshold = std::max<size_t>(
        16, static_cast<size_t>(total_entries /
                                (4.0 * static_cast<double>(workers))));
  }
  plan.estimated_load.assign(static_cast<size_t>(workers), 0.0);

  // Light keys first: their placement is fixed by hash, so their load is
  // a given that heavy placement must balance around.
  const double threshold = static_cast<double>(plan.heavy_threshold);
  std::vector<std::pair<uint64_t, double>> heavies;
  for (const auto& [key, estimate] : counts) {
    if (estimate >= threshold) {
      heavies.emplace_back(key, estimate);
    } else {
      plan.estimated_load[static_cast<size_t>(plan.HomeOf(key))] += estimate;
    }
  }

  // Heavy keys largest-first (LPT), each split into c near-equal slices
  // placed on the c least-loaded distinct workers — popped from a
  // min-heap keyed (load, worker), so placement costs O(c log W) per
  // key instead of a full worker sort. Ties break on the key and on the
  // worker index, so the plan is a pure function of its input.
  std::sort(heavies.begin(), heavies.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  using LoadSlot = std::pair<double, int>;
  std::priority_queue<LoadSlot, std::vector<LoadSlot>,
                      std::greater<LoadSlot>>
      least_loaded;
  for (int w = 0; w < workers; ++w) {
    least_loaded.emplace(plan.estimated_load[static_cast<size_t>(w)], w);
  }
  for (const auto& [key, estimate] : heavies) {
    const int slices = static_cast<int>(std::min<double>(
        workers, std::ceil(estimate / threshold)));
    std::vector<int> owners;
    owners.reserve(static_cast<size_t>(slices));
    const double share = estimate / static_cast<double>(slices);
    for (int j = 0; j < slices; ++j) {
      owners.push_back(least_loaded.top().second);
      least_loaded.pop();
    }
    for (int owner : owners) {
      double& load = plan.estimated_load[static_cast<size_t>(owner)];
      load += share;
      least_loaded.emplace(load, owner);
    }
    plan.heavy.emplace(key, std::move(owners));
  }
  return plan;
}

Result<PartitionPlan> PartitionPlanner::PlanFromTable(
    const FilterTable& table, const PartitionPlannerOptions& options) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateOptions(options));
  if (!table.frozen()) {
    return Status::InvalidArgument("PlanFromTable needs a frozen table");
  }
  std::vector<std::pair<uint64_t, double>> counts;
  counts.reserve(table.num_keys());
  for (size_t k = 0; k < table.num_keys(); ++k) {
    counts.emplace_back(table.key_at(k),
                        static_cast<double>(table.postings_at(k).size()));
  }
  return PlanFromCounts(counts, static_cast<double>(table.num_pairs()),
                        options);
}

Result<PartitionPlan> PartitionPlanner::PlanFromData(
    const Dataset& data, const FilterFamily& family,
    const PartitionPlannerOptions& options) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateOptions(options));
  if (!family.valid()) {
    return Status::InvalidArgument("PlanFromData needs a valid family");
  }

  // Deterministic sample: a vector is in iff its id hash clears the
  // fraction, so every participant streaming the same dataset sees the
  // same sample regardless of iteration schedule. The full-sample case
  // never converts (fraction * 2^64 is not representable as uint64_t).
  const bool sample_all = options.sample_fraction >= 1.0;
  const uint64_t cutoff =
      sample_all
          ? std::numeric_limits<uint64_t>::max()
          : static_cast<uint64_t>(
                options.sample_fraction *
                static_cast<double>(std::numeric_limits<uint64_t>::max()));
  PostingMap<uint64_t, size_t> sampled_counts;
  PathScratch scratch;
  std::vector<uint64_t> keys;
  size_t sampled_vectors = 0;
  for (VectorId id = 0; id < data.size(); ++id) {
    if (!sample_all && Mix64(options.sample_seed ^ id) > cutoff) {
      continue;
    }
    ++sampled_vectors;
    // All repetitions (classification sorts by key below, so only the
    // multiset of keys matters).
    family.ComputeAllFilters(data.Get(id), &keys, nullptr, nullptr, nullptr,
                             &scratch);
    for (uint64_t key : keys) sampled_counts[key]++;
  }

  // Scale the sampled counts to the full dataset with the Laplace
  // smoothing of data/estimate.h: est = n * (c + s) / (m + 2s). The
  // smoothing keeps barely-sampled keys from being scaled into phantom
  // heavies when the sample is tiny.
  const double n = static_cast<double>(data.size());
  const double m = static_cast<double>(sampled_vectors);
  const double s = options.estimate.smoothing;
  std::vector<std::pair<uint64_t, double>> counts;
  counts.reserve(sampled_counts.size());
  double total = 0.0;
  for (const auto& [key, count] : sampled_counts) {
    const double estimate =
        m > 0.0 ? n * (static_cast<double>(count) + s) / (m + 2.0 * s) : 0.0;
    counts.emplace_back(key, estimate);
    total += estimate;
  }
  // Deterministic classification order (the map iterates arbitrarily).
  std::sort(counts.begin(), counts.end());
  return PlanFromCounts(counts, total, options);
}

}  // namespace skewsearch
