#include "core/sharded_index.h"

#include <algorithm>

#include "core/batch.h"
#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/probe.h"
#include "hashing/mix.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

constexpr int kMaxShards = 1 << 12;

}  // namespace

int ShardedIndex::ShardOf(VectorId id, int num_shards) {
  return static_cast<int>(Mix64(id) % static_cast<uint64_t>(num_shards));
}

Status ShardedIndex::Build(const Dataset* data,
                           const ProductDistribution* dist,
                           const ShardedIndexOptions& options) {
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
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, 4096]");
  }
  Result<FilterFamily> family =
      FilterFamily::Create(dist, options.index, data->size());
  if (!family.ok()) return family.status();

  Timer timer;
  data_ = data;
  dist_ = dist;
  options_ = options;
  family_ = std::move(family).value();

  build_stats_ = IndexBuildStats{};
  build_stats_.repetitions = family_.repetitions();
  build_stats_.delta_used = family_.delta();
  frozen_.reset();
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, family_, options.num_shards, options.index.build_threads,
      &build_stats_, &shards_));
  build_stats_.build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

namespace sharded_internal {

Status BuildShardTables(const Dataset& data, const FilterFamily& family,
                        int num_shards, int build_threads,
                        IndexBuildStats* stats,
                        std::vector<FilterTable>* shards,
                        std::vector<uint32_t>* entry_counts) {
  const size_t n = data.size();
  const int reps = family.repetitions();
  shards->assign(static_cast<size_t>(num_shards), FilterTable());
  // Each id is handled by exactly one worker, so slots write disjoint
  // entries and no synchronization is needed.
  if (entry_counts != nullptr) entry_counts->assign(n, 0);

  // The partition is a pure function of the id, so build parallelism
  // cannot move a vector between shards.
  auto emit = [&](uint64_t key, VectorId id) {
    (*shards)[static_cast<size_t>(ShardedIndex::ShardOf(id, num_shards))].Add(
        key, id);
  };

  if (build_threads <= 1) {
    // Each vector is prepared once and all repetitions generated from
    // it; one scratch keeps its buffers across vectors.
    PathScratch scratch;
    std::vector<uint64_t> keys;
    for (VectorId id = 0; id < n; ++id) {
      PathGenStats gen;
      size_t capped = 0;
      family.ComputeAllFilters(data.Get(id), &keys, nullptr, &gen, &capped,
                               &scratch);
      stats->nodes_expanded += gen.nodes_expanded;
      stats->cap_hits += capped;
      for (uint64_t key : keys) emit(key, id);
      stats->total_filters += keys.size();
      if (entry_counts != nullptr) {
        (*entry_counts)[id] += static_cast<uint32_t>(keys.size());
      }
    }
  } else {
    struct Slot {
      std::vector<std::pair<uint64_t, VectorId>> pairs;
      PathScratch scratch;
      std::vector<uint64_t> keys;
      size_t nodes_expanded = 0;
      size_t cap_hits = 0;
    };
    ThreadPool pool(build_threads);
    std::vector<Slot> slots(static_cast<size_t>(pool.num_threads()));
    pool.ParallelFor(n, /*grain=*/64, [&](size_t begin, size_t end,
                                          int slot_id) {
      Slot& slot = slots[static_cast<size_t>(slot_id)];
      for (size_t id = begin; id < end; ++id) {
        PathGenStats gen;
        size_t capped = 0;
        family.ComputeAllFilters(data.Get(static_cast<VectorId>(id)),
                                 &slot.keys, nullptr, &gen, &capped,
                                 &slot.scratch);
        slot.nodes_expanded += gen.nodes_expanded;
        slot.cap_hits += capped;
        for (uint64_t key : slot.keys) {
          slot.pairs.push_back({key, static_cast<VectorId>(id)});
        }
        if (entry_counts != nullptr) {
          (*entry_counts)[id] += static_cast<uint32_t>(slot.keys.size());
        }
      }
    });
    // Size each shard's staged pairs before the serial emit loop, so
    // it does not grow by doubling.
    std::vector<size_t> shard_pairs(static_cast<size_t>(num_shards), 0);
    for (const Slot& slot : slots) {
      for (const auto& pair : slot.pairs) {
        shard_pairs[static_cast<size_t>(
            ShardedIndex::ShardOf(pair.second, num_shards))]++;
      }
    }
    for (size_t s = 0; s < shard_pairs.size(); ++s) {
      (*shards)[s].Reserve(shard_pairs[s]);
    }
    for (const Slot& slot : slots) {
      stats->nodes_expanded += slot.nodes_expanded;
      stats->cap_hits += slot.cap_hits;
      for (const auto& [key, id] : slot.pairs) emit(key, id);
      stats->total_filters += slot.pairs.size();
    }
  }
  for (FilterTable& shard : *shards) {
    SKEWSEARCH_RETURN_NOT_OK(shard.Freeze());
    stats->distinct_keys += shard.num_keys();
  }
  stats->avg_filters_per_element =
      static_cast<double>(stats->total_filters) /
      (static_cast<double>(n) * std::max(1, reps));
  return Status::OK();
}

}  // namespace sharded_internal

probe::TableSources ShardedIndex::Sources() const {
  return probe::TableSources{shards_, data_, &family_};
}

std::optional<Match> ShardedIndex::Query(std::span<const ItemId> query,
                                         QueryStats* stats) const {
  return probe::FirstMatch(Sources(), query, options_.index.verify_measure,
                           nullptr, stats);
}

std::vector<Match> ShardedIndex::QueryAll(std::span<const ItemId> query,
                                          double threshold,
                                          QueryStats* stats) const {
  return probe::AllMatches(Sources(), query, options_.index.verify_measure,
                           threshold, stats);
}

std::vector<std::optional<Match>> ShardedIndex::BatchQuery(
    const Dataset& queries, int threads, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return batch_internal::RunWithTransientPool(threads, [&](ThreadPool* pool) {
    return BatchQuery(queries, pool, stats, batch_stats);
  });
}

std::vector<std::optional<Match>> ShardedIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  // The batch is parallelized over queries; each query scans its shards
  // serially (fanning a query's shards onto the same pool would deadlock
  // a worker waiting on its own pool).
  return probe::BatchFirstMatch(Sources(), queries,
                                options_.index.verify_measure, pool, stats,
                                batch_stats);
}

std::vector<uint64_t> ShardedIndex::ComputeFilterKeys(
    std::span<const ItemId> query) const {
  std::vector<uint64_t> keys;
  if (!built()) return keys;
  // Groups come out in repetition order: the per-rep concatenation.
  family_.ComputeAllFilters(query, &keys);
  return keys;
}

size_t ShardedIndex::MemoryBytes() const {
  size_t total = 0;
  for (const FilterTable& shard : shards_) total += shard.MemoryBytes();
  return total;
}

Status ShardedIndex::Freeze(const std::string& path) const {
  namespace io = index_io_internal;
  if (!built()) {
    return Status::InvalidArgument("cannot freeze an unbuilt index");
  }
  std::vector<const FilterTable*> tables;
  tables.reserve(shards_.size());
  for (const FilterTable& shard : shards_) tables.push_back(&shard);
  return WriteFrozenShards(path, options_.index,
                           family_.verify_threshold(), build_stats_,
                           io::Fingerprint(*data_), tables);
}

Status ShardedIndex::MapFrozen(const std::string& path, const Dataset* data,
                               const ProductDistribution* dist) {
  return MapFrozen(path, data, dist, FrozenMapOptions{});
}

Status ShardedIndex::MapFrozen(const std::string& path, const Dataset* data,
                               const ProductDistribution* dist,
                               const FrozenMapOptions& options) {
  Result<FrozenIndexParts> parts =
      RestoreFrozenIndex(path, data, dist, options);
  if (!parts.ok()) return parts.status();
  const int num_shards = static_cast<int>(parts->shards.size());
  if (options.verify_payload) {
    // Every posting must live in the shard its id hashes to. O(index),
    // gated like the payload checksums.
    for (int s = 0; s < num_shards; ++s) {
      const FilterTable& table = parts->shards[static_cast<size_t>(s)];
      for (VectorId id : table.ids_span()) {
        if (ShardOf(id, num_shards) != s) {
          return Status::InvalidArgument(
              "shard table references out-of-place vector ids");
        }
      }
    }
  }

  data_ = data;
  dist_ = dist;
  options_.index = parts->family.options();
  options_.num_shards = num_shards;
  family_ = std::move(parts->family);
  build_stats_ = parts->stats;
  shards_ = std::move(parts->shards);
  frozen_ = std::move(parts->file);
  return Status::OK();
}

}  // namespace skewsearch
