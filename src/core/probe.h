// Copyright 2026 The skewsearch Authors.
// The probe kernel: the paper's query procedure, written once for every
// index flavour.
//
// A query runs the L repetitions of Lemma 5: generate F_r(q), look up
// each key, dedup, verify, and stop at the first hit. SkewedPathIndex,
// ShardedIndex (heap or mapped), DynamicIndex and the distributed
// JoinWorker all run it here, templated on a concrete *posting source
// set* (no virtual call per posting), and every flavour records the
// same query metrics and phase spans from this code
// (docs/OBSERVABILITY.md, "Query path").
//
// A source set `Sources` offers, for each source s in [0, size()):
//
//   size_t size() const;
//   const FilterFamily& family(size_t s) const;  // FirstMatch/AllMatches
//   const FilterTable& table(size_t s) const;    // phase-0 postings
//   static constexpr bool kHasDelta;
//   std::span<const VectorId> Delta(size_t s, uint64_t key) const;
//                                    // phase-1 postings, if kHasDelta
//   bool Admit(size_t s, VectorId id, std::span<const ItemId>* items) const;
//
// One source is scanned key by key: each key's table postings (phase 0),
// then its delta postings (phase 1). Every posting counts one
// candidate. An id the source has already seen is skipped first, then
// Admit may reject it (tombstones, the self-join exclusion), and only
// then is one verification counted. Sources whose families differ (a
// DynamicIndex mid-rebuild) each probe their own family's keys; the
// early-exit merge picks the minimal (key position, phase, id) over the
// sources' first hits, which is the monolithic index's first hit.

#ifndef SKEWSEARCH_CORE_PROBE_H_
#define SKEWSEARCH_CORE_PROBE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/batch.h"
#include "core/inverted_index.h"
#include "core/path_engine.h"
#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "obs/span.h"
#include "sim/brute_force.h"
#include "sim/measures.h"
#include "util/containers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {
namespace probe {

/// The static flavours' sources: K frozen tables (heap or mapped) over
/// one dataset under one family. SkewedPathIndex is the K = 1 case.
/// A mapped table's ids are checksummed only under verify_payload
/// (core/frozen_shard.h), so Admit refuses an id beyond the dataset.
struct TableSources {
  static constexpr bool kHasDelta = false;

  std::span<const FilterTable> tables;
  const Dataset* data;
  const FilterFamily* filter_family;

  /// 0 until the family is built: an unbuilt index probes nothing.
  size_t size() const { return filter_family->valid() ? tables.size() : 0; }
  const FilterFamily& family(size_t) const { return *filter_family; }
  const FilterTable& table(size_t s) const { return tables[s]; }
  bool Admit(size_t, VectorId id, std::span<const ItemId>* items) const {
    if (id >= data->size()) return false;
    *items = data->Get(id);
    return true;
  }
};

/// A source's first passing candidate, at its scan coordinate.
struct Hit {
  bool found = false;
  size_t key_idx = 0;
  int phase = 0;  ///< 0 = table postings, 1 = delta postings
  VectorId id = 0;
  double similarity = 0.0;

  /// Scan order across sources: (key position, phase, id).
  bool Before(const Hit& other) const {
    if (key_idx != other.key_idx) return key_idx < other.key_idx;
    if (phase != other.phase) return phase < other.phase;
    return id < other.id;
  }
};

/// Reusable per-thread query workspace; a batch keeps one per worker
/// slot so its buffers survive across the queries the slot answers.
struct ProbeScratch {
  /// One filter family's view of the query: prepared once, then one
  /// repetition's keys (FirstMatch) or all of them (AllMatches).
  struct KeyGroup {
    const FilterFamily* family = nullptr;
    PathScratch path;
    std::vector<uint64_t> keys;
  };

  /// One source's dedup set, key group and per-repetition result.
  struct Slot {
    PostingSet<VectorId> seen;
    size_t group = 0;
    Hit hit;
    QueryStats stats;
  };

  /// Resets for a query over \p sources and opens their key groups.
  template <typename Sources>
  void Begin(const Sources& sources) {
    live_groups = 0;
    slots.resize(sources.size());
    for (size_t s = 0; s < slots.size(); ++s) {
      slots[s].seen.clear();
      slots[s].group = GroupFor(&sources.family(s));
    }
  }

  /// The live key group of \p family, opened on first use.
  size_t GroupFor(const FilterFamily* family);

  /// Prepares \p query under every live group; returns the largest
  /// repetition count among them.
  int Prepare(std::span<const ItemId> query);

  /// Replaces each group's keys with repetition \p rep's (none when its
  /// family has fewer repetitions); returns the key total.
  size_t GenerateRep(int rep);

  /// Replaces each group's keys with every repetition's, in repetition
  /// order; returns the key total.
  size_t GenerateAll(std::span<const ItemId> query);

  std::vector<KeyGroup> groups;
  size_t live_groups = 0;
  std::vector<Slot> slots;

  /// Path-generation counters summed over every query answered here.
  PathGenStats path_gen;
};

/// Records one early-exit query into the query.* metrics and the
/// thread's ScopedTrace (defined in probe.cc, with the metric handles).
void RecordQuery(bool hit, const QueryStats& stats, uint64_t reps_probed,
                 int64_t filter_ns, int64_t verify_ns, int64_t total_ns);

/// Records one repetition's candidate fan-out (query.rep_fanout).
void RecordRepFanout(uint64_t candidates);

/// Sorts by descending similarity, ties by ascending id.
void SortBySimilarity(std::vector<Match>* matches);

namespace internal {

/// Scans source \p s over \p keys in order, calling on_pass(Hit) for
/// each candidate reaching \p threshold until it returns true.
template <typename Sources, typename OnPass>
void ScanSource(const Sources& sources, size_t s,
                std::span<const uint64_t> keys,
                std::span<const ItemId> query, Measure measure,
                double threshold, PostingSet<VectorId>* seen,
                QueryStats* stats, OnPass&& on_pass) {
  auto visit = [&](std::span<const VectorId> postings, size_t key_idx,
                   int phase) {
    stats->candidates += postings.size();
    for (VectorId id : postings) {
      if (!seen->insert(id).second) continue;
      std::span<const ItemId> items;
      if (!sources.Admit(s, id, &items)) continue;
      stats->verifications++;
      const double sim = Similarity(measure, query, items);
      if (sim >= threshold && on_pass(Hit{true, key_idx, phase, id, sim})) {
        return true;
      }
    }
    return false;
  };
  const FilterTable& table = sources.table(s);
  for (size_t ki = 0; ki < keys.size(); ++ki) {
    if (visit(table.Lookup(keys[ki]), ki, 0)) return;
    if constexpr (Sources::kHasDelta) {
      if (visit(sources.Delta(s, keys[ki]), ki, 1)) return;
    }
  }
}

}  // namespace internal

/// The early-exit driver: repetition by repetition, the first passing
/// candidate in scan order, or nullopt. Each repetition scans the
/// sources serially on the caller. \p scratch may be null (a fresh
/// one); \p stats may be null. Records query.*,
/// span.query.{filters,verify} and the trace.
template <typename Sources>
std::optional<Match> FirstMatch(const Sources& sources,
                                std::span<const ItemId> query,
                                Measure measure, ProbeScratch* scratch,
                                QueryStats* stats) {
  Timer timer;
  ProbeScratch local_scratch;
  if (scratch == nullptr) scratch = &local_scratch;
  QueryStats local;
  std::optional<Match> found;
  uint64_t reps_probed = 0;
  int64_t filter_ns = 0;
  int64_t phase_mark = 0;
  const size_t num = sources.size();
  if (num > 0 && !query.empty()) {
    scratch->Begin(sources);
    const int reps = scratch->Prepare(query);
    for (int rep = 0; rep < reps && !found; ++rep) {
      reps_probed++;
      local.filters += scratch->GenerateRep(rep);
      // Everything between phase_mark and here was filter generation;
      // the rest of the repetition is lookup + verification.
      filter_ns += timer.ElapsedNanos() - phase_mark;
      for (size_t s = 0; s < num; ++s) {
        ProbeScratch::Slot& slot = scratch->slots[s];
        const ProbeScratch::KeyGroup& group = scratch->groups[slot.group];
        slot.hit = Hit{};
        slot.stats = QueryStats{};
        if (rep >= group.family->repetitions()) continue;
        internal::ScanSource(sources, s, group.keys, query, measure,
                             group.family->verify_threshold(), &slot.seen,
                             &slot.stats, [&](const Hit& hit) {
                               slot.hit = hit;
                               return true;
                             });
      }
      const Hit* best = nullptr;
      uint64_t rep_candidates = 0;
      for (const ProbeScratch::Slot& slot : scratch->slots) {
        rep_candidates += slot.stats.candidates;
        local.verifications += slot.stats.verifications;
        if (slot.hit.found && (best == nullptr || slot.hit.Before(*best))) {
          best = &slot.hit;
        }
      }
      local.candidates += rep_candidates;
      if (best != nullptr) found = Match{best->id, best->similarity};
      phase_mark = timer.ElapsedNanos();
      RecordRepFanout(rep_candidates);
    }
    for (const ProbeScratch::Slot& slot : scratch->slots) {
      local.distinct_candidates += slot.seen.size();
    }
  }
  const int64_t total_ns = timer.ElapsedNanos();
  local.seconds = static_cast<double>(total_ns) * 1e-9;
  RecordQuery(found.has_value(), local, reps_probed, filter_ns,
              phase_mark - filter_ns, total_ns);
  if (stats != nullptr) *stats = local;
  return found;
}

/// FirstMatch over every vector of \p queries, parallelized over the
/// batch on \p pool (null = serial); each query scans its sources
/// serially, so results match the serial ones for any pool.
template <typename Sources>
std::vector<std::optional<Match>> BatchFirstMatch(
    const Sources& sources, const Dataset& queries, Measure measure,
    ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) {
  return batch_internal::Run<ProbeScratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, ProbeScratch* scratch, QueryStats* query_stats) {
        return FirstMatch(sources, queries.Get(static_cast<VectorId>(i)),
                          measure, scratch, query_stats);
      },
      [](const ProbeScratch& scratch, BatchQueryStats* agg) {
        AddPathGenStats(&agg->path_gen, scratch.path_gen);
      });
}

/// The exhaustive scan behind every QueryAll: all distinct admitted
/// candidates reaching \p threshold over every repetition, sorted by
/// descending similarity (ties by id). Records span.query.all.
template <typename Sources>
std::vector<Match> AllMatches(const Sources& sources,
                              std::span<const ItemId> query, Measure measure,
                              double threshold, QueryStats* stats) {
  SKEWSEARCH_SPAN("query.all");
  Timer timer;
  QueryStats local;
  std::vector<Match> out;
  const size_t num = sources.size();
  if (num > 0 && !query.empty()) {
    ProbeScratch scratch;
    scratch.Begin(sources);
    local.filters = scratch.GenerateAll(query);
    for (size_t s = 0; s < num; ++s) {
      ProbeScratch::Slot& slot = scratch.slots[s];
      internal::ScanSource(sources, s, scratch.groups[slot.group].keys, query,
                           measure, threshold, &slot.seen, &local,
                           [&](const Hit& hit) {
                             out.push_back({hit.id, hit.similarity});
                             return false;
                           });
      local.distinct_candidates += slot.seen.size();
    }
  }
  SortBySimilarity(&out);
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return out;
}

/// The exhaustive scan with caller-supplied keys (a distributed probe):
/// every source scans \p keys, and matches are appended to \p out in
/// scan order, unsorted. Adds to \p stats. Records span.query.all.
template <typename Sources>
void ScanKeys(const Sources& sources, std::span<const uint64_t> keys,
              std::span<const ItemId> query, Measure measure,
              double threshold, QueryStats* stats, std::vector<Match>* out) {
  SKEWSEARCH_SPAN("query.all");
  PostingSet<VectorId> seen;
  for (size_t s = 0; s < sources.size(); ++s) {
    seen.clear();
    internal::ScanSource(sources, s, keys, query, measure, threshold, &seen,
                         stats, [&](const Hit& hit) {
                           out->push_back({hit.id, hit.similarity});
                           return false;
                         });
    stats->distinct_candidates += seen.size();
  }
}

}  // namespace probe
}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_PROBE_H_
