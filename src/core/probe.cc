#include "core/probe.h"

#include <algorithm>

#include "obs/metrics.h"

namespace skewsearch {
namespace probe {

namespace {

// The query path's metric handles (docs/OBSERVABILITY.md, "query.*"),
// looked up once per process so the registry mutex is taken once; per
// query this adds a handful of relaxed atomic adds and two clock reads
// per repetition (the filter/verify phase split).
struct QueryMetrics {
  obs::Counter* queries;
  obs::Counter* hits;
  obs::Counter* candidates;
  obs::Counter* verifications;
  obs::Histogram* latency;
  obs::Histogram* repetitions;
  obs::Histogram* fanout;
  obs::Histogram* filters_span;
  obs::Histogram* verify_span;
};

const QueryMetrics& Metrics() {
  static const QueryMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return QueryMetrics{
        registry.GetCounter("query.count"),
        registry.GetCounter("query.hits"),
        registry.GetCounter("query.candidates"),
        registry.GetCounter("query.verifications"),
        registry.GetHistogram("query.latency_ns"),
        registry.GetHistogram("query.repetitions_probed"),
        registry.GetHistogram("query.rep_fanout"),
        registry.GetHistogram("span.query.filters"),
        registry.GetHistogram("span.query.verify"),
    };
  }();
  return metrics;
}

}  // namespace

size_t ProbeScratch::GroupFor(const FilterFamily* family) {
  for (size_t g = 0; g < live_groups; ++g) {
    if (groups[g].family == family) return g;
  }
  if (live_groups == groups.size()) groups.emplace_back();
  groups[live_groups].family = family;
  return live_groups++;
}

int ProbeScratch::Prepare(std::span<const ItemId> query) {
  int reps = 0;
  for (size_t g = 0; g < live_groups; ++g) {
    const FilterFamily& family = *groups[g].family;
    family.engine().Prepare(query, &groups[g].path);
    reps = std::max(reps, family.repetitions());
  }
  return reps;
}

size_t ProbeScratch::GenerateRep(int rep) {
  size_t total = 0;
  for (size_t g = 0; g < live_groups; ++g) {
    KeyGroup& group = groups[g];
    group.keys.clear();
    if (rep >= group.family->repetitions()) continue;
    PathGenStats gen;
    const uint32_t r = static_cast<uint32_t>(rep);
    group.family->engine().Generate(&group.path, r, r + 1, &group.keys,
                                    nullptr, &gen);
    AddPathGenStats(&path_gen, gen);
    total += group.keys.size();
  }
  return total;
}

size_t ProbeScratch::GenerateAll(std::span<const ItemId> query) {
  size_t total = 0;
  for (size_t g = 0; g < live_groups; ++g) {
    KeyGroup& group = groups[g];
    group.family->ComputeAllFilters(query, &group.keys, nullptr, nullptr,
                                    nullptr, &group.path);
    total += group.keys.size();
  }
  return total;
}

void RecordQuery(bool hit, const QueryStats& stats, uint64_t reps_probed,
                 int64_t filter_ns, int64_t verify_ns, int64_t total_ns) {
  const QueryMetrics& m = Metrics();
  m.queries->Increment();
  if (hit) m.hits->Increment();
  m.candidates->Increment(stats.candidates);
  m.verifications->Increment(stats.verifications);
  m.latency->Record(static_cast<uint64_t>(total_ns));
  m.repetitions->Record(reps_probed);
  m.filters_span->Record(static_cast<uint64_t>(filter_ns));
  m.verify_span->Record(static_cast<uint64_t>(verify_ns));
  if (obs::ScopedTrace* trace = obs::ScopedTrace::Current()) {
    trace->Add("span.query.filters", static_cast<uint64_t>(filter_ns));
    trace->Add("span.query.verify", static_cast<uint64_t>(verify_ns));
    trace->Add("query.latency_ns", static_cast<uint64_t>(total_ns));
  }
}

void RecordRepFanout(uint64_t candidates) {
  Metrics().fanout->Record(candidates);
}

void SortBySimilarity(std::vector<Match>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const Match& a, const Match& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
}

}  // namespace probe
}  // namespace skewsearch
