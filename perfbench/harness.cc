// Copyright 2026 The skewsearch Authors.

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/sharded_index.h"
#include "data/generators.h"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_us", "us"},
    {"ops_per_s", "1/s"},
    {"recall", "ratio"},
    {"bytes_per_posting", "B"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"path_engine.us_per_query", "us"},
    {"path_engine.reps_per_query", "count"},
    {"path_engine.keys_per_query", "count"},
    {"path_engine.draws_per_vector", "count"},
    {"path_engine.nodes_per_vector", "count"},
    {"build.emit_s", "s"},
    {"build.table_s", "s"},
    {"inverted_index.lookup_ns_per_key", "ns"},
    {"inverted_index.heap_mb", "MB"},
    {"frozen_shard.freeze_s", "s"},
    {"frozen_shard.map_ms", "ms"},
    {"sharded_index.candidates_per_query", "count"},
    {"sharded_index.distinct_per_query", "count"},
    {"sim.verifications_per_query", "count"},
    {"sim.useful_ratio", "ratio"},
    {"sim.us_per_query", "us"},
    {"dynamic_index.insert_us_p50", "us"},
    {"dynamic_index.insert_us_p99", "us"},
    {"dynamic_index.remove_us_p50", "us"},
    {"dynamic_index.delta_entries", "count"},
    {"dynamic_index.dead_fraction", "ratio"},
    {"maintenance.pass_ms", "ms"},
    {"maintenance.compactions", "count"},
    {"maintenance.checkpoints", "count"},
    {"durability.wal_bytes_per_ack", "B"},
    {"durability.fsyncs_per_ack", "count"},
    {"durability.replayed", "count"},
    {"similarity_join.build_s", "s"},
    {"similarity_join.probe_s", "s"},
    {"similarity_join.candidates_per_probe", "count"},
    {"similarity_join.local_join_s", "s"},
    {"distributed.duplication_factor", "ratio"},
    {"distributed.probe_fanout", "count"},
    {"trace.overhead_ratio", "ratio"},
};

const char* UnitOf(std::span<const MetricSpec> specs, const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return spec.unit;
  }
  return nullptr;
}

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> Quantile(std::vector<double> values, double q) {
  const size_t n = values.size();
  if (n == 0) return std::nullopt;
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<ptrdiff_t>(idx),
                   values.end());
  return values[idx];
}

std::vector<double> FastestPerOp(const std::vector<double>& samples,
                                 size_t ops) {
  std::vector<double> best(std::min(ops, samples.size()));
  for (size_t k = 0; k < samples.size(); ++k) {
    best[k % ops] = k < ops ? samples[k] : std::min(best[k % ops], samples[k]);
  }
  return best;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- Tracer

int64_t Tracer::FindName(const char* name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int64_t>(i);
  }
  return -1;
}

uint32_t Tracer::Intern(const char* name) {
  const int64_t found = FindName(name);
  if (found >= 0) return static_cast<uint32_t>(found);
  names_.emplace_back(name);
  self_ns_.push_back(0);
  counts_.push_back(0);
  return static_cast<uint32_t>(names_.size() - 1);
}

void Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back().span.id);
  open_.push_back(
      Frame{Span{next_id_++, parent, request, Intern(name), NowNs(), 0}, 0});
}

void Tracer::Close() {
  if (!enabled_ || open_.empty()) return;
  Frame frame = open_.back();
  open_.pop_back();
  frame.span.end_ns = NowNs();
  Finish(frame.span, frame.child_ns);
}

void Tracer::Add(const char* name, uint64_t request, int64_t start_ns,
                 int64_t end_ns) {
  if (!enabled_) return;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back().span.id);
  Finish(Span{next_id_++, parent, request, Intern(name), start_ns, end_ns}, 0);
}

void Tracer::Finish(const Span& span, int64_t child_ns) {
  const int64_t duration = span.end_ns - span.start_ns;
  self_ns_[span.name] += duration - child_ns;
  counts_[span.name] += 1;
  if (!open_.empty()) open_.back().child_ns += duration;
  if (kept_.size() < kMaxKept) kept_.push_back(span);
}

double Tracer::SelfSeconds(const char* name) const {
  const int64_t idx = FindName(name);
  return idx < 0 ? 0.0 : static_cast<double>(self_ns_[idx]) * 1e-9;
}

uint64_t Tracer::Count(const char* name) const {
  const int64_t idx = FindName(name);
  return idx < 0 ? 0 : counts_[idx];
}

bool Tracer::Dump(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& s : kept_) {
    std::fprintf(out, "%" PRIu64 "\t%" PRId64 "\t%" PRIu64 "\t%s\t%" PRId64
                      "\t%" PRId64 "\n",
                 s.id, s.parent, s.request, names_[s.name].c_str(), s.start_ns,
                 s.end_ns);
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------- Report

std::span<const MetricSpec> EndToEndMetrics() { return kEndToEnd; }
std::span<const MetricSpec> PerLayerMetrics() { return kPerLayer; }

void Report::EndToEnd(const std::string& name, double value) {
  const char* unit = UnitOf(kEndToEnd, name);
  if (unit == nullptr) {
    Fail("unknown end-to-end metric " + name);
    return;
  }
  end_to_end_.push_back({name, value, unit});
}

void Report::Extra(const std::string& name, double value,
                   const std::string& unit) {
  extras_.push_back({name, value, unit});
}

void Report::Layer(const std::string& name, double value) {
  const char* unit = UnitOf(kPerLayer, name);
  if (unit == nullptr) {
    Fail("unknown per-layer metric " + name);
    return;
  }
  layers_.push_back({name, value, unit});
}

void Report::Counter(const std::string& name, double value) {
  counters_.emplace_back(name, value);
}

void Report::Fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "[%s] FAILED: %s\n", workload_.c_str(), why.c_str());
}

int Report::Print(bool trace) const {
  // A metric the workload did not set reads 0 in the per-layer list (the
  // layer is not called); a missing end-to-end metric is a harness bug.
  const std::vector<Value>& chosen = trace ? layers_ : end_to_end_;
  const std::span<const MetricSpec> specs = trace ? PerLayerMetrics()
                                                  : EndToEndMetrics();
  std::vector<Value> metrics;
  bool complete = true;
  for (const MetricSpec& spec : specs) {
    const Value* found = nullptr;
    for (const Value& v : chosen) {
      if (v.name == spec.name) found = &v;
    }
    if (found != nullptr && std::isfinite(found->value)) {
      metrics.push_back(*found);
    } else if (trace) {
      metrics.push_back({spec.name, 0.0, spec.unit});
    } else {
      complete = false;
      std::fprintf(stderr, "[%s] missing end-to-end metric %s\n",
                   workload_.c_str(), spec.name);
    }
  }
  const size_t failed = failed_ + (complete ? 0 : 1);
  const size_t attempted = std::max<size_t>(attempted_, 1);

  // The table: end-to-end numbers (gated and workload-specific) in an
  // untraced run, per-layer numbers in a traced one.
  auto row = [&](const std::string& name, double value,
                 const std::string& unit) {
    std::printf("%-13s %-36s %16.6g %s\n", workload_.c_str(), name.c_str(),
                value, unit.c_str());
  };
  for (const Value& v : trace ? metrics : end_to_end_) {
    row(v.name, v.value, v.unit);
  }
  if (!trace) {
    for (const Value& v : extras_) row(v.name, v.value, v.unit);
  }
  row("failed_ratio",
      static_cast<double>(failed) / static_cast<double>(attempted), "ratio");

  std::printf("# counters {");
  for (size_t i = 0; i < counters_.size(); ++i) {
    std::printf("%s", i ? ", " : "");
    PrintJsonString(counters_[i].first);
    std::printf(": %.17g", counters_[i].second);
  }
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s", i ? ", " : "");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- Inputs

skewsearch::ProductDistribution ZipfDistribution() {
  auto zipf = skewsearch::ZipfProbabilities(5000, 1.0, 0.5);
  auto scaled = skewsearch::ScaleToAverageSize(zipf.value(), 30.0);
  return std::move(scaled).value();
}

Dataset NonEmptySamples(const skewsearch::ProductDistribution& dist,
                        size_t count, skewsearch::Rng* rng) {
  Dataset out;
  while (out.size() < count) {
    Dataset batch = skewsearch::GenerateDataset(dist, count - out.size(), rng);
    for (VectorId id = 0; id < batch.size(); ++id) {
      if (!batch.Get(id).empty()) out.Add(batch.Get(id));
    }
  }
  (void)out.SetDimension(dist.dimension());
  return out;
}

// ---------------------------------------------------------------- Replays

namespace {
// Keeps timed-but-unused results observable so the calls are not elided.
volatile uint64_t g_sink = 0;
}  // namespace

ReplayCounts ReplayQuery(const skewsearch::FilterFamily& family,
                         std::span<const skewsearch::FilterTable* const> tables,
                         const Dataset& data, std::span<const ItemId> query,
                         uint64_t request, Tracer* tracer,
                         ReplayScratch* scratch) {
  const skewsearch::Measure measure = family.options().verify_measure;
  const double threshold = family.verify_threshold();
  const size_t num = tables.size();
  scratch->seen.resize(num);
  scratch->verified.resize(num);
  scratch->scanned.resize(num);
  for (auto& seen : scratch->seen) seen.clear();

  ReplayCounts counts;
  for (int rep = 0; rep < family.repetitions() && !counts.found; ++rep) {
    ++counts.reps;
    std::vector<uint64_t>& keys = scratch->keys;
    keys.clear();
    const int64_t filters_start = NowNs();
    family.ComputeFilters(query, static_cast<uint32_t>(rep), &keys);
    tracer->Add("path_engine.filters", request, filters_start, NowNs());
    counts.keys += keys.size();

    // Walk each table as Query() does (lookup, dedup, verify, stop at the
    // table's first hit) to learn which lookups and verifications it made;
    // the timed passes below then repeat exactly those calls per layer.
    struct Hit {
      size_t key_idx;
      VectorId id;
      double similarity;
    };
    std::optional<Hit> best;
    for (size_t s = 0; s < num; ++s) {
      scratch->verified[s].clear();
      scratch->scanned[s] = keys.size();
      bool hit = false;
      for (size_t ki = 0; ki < keys.size() && !hit; ++ki) {
        auto postings = tables[s]->Lookup(keys[ki]);
        counts.candidates += postings.size();
        for (VectorId id : postings) {
          if (!scratch->seen[s].insert(id).second) continue;
          scratch->verified[s].push_back(id);
          const double sim =
              skewsearch::Similarity(measure, query, data.Get(id));
          if (sim >= threshold) {
            hit = true;
            scratch->scanned[s] = ki + 1;
            if (!best || ki < best->key_idx ||
                (ki == best->key_idx && id < best->id)) {
              best = Hit{ki, id, sim};
            }
            break;
          }
        }
      }
    }

    uint64_t sink = 0;
    const int64_t lookup_start = NowNs();
    for (size_t s = 0; s < num; ++s) {
      for (size_t ki = 0; ki < scratch->scanned[s]; ++ki) {
        sink += tables[s]->Lookup(keys[ki]).size();
      }
      counts.lookups += scratch->scanned[s];
    }
    const int64_t lookup_end = NowNs();
    tracer->Add("inverted_index.lookup", request, lookup_start, lookup_end);

    double total = 0.0;
    for (size_t s = 0; s < num; ++s) {
      for (VectorId id : scratch->verified[s]) {
        total += skewsearch::Similarity(measure, query, data.Get(id));
      }
      counts.verifications += scratch->verified[s].size();
    }
    tracer->Add("sim.verify", request, lookup_end, NowNs());
    g_sink = g_sink + sink + static_cast<uint64_t>(total);

    if (best) counts.found = Match{best->id, best->similarity};
  }
  for (const auto& seen : scratch->seen) counts.distinct += seen.size();
  return counts;
}

size_t ReplayFilters(const skewsearch::FilterFamily& family,
                     std::span<const ItemId> query, size_t filters,
                     bool missed, uint64_t request, Tracer* tracer) {
  std::vector<uint64_t> keys;
  size_t walked = 0;
  size_t emitted = 0;
  for (int rep = 0; rep < family.repetitions(); ++rep) {
    if (!missed && emitted >= filters) break;
    const size_t before = keys.size();
    const int64_t start = NowNs();
    family.ComputeFilters(query, static_cast<uint32_t>(rep), &keys);
    tracer->Add("path_engine.filters", request, start, NowNs());
    emitted += keys.size() - before;
    ++walked;
  }
  return walked;
}

BuildReplay ReplayBuild(const skewsearch::FilterFamily& family,
                        const Dataset& data, int num_shards, Tracer* tracer) {
  BuildReplay out;
  std::vector<std::pair<uint64_t, VectorId>> pairs;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  const int64_t emit_start = NowNs();
  for (VectorId id = 0; id < data.size(); ++id) {
    keys.clear();
    skewsearch::PathGenStats gen;
    family.ComputeAllFilters(data.Get(id), &keys, &offsets, &gen);
    skewsearch::AddPathGenStats(&out.gen, gen);
    for (uint64_t key : keys) pairs.emplace_back(key, id);
  }
  const int64_t emit_end = NowNs();
  tracer->Add("build.emit", 0, emit_start, emit_end);

  std::vector<skewsearch::FilterTable> tables(static_cast<size_t>(num_shards));
  for (const auto& [key, id] : pairs) {
    tables[static_cast<size_t>(
               skewsearch::ShardedIndex::ShardOf(id, num_shards))]
        .Add(key, id);
  }
  for (auto& table : tables) {
    table.Freeze();
    out.pairs += table.num_pairs();
  }
  const int64_t table_end = NowNs();
  tracer->Add("build.table", 0, emit_end, table_end);

  out.emit_s = static_cast<double>(emit_end - emit_start) * 1e-9;
  out.table_s = static_cast<double>(table_end - emit_end) * 1e-9;
  out.keys = pairs.size();
  return out;
}

void ReportBuildReplay(const BuildReplay& replay, size_t n, Report* report) {
  const double vectors = static_cast<double>(std::max<size_t>(n, 1));
  report->Layer("build.emit_s", replay.emit_s);
  report->Layer("build.table_s", replay.table_s);
  report->Layer("path_engine.draws_per_vector",
                static_cast<double>(replay.gen.draws) / vectors);
  report->Layer("path_engine.nodes_per_vector",
                static_cast<double>(replay.gen.nodes_expanded) / vectors);
  report->Counter("build.keys", static_cast<double>(replay.keys));
  report->Counter("build.draws", static_cast<double>(replay.gen.draws));
  report->Counter("build.nodes",
                  static_cast<double>(replay.gen.nodes_expanded));
}

}  // namespace perfbench
