// Copyright 2026 The skewsearch Authors.
// Shared pieces of the perfbench binary: run arguments, the metric report
// (human table + the one-line JSON result), benchmark-side span tracing,
// the seeded Zipf inputs, and the replays that re-execute a query or a
// build through the library's public layer calls so each layer's time and
// work can be attributed.

#ifndef SKEWSEARCH_PERFBENCH_HARNESS_H_
#define SKEWSEARCH_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/inverted_index.h"
#include "core/path_engine.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "sim/brute_force.h"
#include "sim/measures.h"
#include "util/containers.h"
#include "util/random.h"

namespace perfbench {

using skewsearch::Dataset;
using skewsearch::ItemId;
using skewsearch::Match;
using skewsearch::VectorId;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (frozen index, WAL)
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

double Median(std::vector<double> values);

/// Nearest-rank quantile \p q of \p values, or nullopt when fewer than ten
/// samples lie above it (a tail estimate needs that many to mean anything).
std::optional<double> Quantile(std::vector<double> values, double q);

/// Each op's fastest time: \p samples holds whole passes over one list of
/// \p ops ops, back to back, and op i's time is the minimum over passes of
/// samples[pass * ops + i]. Reported timings are these fastest repeats, a
/// min-of-N estimate that keeps the host's load swings (other tenants
/// share the cores and the L3) out of the gated numbers.
std::vector<double> FastestPerOp(const std::vector<double>& samples,
                                 size_t ops);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Benchmark-side spans: name, start, end, parent and request id, recorded
/// around calls into the library. Self time (duration minus the part
/// covered by child spans) is aggregated per name as spans close; the first
/// kMaxKept spans are also kept in memory and written out by Dump().
class Tracer {
 public:
  static constexpr size_t kMaxKept = size_t{1} << 18;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one.
  void Open(const char* name, uint64_t request);
  /// Closes the innermost open span.
  void Close();
  /// Records an already-timed span nested in the innermost open one.
  void Add(const char* name, uint64_t request, int64_t start_ns,
           int64_t end_ns);

  /// Summed self time of every span called \p name, in seconds.
  double SelfSeconds(const char* name) const;
  /// Number of spans called \p name closed so far.
  uint64_t Count(const char* name) const;

  /// Writes the kept spans as TSV (id, parent, request, name, start, end).
  bool Dump(const std::string& path) const;

 private:
  struct Span {
    uint64_t id;
    int64_t parent;  ///< -1 for a root span
    uint64_t request;
    uint32_t name;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Frame {
    Span span;
    int64_t child_ns;
  };

  uint32_t Intern(const char* name);
  int64_t FindName(const char* name) const;
  void Finish(const Span& span, int64_t child_ns);

  bool enabled_;
  uint64_t next_id_ = 0;
  std::vector<std::string> names_;
  std::vector<int64_t> self_ns_;
  std::vector<uint64_t> counts_;
  std::vector<Frame> open_;
  std::vector<Span> kept_;
};

/// RAII span; a no-op when tracing is off.
class SpanScope {
 public:
  /// \p tracer may be null (no span).
  SpanScope(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->Open(name, request);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

/// The gated end-to-end metrics every workload reports (BENCHMARK.json
/// `end_to_end`), and the per-layer metrics of a traced run (`per_layer`).
/// A per-layer metric of a layer the workload does not call reads 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
std::span<const MetricSpec> EndToEndMetrics();
std::span<const MetricSpec> PerLayerMetrics();

/// Collects one run's metrics, correctness verdict and exact work counters,
/// and prints them: a human table, a `# counters` line, then the JSON result
/// as the last line of stdout.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void EndToEnd(const std::string& name, double value);
  /// A workload-specific end-to-end number (table only; see README.md).
  void Extra(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value);
  /// An exact work counter; the determinism test compares these.
  void Counter(const std::string& name, double value);

  void Attempt(size_t ops = 1) { attempted_ += ops; }
  /// Records a non-OK status or wrong answer.
  void Fail(const std::string& why);
  /// Records a broken invariant that is not an op (e.g. recovery state).
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }

  /// Prints everything; returns the process exit code (0 when correct).
  int Print(bool trace) const;

 private:
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };

  std::string workload_;
  std::vector<Value> end_to_end_;
  std::vector<Value> extras_;
  std::vector<Value> layers_;
  std::vector<std::pair<std::string, double>> counters_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// The inputs' distribution: Zipf over d=5000 items, exponent 1.0, scaled
/// to an expected |x| of 30.
skewsearch::ProductDistribution ZipfDistribution();

/// \p count non-empty samples from \p dist.
Dataset NonEmptySamples(const skewsearch::ProductDistribution& dist,
                        size_t count, skewsearch::Rng* rng);

/// Work counts of one replayed query.
struct ReplayCounts {
  size_t reps = 0;
  size_t keys = 0;
  size_t lookups = 0;  ///< (table, key) probes
  size_t candidates = 0;
  size_t distinct = 0;
  size_t verifications = 0;
  std::optional<Match> found;
};

/// Reusable buffers for ReplayQuery.
struct ReplayScratch {
  std::vector<uint64_t> keys;
  std::vector<skewsearch::PostingSet<VectorId>> seen;
  std::vector<std::vector<VectorId>> verified;
  std::vector<size_t> scanned;
};

/// Re-executes an early-exit Query() over \p tables (one table, or one per
/// shard merged by scan position) through the public layer calls:
/// FilterFamily::ComputeFilters per repetition walked, FilterTable::Lookup
/// per key, Similarity per distinct candidate. Each phase is timed as its
/// own span ("path_engine.filters", "inverted_index.lookup", "sim.verify")
/// under the caller's open span.
ReplayCounts ReplayQuery(const skewsearch::FilterFamily& family,
                         std::span<const skewsearch::FilterTable* const> tables,
                         const Dataset& data, std::span<const ItemId> query,
                         uint64_t request, Tracer* tracer,
                         ReplayScratch* scratch);

/// Re-times the filter generation of a query answered by an index whose
/// tables are not public: the repetitions it walked are inferred from its
/// QueryStats::filters (all of them when it missed).
size_t ReplayFilters(const skewsearch::FilterFamily& family,
                     std::span<const ItemId> query, size_t filters,
                     bool missed, uint64_t request, Tracer* tracer);

/// Work and time of a build replayed through the public calls: key
/// emission (FilterFamily::ComputeAllFilters per vector) then table
/// construction (FilterTable::Add + Freeze, split by ShardOf).
struct BuildReplay {
  double emit_s = 0.0;
  double table_s = 0.0;
  size_t keys = 0;
  size_t pairs = 0;  ///< postings in the frozen tables
  skewsearch::PathGenStats gen;
};
BuildReplay ReplayBuild(const skewsearch::FilterFamily& family,
                        const Dataset& data, int num_shards, Tracer* tracer);

/// Reports the per-layer build metrics of \p replay for \p n vectors.
void ReportBuildReplay(const BuildReplay& replay, size_t n, Report* report);

int RunSearch(const Args& args, bool frozen);
int RunIngest(const Args& args);
int RunJoin(const Args& args);

}  // namespace perfbench

#endif  // SKEWSEARCH_PERFBENCH_HARNESS_H_
