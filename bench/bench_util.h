// Copyright 2026 The skewsearch Authors.
// Shared helpers for the paper-reproduction benches: console tables, a
// standalone micro-timer, and the machine-readable JSON output contract.
//
// Every bench binary accepts `--json FILE` and, when given, writes its
// headline metrics as one JSON document (schema below) next to its
// usual console tables. tools/bench_compare.py diffs such a document
// against the committed BENCH_baseline.json, failing CI when a metric
// marked *stable* (deterministic on 1 CPU: counts, bytes, sizes) drifts
// beyond tolerance; *advisory* metrics (wall clock, speedups) are
// reported but never fail the build.
//
// JSON schema (one object per bench run):
//   {
//     "bench": "<name>",
//     "metrics": {
//       "<metric>": {"value": <number>, "stable": true|false,
//                     "unit": "<string>"},
//       ...
//     }
//   }

#ifndef SKEWSEARCH_BENCH_BENCH_UTIL_H_
#define SKEWSEARCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace skewsearch::bench {

/// Prints a "== title ==" banner.
inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints an indented free-text note.
inline void Note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// \brief Minimal fixed-width table printer.
///
/// Columns are sized to the widest cell. Use AddRow with pre-formatted
/// strings (see Fmt below).
class Table {
 public:
  explicit Table(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    };
    widen(header_);
    for (const auto& row : rows_) widen(row);
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf(" ");
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    size_t total = widths.size() + 1;
    for (size_t w : widths) total += w + 1;
    std::printf(" %s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// printf-style float formatting into a std::string.
inline std::string Fmt(double value, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// Integer formatting.
inline std::string Fmt(size_t value) { return std::to_string(value); }
inline std::string Fmt(int value) { return std::to_string(value); }

/// Scientific notation for tiny values.
inline std::string FmtSci(double value, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*e", precision, value);
  return buf;
}

/// Compiler barrier: keeps \p value (and everything feeding it) alive
/// through optimization, the standalone stand-in for
/// benchmark::DoNotOptimize.
template <typename T>
inline void DoNotOptimize(const T& value) {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : : "r,m"(value) : "memory");
#else
  volatile T sink = value;
  (void)sink;
#endif
}

/// Nanoseconds per call of \p fn: calibrates a batch size until one
/// batch runs >= \p min_batch_seconds, then times \p repeats batches and
/// returns the fastest (minimum damps scheduler noise — the standard
/// micro-bench estimator for a quiet machine).
template <typename F>
inline double NsPerOp(F&& fn, int repeats = 5,
                      double min_batch_seconds = 0.01) {
  using Clock = std::chrono::steady_clock;
  auto run_batch = [&](uint64_t iters) {
    const auto start = Clock::now();
    for (uint64_t i = 0; i < iters; ++i) fn();
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  uint64_t iters = 1;
  double seconds = run_batch(iters);
  while (seconds < min_batch_seconds && iters < (uint64_t{1} << 40)) {
    iters *= 4;
    seconds = run_batch(iters);
  }
  double best = seconds;
  for (int r = 1; r < repeats; ++r) {
    best = std::min(best, run_batch(iters));
  }
  return best * 1e9 / static_cast<double>(iters);
}

/// Times one pass of \p ref and one of \p fresh in turn, \p rounds
/// times, and returns the fastest pass of each in ns. Alternating makes a
/// slow stretch of the host slow both sides instead of skewing their
/// ratio.
template <typename Ref, typename New>
inline std::pair<double, double> FastestAlternating(Ref&& ref,
                                                    New&& fresh,
                                                    int rounds = 9) {
  using Clock = std::chrono::steady_clock;
  auto pass = [](auto&& fn) {
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  double best_ref = pass(ref);
  double best_new = pass(fresh);
  for (int r = 1; r < rounds; ++r) {
    best_ref = std::min(best_ref, pass(ref));
    best_new = std::min(best_new, pass(fresh));
  }
  return {best_ref, best_new};
}

/// Returns the value following `--json` in \p argv, or nullptr. Every
/// bench passes its raw argc/argv here; the flag composes with each
/// bench's own flag parsing (all of them skip unknown pairs).
inline const char* JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return nullptr;
}

/// \brief Collects named metrics and writes the bench JSON document.
///
/// Usage:
///   bench::JsonReporter reporter("micro_intersect");
///   reporter.Metric("intersect_size_4096", size, /*stable=*/true);
///   reporter.Metric("kernel_speedup", speedup, /*stable=*/false, "x");
///   reporter.WriteIfRequested(argc, argv);   // honors --json FILE
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records one metric. \p stable marks values that are deterministic
  /// for a fixed seed on 1 CPU (counts, bytes, ratios of counts) — the
  /// ones bench_compare.py enforces; wall-clock-derived values must
  /// pass stable=false. Non-finite values are stored as null (compare
  /// treats them as advisory-only).
  void Metric(const std::string& name, double value, bool stable,
              const std::string& unit = "") {
    metrics_.push_back({name, value, stable, unit});
  }

  /// Serializes the document. Deterministic field order (insertion).
  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + bench_name_ +
                      "\",\n  \"metrics\": {\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Entry& m = metrics_[i];
      char value[64];
      if (std::isfinite(m.value)) {
        std::snprintf(value, sizeof(value), "%.17g", m.value);
      } else {
        std::snprintf(value, sizeof(value), "null");
      }
      out += "    \"" + m.name + "\": {\"value\": " + value +
             ", \"stable\": " + (m.stable ? "true" : "false") +
             ", \"unit\": \"" + m.unit + "\"}";
      out += i + 1 < metrics_.size() ? ",\n" : "\n";
    }
    out += "  }\n}\n";
    return out;
  }

  /// Writes to \p path; returns false (with a note on stderr) on IO
  /// failure so benches can propagate a nonzero exit.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write bench JSON to '%s'\n", path.c_str());
      return false;
    }
    const std::string json = ToJson();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    std::fclose(f);
    return ok;
  }

  /// Honors `--json FILE` if present in \p argv; no-op (and success)
  /// otherwise.
  bool WriteIfRequested(int argc, char** argv) const {
    const char* path = JsonPathFromArgs(argc, argv);
    return path == nullptr ? true : WriteTo(path);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    bool stable;
    std::string unit;
  };

  std::string bench_name_;
  std::vector<Entry> metrics_;
};

/// Appends the global metrics registry snapshot to \p reporter as
/// "obs.<name>" metrics — the bench-side view of what the
/// observability layer recorded during the run (docs/OBSERVABILITY.md
/// has the catalog). Everything is advisory: registries are
/// process-cumulative and some recorders run on racing threads, so the
/// values are for the log, not the regression gate.
inline void ReportRegistrySnapshot(JsonReporter* reporter) {
  for (const obs::MetricSnapshot& m :
       obs::MetricsRegistry::Global().Snapshot()) {
    switch (m.kind) {
      case obs::MetricKind::kCounter:
        reporter->Metric("obs." + m.name,
                         static_cast<double>(m.counter_value),
                         /*stable=*/false);
        break;
      case obs::MetricKind::kGauge:
        reporter->Metric("obs." + m.name,
                         static_cast<double>(m.gauge_value),
                         /*stable=*/false);
        break;
      case obs::MetricKind::kHistogram:
        reporter->Metric("obs." + m.name + ".count",
                         static_cast<double>(m.histogram.count),
                         /*stable=*/false);
        reporter->Metric("obs." + m.name + ".p99",
                         static_cast<double>(m.histogram.Quantile(0.99)),
                         /*stable=*/false, "ns");
        break;
    }
  }
}

}  // namespace skewsearch::bench

#endif  // SKEWSEARCH_BENCH_BENCH_UTIL_H_
