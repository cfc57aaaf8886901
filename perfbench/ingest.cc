// Copyright 2026 The skewsearch Authors.
// The `ingest` workload: one client replacing vectors in a DurableIndex
// (4 shards, SyncPolicy::kAlways, the WAL in the run's work directory) —
// each op is Remove(live id) + Insert(fresh sample), acked durable — with
// a planted query after every op. MaintenanceService::RunOnce runs inline
// every kStride ops (no background thread, no timer-driven checkpoint), so
// compactions and checkpoints happen at fixed points of the op list. The
// scenario runs from an empty directory once per round, for at least
// kMinRounds rounds and as many more as fit in --seconds, and every round
// must do the same work. The list ends with an un-checkpointed WAL tail; after
// the last round the index is closed and reopened, and the reopened index
// must answer a probe set exactly as the closed one did and hold exactly
// the acked live ids.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/dynamic_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "durability/recovery.h"
#include "harness.h"
#include "maintenance/service.h"

namespace perfbench {

namespace {

using skewsearch::DurableIndex;
using skewsearch::QueryStats;

constexpr size_t kBase = 700;
constexpr size_t kWarmOps = 100;
constexpr size_t kTimedOps = 1100;
constexpr size_t kStride = 200;  // ops between inline RunOnce passes
constexpr uint64_t kCheckpointBytes = 48 << 10;
constexpr size_t kProbes = 200;
constexpr double kAlpha = 0.5;
constexpr int kShards = 4;
constexpr int kMinRounds = 3;
constexpr int kReopens = 3;

struct Op {
  VectorId remove;
  VectorId insert;  ///< id the insert must be assigned (kBase + op index)
  VectorId target;  ///< planted target of the op's query
};

// The whole op list, fixed by the seed: which live id each op removes,
// which fresh sample it inserts, and which live vector its query targets.
struct IngestInput {
  skewsearch::ProductDistribution dist;
  Dataset base;
  Dataset fresh;    ///< fresh[i] is inserted by op i
  Dataset queries;  ///< queries[i] follows op i
  std::vector<Op> ops;
  Dataset probes;  ///< QueryAll probes compared across close/reopen
  std::vector<VectorId> live;
  std::vector<VectorId> removed;

  std::span<const ItemId> Items(VectorId id) const {
    return id < kBase ? base.Get(id) : fresh.Get(id - kBase);
  }
};

IngestInput MakeInput(uint64_t seed) {
  IngestInput in;
  in.dist = ZipfDistribution();
  skewsearch::Rng rng(seed ^ 0x1a6e57ULL);
  in.base = skewsearch::GenerateDataset(in.dist, kBase, &rng);
  in.fresh = NonEmptySamples(in.dist, kWarmOps + kTimedOps, &rng);
  skewsearch::CorrelatedQuerySampler sampler(&in.dist, kAlpha);
  auto planted = [&](VectorId* target) {
    while (true) {
      *target = in.live[rng.NextBounded(in.live.size())];
      if (in.Items(*target).empty()) continue;
      skewsearch::SparseVector q =
          sampler.SampleCorrelated(in.Items(*target), &rng);
      if (q.size() > 0) return q;
    }
  };
  for (VectorId id = 0; id < kBase; ++id) in.live.push_back(id);
  for (size_t i = 0; i < kWarmOps + kTimedOps; ++i) {
    Op op;
    const size_t pos = rng.NextBounded(in.live.size());
    op.remove = in.live[pos];
    op.insert = static_cast<VectorId>(kBase + i);
    in.live[pos] = op.insert;
    in.removed.push_back(op.remove);
    in.queries.Add(planted(&op.target).span());
    in.ops.push_back(op);
  }
  for (size_t i = 0; i < kProbes; ++i) {
    VectorId target;
    in.probes.Add(planted(&target).span());
  }
  return in;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// The exact work of one round's timed ops; every round must repeat it.
struct RoundWork {
  QueryStats queries;
  uint64_t wal_bytes = 0;
  uint64_t fsyncs = 0;
  size_t acks = 0;
  size_t planted_found = 0;
  size_t hits = 0;
  size_t compactions = 0;
  size_t checkpoints = 0;

  bool operator==(const RoundWork& o) const {
    return queries.filters == o.queries.filters &&
           queries.candidates == o.queries.candidates &&
           queries.distinct_candidates == o.queries.distinct_candidates &&
           queries.verifications == o.queries.verifications &&
           wal_bytes == o.wal_bytes && fsyncs == o.fsyncs && acks == o.acks &&
           planted_found == o.planted_found && hits == o.hits &&
           compactions == o.compactions && checkpoints == o.checkpoints;
  }
};

}  // namespace

int RunIngest(const Args& args) {
  Report report(args.workload);
  Tracer tracer(args.trace);
  const IngestInput in = MakeInput(args.seed);

  skewsearch::DynamicIndexOptions index_options;  // library defaults...
  index_options.num_shards = kShards;
  skewsearch::DurableOptions durable;
  durable.dir = args.workdir + "/ingest-wal-" + std::to_string(::getpid());
  durable.sync_policy = skewsearch::SyncPolicy::kAlways;
  durable.checkpoint_bytes = kCheckpointBytes;

  std::unique_ptr<DurableIndex> index;
  std::unique_ptr<skewsearch::MaintenanceService> service;

  // One op: replace, then the planted query. Timings land in the vectors
  // when `timed`; a traced op gets spans and a filter-generation replay.
  std::vector<double> op_us, remove_us, insert_us, read_us, step_us;
  std::vector<double> traced_wall_us, untraced_wall_us;
  RoundWork work;
  size_t replay_reps = 0;
  auto run_op = [&](size_t i, bool timed) {
    skewsearch::DynamicIndex& dynamic = index->index();
    const Op& op = in.ops[i];
    const bool traced = args.trace && timed && i % 2 == 1;
    skewsearch::WalWriter* wal = index->wal();
    const uint64_t bytes_before = wal->bytes();
    const uint64_t fsyncs_before = wal->num_fsyncs();
    report.Attempt(2);
    Tracer* op_tracer = traced ? &tracer : nullptr;
    if (traced) tracer.Open("op.replace", i);
    const int64_t start = NowNs();
    skewsearch::Status removed;
    {
      SpanScope span(op_tracer, "dynamic_index.remove", i);
      removed = dynamic.Remove(op.remove);
    }
    const int64_t mid = NowNs();
    std::optional<skewsearch::Result<VectorId>> inserted;
    {
      SpanScope span(op_tracer, "dynamic_index.insert", i);
      inserted.emplace(dynamic.Insert(in.fresh.Get(static_cast<VectorId>(i))));
    }
    const int64_t acked = NowNs();
    if (traced) tracer.Close();
    if (!removed.ok()) report.Fail("remove: " + removed.ToString());
    if (!inserted->ok()) {
      report.Fail("insert: " + inserted->status().ToString());
    } else if (inserted->value() != op.insert) {
      report.Fail("insert got id " + std::to_string(inserted->value()));
    }

    QueryStats stats;
    std::optional<Match> got;
    const int64_t query_start = NowNs();
    {
      SpanScope span(op_tracer, "query", i);
      got = dynamic.Query(in.queries.Get(static_cast<VectorId>(i)), &stats);
    }
    const int64_t query_end = NowNs();
    if (traced) {
      SpanScope span(&tracer, "replay", i);
      replay_reps += ReplayFilters(
          dynamic.family(), in.queries.Get(static_cast<VectorId>(i)),
          stats.filters, !got.has_value(), i, &tracer);
    }
    if (!timed) return;
    work.acks += 2;
    work.wal_bytes += wal->bytes() - bytes_before;
    work.fsyncs += wal->num_fsyncs() - fsyncs_before;
    skewsearch::AddQueryStats(&work.queries, stats);
    work.hits += got.has_value();
    work.planted_found += got && got->id == op.target;
    op_us.push_back(static_cast<double>(acked - start) * 1e-3);
    remove_us.push_back(static_cast<double>(mid - start) * 1e-3);
    insert_us.push_back(static_cast<double>(acked - mid) * 1e-3);
    read_us.push_back(static_cast<double>(query_end - query_start) * 1e-3);
    const double wall_us = static_cast<double>(NowNs() - start) * 1e-3;
    step_us.push_back(wall_us);
    (traced ? traced_wall_us : untraced_wall_us).push_back(wall_us);
  };

  // The scenario runs once per round from a fresh directory; every round
  // must do exactly the same work. Its open is the set-up. Rounds repeat
  // while the next one, as long as the last, still ends within --seconds:
  // each op's fastest repeat is then taken over many rounds spread across
  // the run, not over one stretch of host load.
  std::vector<double> setup_s, pass_ms, delta_entries, dead_fraction;
  RoundWork first;
  const int64_t scenario_start = NowNs();
  int64_t round_ns = 0;
  int rounds = 0;
  for (; rounds < kMinRounds ||
         Seconds(NowNs() - scenario_start + round_ns) <= args.seconds;
       ++rounds) {
    const int64_t round_start = NowNs();
    service.reset();
    if (index != nullptr) report.Check(index->Close().ok(), "close");
    index.reset();
    std::filesystem::remove_all(durable.dir);
    index = std::make_unique<DurableIndex>();
    {
      SpanScope span(&tracer, "durability.open", rounds);
      const int64_t start = NowNs();
      skewsearch::Status s =
          index->Open(&in.base, &in.dist, index_options, durable);
      setup_s.push_back(Seconds(NowNs() - start));
      report.Check(s.ok(), "open: " + s.ToString());
    }
    skewsearch::DynamicIndex& dynamic = index->index();
    service = std::make_unique<skewsearch::MaintenanceService>();
    report.Check(service->Attach(&dynamic).ok(), "maintenance attach");
    service->SetCheckpointDriver(index.get());

    for (size_t i = 0; i < kWarmOps; ++i) run_op(i, /*timed=*/false);
    report.Check(service->RunOnce().ok(), "warm-up maintenance pass");
    const size_t compactions_before = service->stats().compactions;
    const size_t checkpoints_before = index->num_checkpoints();
    work = RoundWork{};

    for (size_t j = 0; j < kTimedOps; ++j) {
      run_op(kWarmOps + j, /*timed=*/true);
      if ((j + 1) % kStride != 0) continue;
      size_t delta = 0, live = 0, dead = 0;
      for (int s = 0; s < dynamic.num_shards(); ++s) {
        const skewsearch::ShardHealth health = dynamic.Health(s);
        delta += health.delta_entries;
        live += health.live_entries;
        dead += health.dead_entries;
      }
      delta_entries.push_back(static_cast<double>(delta));
      dead_fraction.push_back(
          static_cast<double>(dead) /
          static_cast<double>(std::max<size_t>(live + dead, 1)));
      SpanScope span(&tracer, "maintenance.run_once", j);
      const int64_t start = NowNs();
      skewsearch::Status s = service->RunOnce();
      pass_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
      report.Check(s.ok(), "maintenance pass: " + s.ToString());
    }
    work.compactions = service->stats().compactions - compactions_before;
    work.checkpoints = index->num_checkpoints() - checkpoints_before;
    if (rounds == 0) {
      first = work;
    } else {
      report.Check(work == first, "round " + std::to_string(rounds) +
                                      " did different work than round 0");
    }
    round_ns = NowNs() - round_start;
  }
  skewsearch::DynamicIndex& dynamic = index->index();

  size_t postings = 0;
  for (int s = 0; s < dynamic.num_shards(); ++s) {
    const skewsearch::ShardHealth health = dynamic.Health(s);
    postings += health.live_entries + health.dead_entries;
  }
  const double memory_bytes = static_cast<double>(dynamic.MemoryBytes());
  const double heap_mb = memory_bytes / 1e6;

  // Acked-means-durable: what the closed index answers and holds, the
  // reopened one must answer and hold too.
  const double threshold = dynamic.verify_threshold();
  auto probe_all = [&](const skewsearch::DynamicIndex& idx) {
    std::vector<std::vector<Match>> out;
    for (VectorId p = 0; p < in.probes.size(); ++p) {
      out.push_back(idx.QueryAll(in.probes.Get(p), threshold));
    }
    return out;
  };
  auto check_state = [&](const skewsearch::DynamicIndex& idx,
                         const std::string& when) {
    report.Check(idx.size() == in.live.size(),
                 when + ": live count " + std::to_string(idx.size()) +
                     " != acked " + std::to_string(in.live.size()));
    size_t wrong = 0;
    for (VectorId id : in.live) wrong += !idx.IsLive(id);
    for (VectorId id : in.removed) wrong += idx.IsLive(id);
    report.Check(wrong == 0, when + ": " + std::to_string(wrong) +
                                 " ids with the wrong liveness");
  };
  BuildReplay build;
  if (args.trace) {
    build = ReplayBuild(dynamic.family(), in.base, kShards, &tracer);
  }
  const std::vector<std::vector<Match>> before_close = probe_all(dynamic);
  check_state(dynamic, "before close");
  service.reset();
  report.Check(index->Close().ok(), "close");
  index.reset();

  std::vector<double> recover_s;
  size_t replayed = 0;
  for (int k = 0; k < kReopens; ++k) {
    auto reopened = std::make_unique<DurableIndex>();
    skewsearch::RecoveryStats stats;
    skewsearch::Status s;
    {
      SpanScope span(&tracer, "durability.open", k);
      const int64_t start = NowNs();
      s = reopened->Open(&in.base, &in.dist, index_options, durable, &stats);
      recover_s.push_back(Seconds(NowNs() - start));
    }
    report.Attempt();
    if (!s.ok()) {
      report.Fail("reopen: " + s.ToString());
      continue;
    }
    replayed = stats.replayed;
    check_state(reopened->index(), "after reopen");
    const auto after = probe_all(reopened->index());
    size_t differing = 0;
    for (size_t p = 0; p < after.size(); ++p) {
      differing += after[p] != before_close[p];
    }
    report.Check(differing == 0, std::to_string(differing) +
                                     " probes answer differently after reopen");
    report.Check(reopened->Close().ok(), "close after reopen");
  }
  report.Check(replayed > 0, "the run left no un-checkpointed WAL tail");
  std::filesystem::remove_all(durable.dir);

  const double timed = static_cast<double>(kTimedOps);
  const std::vector<double> best_op_us = FastestPerOp(op_us, kTimedOps);
  // The round's wall at each step's fastest repeat: every op with its
  // query, and every maintenance pass, at its fastest over the rounds.
  double best_round_us = 0.0;
  for (double us : FastestPerOp(step_us, kTimedOps)) best_round_us += us;
  for (double ms : FastestPerOp(pass_ms, kTimedOps / kStride)) {
    best_round_us += ms * 1e3;
  }
  const std::vector<double> best_read_us = FastestPerOp(read_us, kTimedOps);
  report.EndToEnd("setup_s", Median(setup_s));
  report.EndToEnd("op_p50_us", Median(best_op_us));
  report.EndToEnd("ops_per_s", timed / (best_round_us * 1e-6));
  report.EndToEnd("recall", static_cast<double>(first.planted_found) / timed);
  report.EndToEnd("bytes_per_posting",
                  memory_bytes /
                      static_cast<double>(std::max<size_t>(postings, 1)));
  if (auto p99 = Quantile(best_op_us, 0.99)) {
    report.Extra("op_p99_us", *p99, "us");
  }
  report.Extra("read_p50_us", Median(best_read_us), "us");
  if (auto p99 = Quantile(best_read_us, 0.99)) {
    report.Extra("read_p99_us", *p99, "us");
  }
  report.Extra("recover_s", Median(recover_s), "s");
  report.Extra("ops_timed", timed, "count");
  report.Extra("rounds", rounds, "count");

  report.Counter("planted_found", static_cast<double>(first.planted_found));
  report.Counter("hits", static_cast<double>(first.hits));
  report.Counter("keys", static_cast<double>(first.queries.filters));
  report.Counter("candidates", static_cast<double>(first.queries.candidates));
  report.Counter("verifications",
                 static_cast<double>(first.queries.verifications));
  report.Counter("compactions", static_cast<double>(first.compactions));
  report.Counter("checkpoints", static_cast<double>(first.checkpoints));
  report.Counter("wal_bytes", static_cast<double>(first.wal_bytes));
  report.Counter("fsyncs", static_cast<double>(first.fsyncs));
  report.Counter("replayed", static_cast<double>(replayed));
  report.Counter("postings", static_cast<double>(postings));

  if (args.trace) {
    const double traced_queries =
        static_cast<double>(std::max<uint64_t>(tracer.Count("replay"), 1));
    report.Layer("path_engine.us_per_query",
                 tracer.SelfSeconds("path_engine.filters") * 1e6 /
                     traced_queries);
    report.Layer("path_engine.reps_per_query",
                 static_cast<double>(replay_reps) / traced_queries);
    report.Layer("path_engine.keys_per_query",
                 static_cast<double>(first.queries.filters) / timed);
    report.Layer("inverted_index.heap_mb", heap_mb);
    report.Layer("sharded_index.candidates_per_query",
                 static_cast<double>(first.queries.candidates) / timed);
    report.Layer("sharded_index.distinct_per_query",
                 static_cast<double>(first.queries.distinct_candidates) /
                     timed);
    report.Layer("sim.verifications_per_query",
                 static_cast<double>(first.queries.verifications) / timed);
    report.Layer("sim.useful_ratio",
                 static_cast<double>(first.hits) /
                     static_cast<double>(
                         std::max<size_t>(first.queries.verifications, 1)));
    const std::vector<double> best_insert_us =
        FastestPerOp(insert_us, kTimedOps);
    report.Layer("dynamic_index.insert_us_p50", Median(best_insert_us));
    if (auto p99 = Quantile(best_insert_us, 0.99)) {
      report.Layer("dynamic_index.insert_us_p99", *p99);
    }
    report.Layer("dynamic_index.remove_us_p50",
                 Median(FastestPerOp(remove_us, kTimedOps)));
    report.Layer("dynamic_index.delta_entries", Median(delta_entries));
    report.Layer("dynamic_index.dead_fraction", Median(dead_fraction));
    report.Layer("maintenance.pass_ms", Median(pass_ms));
    report.Layer("maintenance.compactions",
                 static_cast<double>(first.compactions));
    report.Layer("maintenance.checkpoints",
                 static_cast<double>(first.checkpoints));
    report.Layer("durability.wal_bytes_per_ack",
                 static_cast<double>(first.wal_bytes) /
                     static_cast<double>(first.acks));
    report.Layer("durability.fsyncs_per_ack",
                 static_cast<double>(first.fsyncs) /
                     static_cast<double>(first.acks));
    report.Layer("durability.replayed", static_cast<double>(replayed));
    report.Layer("trace.overhead_ratio",
                 Median(traced_wall_us) / Median(untraced_wall_us));
    ReportBuildReplay(build, in.base.size(), &report);
    tracer.Dump(args.workdir + "/trace-" + args.workload + ".tsv");
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb());
  return report.Print(args.trace);
}

}  // namespace perfbench
