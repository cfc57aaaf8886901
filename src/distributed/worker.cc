#include "distributed/worker.h"

#include <utility>

#include "core/probe.h"

namespace skewsearch {

JoinWorker::JoinWorker(
    int worker_id, FilterTable table, const Dataset* build_data,
    double threshold, Measure measure,
    const PostingMap<VectorId, VectorId>* dense_positions)
    : worker_id_(worker_id),
      table_(std::move(table)),
      build_data_(build_data),
      threshold_(threshold),
      measure_(measure),
      dense_positions_(dense_positions) {
  PostingSet<VectorId> distinct;
  for (size_t k = 0; k < table_.num_keys(); ++k) {
    for (VectorId id : table_.postings_at(k)) distinct.insert(id);
  }
  distinct_vectors_ = distinct.size();
}

namespace {

/// A worker's posting slice as the probe kernel's one source: the
/// self-join exclusion runs in Admit, before verification (the
/// single-process join filters after, so its verification counter is
/// higher, but the emitted pairs are the same).
struct SliceSource {
  static constexpr bool kHasDelta = false;

  const FilterTable* slice;
  const Dataset* build_data;
  const PostingMap<VectorId, VectorId>* dense_positions;
  const ProbeRequest* request;

  size_t size() const { return 1; }
  const FilterTable& table(size_t) const { return *slice; }
  bool Admit(size_t, VectorId id, std::span<const ItemId>* items) const {
    if (request->exclude_left_and_below && id <= request->left) return false;
    // Reconstructed (remote) workers store only the shipped vectors,
    // densely; the session layer guarantees every table id is mapped.
    // Otherwise ids index the build-side dataset directly, and a mapped
    // shard's ids are checksummed only under verify_payload, so an id
    // beyond the dataset is refused.
    VectorId stored = id;
    if (dense_positions != nullptr) {
      stored = dense_positions->find(id)->second;
    } else if (id >= build_data->size()) {
      return false;
    }
    *items = build_data->Get(stored);
    return true;
  }
};

}  // namespace

ProbeResponse JoinWorker::Probe(const ProbeRequest& request) const {
  ProbeResponse response;
  response.left = request.left;
  // Same candidate-collection semantics as the single-process QueryAll:
  // dedup ids across every key (and repetition), then verify each
  // admitted survivor once, counting every posting entry scanned.
  // Matches stay in scan order.
  QueryStats stats;
  probe::ScanKeys(
      SliceSource{&table_, build_data_, dense_positions_, &request},
      request.keys, request.items, measure_, threshold_, &stats,
      &response.matches);
  response.candidates = stats.candidates;
  response.verifications = stats.verifications;
  return response;
}

}  // namespace skewsearch
