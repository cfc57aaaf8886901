// Copyright 2026 The skewsearch Authors.
// FilterTable: the inverted index from filter keys to posting lists of
// vector ids ("for each filter f we can look up {x in S : f in F(x)}",
// Section 3). Shared by the paper's index and the Chosen Path baseline.
//
// One layout serves every table, heap or mapped: the sorted CSR arrays
// keys / offsets / ids (distinct ascending keys, ids ascending per key,
// duplicate pairs kept) plus a radix directory over the top key bits.
// Filter keys are uniform 64-bit hashes, so the directory's 2^k buckets
// (about 4 keys each) narrow a Lookup to a handful of keys before a
// lower_bound; skewed key sets (MinHash bands, small test keys) stay
// correct at O(log n). Add() stages (key, id) pairs and Freeze() sorts
// them once into the CSR arrays.
//
// A table can alternatively be a zero-copy *view* over externally owned
// frozen CSR arrays (AdoptFrozenView) — the accessor seam the mmap'd
// SKF1 shard files (core/frozen_shard.h) serve queries through. A view
// builds only its directory on the heap, in one sequential pass over
// the key array, checks its offsets' order in another, and then looks
// up exactly like an owning table.

#ifndef SKEWSEARCH_CORE_INVERTED_INDEX_H_
#define SKEWSEARCH_CORE_INVERTED_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Frozen multimap from 64-bit filter keys to vector ids.
class FilterTable {
 public:
  FilterTable() = default;
  /// Copies preserve semantics per mode: an owning table deep-copies its
  /// arrays (and re-points the internal views at the copies); a view
  /// table copies the spans, i.e. both alias the same external memory.
  FilterTable(const FilterTable& other) { CopyFrom(other); }
  FilterTable& operator=(const FilterTable& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  /// Moves are always safe: vector moves transfer their heap buffers, so
  /// views into them stay valid.
  FilterTable(FilterTable&&) = default;
  FilterTable& operator=(FilterTable&&) = default;

  /// Pre-allocates for \p expected_pairs (optional).
  void Reserve(size_t expected_pairs);

  /// Adds one (filter key, vector id) pair. Only valid before Freeze().
  void Add(uint64_t key, VectorId id) { pairs_.emplace_back(key, id); }

  /// Sorts the staged pairs by (key, id) into the posting lists and
  /// builds the directory. Must be called exactly once, after which Add
  /// is illegal. Fails, leaving the pairs staged, when they exceed
  /// CheckPostingCapacity.
  Status Freeze();

  /// Replaces this table with a zero-copy view over externally owned
  /// frozen CSR arrays — typically sections of an mmap'd SKF1 file. The
  /// backing memory must stay valid and unchanged for the view's whole
  /// lifetime (copies included). Validates the bracketing invariants
  /// (offsets.size() == keys.size() + 1, offsets[0] == 0,
  /// offsets.back() == ids.size()) and, in one pass, that offsets are
  /// monotone, so every posting list lies inside \p ids; key sortedness
  /// and id ranges are the caller's contract (the frozen-shard mapper
  /// checks them via its metadata checksum and, on request, a full
  /// payload verification; the probe kernel refuses ids beyond the
  /// dataset).
  /// The directory is built from \p keys in one pass whose entries stay
  /// monotone and <= keys.size() for any bytes, so Lookup stays in
  /// bounds even on unsorted keys.
  Status AdoptFrozenView(std::span<const uint64_t> keys,
                         std::span<const uint32_t> offsets,
                         std::span<const VectorId> ids);

  /// Posting list for \p key (empty when absent, and on a table that
  /// was never frozen). One directory read, then a lower_bound inside
  /// the key's bucket.
  std::span<const VectorId> Lookup(uint64_t key) const {
    if (dir_.empty()) return {};
    const uint32_t* bucket = dir_.data() + (key >> dir_shift_);
    const uint64_t* end = keys_view_.data() + bucket[1];
    const uint64_t* it =
        std::lower_bound(keys_view_.data() + bucket[0], end, key);
    if (it == end || *it != key) return {};
    return postings_at(static_cast<size_t>(it - keys_view_.data()));
  }

  /// \name Positional access to the frozen table (iteration order is by
  /// ascending key). Used by compaction, serialization and validation.
  /// Only valid after Freeze(); \p idx must be < num_keys().
  /// @{
  uint64_t key_at(size_t idx) const { return keys_view_[idx]; }
  std::span<const VectorId> postings_at(size_t idx) const {
    return {ids_view_.data() + offsets_view_[idx],
            static_cast<size_t>(offsets_view_[idx + 1] -
                                offsets_view_[idx])};
  }
  /// @}

  /// Number of stored (key, id) pairs. Counts the same pairs before and
  /// after Freeze(): the staged pairs while building, the frozen posting
  /// lists afterwards (Freeze neither adds nor drops pairs).
  size_t num_pairs() const {
    return frozen_ ? ids_view_.size() : pairs_.size();
  }

  /// Number of distinct keys (0 before Freeze()).
  size_t num_keys() const { return keys_view_.size(); }

  /// True once Freeze() (or ReadFrom()/AdoptFrozenView()) has produced
  /// posting lists.
  bool frozen() const { return frozen_; }

  /// True when this table is a non-owning view over external memory.
  bool is_view() const { return view_; }

  /// \name Raw frozen CSR arrays (serialization / the frozen-shard
  /// writer). Only valid after Freeze().
  /// @{
  std::span<const uint64_t> keys_span() const { return keys_view_; }
  std::span<const uint32_t> offsets_span() const { return offsets_view_; }
  std::span<const VectorId> ids_span() const { return ids_view_; }
  /// @}

  /// The radix directory (empty before Freeze()): 2^k + 1 entries, where
  /// entry b is the first key position whose top k bits are >= b and the
  /// last entry is num_keys(). k is derived from num_keys().
  std::span<const uint32_t> directory_span() const { return dir_; }

  /// Approximate heap usage in bytes.
  size_t MemoryBytes() const;

  /// Serializes the frozen table (keys, offsets, ids) to \p out, as the
  /// SKD2 dynamic-index format embeds it. Only valid after Freeze().
  Status WriteTo(std::ostream* out) const;

  /// Replaces this table with one read from \p in (already frozen).
  Status ReadFrom(std::istream* in);

 private:
  /// Deep-copies \p other; for owning tables the views are re-pointed at
  /// this table's own arrays, for view tables the spans are aliased.
  void CopyFrom(const FilterTable& other);

  /// Points the view spans at the owning arrays (after Freeze/ReadFrom
  /// or a deep copy mutated them).
  void RepointViewsAtOwned();

  /// Builds dir_ / dir_shift_ over keys_view_.
  void BuildDirectory();

  std::vector<std::pair<uint64_t, VectorId>> pairs_;  // drained by Freeze()
  std::vector<uint64_t> keys_;    // sorted distinct keys (empty in views)
  std::vector<uint32_t> offsets_; // keys_.size() + 1 offsets into ids_
  std::vector<VectorId> ids_;
  // All frozen accessors read through these spans. Owning tables point
  // them at keys_/offsets_/ids_; views point at external (mmap'd) memory.
  std::span<const uint64_t> keys_view_;
  std::span<const uint32_t> offsets_view_;
  std::span<const VectorId> ids_view_;
  std::vector<uint32_t> dir_;  // on the heap for views too
  int dir_shift_ = 63;         // 64 - k: key >> dir_shift_ is the bucket
  bool frozen_ = false;
  bool view_ = false;
};

/// The capacity limit of a FilterTable: u32 offsets and directory
/// entries hold at most 2^32 - 1 pairs. OK when \p num_pairs fits,
/// InvalidArgument otherwise, in every build type.
Status CheckPostingCapacity(uint64_t num_pairs);

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_INVERTED_INDEX_H_
