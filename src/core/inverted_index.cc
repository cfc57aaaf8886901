#include "core/inverted_index.h"

#include <algorithm>
#include <bit>
#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "core/index_io.h"

namespace skewsearch {

namespace {

template <typename T>
bool WriteVector(std::ostream* out, const std::vector<T>& values) {
  return index_io_internal::WriteVector(*out, values);
}

template <typename T>
bool ReadVector(std::istream* in, std::vector<T>* values) {
  return index_io_internal::ReadVector(*in, values);
}

// Span flavour of the vec<T> encoding (u64 count + raw elements), so a
// view table serializes byte-identically to the owning table it mirrors.
template <typename T>
bool WriteSpan(std::ostream* out, std::span<const T> values) {
  uint64_t count = values.size();
  if (!index_io_internal::WritePod(*out, count)) return false;
  if (count == 0) return true;
  out->write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(count * sizeof(T)));
  return out->good();
}

// About 4 keys per bucket: the largest power of two <= num_keys / 4, and
// at least 2 buckets so the shift stays below 64.
int DirectoryBits(size_t num_keys) {
  return std::countr_zero(
      std::bit_floor(std::max<uint64_t>(num_keys / 4, 2)));
}

}  // namespace

Status CheckPostingCapacity(uint64_t num_pairs) {
  if (num_pairs > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "filter table holds at most 2^32 - 1 pairs, got " +
        std::to_string(num_pairs));
  }
  return Status::OK();
}

void FilterTable::Reserve(size_t expected_pairs) {
  pairs_.reserve(expected_pairs);
}

Status FilterTable::Freeze() {
  SKEWSEARCH_RETURN_NOT_OK(CheckPostingCapacity(pairs_.size()));
  std::sort(pairs_.begin(), pairs_.end());
  size_t num_keys = 0;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    num_keys += i == 0 || pairs_[i].first != pairs_[i - 1].first;
  }
  // Exact reservations, so MemoryBytes() reports the same frozen
  // footprint as a ReadFrom() of this table.
  keys_.clear();
  offsets_.clear();
  ids_.clear();
  keys_.reserve(num_keys);
  offsets_.reserve(num_keys + 1);
  ids_.reserve(pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i == 0 || pairs_[i].first != pairs_[i - 1].first) {
      keys_.push_back(pairs_[i].first);
      offsets_.push_back(static_cast<uint32_t>(i));
    }
    ids_.push_back(pairs_[i].second);
  }
  offsets_.push_back(static_cast<uint32_t>(pairs_.size()));
  pairs_ = decltype(pairs_)();  // releases the staging buffer
  frozen_ = true;
  view_ = false;
  RepointViewsAtOwned();
  BuildDirectory();
  return Status::OK();
}

void FilterTable::BuildDirectory() {
  const int bits = DirectoryBits(keys_view_.size());
  const size_t buckets = size_t{1} << bits;
  dir_shift_ = 64 - bits;
  dir_.assign(buckets + 1, 0);
  // One sequential pass: every bucket up to a key's own gets the key's
  // position. A key whose bucket is below one already filled (possible
  // only on unsorted, i.e. corrupt, keys) fills nothing, so the entries
  // stay monotone and <= num_keys() for any input.
  size_t next = 0;
  for (size_t i = 0; i < keys_view_.size(); ++i) {
    const size_t b = static_cast<size_t>(keys_view_[i] >> dir_shift_);
    while (next <= b) dir_[next++] = static_cast<uint32_t>(i);
  }
  while (next <= buckets) {
    dir_[next++] = static_cast<uint32_t>(keys_view_.size());
  }
}

void FilterTable::RepointViewsAtOwned() {
  keys_view_ = keys_;
  offsets_view_ = offsets_;
  ids_view_ = ids_;
}

void FilterTable::CopyFrom(const FilterTable& other) {
  pairs_ = other.pairs_;
  keys_ = other.keys_;
  offsets_ = other.offsets_;
  ids_ = other.ids_;
  dir_ = other.dir_;
  dir_shift_ = other.dir_shift_;
  frozen_ = other.frozen_;
  view_ = other.view_;
  if (view_) {
    // Both copies alias the same external memory.
    keys_view_ = other.keys_view_;
    offsets_view_ = other.offsets_view_;
    ids_view_ = other.ids_view_;
  } else {
    RepointViewsAtOwned();
  }
}

Status FilterTable::AdoptFrozenView(std::span<const uint64_t> keys,
                                    std::span<const uint32_t> offsets,
                                    std::span<const VectorId> ids) {
  if (offsets.size() != keys.size() + 1) {
    return Status::InvalidArgument("frozen view offset/key count mismatch");
  }
  if (offsets.front() != 0 || offsets.back() != ids.size()) {
    return Status::InvalidArgument("frozen view offsets do not bracket ids");
  }
  // With the brackets above, monotone offsets keep every posting list
  // inside ids, whatever the (unchecksummed) interior bytes were.
  for (size_t k = 1; k < offsets.size(); ++k) {
    if (offsets[k] < offsets[k - 1]) {
      return Status::InvalidArgument("frozen view offsets not monotone");
    }
  }
  FilterTable fresh;
  fresh.keys_view_ = keys;
  fresh.offsets_view_ = offsets;
  fresh.ids_view_ = ids;
  fresh.frozen_ = true;
  fresh.view_ = true;
  fresh.BuildDirectory();
  *this = std::move(fresh);
  return Status::OK();
}

Status FilterTable::WriteTo(std::ostream* out) const {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  if (!WriteSpan(out, keys_view_) || !WriteSpan(out, offsets_view_) ||
      !WriteSpan(out, ids_view_)) {
    return Status::IOError("filter table write failed");
  }
  return Status::OK();
}

Status FilterTable::ReadFrom(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  FilterTable fresh;
  if (!ReadVector(in, &fresh.keys_) || !ReadVector(in, &fresh.offsets_) ||
      !ReadVector(in, &fresh.ids_)) {
    return Status::InvalidArgument("truncated or corrupt filter table");
  }
  // Structural validation: offsets bracket ids_, keys sorted.
  if (fresh.offsets_.size() != fresh.keys_.size() + 1 ||
      (fresh.offsets_.empty() && !fresh.keys_.empty())) {
    return Status::InvalidArgument("filter table offset/key mismatch");
  }
  if (!fresh.offsets_.empty() &&
      (fresh.offsets_.front() != 0 ||
       fresh.offsets_.back() != fresh.ids_.size())) {
    return Status::InvalidArgument("filter table offsets out of range");
  }
  for (size_t i = 1; i < fresh.keys_.size(); ++i) {
    if (fresh.keys_[i - 1] >= fresh.keys_[i]) {
      return Status::InvalidArgument("filter table keys not sorted");
    }
    if (fresh.offsets_[i] < fresh.offsets_[i - 1]) {
      return Status::InvalidArgument("filter table offsets not monotone");
    }
  }
  fresh.frozen_ = true;
  fresh.RepointViewsAtOwned();
  fresh.BuildDirectory();
  *this = std::move(fresh);
  return Status::OK();
}

size_t FilterTable::MemoryBytes() const {
  return pairs_.capacity() * sizeof(pairs_[0]) +
         keys_.capacity() * sizeof(uint64_t) +
         offsets_.capacity() * sizeof(uint32_t) +
         ids_.capacity() * sizeof(VectorId) +
         dir_.capacity() * sizeof(uint32_t);
}

}  // namespace skewsearch
