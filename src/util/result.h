// Copyright 2026 The skewsearch Authors.
// A minimal Result<T> (value-or-Status), in the spirit of arrow::Result.

#ifndef SKEWSEARCH_UTIL_RESULT_H_
#define SKEWSEARCH_UTIL_RESULT_H_

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <utility>

#include "util/status.h"

namespace skewsearch {

/// \brief Holds either a value of type T or an error Status.
///
/// A Result constructed from a value is OK; a Result constructed from a
/// non-OK Status carries that error (an OK Status, which carries no
/// value, becomes an Internal error). Accessing the value of an errored
/// Result is a programming error: in every build type it prints the
/// status to stderr and aborts.
template <typename T>
class Result {
 public:
  /// Constructs an OK result holding \p value.
  // NOLINTNEXTLINE(google-explicit-constructor)
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}

  /// Constructs an errored result from a non-OK \p status.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from an OK status");
    }
  }

  /// Returns true iff a value is present.
  bool ok() const { return status_.ok(); }

  /// Returns the status (OK when a value is present).
  const Status& status() const { return status_; }

  /// \name Value accessors; must only be called when ok().
  /// @{
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }
  /// @}

  /// Returns the value if present, otherwise \p fallback.
  T ValueOr(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  void CheckOk() const {
    if (ok()) [[likely]] return;
    std::fprintf(stderr, "Result::value() on an error: %s\n",
                 status_.ToString().c_str());
    std::abort();
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_UTIL_RESULT_H_
