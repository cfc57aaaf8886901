// Copyright 2026 The skewsearch Authors.
// Shared temp-path helper for test fixtures.
//
// Tests that write files must not collide across concurrently running
// test processes (ctest -j) or across fixtures inside one process. The
// convention — TempDir + pid + the fixture's own address — makes a path
// unique per (process, fixture instance); every fixture that touches
// disk uses it instead of hand-rolling the pattern.

#ifndef SKEWSEARCH_TESTS_TEST_PATHS_H_
#define SKEWSEARCH_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <system_error>

namespace skewsearch {
namespace test {

/// A collision-free temp file path "<TempDir>/<stem>_<pid>_<self><suffix>".
/// Pass the fixture's `this` as \p self; \p suffix is the extension
/// (e.g. ".skf") or empty.
inline std::string TempPath(const std::string& stem, const void* self,
                            const std::string& suffix = "") {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(reinterpret_cast<uintptr_t>(self)) + suffix;
}

/// A collision-free temp *directory* (same uniqueness convention as
/// TempPath, keyed on the helper's own address), created on
/// construction and removed recursively — contents included — on
/// destruction. For fixtures that need a directory of files (WAL +
/// snapshot dirs) rather than a single path.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem)
      : path_(TempPath(stem, this)) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// "<dir>/<name>" convenience join.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_TEST_PATHS_H_
