// Persisting and restoring a built SkewedPathIndex — Freeze() writes
// the one static format (SKF1, core/frozen_shard.h) and the fully
// checked heap restore is MapFrozen with force_heap + verify_payload —
// plus the batch-query and parallel-probe APIs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/frozen_shard.h"
#include "core/similarity_join.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

/// The restore that reads the file onto the heap and checks every
/// posting before the first query.
constexpr FrozenMapOptions kHeapRestore{.force_heap = true,
                                        .verify_payload = true};

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("index_io", this, ".skf");
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(11);
    data_ = GenerateDataset(dist_, 250, &rng);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  SkewedIndexOptions Options() const {
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = 0.7;
    options.repetitions = 8;
    options.seed = 4242;
    return options;
  }

  std::string path_;
  ProductDistribution dist_;
  Dataset data_;
};

TEST_F(IndexIoTest, SaveRequiresBuiltIndex) {
  SkewedPathIndex index;
  EXPECT_TRUE(index.Freeze(path_).IsInvalidArgument());
}

TEST_F(IndexIoTest, RoundTripPreservesQueries) {
  SkewedPathIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options()).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());

  SkewedPathIndex loaded;
  ASSERT_TRUE(loaded.MapFrozen(path_, &data_, &dist_, kHeapRestore).ok());
  EXPECT_TRUE(loaded.built());
  ASSERT_NE(loaded.frozen_file(), nullptr);
  EXPECT_FALSE(loaded.frozen_file()->mapped());
  EXPECT_EQ(loaded.repetitions(), original.repetitions());
  EXPECT_EQ(loaded.build_stats().total_filters,
            original.build_stats().total_filters);
  EXPECT_EQ(loaded.build_stats().distinct_keys,
            original.build_stats().distinct_keys);
  EXPECT_DOUBLE_EQ(loaded.verify_threshold(), original.verify_threshold());

  CorrelatedQuerySampler sampler(&dist_, 0.7);
  Rng rng(12);
  for (int t = 0; t < 20; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data_.size()));
    SparseVector q = sampler.SampleCorrelated(data_.Get(target), &rng);
    // Identical filter computation and identical results.
    EXPECT_EQ(original.ComputeFilterKeys(q.span()),
              loaded.ComputeFilterKeys(q.span()));
    auto a = original.QueryAll(q.span(), 0.0);
    auto b = loaded.QueryAll(q.span(), 0.0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].similarity, b[i].similarity);
    }
  }
}

TEST_F(IndexIoTest, LoadRejectsDifferentDataset) {
  SkewedPathIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options()).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());

  Rng rng(13);
  Dataset other = GenerateDataset(dist_, 250, &rng);
  SkewedPathIndex loaded;
  Status s = loaded.MapFrozen(path_, &other, &dist_, kHeapRestore);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("does not match"), std::string::npos);
}

TEST_F(IndexIoTest, LoadRejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not an index";
  out.close();
  SkewedPathIndex loaded;
  EXPECT_TRUE(
      loaded.MapFrozen(path_, &data_, &dist_, kHeapRestore)
          .IsInvalidArgument());
}

TEST_F(IndexIoTest, LoadRejectsTruncatedFile) {
  SkewedPathIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options()).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  SkewedPathIndex loaded;
  EXPECT_FALSE(loaded.MapFrozen(path_, &data_, &dist_, kHeapRestore).ok());
}

TEST_F(IndexIoTest, LoadMissingFileIsIOError) {
  SkewedPathIndex loaded;
  EXPECT_TRUE(loaded
                  .MapFrozen("/nonexistent/index.skf", &data_, &dist_,
                             kHeapRestore)
                  .IsIOError());
}

// ---- Negative paths: corruption must produce clean errors, not crashes.

class IndexIoCorruptionTest : public IndexIoTest {
 protected:
  std::string SaveValidIndex() {
    SkewedPathIndex original;
    EXPECT_TRUE(original.Build(&data_, &dist_, Options()).ok());
    EXPECT_TRUE(original.Freeze(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }

  Status TryLoad() {
    SkewedPathIndex loaded;
    return loaded.MapFrozen(path_, &data_, &dist_, kHeapRestore);
  }

  /// Recomputes the single shard's recorded max id and payload checksum
  /// and the metadata checksum of an edited SKF1 image, so the edit
  /// reaches the validation behind the checksums (docs/FILE_FORMATS.md
  /// gives the offsets).
  static void Reseal(std::string* bytes) {
    uint64_t param_size = 0, table_offset = 0;
    std::memcpy(&param_size, bytes->data() + 40, 8);
    std::memcpy(&table_offset, bytes->data() + 48, 8);
    char* entry = bytes->data() + table_offset;
    uint64_t f[6];  // keys/offsets/ids: offset, count
    std::memcpy(f, entry, sizeof(f));
    const char* ids = bytes->data() + f[4];
    uint64_t max_id = 0;
    for (uint64_t i = 0; i < f[5]; ++i) {
      uint32_t id = 0;
      std::memcpy(&id, ids + i * 4, 4);
      max_id = std::max<uint64_t>(max_id, id);
    }
    frozen_internal::Checksum64 payload;
    payload.Update(bytes->data() + f[0], f[1] * 8);
    payload.Update(bytes->data() + f[2], f[3] * 4);
    payload.Update(ids, f[5] * 4);
    const uint64_t payload_digest = payload.digest();
    std::memcpy(entry + 48, &max_id, 8);
    std::memcpy(entry + 56, &payload_digest, 8);
    frozen_internal::Checksum64 meta;
    meta.Update(bytes->data(), 56);
    meta.Update(bytes->data() + 64, param_size);
    meta.Update(entry, 64);
    const uint64_t meta_digest = meta.digest();
    std::memcpy(bytes->data() + 56, &meta_digest, 8);
  }

  // Byte offsets into the file: the parameter block starts right after
  // the 64-byte header, with the mode byte first.
  static constexpr size_t kModeOffset = 64;
  static constexpr size_t kRepetitionsOffset = 64 + 47;
};

TEST_F(IndexIoCorruptionTest, RejectsCorruptedMagicVersion) {
  std::string contents = SaveValidIndex();
  for (size_t byte : {size_t{0}, size_t{3}}) {  // vendor byte, version byte
    std::string mutated = contents;
    mutated[byte] = static_cast<char>(mutated[byte] + 1);
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("not a frozen shard file"), std::string::npos);
  }
}

TEST_F(IndexIoCorruptionTest, RejectsWrongDatasetSize) {
  SaveValidIndex();
  for (size_t other_n : {data_.size() / 2, data_.size() + 7}) {
    Rng rng(404 + other_n);
    Dataset other = GenerateDataset(dist_, other_n, &rng);
    SkewedPathIndex loaded;
    Status s = loaded.MapFrozen(path_, &other, &dist_, kHeapRestore);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("does not match"), std::string::npos);
    EXPECT_FALSE(loaded.built());
  }
}

TEST_F(IndexIoCorruptionTest, RejectsBadEnumFields) {
  std::string contents = SaveValidIndex();
  for (size_t offset : {kModeOffset, kModeOffset + 1, kModeOffset + 2}) {
    std::string mutated = contents;
    mutated[offset] = 17;  // no IndexMode/HashEngine/Measure has this value
    WriteFile(mutated);
    EXPECT_TRUE(TryLoad().IsInvalidArgument()) << "offset " << offset;
    Reseal(&mutated);  // past the checksum, to the enum range check
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << "offset " << offset;
    EXPECT_EQ(s.message().find("checksum"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(IndexIoCorruptionTest, RejectsInsaneRepetitionCounts) {
  std::string contents = SaveValidIndex();
  for (int32_t bad : {0, -5, 1 << 24}) {
    std::string mutated = contents;
    std::memcpy(&mutated[kRepetitionsOffset], &bad, sizeof(bad));
    Reseal(&mutated);
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << "repetitions=" << bad << ": "
                                       << s.ToString();
    EXPECT_NE(s.message().find("corrupt index header"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(IndexIoCorruptionTest, RejectsOutOfRangePostingIds) {
  std::string contents = SaveValidIndex();
  // Smash the last posting id to one far beyond the dataset and reseal,
  // so the checksums agree: only the id-range validation can object.
  uint64_t table_offset = 0, ids_offset = 0, ids_count = 0;
  std::memcpy(&table_offset, contents.data() + 48, 8);
  std::memcpy(&ids_offset, contents.data() + table_offset + 32, 8);
  std::memcpy(&ids_count, contents.data() + table_offset + 40, 8);
  ASSERT_GT(ids_count, 0u);
  uint32_t bad_id = 0xfffffff0u;
  std::memcpy(&contents[ids_offset + (ids_count - 1) * 4], &bad_id,
              sizeof(bad_id));
  Reseal(&contents);
  WriteFile(contents);
  Status s = TryLoad();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("beyond the dataset"), std::string::npos);
}

TEST_F(IndexIoCorruptionTest, TruncationSweepNeverCrashes) {
  std::string contents = SaveValidIndex();
  // Every header prefix, then strides through the table region.
  std::vector<size_t> cuts;
  for (size_t k = 0; k < std::min<size_t>(80, contents.size()); ++k) {
    cuts.push_back(k);
  }
  for (size_t k = 80; k < contents.size(); k += contents.size() / 23 + 1) {
    cuts.push_back(k);
  }
  cuts.push_back(contents.size() - 1);
  for (size_t keep : cuts) {
    WriteFile(contents.substr(0, keep));
    EXPECT_FALSE(TryLoad().ok()) << "prefix of " << keep << " bytes";
  }
}

TEST_F(IndexIoTest, AdversarialRoundTrip) {
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.6;
  options.repetitions = 6;
  SkewedPathIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, options).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());
  SkewedPathIndex loaded;
  ASSERT_TRUE(loaded.MapFrozen(path_, &data_, &dist_, kHeapRestore).ok());
  EXPECT_EQ(loaded.options().mode, IndexMode::kAdversarial);
  auto hit = loaded.Query(data_.Get(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 0u);
}

TEST(BatchQueryTest, MatchesSerialQueries) {
  auto dist = TwoBlockProbabilities(120, 0.25, 6000, 0.005).value();
  Rng rng(14);
  Dataset data = GenerateDataset(dist, 200, &rng);
  SkewedPathIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.repetitions = 8;
  ASSERT_TRUE(index.Build(&data, &dist, options).ok());

  CorrelatedQuerySampler sampler(&dist, 0.7);
  Dataset queries;
  for (int t = 0; t < 40; ++t) {
    queries.Add(sampler.SampleCorrelated(data.Get(t % data.size()), &rng));
  }
  std::vector<QueryStats> batch_stats;
  auto parallel = index.BatchQuery(queries, 4, &batch_stats);
  auto serial = index.BatchQuery(queries, 1);
  ASSERT_EQ(parallel.size(), queries.size());
  ASSERT_EQ(batch_stats.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(parallel[i].has_value(), serial[i].has_value()) << i;
    if (parallel[i]) {
      EXPECT_EQ(parallel[i]->id, serial[i]->id);
      EXPECT_EQ(parallel[i]->similarity, serial[i]->similarity);
    }
  }
}

TEST(BatchQueryTest, EmptyBatch) {
  auto dist = UniformProbabilities(100, 0.1).value();
  Rng rng(15);
  Dataset data = GenerateDataset(dist, 50, &rng);
  SkewedPathIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  ASSERT_TRUE(index.Build(&data, &dist, options).ok());
  Dataset empty;
  EXPECT_TRUE(index.BatchQuery(empty, 4).empty());
}

TEST(ParallelJoinTest, MatchesSerialJoin) {
  auto dist = UniformProbabilities(1000, 0.04).value();
  Rng rng(16);
  Dataset data;
  for (int i = 0; i < 120; ++i) data.Add(dist.Sample(&rng));
  for (int i = 0; i < 8; ++i) data.Add(data.GetVector(i * 5));  // dups
  ASSERT_TRUE(data.SetDimension(1000).ok());

  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.9;
  options.index.repetition_boost = 3.0;
  options.threshold = 0.9;

  auto serial = SelfSimilarityJoin(data, dist, options).value();
  options.probe_threads = 4;
  auto parallel = SelfSimilarityJoin(data, dist, options).value();
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].left, parallel[i].left);
    EXPECT_EQ(serial[i].right, parallel[i].right);
    EXPECT_DOUBLE_EQ(serial[i].similarity, parallel[i].similarity);
  }
}

}  // namespace
}  // namespace skewsearch
