// Byte-class fuzzer for the SKD2 snapshot format that DynamicIndex::Load
// reads on the DurableIndex recovery path, in the style of the SKF1
// suite (core_frozen_shard_fuzz_test.cc). The pristine file is parsed
// into its byte classes — magic, parameter block, header fields, every
// edition block, and per shard its edition id, base table, delta
// postings, tombstones, removed-base ids, inserted records and entry
// footer — and mutated by truncation at and around every class
// boundary, byte flips over every class, extensions, and targeted
// count/id corruptions. Each mutant must be rejected with a clean
// Status, or load into an index whose queries run (ASan-clean either
// way).

#include "core/dynamic_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/index_io.h"
#include "data/generators.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// One contiguous byte class of the pristine file.
struct Region {
  std::string label;
  size_t begin;
  size_t end;
};

/// Walks an SKD2 file as DynamicIndex::Save lays it out.
class LayoutParser {
 public:
  LayoutParser(const std::string& bytes, size_t param_bytes)
      : bytes_(bytes), param_bytes_(param_bytes) {}

  std::vector<Region> Parse() {
    Mark("magic", 4);
    Mark("params", param_bytes_);
    Mark("header.fingerprint", 8);
    const uint32_t num_shards = Peek<uint32_t>();
    Mark("header.num_shards", 4);
    Mark("header.compact_fraction", 8);
    Mark("header.base_n", 8);
    Mark("header.next_id", 4);
    const uint32_t num_editions = Peek<uint32_t>();
    Mark("header.num_editions", 4);
    Mark("header.current_version", 4);
    for (uint32_t e = 0; e < num_editions; ++e) {
      const std::string edition = "edition" + std::to_string(e);
      Mark(edition + ".derived_n", 8);
      Mark(edition + ".repetitions", 4);
      Mark(edition + ".delta", 8);
      Mark(edition + ".verify_threshold", 8);
    }
    for (uint32_t s = 0; s < num_shards; ++s) {
      const std::string shard = "shard" + std::to_string(s);
      Mark(shard + ".edition", 4);
      Vector(shard + ".base.keys", 8);
      Vector(shard + ".base.offsets", 4);
      Vector(shard + ".base.ids", 4);
      const uint64_t delta_count = Peek<uint64_t>();
      Mark(shard + ".delta.count", 8);
      for (uint64_t k = 0; k < delta_count; ++k) {
        Mark(shard + ".delta.key", 8);
        Vector(shard + ".delta.ids", 4);
      }
      const uint64_t tomb_count = Peek<uint64_t>();
      Mark(shard + ".tombstones.count", 8);
      for (uint64_t k = 0; k < tomb_count; ++k) {
        Mark(shard + ".tombstone.id", 4);
        Mark(shard + ".tombstone.entries", 4);
      }
      Vector(shard + ".removed_base", 4);
      const uint64_t inserted_count = Peek<uint64_t>();
      Mark(shard + ".inserted.count", 8);
      for (uint64_t k = 0; k < inserted_count; ++k) {
        Mark(shard + ".inserted.id", 4);
        Vector(shard + ".inserted.items", 4);
      }
      Mark(shard + ".footer.live", 8);
      Mark(shard + ".footer.dead", 8);
    }
    EXPECT_EQ(pos_, bytes_.size()) << "layout walk did not end at EOF";
    return regions_;
  }

 private:
  template <typename T>
  T Peek() const {
    T value{};
    if (pos_ + sizeof(T) <= bytes_.size()) {
      std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    }
    return value;
  }

  void Mark(const std::string& label, size_t size) {
    regions_.push_back({label, pos_, pos_ + size});
    pos_ += size;
  }

  /// A WriteVector field: a u64 count, then the elements.
  void Vector(const std::string& label, size_t element) {
    const uint64_t count = Peek<uint64_t>();
    Mark(label + ".count", 8);
    if (count > 0) Mark(label, static_cast<size_t>(count) * element);
  }

  const std::string& bytes_;
  size_t param_bytes_;
  size_t pos_ = 0;
  std::vector<Region> regions_;
};

class DynamicIndexFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("skd2_fuzz", this, ".skd");
    mutant_path_ = test::TempPath("skd2_fuzz_mutant", this, ".skd");
    dist_ = TwoBlockProbabilities(80, 0.25, 3000, 0.01).value();
    Rng rng(41);
    data_ = GenerateDataset(dist_, 120, &rng);

    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 4;
    options.index.seed = 4141;
    options.num_shards = 2;
    DynamicIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, options).ok());
    // A second edition, then churn under it, so every byte class is
    // present: two edition blocks, delta postings, tombstones,
    // removed-base ids and inserted records in both shards.
    ASSERT_TRUE(index.RebuildForSize(2 * data_.size()).ok());
    std::vector<VectorId> inserted;
    while (inserted.size() < 12) {
      SparseVector v = dist_.Sample(&rng);
      if (v.span().empty()) continue;
      inserted.push_back(*index.Insert(v.span()));
    }
    for (VectorId id = 0; id < 10; ++id) ASSERT_TRUE(index.Remove(id).ok());
    for (size_t i = 0; i < inserted.size(); i += 4) {
      ASSERT_TRUE(index.Remove(inserted[i]).ok());
    }
    ASSERT_TRUE(index.Save(path_).ok());
    pristine_ = ReadFile(path_);

    std::ostringstream params;
    ASSERT_TRUE(index_io_internal::WriteParams(params, index.options().index,
                                               index.verify_threshold(),
                                               index.build_stats()));
    regions_ = LayoutParser(pristine_, params.str().size()).Parse();
    for (const char* needed :
         {"edition1.repetitions", "shard0.delta.ids", "shard1.delta.ids",
          "shard0.tombstone.id", "shard1.tombstone.id", "shard0.removed_base",
          "shard1.removed_base", "shard0.inserted.items",
          "shard1.inserted.items"}) {
      ASSERT_TRUE(Find(needed) != nullptr) << "missing class " << needed;
    }
    // Query vectors for the load-and-run arm: two stored vectors (one of
    // them removed) and one fresh draw.
    probes_.Add(data_.Get(3));
    probes_.Add(data_.Get(50));
    probes_.Add(dist_.Sample(&rng).span());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  const Region* Find(const std::string& label) const {
    for (const Region& r : regions_) {
      if (r.label == label) return &r;
    }
    return nullptr;
  }

  /// The fuzz oracle: a clean rejection, or a load that serves queries.
  /// A crash or sanitizer report anywhere here fails the run.
  void ExpectCleanOutcome(const std::string& bytes, const std::string& label) {
    SCOPED_TRACE(label);
    {
      std::ofstream out(mutant_path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      ASSERT_TRUE(out.good());
    }
    DynamicIndex loaded;
    Status status = loaded.Load(mutant_path_, &data_, &dist_);
    if (!status.ok()) {
      EXPECT_FALSE(status.message().empty());
      return;
    }
    ++loaded_mutants_;
    for (VectorId i = 0; i < probes_.size(); ++i) {
      QueryStats stats;
      (void)loaded.Query(probes_.Get(i), &stats);
      (void)loaded.QueryAll(probes_.Get(i), 0.2);
    }
    (void)loaded.size();
    (void)loaded.MemoryBytes();
  }

  void Flip(size_t pos, uint8_t mask, const std::string& label) {
    std::string mutant = pristine_;
    mutant[pos] = static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^ mask);
    ExpectCleanOutcome(mutant, label + " byte " + std::to_string(pos) +
                                   " ^ " + std::to_string(mask));
  }

  std::string path_;
  std::string mutant_path_;
  ProductDistribution dist_;
  Dataset data_;
  Dataset probes_;
  std::string pristine_;
  std::vector<Region> regions_;
  int loaded_mutants_ = 0;
};

TEST_F(DynamicIndexFuzzTest, PristineFileLoadsAndAnswers) {
  ExpectCleanOutcome(pristine_, "pristine");
  EXPECT_EQ(loaded_mutants_, 1);
}

TEST_F(DynamicIndexFuzzTest, TruncationAtEveryClassBoundary) {
  for (const Region& r : regions_) {
    for (size_t cut : {r.begin, r.begin + 1, r.end - 1}) {
      if (cut >= pristine_.size()) continue;
      ExpectCleanOutcome(pristine_.substr(0, cut),
                         "truncate in " + r.label + " at " +
                             std::to_string(cut));
    }
  }
  ExpectCleanOutcome(std::string(), "empty file");
}

TEST_F(DynamicIndexFuzzTest, ExtensionsPastTheFooter) {
  ExpectCleanOutcome(pristine_ + std::string(1, '\0'), "append 1");
  ExpectCleanOutcome(pristine_ + std::string(4096, '\xab'), "append 4096");
}

TEST_F(DynamicIndexFuzzTest, ByteFlipsInEveryFixedSizeClass) {
  // Every byte of every class outside the bulk posting/item arrays
  // (which the seeded test below samples): header, editions, shard
  // editions, counts, delta keys, tombstones and footers. Per-record
  // classes repeat once per record; their first four records are
  // flipped.
  std::map<std::string, int> seen;
  for (const Region& r : regions_) {
    if (r.label == "params") continue;  // sampled below
    if (r.end - r.begin > 8) continue;  // bulk arrays, sampled below
    if (++seen[r.label] > 4) continue;
    for (size_t pos = r.begin; pos < r.end; ++pos) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
        Flip(pos, mask, r.label);
      }
    }
  }
  // Some flips (delta keys, unchecked counters) load; their queries ran.
  EXPECT_GT(loaded_mutants_, 0);
}

TEST_F(DynamicIndexFuzzTest, SeededByteFlipsInBulkClasses) {
  // The parameter block and the variable-length arrays (base keys,
  // offsets and ids, delta ids, removed ids, inserted items), a fixed
  // number of seeded flips each.
  Rng rng(0x5d2);
  for (const Region& r : regions_) {
    if (r.label != "params" && r.end - r.begin <= 8) continue;
    for (int i = 0; i < 12; ++i) {
      const size_t pos = r.begin + rng.NextBounded(r.end - r.begin);
      Flip(pos, static_cast<uint8_t>(1 + rng.NextBounded(255)), r.label);
    }
  }
}

TEST_F(DynamicIndexFuzzTest, TargetedCountAndIdCorruptions) {
  // Counts past the file, ids outside their shard or the id space, and
  // an entry footer that no longer adds up.
  const std::vector<std::pair<std::string, uint64_t>> mutations = {
      {"header.num_shards", 0},
      {"header.num_shards", 5000},
      {"header.num_editions", 0},
      {"header.num_editions", ~0u},
      {"header.current_version", 7},
      {"header.next_id", 0},
      {"edition1.repetitions", 0},
      {"shard0.edition", 9},
      {"shard0.base.ids.count", ~0ULL},
      {"shard0.delta.count", ~0ULL},
      {"shard0.delta.count", 0},
      {"shard1.delta.ids.count", 0},
      {"shard0.tombstones.count", ~0ULL},
      {"shard1.tombstone.id", 0},
      {"shard0.tombstone.entries", ~0u},
      {"shard0.removed_base.count", ~0ULL},
      {"shard1.inserted.count", ~0ULL},
      {"shard1.inserted.id", 0},
      {"shard0.inserted.items.count", 0},
      {"shard1.footer.live", 0},
      {"shard0.footer.dead", ~0ULL},
  };
  for (const auto& [label, value] : mutations) {
    const Region* r = Find(label);
    ASSERT_TRUE(r != nullptr) << label;
    std::string mutant = pristine_;
    std::memcpy(mutant.data() + r->begin, &value, r->end - r->begin);
    if (mutant == pristine_) continue;
    ExpectCleanOutcome(mutant, label + " = " + std::to_string(value));
  }
}

}  // namespace
}  // namespace skewsearch
