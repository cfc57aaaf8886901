#include "core/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace {

TEST(FilterTableTest, EmptyTable) {
  FilterTable table;
  table.Freeze();
  EXPECT_EQ(table.num_pairs(), 0u);
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_TRUE(table.Lookup(42).empty());
}

TEST(FilterTableTest, SingleKey) {
  FilterTable table;
  table.Add(7, 1);
  table.Add(7, 3);
  table.Add(7, 2);
  table.Freeze();
  auto postings = table.Lookup(7);
  EXPECT_EQ(std::vector<VectorId>(postings.begin(), postings.end()),
            (std::vector<VectorId>{1, 2, 3}));
  EXPECT_TRUE(table.Lookup(8).empty());
  EXPECT_EQ(table.num_keys(), 1u);
  EXPECT_EQ(table.num_pairs(), 3u);
}

TEST(FilterTableTest, MultipleKeysSortedLookups) {
  FilterTable table;
  table.Add(100, 5);
  table.Add(1, 0);
  table.Add(50, 9);
  table.Add(1, 4);
  table.Freeze();
  EXPECT_EQ(table.num_keys(), 3u);
  EXPECT_EQ(table.Lookup(1).size(), 2u);
  EXPECT_EQ(table.Lookup(50).size(), 1u);
  EXPECT_EQ(table.Lookup(100)[0], 5u);
  EXPECT_TRUE(table.Lookup(0).empty());
  EXPECT_TRUE(table.Lookup(101).empty());
  EXPECT_TRUE(table.Lookup(51).empty());
}

TEST(FilterTableTest, DuplicatePairsKept) {
  // The same (key, id) may be added twice (an element can choose the same
  // path in... it cannot within one repetition, but the table must not
  // assume it). Both entries survive.
  FilterTable table;
  table.Add(9, 2);
  table.Add(9, 2);
  table.Freeze();
  EXPECT_EQ(table.Lookup(9).size(), 2u);
}

TEST(FilterTableTest, PropertyMatchesReferenceMultimap) {
  Rng rng(11);
  FilterTable table;
  std::map<uint64_t, std::multiset<VectorId>> reference;
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.NextBounded(500);
    VectorId id = static_cast<VectorId>(rng.NextBounded(100));
    table.Add(key, id);
    reference[key].insert(id);
  }
  table.Freeze();
  EXPECT_EQ(table.num_keys(), reference.size());
  for (const auto& [key, ids] : reference) {
    auto postings = table.Lookup(key);
    std::multiset<VectorId> got(postings.begin(), postings.end());
    EXPECT_EQ(got, ids) << "key " << key;
  }
  // Absent keys.
  for (uint64_t key = 500; key < 600; ++key) {
    EXPECT_TRUE(table.Lookup(key).empty());
  }
}

TEST(FilterTableTest, MemoryBytesPositiveAfterFreeze) {
  FilterTable table;
  for (uint64_t k = 0; k < 100; ++k) table.Add(k, static_cast<VectorId>(k));
  table.Freeze();
  EXPECT_GT(table.MemoryBytes(), 100 * sizeof(uint64_t));
}

TEST(FilterTableTest, NumPairsConsistentBeforeAndAfterFreeze) {
  FilterTable table;
  EXPECT_FALSE(table.frozen());
  EXPECT_EQ(table.num_pairs(), 0u);
  table.Add(3, 1);
  table.Add(3, 1);  // duplicate pair: counted in both states
  table.Add(9, 2);
  EXPECT_EQ(table.num_pairs(), 3u);
  EXPECT_EQ(table.num_keys(), 0u);  // keys exist only once frozen
  table.Freeze();
  EXPECT_TRUE(table.frozen());
  EXPECT_EQ(table.num_pairs(), 3u);
  EXPECT_EQ(table.num_keys(), 2u);
}

TEST(FilterTableTest, EmptyFrozenTableStaysEmptyAndFrozen) {
  // A frozen table with zero pairs must not be mistaken for an unfrozen
  // one (the old ids_.empty() heuristic could not tell them apart).
  FilterTable table;
  table.Freeze();
  EXPECT_TRUE(table.frozen());
  EXPECT_EQ(table.num_pairs(), 0u);
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_TRUE(table.Lookup(0).empty());
}

TEST(FilterTableTest, MemoryBytesTracksBothStates) {
  FilterTable building;
  EXPECT_EQ(building.MemoryBytes(), 0u);
  for (uint64_t k = 0; k < 1000; ++k) {
    building.Add(k % 37, static_cast<VectorId>(k));
  }
  const size_t staged = building.MemoryBytes();
  EXPECT_GT(staged, 0u);  // staging pairs are real heap usage
  building.Freeze();
  const size_t frozen = building.MemoryBytes();
  EXPECT_GT(frozen, 0u);
  // Freeze() releases the 16-byte staging pairs for ~12 bytes/pair of
  // frozen postings (plus key/offset overhead), so the footprint drops.
  EXPECT_LT(frozen, staged);
}

TEST(FilterTableTest, FrozenMemoryBytesMatchesSerializedCopy) {
  // The frozen footprint must not depend on how the table reached the
  // frozen state: a fresh Freeze() and a ReadFrom() round-trip of the
  // same table report the same MemoryBytes().
  FilterTable table;
  Rng rng(23);
  for (int i = 0; i < 4096; ++i) {
    table.Add(rng.NextBounded(700), static_cast<VectorId>(rng.NextBounded(99)));
  }
  table.Freeze();
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_TRUE(loaded.frozen());
  EXPECT_EQ(loaded.num_pairs(), table.num_pairs());
  EXPECT_EQ(loaded.num_keys(), table.num_keys());
  EXPECT_EQ(loaded.MemoryBytes(), table.MemoryBytes());
}

TEST(FilterTableTest, ReserveDoesNotAffectContents) {
  FilterTable table;
  table.Reserve(1000);
  table.Add(5, 1);
  table.Freeze();
  EXPECT_EQ(table.Lookup(5).size(), 1u);
}

TEST(FilterTableTest, SerializationRoundTrip) {
  Rng rng(21);
  FilterTable table;
  for (int i = 0; i < 2000; ++i) {
    table.Add(rng.NextBounded(300), static_cast<VectorId>(rng.NextBounded(64)));
  }
  table.Freeze();

  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_EQ(loaded.num_keys(), table.num_keys());
  EXPECT_EQ(loaded.num_pairs(), table.num_pairs());
  for (uint64_t key = 0; key < 310; ++key) {
    auto a = table.Lookup(key);
    auto b = loaded.Lookup(key);
    ASSERT_EQ(a.size(), b.size()) << key;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(FilterTableTest, SerializationRejectsCorruption) {
  FilterTable table;
  table.Add(1, 2);
  table.Add(3, 4);
  table.Freeze();
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  std::string payload = buffer.str();

  // Truncated stream.
  std::stringstream truncated(payload.substr(0, payload.size() / 2));
  FilterTable loaded;
  EXPECT_TRUE(loaded.ReadFrom(&truncated).IsInvalidArgument());

  // Flipped byte inside the key array breaks the sorted-keys invariant.
  std::string corrupt = payload;
  corrupt[9] = static_cast<char>(0xff);
  std::stringstream corrupted(corrupt);
  EXPECT_FALSE(loaded.ReadFrom(&corrupted).ok());

  // Null stream argument.
  EXPECT_TRUE(loaded.ReadFrom(nullptr).IsInvalidArgument());
  EXPECT_TRUE(table.WriteTo(nullptr).IsInvalidArgument());
}

TEST(FilterTableTest, EmptyTableSerializationRoundTrip) {
  FilterTable table;
  table.Freeze();
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_EQ(loaded.num_keys(), 0u);
  EXPECT_TRUE(loaded.Lookup(0).empty());
}

TEST(FilterTableTest, FreezeMatchesSortedOracle) {
  // Freeze emits the sorted CSR form: distinct ascending keys, offsets
  // bracketing the ids, and each key's ids ascending with duplicate pairs
  // kept.
  Rng rng(777);
  FilterTable table;
  std::map<uint64_t, std::vector<VectorId>> oracle;
  const size_t pairs = 30000;
  table.Reserve(pairs);
  for (size_t i = 0; i < pairs; ++i) {
    const uint64_t key = rng.NextBounded(2000);
    const VectorId id = static_cast<VectorId>(rng.NextBounded(100000));
    table.Add(key, id);
    oracle[key].push_back(id);
    if (i % 10 == 0) {  // an explicit duplicate pair
      table.Add(key, id);
      oracle[key].push_back(id);
    }
  }
  const size_t staged = table.num_pairs();
  EXPECT_EQ(staged, pairs + pairs / 10);
  ASSERT_TRUE(table.Freeze().ok());
  EXPECT_EQ(table.num_pairs(), staged);

  auto keys = table.keys_span();
  auto offsets = table.offsets_span();
  auto ids = table.ids_span();
  ASSERT_EQ(keys.size(), oracle.size());
  ASSERT_EQ(offsets.size(), keys.size() + 1);
  ASSERT_EQ(ids.size(), staged);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), ids.size());
  EXPECT_TRUE(std::adjacent_find(keys.begin(), keys.end(),
                                 [](uint64_t a, uint64_t b) {
                                   return a >= b;
                                 }) == keys.end());
  size_t k = 0;
  for (auto& [key, expect] : oracle) {
    std::sort(expect.begin(), expect.end());
    ASSERT_EQ(keys[k], key);
    auto got = table.postings_at(k);
    EXPECT_EQ(std::vector<VectorId>(got.begin(), got.end()), expect) << key;
    ++k;
  }
}

TEST(FilterTableTest, CapacityCheckIsAStatus) {
  // The u32 offsets and directory entries bound a table at 2^32 - 1
  // pairs; the check is a plain function of the count, so the limit is
  // tested without allocating it.
  const uint64_t limit = std::numeric_limits<uint32_t>::max();
  EXPECT_TRUE(CheckPostingCapacity(0).ok());
  EXPECT_TRUE(CheckPostingCapacity(1).ok());
  EXPECT_TRUE(CheckPostingCapacity(limit).ok());
  EXPECT_TRUE(CheckPostingCapacity(limit + 1).IsInvalidArgument());
  EXPECT_TRUE(CheckPostingCapacity(uint64_t{1} << 40).IsInvalidArgument());
  EXPECT_TRUE(CheckPostingCapacity(std::numeric_limits<uint64_t>::max())
                  .IsInvalidArgument());
}

// Directory invariants: 2^k + 1 entries (k >= 1), monotone, ending at
// num_keys(), and every key's position inside its own bucket.
void ExpectDirectoryInvariants(const FilterTable& table) {
  auto dir = table.directory_span();
  ASSERT_GE(dir.size(), 3u);
  const size_t buckets = dir.size() - 1;
  ASSERT_TRUE(std::has_single_bit(buckets)) << buckets;
  EXPECT_EQ(dir.front(), 0u);
  EXPECT_EQ(dir.back(), table.num_keys());
  EXPECT_TRUE(std::is_sorted(dir.begin(), dir.end()));
  const int shift = 64 - std::countr_zero(buckets);
  auto keys = table.keys_span();
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t b = static_cast<size_t>(keys[i] >> shift);
    ASSERT_LE(dir[b], i) << "key " << keys[i];
    ASSERT_GT(dir[b + 1], i) << "key " << keys[i];
  }
}

// Lookup must return exactly the posting list std::lower_bound finds in
// keys_span() (the same memory, not just equal ids), or nothing.
void ExpectLookupMatchesLowerBound(const FilterTable& table,
                                   const std::vector<uint64_t>& probes) {
  auto keys = table.keys_span();
  for (uint64_t probe : probes) {
    auto it = std::lower_bound(keys.begin(), keys.end(), probe);
    auto got = table.Lookup(probe);
    if (it == keys.end() || *it != probe) {
      ASSERT_TRUE(got.empty()) << "absent key " << probe;
      continue;
    }
    auto expect =
        table.postings_at(static_cast<size_t>(it - keys.begin()));
    ASSERT_EQ(got.data(), expect.data()) << "key " << probe;
    ASSERT_EQ(got.size(), expect.size()) << "key " << probe;
  }
}

// Builds one table from \p keys three ways — Freeze, a ReadFrom round
// trip and a view over the frozen arrays — and checks each against the
// lower_bound oracle on the stored keys, their neighbours and extremes.
void CheckLookupOracle(const std::vector<uint64_t>& keys, uint64_t seed) {
  Rng rng(seed);
  FilterTable heap;
  for (uint64_t key : keys) {
    const uint64_t copies = 1 + rng.NextBounded(3);
    for (uint64_t c = 0; c < copies; ++c) {
      heap.Add(key, static_cast<VectorId>(rng.NextBounded(1000)));
    }
  }
  ASSERT_TRUE(heap.Freeze().ok());

  std::stringstream buffer;
  ASSERT_TRUE(heap.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());

  FilterTable view;
  ASSERT_TRUE(view.AdoptFrozenView(heap.keys_span(), heap.offsets_span(),
                                   heap.ids_span())
                  .ok());

  std::vector<uint64_t> probes = {0, 1, std::numeric_limits<uint64_t>::max(),
                                  std::numeric_limits<uint64_t>::max() - 1,
                                  uint64_t{1} << 63, (uint64_t{1} << 63) - 1};
  for (uint64_t key : keys) {
    probes.push_back(key);
    probes.push_back(key - 1);  // wraps at 0 to UINT64_MAX: still a probe
    probes.push_back(key + 1);
  }
  for (int i = 0; i < 1000; ++i) probes.push_back(rng.NextUint64());

  for (const FilterTable* table : {&heap, &loaded, &view}) {
    SCOPED_TRACE(table == &heap     ? "heap"
                 : table == &loaded ? "ReadFrom"
                                    : "view");
    EXPECT_EQ(table->num_keys(), heap.num_keys());
    ExpectDirectoryInvariants(*table);
    ExpectLookupMatchesLowerBound(*table, probes);
  }
}

TEST(FilterTableTest, LookupMatchesLowerBoundOracle) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  {
    SCOPED_TRACE("empty");
    CheckLookupOracle({}, 1);
  }
  {
    SCOPED_TRACE("one key");
    CheckLookupOracle({0x1234567890abcdefULL}, 2);
  }
  {
    SCOPED_TRACE("extreme keys");
    CheckLookupOracle({0, max}, 3);
    CheckLookupOracle({0, 1, max / 2, max / 2 + 1, max - 1, max}, 4);
  }
  {
    SCOPED_TRACE("all keys in one bucket");
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 4000; ++i) {
      keys.push_back((uint64_t{0xa5} << 56) + i * 977);
    }
    CheckLookupOracle(keys, 5);
  }
  {
    SCOPED_TRACE("consecutive small integers");
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 5000; ++i) keys.push_back(i);
    CheckLookupOracle(keys, 6);
  }
  {
    SCOPED_TRACE("absent keys below, between and above");
    std::vector<uint64_t> keys;
    for (uint64_t i = 1; i <= 64; ++i) keys.push_back(i * (max / 128));
    CheckLookupOracle(keys, 7);
  }
  {
    SCOPED_TRACE("uniform 64-bit keys");
    Rng rng(8);
    std::vector<uint64_t> keys;
    for (int i = 0; i < 100000; ++i) keys.push_back(rng.NextUint64());
    CheckLookupOracle(keys, 9);
  }
}

TEST(FilterTableTest, DirectoryIsBuiltForUnsortedViewKeys) {
  // A view over corrupt (unsorted) keys must still get a directory whose
  // entries are monotone and <= num_keys(), so Lookup stays in bounds.
  Rng rng(10);
  std::vector<uint64_t> keys(2000);
  for (uint64_t& key : keys) key = rng.NextUint64();
  keys[0] = std::numeric_limits<uint64_t>::max();  // ends bucket filling
  std::vector<uint32_t> offsets(keys.size() + 1);
  std::vector<VectorId> ids(keys.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = static_cast<uint32_t>(i);
  }
  FilterTable view;
  ASSERT_TRUE(view.AdoptFrozenView(keys, offsets, ids).ok());
  auto dir = view.directory_span();
  EXPECT_TRUE(std::is_sorted(dir.begin(), dir.end()));
  EXPECT_EQ(dir.back(), keys.size());
  for (uint64_t key : keys) {
    auto got = view.Lookup(key);
    EXPECT_LE(got.size(), 1u);
    if (!got.empty()) {
      EXPECT_GE(got.data(), ids.data());
      EXPECT_LE(got.data() + got.size(), ids.data() + ids.size());
    }
  }
}

TEST(FilterTableTest, ConcurrentLookupsOnOneSharedTable) {
  // Freeze builds the directory eagerly, so const Lookups from many
  // threads read only immutable state.
  Rng rng(12);
  FilterTable table;
  std::vector<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    keys.push_back(rng.NextUint64());
    table.Add(keys.back(), static_cast<VectorId>(i));
  }
  ASSERT_TRUE(table.Freeze().ok());
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < keys.size() * 4;
           i += 3) {
        const size_t k = i % keys.size();
        auto got = table.Lookup(keys[k]);
        if (got.size() != 1 || got[0] != static_cast<VectorId>(k)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace skewsearch
