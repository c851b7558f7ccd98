// Tests for the local-compute kernels behind the free-compute side of the
// MPC model: the flat arena KeyIndex and the local joins built on it, the
// parallel sort kernel, and the FlatCounter used by the statistics paths.
// The common thread is the determinism contract — every kernel must
// produce bit-identical results for every thread count.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_counter.h"
#include "common/hash.h"
#include "common/parallel_sort.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "relation/key_index.h"
#include "query/local_eval.h"
#include "query/query.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "relation/relation_view.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<int64_t> ToVec(std::span<const int64_t> s) {
  return std::vector<int64_t>(s.begin(), s.end());
}

// Reference grouping: key -> ascending row indices, by exact key columns.
std::map<std::vector<Value>, std::vector<int64_t>> BruteForceGroups(
    RelationView view, const std::vector<int>& key_cols) {
  std::map<std::vector<Value>, std::vector<int64_t>> groups;
  for (int64_t i = 0; i < view.size(); ++i) {
    std::vector<Value> key;
    for (int c : key_cols) key.push_back(view.at(i, c));
    groups[key].push_back(i);
  }
  return groups;
}

TEST(KeyIndexTest, LookupReturnsAscendingRowIndices) {
  const Relation rel = Relation::FromRows(
      {{7, 1}, {3, 2}, {7, 3}, {5, 4}, {7, 5}, {3, 6}});
  const KeyIndex index(rel, {0});
  const Value seven = 7;
  EXPECT_EQ(ToVec(index.Lookup(&seven)), (std::vector<int64_t>{0, 2, 4}));
  const Value three = 3;
  EXPECT_EQ(ToVec(index.Lookup(&three)), (std::vector<int64_t>{1, 5}));
  const Value five = 5;
  EXPECT_EQ(ToVec(index.Lookup(&five)), (std::vector<int64_t>{3}));
  const Value missing = 42;
  EXPECT_TRUE(index.Lookup(&missing).empty());
  EXPECT_FALSE(index.Contains(&missing));
  EXPECT_TRUE(index.Contains(&seven));
  EXPECT_EQ(index.num_distinct_keys(), 3);
}

// The seed index documented a footgun: a hit's reference was invalidated
// by the next *missed* probe (the miss inserted nothing but returned a
// shared empty vector... until a rehash moved the buckets). The arena
// index removes the hazard by construction: spans stay valid for the
// index's lifetime across any probe sequence.
TEST(KeyIndexTest, HitSpanSurvivesInterveningMissedProbes) {
  Rng rng(11);
  const Relation rel = GenerateUniform(rng, 5000, 2, 500);
  const KeyIndex index(rel, {0});

  const Value present = rel.at(1234, 0);
  const std::span<const int64_t> hit = index.Lookup(&present);
  ASSERT_FALSE(hit.empty());
  const std::vector<int64_t> snapshot = ToVec(hit);

  // Hammer the index with misses (and more hits) after taking the span.
  for (Value v = 1000000; v < 1002000; ++v) {
    EXPECT_TRUE(index.Lookup(&v).empty());
  }
  for (int64_t i = 0; i < rel.size(); i += 7) {
    const Value v = rel.at(i, 0);
    EXPECT_FALSE(index.Lookup(&v).empty());
  }

  EXPECT_EQ(ToVec(hit), snapshot);  // Still the same arena bytes.
}

// Distinct keys forced onto equal 64-bit hashes must still be grouped by
// exact key, and num_distinct_keys must count keys, not hash values.
TEST(KeyIndexTest, DistinctKeysCollidingOnHashStaySeparate) {
  const Relation rel = Relation::FromRows(
      {{1, 10}, {2, 20}, {1, 11}, {3, 30}, {2, 21}, {1, 12}});
  // Every key hashes to the same value: the whole index is one probe
  // chain, resolved only by exact-key verification.
  const KeyIndex index(
      rel, {0}, [](const Value*, int) -> uint64_t { return 0x1234; });

  const Value one = 1, two = 2, three = 3, missing = 9;
  EXPECT_EQ(ToVec(index.Lookup(&one)), (std::vector<int64_t>{0, 2, 5}));
  EXPECT_EQ(ToVec(index.Lookup(&two)), (std::vector<int64_t>{1, 4}));
  EXPECT_EQ(ToVec(index.Lookup(&three)), (std::vector<int64_t>{3}));
  EXPECT_TRUE(index.Lookup(&missing).empty());
  EXPECT_EQ(index.num_distinct_keys(), 3);
}

// Same, but large enough to cross the partitioned-build threshold and with
// a pool, with hashes that collide in pairs.
TEST(KeyIndexTest, PairwiseCollisionsLargeParallelBuild) {
  Rng rng(13);
  const Relation rel = GenerateUniform(rng, 40000, 2, 1000);
  ThreadPool pool(8);
  const KeyIndex index(
      rel, {0},
      [](const Value* key, int) -> uint64_t { return key[0] / 2; }, &pool);

  const auto groups = BruteForceGroups(rel, {0});
  EXPECT_EQ(index.num_distinct_keys(),
            static_cast<int64_t>(groups.size()));
  for (const auto& [key, rows] : groups) {
    EXPECT_EQ(ToVec(index.Lookup(key.data())), rows);
  }
}

// Every build shape against brute force: sizes on both sides of the
// partitioned-build threshold (8192 rows), whole relations, selection
// views and a test hash that makes distinct keys collide in pairs, each
// at 1, 2 and 8 threads. Spans and num_distinct_keys must match exactly.
TEST(KeyIndexTest, ParityWithBruteForceAcrossThreadCounts) {
  enum class Shape { kWhole, kSelection, kCollidingHash };
  const HashFunction mix(5);
  // Keys (a, b) and (a ^ 1, b) share a hash; the top bits still vary, so
  // partitioned builds spread the collisions over every partition.
  const KeyIndex::KeyHashFn pair_hash = [&mix](const Value* key, int) {
    const Value halved[2] = {key[0] >> 1, key[1]};
    return mix.HashSpan(halved, 2);
  };
  const std::vector<int> key_cols = {1, 2};
  for (const int64_t rows : {0, 1, 8191, 8192, 8193, 60000}) {
    Rng rng(17 + rows);
    // About two rows per key at the threshold sizes.
    const Relation rel =
        GenerateUniform(rng, rows, 3, rows < 60000 ? 64 : 4000);
    // Every row once, in a scrambled order (odd rows descending, then even
    // rows ascending), so view row i is not relation row i.
    std::vector<int64_t> selection;
    for (int64_t i = rows - 1 - rows % 2; i >= 0; i -= 2) {
      selection.push_back(i);
    }
    for (int64_t i = 0; i < rows; i += 2) selection.push_back(i);
    for (const Shape shape :
         {Shape::kWhole, Shape::kSelection, Shape::kCollidingHash}) {
      const RelationView view = shape == Shape::kSelection
                                    ? RelationView(rel, selection)
                                    : RelationView(rel);
      const auto groups = BruteForceGroups(view, key_cols);
      for (const int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        const KeyIndex index =
            shape == Shape::kCollidingHash
                ? KeyIndex(view, key_cols, pair_hash, &pool)
                : KeyIndex(view, key_cols, &pool);
        const std::string where = "rows=" + std::to_string(rows) +
                                  " shape=" +
                                  std::to_string(static_cast<int>(shape)) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(index.num_distinct_keys(),
                  static_cast<int64_t>(groups.size()))
            << where;
        for (const auto& [key, group_rows] : groups) {
          ASSERT_EQ(ToVec(index.Lookup(key.data())), group_rows) << where;
        }
        const std::vector<Value> missing = {5000, 5000};
        EXPECT_TRUE(index.Lookup(missing.data()).empty()) << where;
      }
    }
  }
}

TEST(KeyIndexTest, EmptyAndTinyViews) {
  const Relation empty(2);
  const KeyIndex index(empty, {0});
  const Value v = 1;
  EXPECT_TRUE(index.Lookup(&v).empty());
  EXPECT_EQ(index.num_distinct_keys(), 0);

  const Relation one = Relation::FromRows({{9, 9}});
  ThreadPool pool(8);
  const KeyIndex single(one, {0, 1}, &pool);
  const std::vector<Value> key = {9, 9};
  EXPECT_EQ(ToVec(single.Lookup(key.data())), (std::vector<int64_t>{0}));
  EXPECT_EQ(single.num_distinct_keys(), 1);
}

// ---- Local join goldens. ----
//
// FNV-1a checksums over the output bytes of the index-backed local
// kernels (HashJoinLocal, SemijoinLocal, AntijoinLocal, EvalJoinLocal)
// and over every key's KeyIndex span, pinned to in-source goldens. The
// span golden folds each group's arena offset too, so it pins the arena
// bytes and the group order, not only which rows match. A change to the
// index layout must pass these unregenerated. On a mismatch the test
// prints a paste-ready initializer of the actuals.

struct KernelGolden {
  int64_t rows;  // Output rows; distinct keys for a KeyIndex golden.
  uint64_t checksum;
};

void FoldBytes(uint64_t& checksum, const void* data, size_t n) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    checksum = (checksum ^ bytes[i]) * 0x100000001b3ULL;
  }
}

KernelGolden FoldRelation(const Relation& rel) {
  KernelGolden golden{rel.size(), 0xcbf29ce484222325ULL};
  const int64_t rows = rel.size();
  FoldBytes(golden.checksum, &rows, sizeof(rows));
  FoldBytes(golden.checksum, rel.data().data(),
            rel.data().size() * sizeof(Value));
  return golden;
}

// Visits the groups in first-occurrence order of their keys in the view
// (row i opens a group exactly when it is the first row of its span) and
// folds key, arena offset, length and row indices.
KernelGolden FoldIndex(const KeyIndex& index, RelationView view) {
  const std::vector<int>& key_cols = index.key_cols();
  std::vector<Value> key(key_cols.size());
  const auto lookup_row = [&](int64_t i) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      key[k] = view.at(i, key_cols[k]);
    }
    return index.Lookup(key.data());
  };
  const int64_t* arena = nullptr;
  for (int64_t i = 0; i < view.size(); ++i) {
    const std::span<const int64_t> span = lookup_row(i);
    if (arena == nullptr || span.data() < arena) arena = span.data();
  }
  KernelGolden golden{index.num_distinct_keys(), 0xcbf29ce484222325ULL};
  for (int64_t i = 0; i < view.size(); ++i) {
    const std::span<const int64_t> span = lookup_row(i);
    if (span.front() != i) continue;
    const int64_t offset = span.data() - arena;
    const int64_t len = static_cast<int64_t>(span.size());
    FoldBytes(golden.checksum, key.data(), key.size() * sizeof(Value));
    FoldBytes(golden.checksum, &offset, sizeof(offset));
    FoldBytes(golden.checksum, &len, sizeof(len));
    FoldBytes(golden.checksum, span.data(), span.size() * sizeof(int64_t));
  }
  return golden;
}

// HashJoinLocal, SemijoinLocal, AntijoinLocal and the KeyIndex of the
// build side, in that order.
std::vector<KernelGolden> LocalJoinGoldens(RelationView left,
                                           RelationView right,
                                           const std::vector<int>& left_keys,
                                           const std::vector<int>& right_keys) {
  return {FoldRelation(HashJoinLocal(left, right, left_keys, right_keys)),
          FoldRelation(SemijoinLocal(left, right, left_keys, right_keys)),
          FoldRelation(AntijoinLocal(left, right, left_keys, right_keys)),
          FoldIndex(KeyIndex(right, right_keys), right)};
}

KernelGolden EvalJoinGolden(const std::string& text,
                            const std::vector<Relation>& atoms) {
  const StatusOr<ConjunctiveQuery> q = ConjunctiveQuery::Parse(text);
  EXPECT_TRUE(q.ok()) << text;
  return FoldRelation(EvalJoinLocal(*q, atoms));
}

template <size_t N>
void ExpectKernelGoldens(const char* name,
                         const std::vector<KernelGolden>& actual,
                         const KernelGolden (&golden)[N]) {
  bool same = actual.size() == N;
  EXPECT_EQ(actual.size(), N) << name;
  for (size_t i = 0; same && i < N; ++i) {
    EXPECT_EQ(actual[i].rows, golden[i].rows) << name << " entry " << i;
    EXPECT_EQ(actual[i].checksum, golden[i].checksum)
        << name << " entry " << i;
    same = actual[i].rows == golden[i].rows &&
           actual[i].checksum == golden[i].checksum;
  }
  if (!same) {
    std::fprintf(stderr, "const KernelGolden k%s[] = {\n", name);
    for (const KernelGolden& g : actual) {
      std::fprintf(stderr, "    {%" PRId64 ", 0x%016" PRIx64 "ULL},\n",
                   g.rows, g.checksum);
    }
    std::fprintf(stderr, "};\n");
  }
}

// One server's side of a serving join: 3,125 uniform rows over a 32M
// domain whose column `key_col` holds only multiples of 64, standing for
// the 500K join values that one of 64 servers receives.
Relation ServeFragment(Rng& rng, int key_col) {
  Relation rel = GenerateUniform(rng, 3125, 2, 32000000);
  std::vector<Value>& data = rel.Mutable();
  for (size_t i = key_col; i < data.size(); i += 2) data[i] &= ~Value{63};
  return rel;
}

TEST(LocalJoinGoldenTest, ServeFragmentPair) {
  Rng rng(101);
  const Relation r = ServeFragment(rng, 1);
  const Relation s = ServeFragment(rng, 0);
  std::vector<KernelGolden> actual = LocalJoinGoldens(r, s, {1}, {0});
  actual.push_back(EvalJoinGolden("Q(x,y,z) :- R(x,y), S(y,z)", {r, s}));
  const KernelGolden kServeFragmentPair[] = {
      {13, 0x04bef2ebfededc2cULL},
      {13, 0x8ac8147fa734172fULL},
      {3112, 0xae539416ae5e99ddULL},
      {3119, 0x02fbe48302bc7df6ULL},
      {13, 0x04bef2ebfededc2cULL},
  };
  ExpectKernelGoldens("ServeFragmentPair", actual, kServeFragmentPair);
}

TEST(LocalJoinGoldenTest, ZipfBuildSide) {
  Rng rng(103);
  const Relation probe = GenerateUniform(rng, 4000, 2, 5000);
  const Relation build =
      GenerateZipf(rng, 4000, 2, 5000, /*zipf_col=*/0, /*skew=*/1.2);
  std::vector<KernelGolden> actual = LocalJoinGoldens(probe, build, {1}, {0});
  actual.push_back(
      EvalJoinGolden("Q(x,y,z) :- R(x,y), S(y,z)", {probe, build}));
  const KernelGolden kZipfBuildSide[] = {
      {3160, 0x80d53b85dba6f1a2ULL},
      {617, 0x38eb597658e96bc6ULL},
      {3383, 0x6aca155c70b57895ULL},
      {775, 0xf696443c7cd8f63fULL},
      {3160, 0x80d53b85dba6f1a2ULL},
  };
  ExpectKernelGoldens("ZipfBuildSide", actual, kZipfBuildSide);
}

TEST(LocalJoinGoldenTest, TwoColumnKey) {
  Rng rng(107);
  const Relation left = GenerateUniform(rng, 3000, 3, 40);
  const Relation right = GenerateUniform(rng, 3000, 3, 40);
  std::vector<KernelGolden> actual =
      LocalJoinGoldens(left, right, {0, 1}, {1, 2});
  actual.push_back(EvalJoinGolden("Q(x,y,z,w) :- R(x,y,z), S(w,x,y)",
                                  {left, right}));
  const KernelGolden kTwoColumnKey[] = {
      {5563, 0xbd519c99c94eac4aULL},
      {2505, 0xd762c158a8ee3d0aULL},
      {495, 0x476eeee81958d4c4ULL},
      {1336, 0xa7dd51d473adb2dbULL},
      {5563, 0xbd519c99c94eac4aULL},
  };
  ExpectKernelGoldens("TwoColumnKey", actual, kTwoColumnKey);
}

// A row-span probe side and a scrambled selection build side (every third
// row, descending), so view row indices differ from relation rows.
TEST(LocalJoinGoldenTest, SelectionView) {
  Rng rng(109);
  const Relation left = GenerateUniform(rng, 5000, 2, 2000);
  const Relation right = GenerateUniform(rng, 6000, 2, 2000);
  std::vector<int64_t> selection;
  for (int64_t i = right.size() - 1; i >= 0; i -= 3) selection.push_back(i);
  const KernelGolden kSelectionView[] = {
      {3399, 0x4f93f414c3fd4c95ULL},
      {2201, 0x29ffc73602feab2fULL},
      {1299, 0xa673b28b97580198ULL},
      {1275, 0x7210dd9bdfec20ffULL},
  };
  ExpectKernelGoldens("SelectionView",
                      LocalJoinGoldens(RelationView(left, 1000, 4500),
                                       RelationView(right, selection), {1},
                                       {0}),
                      kSelectionView);
}

// Above the partitioned-build threshold; the index golden holds for every
// pool size.
TEST(LocalJoinGoldenTest, PartitionedBuild) {
  Rng rng(113);
  const Relation left = GenerateUniform(rng, 20000, 2, 10000);
  const Relation right = GenerateUniform(rng, 20000, 2, 10000);
  std::vector<KernelGolden> actual = LocalJoinGoldens(left, right, {1}, {0});
  actual.push_back(
      EvalJoinGolden("Q(x,y,z) :- R(x,y), S(y,z)", {left, right}));
  for (const int threads : {1, 8}) {
    ThreadPool pool(threads);
    actual.push_back(FoldIndex(KeyIndex(right, {0}, &pool), right));
  }
  const KernelGolden kPartitionedBuild[] = {
      {40084, 0x5d731635bff4fc3eULL},
      {17362, 0x29efc69dc9c88047ULL},
      {2638, 0x9fb393e259242631ULL},
      {8671, 0xf56dab380806bc54ULL},
      {40084, 0x5d731635bff4fc3eULL},
      {8671, 0xf56dab380806bc54ULL},
      {8671, 0xf56dab380806bc54ULL},
  };
  ExpectKernelGoldens("PartitionedBuild", actual, kPartitionedBuild);
}

// ---- Parallel sort kernel. ----

std::vector<uint64_t> MakePattern(const std::string& kind, int64_t n) {
  std::vector<uint64_t> v(static_cast<size_t>(n));
  Rng rng(23);
  for (int64_t i = 0; i < n; ++i) {
    if (kind == "duplicate_heavy") {
      v[i] = rng.Uniform(8);  // ~n/8 copies of each value.
    } else if (kind == "presorted") {
      v[i] = static_cast<uint64_t>(i);
    } else if (kind == "reverse") {
      v[i] = static_cast<uint64_t>(n - i);
    } else {
      v[i] = rng.Uniform(1u << 30);
    }
  }
  return v;
}

TEST(ParallelSortTest, MatchesStdSortOnAdversarialPatterns) {
  // Above kParallelSortMinItems so pools > 1 take the chunk+merge path.
  const int64_t n = kParallelSortMinItems * 3 + 1;
  for (const std::string kind :
       {"duplicate_heavy", "presorted", "reverse", "random"}) {
    std::vector<uint64_t> want = MakePattern(kind, n);
    std::sort(want.begin(), want.end());
    for (const int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      std::vector<uint64_t> got = MakePattern(kind, n);
      ParallelSort(&pool, got, std::less<uint64_t>());
      EXPECT_EQ(got, want) << kind << " threads=" << threads;
    }
  }
}

TEST(ParallelSortTest, SmallInputsAndEdgeSizes) {
  for (const int64_t n : {0, 1, 2, 3, 17}) {
    for (const int threads : {1, 8}) {
      ThreadPool pool(threads);
      std::vector<uint64_t> got = MakePattern("random", n);
      std::vector<uint64_t> want = got;
      std::sort(want.begin(), want.end());
      ParallelSort(&pool, got, std::less<uint64_t>());
      EXPECT_EQ(got, want) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(SortRowsBufferTest, RowSortBitIdenticalAcrossThreadCounts) {
  Rng rng(29);
  // Duplicate-heavy keys: ties are broken by the remaining columns, so the
  // sorted bytes must not depend on chunk layout or thread count.
  const Relation input = GenerateUniform(rng, 50000, 3, 40);

  Relation serial = input;
  serial.SortRowsBy({1});  // No pool: the historic serial path.
  for (int64_t i = 1; i < serial.size(); ++i) {
    EXPECT_LE(serial.at(i - 1, 1), serial.at(i, 1));
  }

  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    Relation parallel = input;
    parallel.SortRowsBy({1}, &pool);
    EXPECT_TRUE(parallel == serial) << "threads=" << threads;
  }
}

TEST(SortRowsBufferTest, FullRowSortMatchesSerial) {
  Rng rng(31);
  const Relation input = GenerateUniform(rng, 40000, 2, 100);
  Relation serial = input;
  serial.SortRows();
  ThreadPool pool(8);
  Relation parallel = input;
  parallel.SortRows(&pool);
  EXPECT_TRUE(parallel == serial);
}

// ---- FlatCounter. ----

TEST(FlatCounterTest, MatchesMapSemantics) {
  Rng rng(37);
  FlatCounter counter;  // Default capacity: forces several growths.
  std::map<uint64_t, int64_t> want;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.Uniform(3000);
    counter.Add(key);
    ++want[key];
  }
  counter.Add(7777777, 5);  // Explicit delta.
  want[7777777] += 5;

  EXPECT_EQ(counter.num_keys(), static_cast<int64_t>(want.size()));
  EXPECT_EQ(counter.Get(999999999), 0);  // Never added.
  std::vector<std::pair<uint64_t, int64_t>> want_entries(want.begin(),
                                                         want.end());
  EXPECT_EQ(counter.SortedEntries(), want_entries);
  for (const auto& [key, count] : want_entries) {
    EXPECT_EQ(counter.Get(key), count);
  }
}

TEST(FlatCounterTest, PresizedAndEmpty) {
  const FlatCounter empty;
  EXPECT_EQ(empty.num_keys(), 0);
  EXPECT_TRUE(empty.SortedEntries().empty());

  FlatCounter presized(1000);
  for (uint64_t k = 0; k < 1000; ++k) presized.Add(k, static_cast<int64_t>(k));
  EXPECT_EQ(presized.num_keys(), 1000);
  EXPECT_EQ(presized.Get(0), 0);  // Inserted with count 0.
  EXPECT_EQ(presized.Get(999), 999);
}

}  // namespace
}  // namespace mpcqp
