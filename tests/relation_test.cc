#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "relation/columnar.h"
#include "relation/key_index.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// ---------- Relation basics ----------

TEST(RelationTest, AppendAndAccess) {
  Relation r(2);
  r.AppendRow({1, 2});
  r.AppendRow({3, 4});
  EXPECT_EQ(r.size(), 2);
  EXPECT_EQ(r.at(0, 0), 1u);
  EXPECT_EQ(r.at(1, 1), 4u);
}

TEST(RelationTest, FromRows) {
  const Relation r = Relation::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(r.arity(), 2);
  EXPECT_EQ(r.size(), 3);
  EXPECT_EQ(r.at(2, 1), 6u);
}

TEST(RelationTest, NullaryRelationCountsRows) {
  Relation r(0);
  EXPECT_TRUE(r.empty());
  r.AppendNullaryRow();
  r.AppendNullaryRow();
  EXPECT_EQ(r.size(), 2);
}

TEST(RelationTest, SortRowsLexicographic) {
  Relation r = Relation::FromRows({{2, 1}, {1, 9}, {1, 3}});
  r.SortRows();
  EXPECT_EQ(r.at(0, 0), 1u);
  EXPECT_EQ(r.at(0, 1), 3u);
  EXPECT_EQ(r.at(1, 1), 9u);
  EXPECT_EQ(r.at(2, 0), 2u);
}

TEST(RelationTest, SortRowsByKeyThenRest) {
  Relation r = Relation::FromRows({{5, 1}, {5, 0}, {2, 7}});
  r.SortRowsBy({0});
  EXPECT_EQ(r.at(0, 0), 2u);
  // Within key 5, the remaining column breaks ties deterministically.
  EXPECT_EQ(r.at(1, 1), 0u);
  EXPECT_EQ(r.at(2, 1), 1u);
}

TEST(RelationTest, EqualityIsExact) {
  const Relation a = Relation::FromRows({{1, 2}, {3, 4}});
  const Relation b = Relation::FromRows({{3, 4}, {1, 2}});
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(MultisetEqual(a, b));
}

// ---------- Unary operators ----------

TEST(OpsTest, ProjectReordersAndRepeats) {
  const Relation r = Relation::FromRows({{1, 2, 3}});
  const Relation p = Project(r, {2, 0, 2});
  EXPECT_EQ(p.arity(), 3);
  EXPECT_EQ(p.at(0, 0), 3u);
  EXPECT_EQ(p.at(0, 1), 1u);
  EXPECT_EQ(p.at(0, 2), 3u);
}

TEST(OpsTest, ProjectToNullary) {
  const Relation r = Relation::FromRows({{1}, {2}});
  const Relation p = Project(r, {});
  EXPECT_EQ(p.arity(), 0);
  EXPECT_EQ(p.size(), 2);
}

TEST(OpsTest, DedupRemovesDuplicates) {
  const Relation r = Relation::FromRows({{1, 2}, {1, 2}, {3, 4}, {1, 2}});
  const Relation d = Dedup(r);
  EXPECT_EQ(d.size(), 2);
}

TEST(OpsTest, FilterKeepsMatching) {
  const Relation r = Relation::FromRows({{1, 2}, {5, 2}, {7, 9}});
  const Relation f =
      Filter(r, [](const Value* row) { return row[1] == 2; });
  EXPECT_EQ(f.size(), 2);
}

TEST(OpsTest, UnionAllKeepsMultiplicity) {
  const Relation a = Relation::FromRows({{1, 1}});
  const Relation b = Relation::FromRows({{1, 1}, {2, 2}});
  const Relation u = UnionAll(a, b);
  EXPECT_EQ(u.size(), 3);
}

TEST(OpsTest, GroupBySum) {
  const Relation r =
      Relation::FromRows({{1, 10}, {1, 5}, {2, 7}, {1, 1}});
  const Relation g = GroupBySum(r, {0}, 1).value();
  ASSERT_EQ(g.size(), 2);
  EXPECT_EQ(g.at(0, 0), 1u);
  EXPECT_EQ(g.at(0, 1), 16u);
  EXPECT_EQ(g.at(1, 1), 7u);
}

TEST(OpsTest, GroupBySumOverflowIsAnError) {
  const Value max = ~Value{0};
  // Exactly the Value range is fine; one more is a typed error, not a wrap.
  const Relation fits = Relation::FromRows({{1, max - 2}, {1, 2}});
  EXPECT_EQ(GroupBySum(fits, {0}, 1).value().at(0, 1), max);
  const Relation wraps = Relation::FromRows({{1, max - 2}, {1, 2}, {1, 1}});
  const auto result = GroupBySum(wraps, {0}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(OpsTest, DegreeCount) {
  const Relation r = Relation::FromRows({{1, 7}, {2, 7}, {3, 9}});
  const Relation d = DegreeCount(r, 1);
  ASSERT_EQ(d.size(), 2);
  EXPECT_EQ(d.at(0, 0), 7u);
  EXPECT_EQ(d.at(0, 1), 2u);
  EXPECT_EQ(d.at(1, 0), 9u);
  EXPECT_EQ(d.at(1, 1), 1u);
}

// ---------- KeyIndex ----------

TEST(KeyIndexTest, LookupFindsAllMatches) {
  const Relation r = Relation::FromRows({{1, 5}, {2, 5}, {3, 6}});
  const KeyIndex index(r, {1});
  const Value key5 = 5;
  EXPECT_EQ(index.Lookup(&key5).size(), 2u);
  const Value key6 = 6;
  EXPECT_EQ(index.Lookup(&key6).size(), 1u);
  const Value key7 = 7;
  EXPECT_TRUE(index.Lookup(&key7).empty());
  EXPECT_EQ(index.num_distinct_keys(), 2);
}

TEST(KeyIndexTest, CompositeKeys) {
  const Relation r = Relation::FromRows({{1, 2, 9}, {1, 3, 9}, {1, 2, 8}});
  const KeyIndex index(r, {0, 1});
  const Value key[] = {1, 2};
  EXPECT_EQ(index.Lookup(key).size(), 2u);
}

TEST(KeyIndexTest, EmptyKeyMatchesEverything) {
  const Relation r = Relation::FromRows({{1}, {2}, {3}});
  const KeyIndex index(r, {});
  EXPECT_EQ(index.Lookup(nullptr).size(), 3u);
}

// ---------- Join family: the three implementations agree ----------

struct JoinCase {
  int64_t left_rows;
  int64_t right_rows;
  uint64_t domain;
};

class JoinAgreementTest
    : public ::testing::TestWithParam<std::tuple<JoinCase, uint64_t>> {};

TEST_P(JoinAgreementTest, HashSortMergeNestedLoopAgree) {
  const auto [spec, seed] = GetParam();
  Rng rng(seed);
  const Relation left = GenerateUniform(rng, spec.left_rows, 2, spec.domain);
  const Relation right = GenerateUniform(rng, spec.right_rows, 2, spec.domain);

  const Relation reference =
      NestedLoopJoinLocal(left, right, {1}, {0});
  EXPECT_TRUE(MultisetEqual(HashJoinLocal(left, right, {1}, {0}), reference));
  EXPECT_TRUE(
      MultisetEqual(SortMergeJoinLocal(left, right, {1}, {0}), reference));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinAgreementTest,
    ::testing::Combine(::testing::Values(JoinCase{50, 50, 10},
                                         JoinCase{100, 20, 5},
                                         JoinCase{30, 30, 100},
                                         JoinCase{1, 50, 3},
                                         JoinCase{64, 64, 1}),
                       ::testing::Values(1u, 2u, 3u)));

TEST(JoinTest, OutputColumnContract) {
  // R(a, b) join S(b, c) on b: output (a, b, c).
  const Relation left = Relation::FromRows({{1, 7}});
  const Relation right = Relation::FromRows({{7, 9}});
  const Relation out = HashJoinLocal(left, right, {1}, {0});
  ASSERT_EQ(out.arity(), 3);
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(out.at(0, 0), 1u);
  EXPECT_EQ(out.at(0, 1), 7u);
  EXPECT_EQ(out.at(0, 2), 9u);
}

TEST(JoinTest, EmptyKeyIsCrossProduct) {
  const Relation left = Relation::FromRows({{1}, {2}});
  const Relation right = Relation::FromRows({{10}, {20}, {30}});
  const Relation out = HashJoinLocal(left, right, {}, {});
  EXPECT_EQ(out.size(), 6);
  EXPECT_EQ(out.arity(), 2);
}

TEST(JoinTest, EmptyInputsYieldEmptyOutput) {
  const Relation left(2);
  const Relation right = Relation::FromRows({{1, 2}});
  EXPECT_TRUE(HashJoinLocal(left, right, {0}, {0}).empty());
  EXPECT_TRUE(SortMergeJoinLocal(right, left, {0}, {0}).empty());
}

TEST(JoinTest, DuplicatesMultiply) {
  const Relation left = Relation::FromRows({{1, 5}, {2, 5}});
  const Relation right = Relation::FromRows({{5, 8}, {5, 9}, {5, 8}});
  // 2 left x 3 right = 6.
  EXPECT_EQ(HashJoinLocal(left, right, {1}, {0}).size(), 6);
}

TEST(JoinTest, MultiColumnKeys) {
  const Relation left = Relation::FromRows({{1, 2, 3}, {1, 9, 4}});
  const Relation right = Relation::FromRows({{1, 2, 7}, {9, 1, 8}});
  const Relation out = HashJoinLocal(left, right, {0, 1}, {0, 1});
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(out.at(0, 2), 3u);
  EXPECT_EQ(out.at(0, 3), 7u);
}

// ---------- Semijoin / antijoin ----------

TEST(SemijoinTest, PartitionsLeft) {
  const Relation left = Relation::FromRows({{1, 5}, {2, 6}, {3, 5}});
  const Relation right = Relation::FromRows({{5, 0}});
  const Relation semi = SemijoinLocal(left, right, {1}, {0});
  const Relation anti = AntijoinLocal(left, right, {1}, {0});
  EXPECT_EQ(semi.size(), 2);
  EXPECT_EQ(anti.size(), 1);
  EXPECT_EQ(anti.at(0, 0), 2u);
  EXPECT_TRUE(MultisetEqual(UnionAll(semi, anti), left));
}

TEST(SemijoinTest, SemijoinKeepsMultiplicity) {
  const Relation left = Relation::FromRows({{1, 5}, {1, 5}});
  const Relation right = Relation::FromRows({{5, 0}, {5, 1}});
  // Semijoin is a filter: 2 rows stay 2 rows.
  EXPECT_EQ(SemijoinLocal(left, right, {1}, {0}).size(), 2);
}

TEST(SemijoinTest, AntijoinAgainstEmptyRightKeepsAll) {
  const Relation left = Relation::FromRows({{1, 5}});
  const Relation right(2);
  EXPECT_EQ(AntijoinLocal(left, right, {1}, {0}).size(), 1);
  EXPECT_TRUE(SemijoinLocal(left, right, {1}, {0}).empty());
}

// ---------- Columnar layout ----------

TEST(ColumnarTest, RoundTripsRowMajor) {
  Rng rng(7);
  const Relation rel = GenerateUniform(rng, 100, 5, 1000);
  const ColumnarRelation col = ColumnarRelation::FromRowMajor(rel);
  ASSERT_EQ(col.arity(), 5);
  ASSERT_EQ(col.size(), 100);
  for (int64_t r = 0; r < rel.size(); ++r) {
    for (int c = 0; c < rel.arity(); ++c) {
      EXPECT_EQ(col.at(r, c), rel.at(r, c));
      EXPECT_EQ(col.column(c)[r], rel.at(r, c));
    }
  }
  EXPECT_EQ(col.ToRowMajor(), rel);
}

TEST(ColumnarTest, ParallelTransposeMatchesSerial) {
  Rng rng(8);
  const Relation rel = GenerateUniform(rng, 500, 4, 1000);
  ThreadPool pool(4);
  // Every (pool, morsel) combination writes the same bytes, including
  // morsels that do not divide the row count and single-row morsels.
  for (const int64_t morsel : {1, 7, 64, 100000}) {
    const ColumnarRelation col =
        ColumnarRelation::FromRowMajor(rel, &pool, morsel);
    EXPECT_EQ(col, ColumnarRelation::FromRowMajor(rel));
    EXPECT_EQ(col.ToRowMajor(&pool, morsel), rel);
  }
}

TEST(ColumnarTest, EmptyAndNullaryRoundTrip) {
  const Relation empty(3);
  EXPECT_EQ(ColumnarRelation::FromRowMajor(empty).ToRowMajor(), empty);
  Relation nullary(0);
  nullary.AppendNullaryRow();
  nullary.AppendNullaryRow();
  const ColumnarRelation col = ColumnarRelation::FromRowMajor(nullary);
  EXPECT_EQ(col.size(), 2);
  EXPECT_EQ(col.ToRowMajor(), nullary);
}

TEST(ColumnarTest, CopiesShareUntilMutableDetaches) {
  const Relation rel = Relation::FromRows({{1, 2}, {3, 4}});
  const ColumnarRelation a = ColumnarRelation::FromRowMajor(rel);
  ColumnarRelation b = a;
  EXPECT_TRUE(a.SharesPayloadWith(b));
  b.Mutable()[0] = 99;  // Column 0, row 0.
  EXPECT_FALSE(a.SharesPayloadWith(b));
  EXPECT_EQ(a.at(0, 0), 1u);
  EXPECT_EQ(b.at(0, 0), 99u);
}

TEST(ColumnarTest, GatherKeyColumnHonorsSelection) {
  const Relation rel =
      Relation::FromRows({{10, 0}, {11, 1}, {12, 2}, {13, 3}, {14, 4}});
  const std::vector<int64_t> sel = {4, 0, 2};
  const RelationView view(rel, sel);
  std::vector<Value> out(3);
  GatherKeyColumn(view, 0, 0, 3, out.data());
  EXPECT_EQ(out, (std::vector<Value>{14, 10, 12}));
  // Sub-range gathers offset into the selection, not the base rows.
  GatherKeyColumn(view, 0, 1, 3, out.data());
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 12u);
}

// The input-derived compaction rule: compact only when the row is at
// least kColumnarScanArityFactor times wider than the columns read (a
// zero-column read counts as one), and never when the read covers the row.
TEST(ColumnarTest, UseColumnarScanFollowsArityRule) {
  EXPECT_FALSE(UseColumnarScan(1, 1));
  EXPECT_FALSE(UseColumnarScan(2, 1));
  EXPECT_TRUE(UseColumnarScan(3, 1));
  EXPECT_FALSE(UseColumnarScan(2, 0));
  EXPECT_TRUE(UseColumnarScan(3, 0));
  EXPECT_FALSE(UseColumnarScan(5, 2));
  EXPECT_TRUE(UseColumnarScan(6, 2));
  EXPECT_FALSE(UseColumnarScan(6, 6));
  for (int arity = 1; arity <= 16; ++arity) {
    for (int read = 0; read <= arity; ++read) {
      const bool expected =
          read < arity &&
          arity >= kColumnarScanArityFactor * std::max(read, 1);
      EXPECT_EQ(UseColumnarScan(arity, read), expected)
          << "arity " << arity << " read " << read;
    }
  }
}

// Both row-view kernels — the stride loop on narrow rows and the gather
// plus SIMD predicate on wide rows — and the ColumnarRelation overload
// must return the serial predicate's match list for every pool and morsel.
TEST(ColumnarTest, SelectRangeAgreesAcrossLayouts) {
  Rng rng(9);
  ThreadPool pool(4);
  for (const int arity : {2, 6}) {
    const Relation rel = GenerateUniform(rng, 3000, arity, 100);
    const int col = 1;
    const Value lo = 10, hi = 60;
    std::vector<int64_t> expected;
    for (int64_t r = 0; r < rel.size(); ++r) {
      if (rel.at(r, col) >= lo && rel.at(r, col) <= hi) expected.push_back(r);
    }
    ASSERT_FALSE(expected.empty());
    // Arity 2 takes the stride loop, arity 6 the gather.
    EXPECT_EQ(UseColumnarScan(arity, 1), arity == 6);
    EXPECT_EQ(SelectRange(rel, col, lo, hi), expected) << "arity " << arity;
    for (const int64_t morsel : {1, 64, 100000}) {
      EXPECT_EQ(SelectRange(rel, col, lo, hi, &pool, morsel), expected)
          << "arity " << arity << " morsel " << morsel;
    }
    const ColumnarRelation columnar = ColumnarRelation::FromRowMajor(rel);
    EXPECT_EQ(SelectRange(columnar, col, lo, hi), expected);
    EXPECT_EQ(SelectRange(columnar, col, lo, hi, &pool, 64), expected);
  }
}

TEST(ColumnarTest, SelectRangeOverSelectionViews) {
  const Relation rel =
      Relation::FromRows({{5, 0}, {50, 1}, {15, 2}, {99, 3}, {20, 4}});
  const std::vector<int64_t> sel = {3, 2, 0, 4};
  const RelationView view(rel, sel);
  // Indices are view positions, ascending: view rows 1 (=15) and 3 (=20).
  const std::vector<int64_t> hits = SelectRange(view, 0, 10, 40);
  EXPECT_EQ(hits, (std::vector<int64_t>{1, 3}));
  // Empty selection: no rows, no matches.
  const std::vector<int64_t> empty_sel;
  const Relation nonempty = Relation::FromRows({{1, 2}});
  const RelationView empty_view(nonempty, empty_sel);
  EXPECT_TRUE(SelectRange(empty_view, 0, 0, ~Value{0}).empty());
  // Single-row fragment.
  const RelationView single(rel, 2, 3);
  EXPECT_EQ(SelectRange(single, 0, 10, 40),
            (std::vector<int64_t>{0}));
}

TEST(ColumnarTest, SemijoinColumnarProbeSurvivesForcedCollisions) {
  // A constant test hash forces every distinct key into one directory
  // chain; batched HashKeys + LookupWithHash must still verify exact keys.
  Rng rng(11);
  const Relation left = GenerateUniform(rng, 400, 2, 40);
  const Relation right = GenerateUniform(rng, 50, 2, 40);
  const KeyIndex normal(right, {0});
  const KeyIndex colliding(
      right, {0}, [](const Value*, int) -> uint64_t { return 42; });
  for (Value k = 0; k < 40; ++k) {
    const std::span<const int64_t> a = normal.Lookup(&k);
    const std::span<const int64_t> b = colliding.Lookup(&k);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    uint64_t h = 0;
    colliding.HashKeys(&k, 1, &h);
    EXPECT_EQ(h, 42u);
    const std::span<const int64_t> c = colliding.LookupWithHash(h, &k);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
  }
  // End-to-end: the probe loop in Semijoin matches the reference filter.
  const Relation semi = SemijoinLocal(left, right, {0}, {0});
  const KeyIndex ref_index(right, {0});
  Relation expected(2);
  for (int64_t i = 0; i < left.size(); ++i) {
    if (ref_index.Contains(left.row(i))) expected.AppendRow(left.row(i));
  }
  EXPECT_EQ(semi, expected);
}

TEST(ColumnarTest, KeyIndexBuildMatchesAcrossThreadCounts) {
  Rng rng(13);
  const Relation rel = GenerateUniform(rng, 2000, 8, 100);
  const KeyIndex serial(rel, {3});
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    const KeyIndex parallel(rel, {3}, &pool);
    for (Value k = 0; k < 100; ++k) {
      const std::span<const int64_t> a = serial.Lookup(&k);
      const std::span<const int64_t> b = parallel.Lookup(&k);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

}  // namespace
}  // namespace mpcqp
