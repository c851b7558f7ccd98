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

// The sort-merge and nested-loop kernels keep HashJoinLocal's contract on
// composite keys: rows match only when every key column agrees, and the
// non-key right columns follow the left row in their original order.
TEST(JoinTest, SortMergeAndNestedLoopHonorMultiColumnKeys) {
  Rng rng(12);
  const Relation left = GenerateUniform(rng, 150, 3, 5);
  const Relation right = GenerateUniform(rng, 120, 4, 5);
  const Relation reference = HashJoinLocal(left, right, {2, 0}, {1, 3});
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(reference.arity(), 5);
  EXPECT_TRUE(MultisetEqual(SortMergeJoinLocal(left, right, {2, 0}, {1, 3}),
                            reference));
  EXPECT_TRUE(MultisetEqual(NestedLoopJoinLocal(left, right, {2, 0}, {1, 3}),
                            reference));
  // The hand-checked case of MultiColumnKeys, through both kernels.
  const Relation l = Relation::FromRows({{1, 2, 3}, {1, 9, 4}});
  const Relation r = Relation::FromRows({{1, 2, 7}, {9, 1, 8}});
  for (const Relation& out : {SortMergeJoinLocal(l, r, {0, 1}, {0, 1}),
                              NestedLoopJoinLocal(l, r, {0, 1}, {0, 1})}) {
    EXPECT_EQ(out, Relation::FromRows({{1, 2, 3, 7}}));
  }
}

// With no key columns every kernel degenerates to the cross product, and
// an empty side empties the output but keeps the output arity.
TEST(JoinTest, EveryKernelTreatsEmptyKeyAsCrossProduct) {
  const Relation left = Relation::FromRows({{1}, {2}});
  const Relation right = Relation::FromRows({{10}, {20}, {30}});
  const Relation reference = Relation::FromRows(
      {{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}});
  EXPECT_TRUE(MultisetEqual(HashJoinLocal(left, right, {}, {}), reference));
  EXPECT_TRUE(
      MultisetEqual(SortMergeJoinLocal(left, right, {}, {}), reference));
  EXPECT_TRUE(
      MultisetEqual(NestedLoopJoinLocal(left, right, {}, {}), reference));
  const Relation none(1);
  for (const Relation& out : {SortMergeJoinLocal(left, none, {}, {}),
                              NestedLoopJoinLocal(none, right, {}, {})}) {
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(out.arity(), 2);
  }
}

// The kernels take views: a row span and an out-of-order selection must
// join exactly like the rows they select, materialized.
TEST(JoinTest, KernelsJoinViewsLikeMaterializedRows) {
  Rng rng(13);
  const Relation left = GenerateUniform(rng, 200, 2, 20);
  const Relation right = GenerateUniform(rng, 90, 2, 20);
  std::vector<int64_t> sel;
  for (int64_t r = right.size() - 1; r >= 0; r -= 3) sel.push_back(r);
  const RelationView left_span(left, 30, 170);
  const RelationView right_sel(right, sel);
  const Relation reference = NestedLoopJoinLocal(
      left_span.ToRelation(), right_sel.ToRelation(), {1}, {0});
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(MultisetEqual(HashJoinLocal(left_span, right_sel, {1}, {0}),
                            reference));
  EXPECT_TRUE(MultisetEqual(
      SortMergeJoinLocal(left_span, right_sel, {1}, {0}), reference));
  EXPECT_TRUE(MultisetEqual(
      NestedLoopJoinLocal(left_span, right_sel, {1}, {0}), reference));
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

// The strided loop: every column of every arity from a nonzero begin,
// through the raw row-major overload and whole-relation and row-span
// views, against a longhand loop.
TEST(ColumnarTest, GatherKeyColumnStridedMatchesReference) {
  Rng rng(10);
  for (const int arity : {1, 2, 3, 8}) {
    const Relation wide = GenerateUniform(rng, 37, arity, 1000);
    for (int col = 0; col < arity; ++col) {
      for (const int64_t begin : {int64_t{0}, int64_t{1}, int64_t{5}}) {
        std::vector<Value> got(static_cast<size_t>(wide.size() - begin),
                               ~Value{0});
        GatherKeyColumn(wide.data().data(), arity, col, begin, wide.size(),
                        got.data());
        for (int64_t r = begin; r < wide.size(); ++r) {
          ASSERT_EQ(got[static_cast<size_t>(r - begin)], wide.at(r, col))
              << "arity " << arity << " col " << col << " begin " << begin
              << " row " << r;
        }
      }
    }
    for (const RelationView& v :
         {RelationView(wide), RelationView(wide, 4, wide.size())}) {
      for (int col = 0; col < arity; ++col) {
        for (const int64_t begin : {int64_t{0}, int64_t{1}, int64_t{5}}) {
          const int64_t end = v.size();
          std::vector<Value> got(static_cast<size_t>(end - begin), ~Value{0});
          GatherKeyColumn(v, col, begin, end, got.data());
          for (int64_t i = begin; i < end; ++i) {
            ASSERT_EQ(got[static_cast<size_t>(i - begin)], v.row(i)[col])
                << "arity " << arity << " col " << col << " begin " << begin
                << " row " << i;
          }
        }
      }
    }
  }
}

// The selection-indexed loop: out-of-order selection views over every
// arity, every column and several begins, plus an empty selection and a
// sub-range that ends before the view does.
TEST(ColumnarTest, GatherKeyColumnIndexedMatchesReference) {
  Rng rng(11);
  for (const int arity : {1, 2, 3, 8}) {
    const Relation wide = GenerateUniform(rng, 37, arity, 1000);
    std::vector<int64_t> rows;
    for (int64_t r = 0; r < wide.size(); ++r) {
      rows.push_back((r * 7 + 3) % wide.size());
    }
    const RelationView v(wide, rows);
    for (int col = 0; col < arity; ++col) {
      for (const int64_t begin : {int64_t{0}, int64_t{1}, int64_t{5}}) {
        for (const int64_t end : {v.size(), v.size() - 2}) {
          std::vector<Value> got(static_cast<size_t>(end - begin) + 1,
                                 ~Value{0});
          GatherKeyColumn(v, col, begin, end, got.data());
          for (int64_t i = begin; i < end; ++i) {
            ASSERT_EQ(got[static_cast<size_t>(i - begin)],
                      wide.at(rows[static_cast<size_t>(i)], col))
                << "arity " << arity << " col " << col << " begin " << begin
                << " end " << end << " row " << i;
          }
          EXPECT_EQ(got.back(), ~Value{0}) << "wrote past end";
        }
      }
    }
  }
  const Relation rel = Relation::FromRows({{1, 2}});
  const std::vector<int64_t> empty_sel;
  Value untouched = 42;
  GatherKeyColumn(RelationView(rel, empty_sel), 1, 0, 0, &untouched);
  EXPECT_EQ(untouched, 42u);
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
