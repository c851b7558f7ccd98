// Byte-exact tests of the pre-sized local join writers and Project. Each
// join kernel counts its output first and then writes every row once into
// a buffer sized in advance; these tests hold each kernel to a per-row
// reference kept here (one AppendRow per match) with Relation's
// operator==: same arity, same bytes, same row order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "relation/relation_view.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<int> NonKeyCols(int arity, const std::vector<int>& keys) {
  std::vector<int> cols;
  for (int c = 0; c < arity; ++c) {
    if (std::find(keys.begin(), keys.end(), c) == keys.end()) {
      cols.push_back(c);
    }
  }
  return cols;
}

// The per-row reference: for each left row in `lorder`, each right row in
// `rorder` whose keys agree, append the left row and then the right row's
// non-key columns.
Relation PerRowJoin(RelationView left, const std::vector<int64_t>& lorder,
                    RelationView right, const std::vector<int64_t>& rorder,
                    const std::vector<int>& left_keys,
                    const std::vector<int>& right_keys) {
  const std::vector<int> right_out = NonKeyCols(right.arity(), right_keys);
  Relation out(left.arity() + static_cast<int>(right_out.size()));
  std::vector<Value> row;
  for (int64_t i : lorder) {
    for (int64_t j : rorder) {
      bool match = true;
      for (size_t k = 0; k < left_keys.size(); ++k) {
        if (left.at(i, left_keys[k]) != right.at(j, right_keys[k])) {
          match = false;
        }
      }
      if (!match) continue;
      row.assign(left.row(i), left.row(i) + left.arity());
      for (int c : right_out) row.push_back(right.at(j, c));
      out.AppendRow(row);
    }
  }
  return out;
}

std::vector<int64_t> InputOrder(RelationView view) {
  std::vector<int64_t> order(static_cast<size_t>(view.size()));
  std::iota(order.begin(), order.end(), 0);
  return order;
}

// Rows by key columns, then all columns: the order the sort-merge kernel
// walks. Rows that tie are byte-identical, so any tie order gives the
// same bytes.
std::vector<int64_t> KeyOrder(RelationView view,
                              const std::vector<int>& keys) {
  std::vector<int64_t> order = InputOrder(view);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Value* ra = view.row(a);
    const Value* rb = view.row(b);
    for (int c : keys) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return std::lexicographical_compare(ra, ra + view.arity(), rb,
                                        rb + view.arity());
  });
  return order;
}

// Hash and nested-loop joins emit left rows in input order and each left
// row's matches in ascending right order; sort-merge emits both sides in
// key order.
void ExpectKernelsMatchPerRow(RelationView left, RelationView right,
                              const std::vector<int>& left_keys,
                              const std::vector<int>& right_keys) {
  const Relation in_order = PerRowJoin(left, InputOrder(left), right,
                                       InputOrder(right), left_keys,
                                       right_keys);
  EXPECT_EQ(HashJoinLocal(left, right, left_keys, right_keys), in_order);
  EXPECT_EQ(NestedLoopJoinLocal(left, right, left_keys, right_keys),
            in_order);
  const Relation key_order =
      PerRowJoin(left, KeyOrder(left, left_keys), right,
                 KeyOrder(right, right_keys), left_keys, right_keys);
  EXPECT_EQ(SortMergeJoinLocal(left, right, left_keys, right_keys),
            key_order);
}

// Uniform rows over a small domain (many duplicate keys), shifted by
// `base` so every value can sit at or above 2^63.
Relation Shifted(Rng& rng, int64_t rows, int arity, uint64_t domain,
                 Value base) {
  const Relation r = GenerateUniform(rng, rows, arity, domain);
  std::vector<Value> data = r.data();
  for (Value& v : data) v += base;
  return Relation(arity, std::move(data));
}

TEST(JoinKernelBytesTest, DuplicateKeysOnBothSides) {
  Rng rng(41);
  const Relation left = Shifted(rng, 120, 2, 6, 0);
  const Relation right = Shifted(rng, 90, 2, 6, 0);
  ASSERT_GT(HashJoinLocal(left, right, {1}, {0}).size(), left.size());
  ExpectKernelsMatchPerRow(left, right, {1}, {0});
}

TEST(JoinKernelBytesTest, CompositeKeys) {
  Rng rng(42);
  const Relation left = Shifted(rng, 150, 3, 4, 0);
  const Relation right = Shifted(rng, 110, 4, 4, 0);
  ASSERT_FALSE(HashJoinLocal(left, right, {2, 0}, {1, 3}).empty());
  ExpectKernelsMatchPerRow(left, right, {2, 0}, {1, 3});
}

TEST(JoinKernelBytesTest, SelectionAndSpanViews) {
  Rng rng(43);
  const Relation left = Shifted(rng, 200, 3, 10, 0);
  const Relation right = Shifted(rng, 100, 2, 10, 0);
  std::vector<int64_t> left_sel;
  for (int64_t r = left.size() - 1; r >= 0; r -= 2) left_sel.push_back(r);
  std::vector<int64_t> right_sel;
  for (int64_t r = 0; r < right.size(); r += 3) right_sel.push_back(r);
  right_sel.push_back(5);  // A repeated row: selections may repeat.
  const RelationView left_view(left, left_sel);
  const RelationView right_view(right, right_sel);
  ExpectKernelsMatchPerRow(left_view, right_view, {1}, {0});
  ExpectKernelsMatchPerRow(RelationView(left, 20, 150), right_view, {2},
                           {1});
  ExpectKernelsMatchPerRow(left_view, RelationView(right, 10, 60), {0, 1},
                           {1, 0});
}

TEST(JoinKernelBytesTest, RightSideWithoutNonKeyColumns) {
  Rng rng(44);
  const Relation left = Shifted(rng, 80, 3, 5, 0);
  const Relation right_one = Shifted(rng, 30, 1, 5, 0);
  const Relation right_two = Shifted(rng, 40, 2, 5, 0);
  ExpectKernelsMatchPerRow(left, right_one, {2}, {0});
  ExpectKernelsMatchPerRow(left, right_two, {0, 1}, {1, 0});
  EXPECT_EQ(HashJoinLocal(left, right_one, {2}, {0}).arity(), 3);
}

TEST(JoinKernelBytesTest, EmptyAndOneSidedInputs) {
  Rng rng(45);
  const Relation full = Shifted(rng, 50, 2, 5, 0);
  const Relation empty(2);
  const Relation disjoint = Shifted(rng, 20, 2, 5, 100);
  ExpectKernelsMatchPerRow(full, empty, {0}, {1});
  ExpectKernelsMatchPerRow(empty, full, {0}, {1});
  ExpectKernelsMatchPerRow(empty, empty, {0}, {1});
  ExpectKernelsMatchPerRow(full, disjoint, {1}, {0});
  // An empty selection and an empty span are empty inputs too.
  const std::vector<int64_t> none;
  ExpectKernelsMatchPerRow(RelationView(full, none), full, {0}, {1});
  ExpectKernelsMatchPerRow(full, RelationView(full, 7, 7), {0}, {1});
  // No keys: the cross product, in the same row orders.
  ExpectKernelsMatchPerRow(RelationView(full, 0, 6), RelationView(full, 3, 8),
                           {}, {});
  for (const Relation& out : {HashJoinLocal(full, empty, {0}, {1}),
                              SortMergeJoinLocal(empty, full, {0}, {1}),
                              NestedLoopJoinLocal(full, empty, {0}, {1})}) {
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(out.arity(), 3);
  }
}

TEST(JoinKernelBytesTest, ValuesAtAndAbove2To63) {
  Rng rng(46);
  const Value high = Value{1} << 63;
  const Relation left = Shifted(rng, 100, 2, 7, high);
  const Relation right = Shifted(rng, 80, 3, 7, high);
  ExpectKernelsMatchPerRow(left, right, {1}, {0});
  ExpectKernelsMatchPerRow(left, right, {0, 1}, {2, 0});
  const Relation top = Relation::FromRows(
      {{UINT64_MAX, high}, {high, UINT64_MAX}, {UINT64_MAX, UINT64_MAX}});
  ExpectKernelsMatchPerRow(top, top, {0}, {1});
  const Relation out = HashJoinLocal(top, top, {0}, {1});
  EXPECT_EQ(out, Relation::FromRows({{UINT64_MAX, high, high},
                                     {UINT64_MAX, high, UINT64_MAX},
                                     {high, UINT64_MAX, UINT64_MAX},
                                     {UINT64_MAX, UINT64_MAX, high},
                                     {UINT64_MAX, UINT64_MAX, UINT64_MAX}}));
}

// ---------- Project ----------

TEST(ProjectBytesTest, IdentitySharesThePayload) {
  const Relation r = Relation::FromRows({{1, 2, 3}, {4, 5, 6}});
  const Relation p = Project(r, {0, 1, 2});
  EXPECT_TRUE(p.SharesPayloadWith(r));
  EXPECT_EQ(p, r);
  // An identity over a span or selection copies exactly the viewed rows.
  const std::vector<int64_t> sel = {1, 1, 0};
  EXPECT_EQ(Project(RelationView(r, sel), {0, 1, 2}),
            Relation::FromRows({{4, 5, 6}, {4, 5, 6}, {1, 2, 3}}));
  EXPECT_EQ(Project(RelationView(r, 1, 2), {0, 1, 2}),
            Relation::FromRows({{4, 5, 6}}));
}

TEST(ProjectBytesTest, PermutedAndRepeatedColumns) {
  Rng rng(47);
  const Relation r = Shifted(rng, 64, 3, 1000, Value{1} << 63);
  for (const std::vector<int>& cols :
       {std::vector<int>{2, 0, 1}, std::vector<int>{1, 1, 0},
        std::vector<int>{2}, std::vector<int>{0, 2, 0, 2}}) {
    Relation expected(static_cast<int>(cols.size()));
    std::vector<Value> row;
    for (int64_t i = 0; i < r.size(); ++i) {
      row.clear();
      for (int c : cols) row.push_back(r.at(i, c));
      expected.AppendRow(row);
    }
    const Relation p = Project(r, cols);
    EXPECT_EQ(p, expected);
    EXPECT_FALSE(p.SharesPayloadWith(r));
  }
  // A selection view projects the rows it selects, repeats included.
  const std::vector<int64_t> sel = {5, 3, 5, 0};
  EXPECT_EQ(Project(RelationView(r, sel), {1, 0}),
            Project(RelationView(r, sel).ToRelation(), {1, 0}));
}

TEST(ProjectBytesTest, NullaryKeepsTheRowCount) {
  const Relation r = Relation::FromRows({{1, 2}, {3, 4}, {1, 2}});
  const Relation p = Project(r, {});
  EXPECT_EQ(p.arity(), 0);
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(Project(RelationView(r, 1, 3), {}).size(), 2);
  EXPECT_EQ(Project(Relation(2), {}).size(), 0);
}

}  // namespace
}  // namespace mpcqp
