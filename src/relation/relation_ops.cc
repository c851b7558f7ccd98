#include "relation/relation_ops.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/parallel_sort.h"
#include "common/trace.h"
#include "relation/columnar.h"
#include "relation/key_index.h"

namespace mpcqp {

namespace {

// Shared output-building for the join family: left row then non-key right
// columns.
std::vector<int> NonKeyRightCols(RelationView right,
                                 const std::vector<int>& right_keys) {
  std::vector<int> cols;
  for (int c = 0; c < right.arity(); ++c) {
    if (std::find(right_keys.begin(), right_keys.end(), c) ==
        right_keys.end()) {
      cols.push_back(c);
    }
  }
  return cols;
}

void CheckJoinArgs(RelationView left, RelationView right,
                   const std::vector<int>& left_keys,
                   const std::vector<int>& right_keys) {
  MPCQP_CHECK_EQ(left_keys.size(), right_keys.size());
  for (int c : left_keys) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, left.arity());
  }
  for (int c : right_keys) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, right.arity());
  }
}

void EmitJoinRow(RelationView left, int64_t lrow, RelationView right,
                 int64_t rrow, const std::vector<int>& right_out_cols,
                 std::vector<Value>& scratch, Relation& out) {
  scratch.clear();
  const Value* l = left.row(lrow);
  scratch.insert(scratch.end(), l, l + left.arity());
  const Value* r = right.row(rrow);
  for (int c : right_out_cols) scratch.push_back(r[c]);
  out.AppendRow(scratch.data());
}

// Row indices of `rel` sorted by `key_cols` then all columns — the
// comparator Relation::SortRowsBy uses, applied to a permutation instead
// of a materialized copy. Exact duplicates tie, which is harmless: they
// are byte-identical.
std::vector<int64_t> SortedOrder(RelationView rel,
                                 const std::vector<int>& key_cols,
                                 ThreadPool* pool = nullptr) {
  std::vector<int64_t> order(rel.size());
  std::iota(order.begin(), order.end(), 0);
  const int arity = rel.arity();
  ParallelSort(pool, order, [&](int64_t a, int64_t b) {
    const Value* ra = rel.row(a);
    const Value* rb = rel.row(b);
    for (int c : key_cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    for (int c = 0; c < arity; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });
  return order;
}

}  // namespace

Relation Project(RelationView rel, const std::vector<int>& cols) {
  for (int c : cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, rel.arity());
  }
  Relation out(static_cast<int>(cols.size()));
  if (cols.empty()) {
    for (int64_t i = 0; i < rel.size(); ++i) out.AppendNullaryRow();
    return out;
  }
  out.Reserve(rel.size());
  std::vector<Value> scratch(cols.size());
  for (int64_t i = 0; i < rel.size(); ++i) {
    const Value* row = rel.row(i);
    for (size_t j = 0; j < cols.size(); ++j) scratch[j] = row[cols[j]];
    out.AppendRow(scratch.data());
  }
  return out;
}

Relation Dedup(RelationView rel, ThreadPool* pool) {
  if (rel.arity() == 0) {
    Relation out(0);
    if (rel.size() > 0) out.AppendNullaryRow();
    return out;
  }
  const std::vector<int64_t> order = SortedOrder(rel, {}, pool);
  Relation out(rel.arity());
  out.Reserve(rel.size());
  const Value* prev = nullptr;
  for (int64_t i : order) {
    const Value* cur = rel.row(i);
    if (prev != nullptr && std::equal(cur, cur + rel.arity(), prev)) continue;
    out.AppendRow(cur);
    prev = cur;
  }
  return out;
}

Relation Filter(RelationView rel,
                const std::function<bool(const Value*)>& pred) {
  MPCQP_CHECK_GT(rel.arity(), 0);
  Relation out(rel.arity());
  for (int64_t i = 0; i < rel.size(); ++i) {
    const Value* row = rel.row(i);
    if (pred(row)) out.AppendRow(row);
  }
  return out;
}

Relation UnionAll(RelationView a, RelationView b) {
  MPCQP_CHECK_EQ(a.arity(), b.arity());
  Relation out = a.ToRelation();
  if (a.arity() == 0) {
    for (int64_t i = 0; i < b.size(); ++i) out.AppendNullaryRow();
    return out;
  }
  out.Reserve(a.size() + b.size());
  for (int64_t i = 0; i < b.size(); ++i) out.AppendRow(b.row(i));
  return out;
}

Relation HashJoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys) {
  CheckJoinArgs(left, right, left_keys, right_keys);
  const std::vector<int> right_out_cols = NonKeyRightCols(right, right_keys);
  Relation out(left.arity() + static_cast<int>(right_out_cols.size()));
  if (left.empty() || right.empty()) return out;

  // Build on the smaller side conceptually; for simplicity always build on
  // `right` (callers pass the smaller side right in hot paths).
  KeyIndex index(right, right_keys);
  MPCQP_TRACE_SCOPE_ARG("key_index probe", "compute", left.size());
  std::vector<Value> key(left_keys.size());
  std::vector<Value> scratch;
  for (int64_t i = 0; i < left.size(); ++i) {
    const Value* lrow = left.row(i);
    for (size_t k = 0; k < left_keys.size(); ++k) key[k] = lrow[left_keys[k]];
    for (int64_t rrow : index.Lookup(key.data())) {
      EmitJoinRow(left, i, right, rrow, right_out_cols, scratch, out);
    }
  }
  return out;
}

Relation SortMergeJoinLocal(RelationView left, RelationView right,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys) {
  CheckJoinArgs(left, right, left_keys, right_keys);
  const std::vector<int> right_out_cols = NonKeyRightCols(right, right_keys);
  Relation out(left.arity() + static_cast<int>(right_out_cols.size()));
  if (left.empty() || right.empty()) return out;

  // Sorted selection views: the merge walks permutations, not copies.
  const std::vector<int64_t> lorder = SortedOrder(left, left_keys);
  const std::vector<int64_t> rorder = SortedOrder(right, right_keys);

  auto compare_keys = [&](int64_t li, int64_t ri) {
    const Value* l = left.row(lorder[li]);
    const Value* r = right.row(rorder[ri]);
    for (size_t k = 0; k < left_keys.size(); ++k) {
      const Value lv = l[left_keys[k]];
      const Value rv = r[right_keys[k]];
      if (lv != rv) return lv < rv ? -1 : 1;
    }
    return 0;
  };
  auto same_left_key = [&](int64_t a, int64_t b) {
    const Value* ra = left.row(lorder[a]);
    const Value* rb = left.row(lorder[b]);
    for (int k : left_keys) {
      if (ra[k] != rb[k]) return false;
    }
    return true;
  };
  auto same_right_key = [&](int64_t a, int64_t b) {
    const Value* ra = right.row(rorder[a]);
    const Value* rb = right.row(rorder[b]);
    for (int k : right_keys) {
      if (ra[k] != rb[k]) return false;
    }
    return true;
  };

  std::vector<Value> scratch;
  int64_t li = 0;
  int64_t ri = 0;
  while (li < static_cast<int64_t>(lorder.size()) &&
         ri < static_cast<int64_t>(rorder.size())) {
    const int cmp = compare_keys(li, ri);
    if (cmp < 0) {
      ++li;
    } else if (cmp > 0) {
      ++ri;
    } else {
      // Find the run of equal keys on each side, emit the cross product.
      int64_t lend = li + 1;
      while (lend < static_cast<int64_t>(lorder.size()) &&
             same_left_key(lend, li)) {
        ++lend;
      }
      int64_t rend = ri + 1;
      while (rend < static_cast<int64_t>(rorder.size()) &&
             same_right_key(rend, ri)) {
        ++rend;
      }
      for (int64_t a = li; a < lend; ++a) {
        for (int64_t b = ri; b < rend; ++b) {
          EmitJoinRow(left, lorder[a], right, rorder[b], right_out_cols,
                      scratch, out);
        }
      }
      li = lend;
      ri = rend;
    }
  }
  return out;
}

Relation NestedLoopJoinLocal(RelationView left, RelationView right,
                             const std::vector<int>& left_keys,
                             const std::vector<int>& right_keys) {
  CheckJoinArgs(left, right, left_keys, right_keys);
  const std::vector<int> right_out_cols = NonKeyRightCols(right, right_keys);
  Relation out(left.arity() + static_cast<int>(right_out_cols.size()));
  std::vector<Value> scratch;
  for (int64_t i = 0; i < left.size(); ++i) {
    for (int64_t j = 0; j < right.size(); ++j) {
      bool match = true;
      for (size_t k = 0; k < left_keys.size(); ++k) {
        if (left.at(i, left_keys[k]) != right.at(j, right_keys[k])) {
          match = false;
          break;
        }
      }
      if (match) EmitJoinRow(left, i, right, j, right_out_cols, scratch, out);
    }
  }
  return out;
}

namespace {

// Shared probe loop of the (anti)semijoin pair: appends every left row
// whose membership in the index equals `want_match`, in ascending row
// order. Single-column keys run the columnar probe: per block, gather the
// key column (shared kernel), hash it in one vectorized HashKeys pass,
// then walk the directory per key — identical hits and output order to
// the per-row path, only the memory access pattern differs.
Relation FilterByIndex(RelationView left, const std::vector<int>& left_keys,
                       const KeyIndex& index, bool want_match) {
  Relation out(left.arity());
  MPCQP_TRACE_SCOPE_ARG("key_index probe", "compute", left.size());
  if (left_keys.size() == 1) {
    constexpr int64_t kBlockRows = 8192;
    std::vector<Value> keys(static_cast<size_t>(
        std::min<int64_t>(kBlockRows, left.size())));
    std::vector<uint64_t> hashes(keys.size());
    for (int64_t begin = 0; begin < left.size(); begin += kBlockRows) {
      const int64_t end = std::min<int64_t>(begin + kBlockRows, left.size());
      GatherKeyColumn(left, left_keys[0], begin, end, keys.data());
      index.HashKeys(keys.data(), end - begin, hashes.data());
      for (int64_t i = begin; i < end; ++i) {
        const bool hit =
            !index.LookupWithHash(hashes[i - begin], &keys[i - begin])
                 .empty();
        if (hit == want_match) out.AppendRow(left.row(i));
      }
    }
    return out;
  }
  std::vector<Value> key(left_keys.size());
  for (int64_t i = 0; i < left.size(); ++i) {
    const Value* lrow = left.row(i);
    for (size_t k = 0; k < left_keys.size(); ++k) key[k] = lrow[left_keys[k]];
    if (index.Contains(key.data()) == want_match) out.AppendRow(lrow);
  }
  return out;
}

}  // namespace

Relation SemijoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys) {
  CheckJoinArgs(left, right, left_keys, right_keys);
  if (left.empty() || right.empty()) return Relation(left.arity());
  KeyIndex index(right, right_keys);
  return FilterByIndex(left, left_keys, index, /*want_match=*/true);
}

Relation AntijoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys) {
  CheckJoinArgs(left, right, left_keys, right_keys);
  if (left.empty()) return Relation(left.arity());
  if (right.empty()) return left.ToRelation();
  KeyIndex index(right, right_keys);
  return FilterByIndex(left, left_keys, index, /*want_match=*/false);
}

StatusOr<Relation> GroupBySum(RelationView rel,
                              const std::vector<int>& group_cols,
                              int value_col) {
  return GroupByAggregate(rel, group_cols, value_col, AggregateOp::kSum);
}

StatusOr<Relation> GroupByAggregate(RelationView rel,
                                    const std::vector<int>& group_cols,
                                    int value_col, AggregateOp op) {
  // kCount never reads the value column; value_col = -1 lets callers count
  // over relations that carry no value column at all (e.g. a shuffle that
  // shipped only the group columns).
  MPCQP_CHECK(value_col >= 0 || op == AggregateOp::kCount);
  if (value_col >= 0) MPCQP_CHECK_LT(value_col, rel.arity());
  for (int c : group_cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, rel.arity());
  }
  // std::map keeps output deterministic (sorted by group key). With empty
  // group_cols the map holds at most one entry: the scalar group.
  std::map<std::vector<Value>, Value> accumulators;
  std::vector<Value> key(group_cols.size());
  for (int64_t i = 0; i < rel.size(); ++i) {
    const Value* row = rel.row(i);
    for (size_t k = 0; k < group_cols.size(); ++k) key[k] = row[group_cols[k]];
    const Value value = value_col >= 0 ? row[value_col] : 0;
    auto [it, inserted] = accumulators.try_emplace(key, 0);
    switch (op) {
      case AggregateOp::kSum:
        if (it->second + value < it->second) {
          return OutOfRangeError("group-by SUM overflows Value");
        }
        it->second += value;
        break;
      case AggregateOp::kCount:
        if (it->second + 1 == 0) {
          return OutOfRangeError("group-by COUNT overflows Value");
        }
        it->second += 1;
        break;
      case AggregateOp::kMin:
        if (inserted || value < it->second) it->second = value;
        break;
      case AggregateOp::kMax:
        if (inserted || value > it->second) it->second = value;
        break;
    }
  }
  Relation out(static_cast<int>(group_cols.size()) + 1);
  std::vector<Value> scratch;
  for (const auto& [group, aggregate] : accumulators) {
    scratch = group;
    scratch.push_back(aggregate);
    out.AppendRow(scratch.data());
  }
  return out;
}

bool MultisetEqual(RelationView a, RelationView b, ThreadPool* pool) {
  if (a.arity() != b.arity() || a.size() != b.size()) return false;
  if (a.arity() == 0) return true;  // Equal nullary counts.
  // Compare through sorted permutations; neither input is copied.
  const std::vector<int64_t> ao = SortedOrder(a, {}, pool);
  const std::vector<int64_t> bo = SortedOrder(b, {}, pool);
  for (int64_t i = 0; i < a.size(); ++i) {
    const Value* ra = a.row(ao[i]);
    const Value* rb = b.row(bo[i]);
    if (!std::equal(ra, ra + a.arity(), rb)) return false;
  }
  return true;
}

Relation DegreeCount(RelationView rel, int col) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  FlatCounter counts;
  for (int64_t i = 0; i < rel.size(); ++i) counts.Add(rel.at(i, col));
  Relation out(2);
  for (const auto& [value, count] : counts.SortedEntries()) {
    out.AppendRow({value, static_cast<Value>(count)});
  }
  return out;
}

}  // namespace mpcqp
