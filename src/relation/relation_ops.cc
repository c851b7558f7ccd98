#include "relation/relation_ops.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <utility>

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

// The pre-sized output of the local join family. A kernel first counts its
// output rows, then calls Write exactly that many times: the left row,
// then the right row's non-key columns, straight into the output buffer.
class JoinWriter {
 public:
  JoinWriter(int left_arity, const std::vector<int>& right_out_cols,
             int64_t rows, Relation& out)
      : left_arity_(left_arity), right_out_cols_(right_out_cols) {
    if (rows > 0) dst_ = out.ResizeRowsForOverwrite(rows);
  }

  void Write(const Value* lrow, const Value* rrow) {
    dst_ = std::copy_n(lrow, left_arity_, dst_);
    for (int c : right_out_cols_) *dst_++ = rrow[c];
  }

 private:
  const int left_arity_;
  const std::vector<int>& right_out_cols_;
  Value* dst_ = nullptr;
};

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

// The probe loop of the index-backed kernels: calls visit(i, hits) for
// every row i of `left` in ascending order, `hits` being the ascending
// index rows whose key equals row i's. Single-column keys run the columnar
// probe: per block, gather the key column (shared kernel), hash it in one
// vectorized HashKeys pass, then walk the directory per key. The hits are
// identical to the per-row path; only the memory access pattern differs.
template <typename Visit>
void ProbeRows(RelationView left, const std::vector<int>& left_keys,
               const KeyIndex& index, Visit&& visit) {
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
        visit(i, index.LookupWithHash(hashes[i - begin], &keys[i - begin]));
      }
    }
    return;
  }
  std::vector<Value> key(left_keys.size());
  for (int64_t i = 0; i < left.size(); ++i) {
    const Value* lrow = RowPtr(left, i);
    for (size_t k = 0; k < left_keys.size(); ++k) key[k] = lrow[left_keys[k]];
    visit(i, index.Lookup(key.data()));
  }
}

}  // namespace

Relation Project(RelationView rel, const std::vector<int>& cols) {
  bool identity = static_cast<int>(cols.size()) == rel.arity();
  for (size_t j = 0; j < cols.size(); ++j) {
    MPCQP_CHECK_GE(cols[j], 0);
    MPCQP_CHECK_LT(cols[j], rel.arity());
    identity = identity && cols[j] == static_cast<int>(j);
  }
  // A whole-relation view shares its payload (COW); no byte moves.
  if (identity) return rel.ToRelation();
  Relation out(static_cast<int>(cols.size()));
  if (cols.empty()) {
    for (int64_t i = 0; i < rel.size(); ++i) out.AppendNullaryRow();
    return out;
  }
  if (rel.empty()) return out;
  Value* dst = out.ResizeRowsForOverwrite(rel.size());
  for (int64_t i = 0; i < rel.size(); ++i) {
    const Value* row = RowPtr(rel, i);
    for (int c : cols) *dst++ = row[c];
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
  // Pass 1 keeps every left row's matches (a span into the index arena)
  // and counts the output; pass 2 writes it into one pre-sized buffer.
  std::vector<std::span<const int64_t>> matches(
      static_cast<size_t>(left.size()));
  int64_t rows = 0;
  ProbeRows(left, left_keys, index,
            [&](int64_t i, std::span<const int64_t> hits) {
              matches[i] = hits;
              rows += static_cast<int64_t>(hits.size());
            });
  JoinWriter writer(left.arity(), right_out_cols, rows, out);
  for (int64_t i = 0; i < left.size(); ++i) {
    const Value* lrow = RowPtr(left, i);
    for (int64_t rrow : matches[i]) writer.Write(lrow, RowPtr(right, rrow));
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
    const Value* l = RowPtr(left, lorder[li]);
    const Value* r = RowPtr(right, rorder[ri]);
    for (size_t k = 0; k < left_keys.size(); ++k) {
      const Value lv = l[left_keys[k]];
      const Value rv = r[right_keys[k]];
      if (lv != rv) return lv < rv ? -1 : 1;
    }
    return 0;
  };
  auto same_left_key = [&](int64_t a, int64_t b) {
    const Value* ra = RowPtr(left, lorder[a]);
    const Value* rb = RowPtr(left, lorder[b]);
    for (int k : left_keys) {
      if (ra[k] != rb[k]) return false;
    }
    return true;
  };
  auto same_right_key = [&](int64_t a, int64_t b) {
    const Value* ra = RowPtr(right, rorder[a]);
    const Value* rb = RowPtr(right, rorder[b]);
    for (int k : right_keys) {
      if (ra[k] != rb[k]) return false;
    }
    return true;
  };

  // Pass 1: the runs of equal keys on both sides and the output size (the
  // sum of the runs' cross products).
  struct Run {
    int64_t l_begin, l_end, r_begin, r_end;
  };
  std::vector<Run> runs;
  int64_t rows = 0;
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
      runs.push_back({li, lend, ri, rend});
      rows += (lend - li) * (rend - ri);
      li = lend;
      ri = rend;
    }
  }
  // Pass 2: each run's cross product.
  JoinWriter writer(left.arity(), right_out_cols, rows, out);
  for (const Run& run : runs) {
    for (int64_t a = run.l_begin; a < run.l_end; ++a) {
      const Value* lrow = RowPtr(left, lorder[a]);
      for (int64_t b = run.r_begin; b < run.r_end; ++b) {
        writer.Write(lrow, RowPtr(right, rorder[b]));
      }
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
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t i = 0; i < left.size(); ++i) {
    for (int64_t j = 0; j < right.size(); ++j) {
      bool match = true;
      for (size_t k = 0; k < left_keys.size(); ++k) {
        if (left.at(i, left_keys[k]) != right.at(j, right_keys[k])) {
          match = false;
          break;
        }
      }
      if (match) pairs.push_back({i, j});
    }
  }
  JoinWriter writer(left.arity(), right_out_cols,
                    static_cast<int64_t>(pairs.size()), out);
  for (const auto& [i, j] : pairs) {
    writer.Write(RowPtr(left, i), RowPtr(right, j));
  }
  return out;
}

namespace {

// The (anti)semijoin pair: appends every left row whose membership in the
// index equals `want_match`, in ascending row order.
Relation FilterByIndex(RelationView left, const std::vector<int>& left_keys,
                       const KeyIndex& index, bool want_match) {
  Relation out(left.arity());
  ProbeRows(left, left_keys, index,
            [&](int64_t i, std::span<const int64_t> hits) {
              const bool hit = !hits.empty();
              if (hit == want_match) out.AppendRow(RowPtr(left, i));
            });
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
