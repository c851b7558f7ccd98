#ifndef MPCQP_RELATION_RELATION_OPS_H_
#define MPCQP_RELATION_RELATION_OPS_H_

#include <functional>
#include <vector>

#include "common/statusor.h"
#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

// Local (single-node) relational operators. The parallel algorithms in
// src/join, src/multiway, src/acyclic compose these with the exchange
// primitives of src/mpc; the choice of local algorithm is independent of
// the parallel algorithm (slide 32 of the deck).
//
// All operators take RelationViews — a whole Relation converts implicitly,
// so callers pass fragments, row spans, or selection views without
// materializing copies. Outputs are always owning Relations. Inputs are
// borrowed only for the duration of the call.

// Projection onto `cols` (columns may repeat or reorder). Multiset
// semantics: duplicates are kept. The identity projection of a whole
// relation returns a handle sharing its payload (no copy).
Relation Project(RelationView rel, const std::vector<int>& cols);

// Removes duplicate rows (sorts an index permutation internally — the
// input is not copied; output is sorted). `pool` (optional) parallelizes
// the permutation sort on large inputs.
Relation Dedup(RelationView rel, ThreadPool* pool = nullptr);

// Rows for which `pred` returns true.
Relation Filter(RelationView rel,
                const std::function<bool(const Value*)>& pred);

// Appends all rows of `b` to a materialization of `a`. Arities must match.
Relation UnionAll(RelationView a, RelationView b);

// Equi-join of `left` and `right` on left_keys[i] == right_keys[i].
// Output columns: all of left, then the columns of right that are not join
// keys (in their original order). Hash-based; rows come in left order, each
// left row's matches in right order. Like the two kernels below, it counts
// its output first and writes it into one pre-sized buffer.
Relation HashJoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys);

// Same contract as HashJoinLocal, sort-merge based. Output row order may
// differ; contents (as multisets) are identical.
Relation SortMergeJoinLocal(RelationView left, RelationView right,
                            const std::vector<int>& left_keys,
                            const std::vector<int>& right_keys);

// Reference nested-loop implementation of the same contract, used by tests.
Relation NestedLoopJoinLocal(RelationView left, RelationView right,
                             const std::vector<int>& left_keys,
                             const std::vector<int>& right_keys);

// Rows of `left` with at least one match in `right` (semijoin).
Relation SemijoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys);

// Rows of `left` with no match in `right` (antijoin).
Relation AntijoinLocal(RelationView left, RelationView right,
                       const std::vector<int>& left_keys,
                       const std::vector<int>& right_keys);

// SELECT group_cols, SUM(value_col) ... GROUP BY group_cols.
// Output: group columns then the sum. Output sorted by group columns.
// Fails with kOutOfRange if any group's sum overflows Value.
StatusOr<Relation> GroupBySum(RelationView rel,
                              const std::vector<int>& group_cols,
                              int value_col);

// The aggregate functions GroupByAggregate supports. All are algebraic
// (partials combine associatively), which is what lets the distributed
// group-by pre-aggregate with combiners.
enum class AggregateOp {
  kSum,
  kCount,  // value_col ignored; pass value_col = -1 to skip it entirely.
  kMin,
  kMax,
};

// SELECT group_cols, OP(value_col) ... GROUP BY group_cols.
// Output: group columns then the aggregate; sorted by group columns.
// `group_cols` may be empty: every row falls into one scalar group, so a
// non-empty input yields exactly one output row (and an empty input yields
// none — SQL's GROUP BY () semantics, which keeps partial aggregation of
// empty fragments neutral). kSum and kCount fail with kOutOfRange instead
// of silently wrapping when an accumulator exceeds the Value range; since
// addends are non-negative, partial sums are monotone and the error is
// independent of accumulation order.
StatusOr<Relation> GroupByAggregate(RelationView rel,
                                    const std::vector<int>& group_cols,
                                    int value_col, AggregateOp op);

// True if `a` and `b` contain the same rows with the same multiplicities
// (order-insensitive). The workhorse of correctness tests. `pool`
// (optional) parallelizes the permutation sorts on large inputs.
bool MultisetEqual(RelationView a, RelationView b,
                   ThreadPool* pool = nullptr);

// Per-value frequency ("degree") of column `col`; returned sorted by value.
// Output arity 2: (value, count).
Relation DegreeCount(RelationView rel, int col);

}  // namespace mpcqp

#endif  // MPCQP_RELATION_RELATION_OPS_H_
