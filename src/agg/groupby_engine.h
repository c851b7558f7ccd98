#ifndef MPCQP_AGG_GROUPBY_ENGINE_H_
#define MPCQP_AGG_GROUPBY_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "common/thread_pool.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "relation/relation_view.h"

namespace mpcqp {

// Multi-strategy morsel-parallel group-by over one (multi-fragment)
// relation — the single-relation API that bench_groupby measures. The
// distributed group-by and SUM do not call it: they run their own serial
// per-server kernel (agg/aggregate.cc) over the same GroupTable
// (agg/group_table.h).
//
// All strategies compute exactly the same function as the seed std::map
// path in relation_ops.cc (output sorted lexicographically by group key,
// group columns then the aggregate), so they are interchangeable: every
// aggregate is algebraic (associative + commutative over exact uint64
// accumulators) and the final emission sorts by the full — unique — group
// key, so the output bytes are independent of which thread, morsel, or
// partition processed which rows. Overflow (SUM/COUNT exceeding Value) is
// detected on every add; since addends are non-negative, partial sums are
// monotone and a group overflows in every decomposition or in none, so the
// error outcome is deterministic too.
enum class GroupByStrategy {
  // Estimate group cardinality from a sampled prefix of each input and
  // pick one of the concrete strategies below. The estimate reads only
  // the data (never the thread count or morsel size), preserving the
  // determinism contract.
  kAdaptive,
  // The seed path: one serial std::map accumulator. Lowest constant
  // factor on small inputs; the fallback and the differential reference.
  kSortedMap,
  // Per-worker-thread open-addressing partials, merged pairwise in a
  // tree. One scan, no data movement; merge cost scales with #groups x
  // #threads, so it wins when groups are few (heavy duplication).
  kTreeMerge,
  // Two-phase radix: count + scatter rows into 256 hash partitions, then
  // aggregate each partition independently in parallel. Two extra passes
  // over the data buy partition-parallel table builds with no merge, so
  // it wins when groups are many.
  kRadix,
};

// Stable lower-case name ("adaptive", "sorted-map", ...) for logs/benches.
const char* GroupByStrategyName(GroupByStrategy strategy);

struct GroupByEngineOptions {
  GroupByStrategy strategy = GroupByStrategy::kAdaptive;
  // Parallel strategies run their scans/merges on this pool; nullptr runs
  // everything inline (still through the same code paths).
  ThreadPool* pool = nullptr;
  // Scan grain in rows (the cluster's morsel size). Affects scheduling
  // only, never output bytes.
  int64_t morsel_rows = 8192;
  // Test hook: group hashes are masked to this many low bits. 64 = off.
  // Small values force every probe/partition collision path to execute;
  // outputs must not change.
  int hash_bits = 64;
};

// The strategy kAdaptive resolves to for this input: samples a prefix of
// each input view, estimates distinct-group density with a FlatCounter
// over group-key hashes, and applies the thresholds documented in
// DESIGN.md. Exposed so benches/tests can report and pin the choice.
GroupByStrategy ChooseGroupByStrategy(const std::vector<RelationView>& inputs,
                                      const std::vector<int>& group_cols);

// SELECT group_cols, OP(value_col) ... GROUP BY group_cols over the
// concatenation of `inputs` (all the same arity) — multi-input so callers
// aggregate across fragments without materializing a union. Contract
// matches relation_ops::GroupByAggregate exactly: output columns are the
// group columns then the aggregate, sorted by group key; empty group_cols
// forms one scalar group (empty inputs yield an empty output); value_col
// may be -1 for kCount; kSum/kCount fail with kOutOfRange on Value
// overflow instead of wrapping.
StatusOr<Relation> GroupByAggregateParallel(
    const std::vector<RelationView>& inputs,
    const std::vector<int>& group_cols, int value_col, AggregateOp op,
    const GroupByEngineOptions& options = {});

// Single-input convenience overload.
StatusOr<Relation> GroupByAggregateParallel(
    RelationView input, const std::vector<int>& group_cols, int value_col,
    AggregateOp op, const GroupByEngineOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_AGG_GROUPBY_ENGINE_H_
