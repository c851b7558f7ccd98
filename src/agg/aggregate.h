#ifndef MPCQP_AGG_AGGREGATE_H_
#define MPCQP_AGG_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/statusor.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "relation/relation_ops.h"

namespace mpcqp {

// Distributed aggregation (the deck's slide-52 query: SELECT keys,
// SUM(...) GROUP BY keys — "queries are typically executed in multiple
// rounds" because a join round feeds an aggregation round). Both sides of
// the shuffle are per-server kernels: one pool task per server scans its
// fragment serially into one flat group table (agg/group_table.h). The
// combine emits its partials unsorted; the merge folds what it received
// and sorts its groups by the full key, so output bytes and CostReports
// do not depend on thread count or morsel size.

struct GroupByOptions {
  // Pre-aggregate locally before the shuffle (the standard combiner
  // optimization). Off, the shuffle moves every input tuple and a heavy
  // group concentrates its entire weight on one server; on, each server
  // contributes at most one partial per group.
  bool use_combiners = true;
};

// SELECT group_cols..., SUM(value_col) GROUP BY group_cols in one round:
// shuffle by hash of the group key, aggregate locally. Output columns:
// group columns then the sum; each group on exactly one server, each
// fragment sorted by group key. Empty group_cols forms one global scalar
// group (on the key's hash owner) — the same contract as the local
// GroupByAggregate. Fails with kOutOfRange when any group's sum exceeds
// the Value range.
StatusOr<DistRelation> DistributedGroupBySum(
    Cluster& cluster, const DistRelation& rel,
    const std::vector<int>& group_cols, int value_col,
    const GroupByOptions& options = {});

// General algebraic aggregates (SUM / COUNT / MIN / MAX): same round
// structure; combiner partials are merged with the op's re-aggregation
// (partial COUNTs are SUMmed, MIN of MINs, ...). For kCount, value_col
// may be -1; without combiners the shuffle then ships only the group
// columns (counting rows needs no value payload).
StatusOr<DistRelation> DistributedGroupByAggregate(
    Cluster& cluster, const DistRelation& rel,
    const std::vector<int>& group_cols, int value_col, AggregateOp op,
    const GroupByOptions& options = {});

// Global SUM(value_col) (no grouping) via a fan_in-ary aggregation tree:
// ceil(log_fan_in(p)) rounds, O(fan_in) load per round. This is the
// log_L(N) round structure behind the slide-105/125 aggregation lower
// bounds. Each server sums its fragment in one serial pass (one pool task
// per server); both the partials and every tree merge are
// overflow-checked.
struct ScalarAggregateResult {
  Value sum = 0;
  int rounds = 0;
};
StatusOr<ScalarAggregateResult> DistributedSum(Cluster& cluster,
                                               const DistRelation& rel,
                                               int value_col, int fan_in = 2);

}  // namespace mpcqp

#endif  // MPCQP_AGG_AGGREGATE_H_
