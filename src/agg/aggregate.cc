#include "agg/aggregate.h"

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Engine options for local aggregation inside a cluster: the cluster's
// pool and morsel grain, the caller's strategy. None affect output bytes
// (determinism contract of the engine).
GroupByEngineOptions EngineOptions(Cluster& cluster,
                                   const GroupByOptions& options) {
  GroupByEngineOptions engine;
  engine.strategy = options.strategy;
  engine.pool = &cluster.pool();
  engine.morsel_rows = cluster.morsel_rows();
  return engine;
}

// First non-OK status by fragment index — a deterministic pick when
// several fragments fail concurrently.
Status FirstError(const std::vector<Status>& errors) {
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return OkStatus();
}

}  // namespace

StatusOr<DistRelation> DistributedGroupBySum(Cluster& cluster,
                                             const DistRelation& rel,
                                             const std::vector<int>& group_cols,
                                             int value_col,
                                             const GroupByOptions& options) {
  return DistributedGroupByAggregate(cluster, rel, group_cols, value_col,
                                     AggregateOp::kSum, options);
}

StatusOr<DistRelation> DistributedGroupByAggregate(
    Cluster& cluster, const DistRelation& rel,
    const std::vector<int>& group_cols, int value_col, AggregateOp op,
    const GroupByOptions& options) {
  MPCQP_CHECK(value_col >= 0 || op == AggregateOp::kCount);
  if (value_col >= 0) MPCQP_CHECK_LT(value_col, rel.arity());
  for (int c : group_cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, rel.arity());
  }
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  const int width = static_cast<int>(group_cols.size());
  const GroupByEngineOptions engine = EngineOptions(cluster, options);

  // How partials re-aggregate: COUNT partials are summed, the rest are
  // idempotent under their own op.
  const AggregateOp merge_op =
      op == AggregateOp::kCount ? AggregateOp::kSum : op;

  // A no-combiner COUNT over the scalar group would shuffle a relation
  // with no columns at all; pre-aggregating is strictly cheaper and keeps
  // the exchange row-shaped, so combiners are forced on for that corner.
  const bool use_combiners =
      options.use_combiners ||
      (op == AggregateOp::kCount && group_cols.empty());
  // COUNT needs no value payload: without combiners, ship only the group
  // columns and count rows on the receiving side.
  const bool drop_value = !use_combiners && op == AggregateOp::kCount;
  const int staged_value = drop_value ? -1 : width;

  // Stage 1: local pre-aggregation (free compute) or projection to the
  // shuffle shape. Per-fragment errors are collected and the first (by
  // fragment index) is returned — deterministic regardless of which
  // fragment tripped first in wall time.
  DistRelation staged(width + (drop_value ? 0 : 1), p);
  std::vector<Status> errors(p, OkStatus());
  if (use_combiners) {
    // Meter the stage-1 scans as columnar when the engine's (data-only)
    // heuristic will compact columns; stage 2 scans the staged shape,
    // which reads every column, so it never goes columnar.
    const int columns_read = width + (value_col >= 0 ? 1 : 0);
    std::optional<ScopedPhaseTimer> phase;
    if (UseColumnarScan(rel.arity(), columns_read)) {
      phase.emplace(cluster.metrics(), Phase::kColumnarScan);
    }
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      StatusOr<Relation> partial = GroupByAggregateParallel(
          rel.fragment(static_cast<int>(s)), group_cols, value_col, op,
          engine);
      if (!partial.ok()) {
        errors[s] = partial.status();
        return;
      }
      staged.fragment(static_cast<int>(s)) = std::move(partial).value();
    });
  } else {
    std::vector<int> cols = group_cols;
    if (!drop_value) cols.push_back(value_col);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      staged.fragment(static_cast<int>(s)) =
          Project(rel.fragment(static_cast<int>(s)), cols);
    });
  }
  if (Status s = FirstError(errors); !s.ok()) return s;

  // One round: each group's partials meet at its hash owner. An empty
  // group key routes everything to the scalar group's single owner.
  std::vector<int> staged_group_cols(group_cols.size());
  for (size_t i = 0; i < group_cols.size(); ++i) {
    staged_group_cols[i] = static_cast<int>(i);
  }
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation routed = HashPartition(
      cluster, staged, staged_group_cols, hash, "group-by shuffle");

  // Stage 2: final aggregation of the routed partials (or raw rows).
  DistRelation result(width + 1, p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    StatusOr<Relation> merged = GroupByAggregateParallel(
        routed.fragment(static_cast<int>(s)), staged_group_cols, staged_value,
        use_combiners ? merge_op : op, engine);
    if (!merged.ok()) {
      errors[s] = merged.status();
      return;
    }
    result.fragment(static_cast<int>(s)) = std::move(merged).value();
  });
  if (Status s = FirstError(errors); !s.ok()) return s;
  return result;
}

StatusOr<ScalarAggregateResult> DistributedSum(Cluster& cluster,
                                               const DistRelation& rel,
                                               int value_col, int fan_in) {
  MPCQP_CHECK_GE(fan_in, 2);
  MPCQP_CHECK_GE(value_col, 0);
  MPCQP_CHECK_LT(value_col, rel.arity());
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);

  // Local partials (free compute) through the scalar-group engine path:
  // the per-fragment scan is morsel-parallel and overflow-checked.
  const GroupByEngineOptions engine = EngineOptions(cluster, {});
  std::vector<Value> partial(p, 0);
  std::vector<Status> errors(p, OkStatus());
  {
    // Metered as a columnar scan when the engine's (data-only) heuristic
    // will compact the value column out of the wide rows.
    std::optional<ScopedPhaseTimer> scan_phase;
    if (UseColumnarScan(rel.arity(), 1)) {
      scan_phase.emplace(cluster.metrics(), Phase::kColumnarScan);
    }
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      StatusOr<Relation> scalar =
          GroupByAggregateParallel(rel.fragment(static_cast<int>(s)), {},
                                   value_col, AggregateOp::kSum, engine);
      if (!scalar.ok()) {
        errors[s] = scalar.status();
        return;
      }
      partial[s] = scalar.value().empty() ? 0 : scalar.value().at(0, 0);
    });
  }
  if (Status s = FirstError(errors); !s.ok()) return s;

  // Aggregation tree: each round, server s with s % stride != 0 sends its
  // partial to its group leader s - (s % stride). The tree shape depends
  // only on (p, fan_in), so overflow detection here is deterministic too.
  int rounds = 0;
  int active = p;  // Partials live on servers 0, stride, 2*stride, ...
  int stride = 1;
  while (active > 1) {
    ++rounds;
    cluster.BeginRound("sum tree round " + std::to_string(rounds));
    Status round_error = OkStatus();
    for (int s = 0; s < p; s += stride) {
      if (s % (stride * fan_in) == 0) continue;
      const int leader = s - (s % (stride * fan_in));
      cluster.RecordMessage(s, leader, 1, 1);
      if (partial[leader] + partial[s] < partial[leader]) {
        if (round_error.ok()) {
          round_error = OutOfRangeError("distributed SUM overflows Value");
        }
      } else {
        partial[leader] += partial[s];
      }
      partial[s] = 0;
    }
    cluster.EndRound();
    if (!round_error.ok()) return round_error;
    stride *= fan_in;
    active = (p + stride - 1) / stride;
  }
  return ScalarAggregateResult{partial[0], rounds};
}

}  // namespace mpcqp
