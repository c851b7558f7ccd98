#include "agg/aggregate.h"

#include <algorithm>
#include <string>
#include <utility>

#include "agg/group_table.h"
#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

using agg_internal::AccumulateRow;
using agg_internal::GroupTable;
using agg_internal::HashKey;
using agg_internal::MergePartial;

// First non-OK status by fragment index — a deterministic pick when
// several fragments fail concurrently.
Status FirstError(const std::vector<Status>& errors) {
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return OkStatus();
}

Status OverflowError() {
  return OutOfRangeError("group-by aggregate overflows Value");
}

// Combine: folds `frag`'s rows, in row order, into one table keyed on
// group_cols. Reads rows through the flat buffer, so a nullary fragment
// (COUNT over the scalar group) is just its row count.
Status CombineFragment(const Relation& frag, const std::vector<int>& group_cols,
                       int value_col, AggregateOp op, GroupTable* table) {
  const int width = static_cast<int>(group_cols.size());
  const int arity = frag.arity();
  const Value* base = frag.data().data();
  // A key whose columns sit side by side in the row is read in place;
  // any other key is gathered into `gathered` first.
  const int first = width > 0 ? group_cols[0] : 0;
  bool in_place = true;
  for (int k = 1; k < width; ++k) in_place &= group_cols[k] == first + k;
  std::vector<Value> gathered(width);
  for (int64_t i = 0; i < frag.size(); ++i) {
    const Value* row = base + i * arity;
    const Value* key = row + first;
    if (!in_place) {
      for (int k = 0; k < width; ++k) gathered[k] = row[group_cols[k]];
      key = gathered.data();
    }
    auto [acc, inserted] = table->Upsert(HashKey(key, width), key);
    if (!AccumulateRow(acc, inserted, value_col >= 0 ? row[value_col] : 0,
                       op)) {
      return OverflowError();
    }
  }
  return OkStatus();
}

// Merge: folds a routed fragment whose group key is its leading `width`
// columns. With `partials` each row carries a combiner partial in column
// width, re-aggregated by MergePartial (COUNT partials are summed);
// otherwise rows are raw and column width (absent for a dropped COUNT
// payload) is accumulated as an input value.
Status MergeFragment(const Relation& frag, int width, AggregateOp op,
                     bool partials, GroupTable* table) {
  const int arity = frag.arity();
  const bool has_value = arity > width;
  const Value* base = frag.data().data();
  for (int64_t i = 0; i < frag.size(); ++i) {
    const Value* row = base + i * arity;
    auto [acc, inserted] = table->Upsert(HashKey(row, width), row);
    const Value value = has_value ? row[width] : 0;
    const bool ok = partials ? MergePartial(acc, inserted, value, op)
                             : AccumulateRow(acc, inserted, value, op);
    if (!ok) return OverflowError();
  }
  return OkStatus();
}

// The table's groups as (key..., accumulator) rows: in insertion order,
// a function of the scanned fragment alone, or sorted by the full —
// unique — group key, so the bytes do not depend on arrival order.
Relation EmitGroups(const GroupTable& table, int width, bool sorted) {
  std::vector<const GroupTable::Entry*> order;
  order.reserve(static_cast<size_t>(table.num_groups()));
  for (const GroupTable::Entry& e : table.entries()) order.push_back(&e);
  if (sorted) {
    std::sort(order.begin(), order.end(),
              [&](const GroupTable::Entry* a, const GroupTable::Entry* b) {
                const Value* ka = table.key_of(*a);
                const Value* kb = table.key_of(*b);
                return std::lexicographical_compare(ka, ka + width, kb,
                                                    kb + width);
              });
  }
  Relation out(width + 1);
  if (order.empty()) return out;
  Value* dst = out.ResizeRowsForOverwrite(static_cast<int64_t>(order.size()));
  for (const GroupTable::Entry* e : order) {
    const Value* key = table.key_of(*e);
    dst = std::copy(key, key + width, dst);
    *dst++ = e->acc;
  }
  return out;
}

}  // namespace

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

  // A no-combiner COUNT over the scalar group would shuffle a relation
  // with no columns at all; pre-aggregating is strictly cheaper and keeps
  // the exchange row-shaped, so combiners are forced on for that corner.
  const bool use_combiners =
      options.use_combiners ||
      (op == AggregateOp::kCount && group_cols.empty());
  // COUNT needs no value payload: without combiners, ship only the group
  // columns and count rows on the receiving side.
  const bool drop_value = !use_combiners && op == AggregateOp::kCount;

  // Stage 1, one pool task per server: combine the fragment into one
  // partial per group (free compute), or project it to the shuffle shape.
  // Per-fragment errors are collected and the first (by fragment index)
  // is returned — deterministic regardless of which fragment tripped
  // first in wall time.
  DistRelation staged(width + (drop_value ? 0 : 1), p);
  std::vector<Status> errors(p, OkStatus());
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kLocalCompute);
    if (use_combiners) {
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("group-by combine", "compute", s);
        GroupTable table(width);
        errors[s] = CombineFragment(rel.fragment(static_cast<int>(s)),
                                    group_cols, value_col, op, &table);
        if (errors[s].ok()) {
          staged.fragment(static_cast<int>(s)) =
              EmitGroups(table, width, /*sorted=*/false);
        }
      });
    } else {
      std::vector<int> cols = group_cols;
      if (!drop_value) cols.push_back(value_col);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("group-by project", "compute", s);
        staged.fragment(static_cast<int>(s)) =
            Project(rel.fragment(static_cast<int>(s)), cols);
      });
    }
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

  // Stage 2, one pool task per receiving server: fold the routed partials
  // (or raw rows) into one table and emit its groups sorted by key.
  DistRelation result(width + 1, p);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kLocalCompute);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      MPCQP_TRACE_SCOPE_ARG("group-by merge", "compute", s);
      GroupTable table(width);
      errors[s] = MergeFragment(routed.fragment(static_cast<int>(s)), width,
                                op, use_combiners, &table);
      if (errors[s].ok()) {
        result.fragment(static_cast<int>(s)) =
            EmitGroups(table, width, /*sorted=*/true);
      }
    });
  }
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

  // Local partials (free compute): one serial, overflow-checked pass per
  // server, one pool task each.
  std::vector<Value> partial(p, 0);
  std::vector<Status> errors(p, OkStatus());
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kLocalCompute);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      MPCQP_TRACE_SCOPE_ARG("sum partial", "compute", s);
      const Relation& frag = rel.fragment(static_cast<int>(s));
      const Value* base = frag.data().data();
      Value sum = 0;
      for (int64_t i = 0; i < frag.size(); ++i) {
        if (!AccumulateRow(&sum, false, base[i * frag.arity() + value_col],
                           AggregateOp::kSum)) {
          errors[s] = OverflowError();
          return;
        }
      }
      partial[s] = sum;
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
