// E17 — deck slide 52: the GROUP BY query that motivates multi-round
// execution (join round + aggregation round), plus the combiner effect
// under group skew and the aggregation-tree round structure behind the
// log_L lower bounds (slides 105, 125).

#include <cmath>

#include "agg/aggregate.h"
#include "bench/bench_util.h"
#include "join/hash_join.h"
#include "mpc/cluster.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

void JoinThenGroupBy() {
  bench::Banner(
      "E17a (slide 52): SELECT cKey, month, SUM(price) FROM Orders x "
      "Customers GROUP BY — join round + aggregation round, p=32");
  const int p = 32;
  Rng rng(1);
  // Orders(cKey, month, price), Customers(cKey).
  const int64_t orders_n = 60000;
  Relation orders(3);
  for (int64_t i = 0; i < orders_n; ++i) {
    orders.AppendRow({rng.Uniform(4000), rng.Uniform(12),
                      1 + rng.Uniform(500)});
  }
  Relation customers(1);
  for (Value c = 0; c < 4000; ++c) {
    if (rng.Uniform(10) < 7) customers.AppendRow({c});
  }

  Cluster cluster(p, 3);
  const DistRelation joined = ParallelHashJoin(
      cluster, DistRelation::Scatter(orders, p),
      DistRelation::Scatter(customers, p), {0}, {0});
  const DistRelation grouped =
      DistributedGroupByAggregate(cluster, joined, {0, 1}, 2,
                                  AggregateOp::kSum)
          .value();

  Table table({"stage", "rounds so far", "L (tuples)", "rows"});
  table.AddRow({"join Orders x Customers", "1",
                FmtInt(cluster.cost_report().rounds()[0].MaxTuplesReceived()),
                FmtInt(joined.TotalSize())});
  table.AddRow({"group by (cKey, month)", "2",
                FmtInt(cluster.cost_report().rounds()[1].MaxTuplesReceived()),
                FmtInt(grouped.TotalSize())});
  table.Print();
}

void CombinerEffect() {
  bench::Banner(
      "E17b: combiner ablation under group skew (Zipf groups), N=40000, "
      "p=32");
  const int p = 32;
  Table table({"zipf s", "groups", "L without combiners", "L with combiners"});
  for (const double skew : {0.0, 1.0, 2.0}) {
    Rng rng(5);
    const Relation rel = GenerateZipf(rng, 40000, 2, 2000, 0, skew);
    GroupByOptions without;
    without.use_combiners = false;
    Cluster c1(p, 3);
    const DistRelation g1 =
        DistributedGroupByAggregate(c1, DistRelation::Scatter(rel, p), {0}, 1,
                                    AggregateOp::kSum, without)
            .value();
    Cluster c2(p, 3);
    DistributedGroupByAggregate(c2, DistRelation::Scatter(rel, p), {0}, 1,
                                AggregateOp::kSum)
        .value();
    table.AddRow({Fmt(skew, 1), FmtInt(g1.TotalSize()),
                  FmtInt(c1.cost_report().MaxLoadTuples()),
                  FmtInt(c2.cost_report().MaxLoadTuples())});
  }
  table.Print();
  std::printf(
      "\nShape check: without combiners the heaviest group's full weight "
      "lands on one server (degree of the Zipf head); with combiners each "
      "server ships at most one partial per group.\n");
}

void AggregationTree() {
  bench::Banner(
      "E17c (slides 105/125 flavor): global SUM via a fan-in tree — "
      "rounds = ceil(log_f p), p=256");
  const int p = 256;
  Rng rng(7);
  const Relation rel = GenerateUniform(rng, 4096, 1, 100);
  Table table({"fan-in f", "rounds", "ceil(log_f p)", "max L/round"});
  for (const int fan_in : {2, 4, 16, 256}) {
    Cluster cluster(p, 3);
    const ScalarAggregateResult result =
        DistributedSum(cluster, DistRelation::Scatter(rel, p), 0, fan_in)
            .value();
    table.AddRow({FmtInt(fan_in), FmtInt(result.rounds),
                  FmtInt(static_cast<int64_t>(
                      std::ceil(std::log(p) / std::log(fan_in) - 1e-9))),
                  FmtInt(cluster.cost_report().MaxLoadTuples())});
  }
  table.Print();
  std::printf(
      "\nShape check: rounds x log(load) is constant-ish — the r >= "
      "log_L(N) tradeoff for aggregation.\n");
}

}  // namespace
}  // namespace mpcqp

int main() {
  mpcqp::JoinThenGroupBy();
  mpcqp::CombinerEffect();
  mpcqp::AggregationTree();
  return 0;
}
