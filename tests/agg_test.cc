#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

constexpr AggregateOp kAllOps[] = {AggregateOp::kSum, AggregateOp::kCount,
                                   AggregateOp::kMin, AggregateOp::kMax};

std::string OpName(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kCount:
      return "count";
    case AggregateOp::kMin:
      return "min";
    case AggregateOp::kMax:
      return "max";
  }
  return "unknown";
}

class GroupByTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(GroupByTest, MatchesLocalGroupBy) {
  const auto [p, combiners] = GetParam();
  Rng rng(1);
  const Relation rel = GenerateUniform(rng, 3000, 3, 50);
  Cluster cluster(p, 3);
  GroupByOptions options;
  options.use_combiners = combiners;
  const DistRelation result =
      DistributedGroupBySum(cluster, DistRelation::Scatter(rel, p), {0, 1}, 2,
                            options)
          .value();
  EXPECT_TRUE(
      MultisetEqual(result.Collect(), GroupBySum(rel, {0, 1}, 2).value()));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupByTest,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Values(false, true)));

TEST(GroupByTest, EachGroupOnOneServer) {
  const int p = 8;
  Rng rng(2);
  const Relation rel = GenerateUniform(rng, 2000, 2, 20);
  Cluster cluster(p, 3);
  const DistRelation result =
      DistributedGroupBySum(cluster, DistRelation::Scatter(rel, p), {0}, 1)
          .value();
  // 20 possible groups; every group key appears in exactly one fragment.
  for (Value g = 0; g < 20; ++g) {
    int holders = 0;
    for (int s = 0; s < p; ++s) {
      const Relation& frag = result.fragment(s);
      for (int64_t i = 0; i < frag.size(); ++i) {
        if (frag.at(i, 0) == g) {
          ++holders;
          break;
        }
      }
    }
    EXPECT_LE(holders, 1);
  }
}

TEST(GroupByTest, CombinersCutSkewedShuffleLoad) {
  // One dominant group: without combiners its entire weight lands on one
  // server; with combiners each server sends a single partial.
  const int p = 16;
  const Relation rel = GenerateConstantColumn(8000, 0, 3);  // All group 3.
  GroupByOptions with;
  with.use_combiners = true;
  GroupByOptions without;
  without.use_combiners = false;

  Cluster c1(p, 3);
  ASSERT_TRUE(
      DistributedGroupBySum(c1, DistRelation::Scatter(rel, p), {0}, 1, with)
          .ok());
  Cluster c2(p, 3);
  ASSERT_TRUE(DistributedGroupBySum(c2, DistRelation::Scatter(rel, p), {0}, 1,
                                    without)
                  .ok());

  EXPECT_EQ(c1.cost_report().MaxLoadTuples(), p);     // One partial each.
  EXPECT_EQ(c2.cost_report().MaxLoadTuples(), 8000);  // The whole group.
}

TEST(GroupByAggregateTest, LocalOpsByHand) {
  const Relation r =
      Relation::FromRows({{1, 10}, {1, 3}, {2, 7}, {1, 5}, {2, 9}});
  const Relation count =
      GroupByAggregate(r, {0}, 1, AggregateOp::kCount).value();
  EXPECT_EQ(count.at(0, 1), 3u);
  EXPECT_EQ(count.at(1, 1), 2u);
  // COUNT never reads the value column; -1 skips it entirely.
  EXPECT_EQ(GroupByAggregate(r, {0}, -1, AggregateOp::kCount).value(), count);
  const Relation mn = GroupByAggregate(r, {0}, 1, AggregateOp::kMin).value();
  EXPECT_EQ(mn.at(0, 1), 3u);
  EXPECT_EQ(mn.at(1, 1), 7u);
  const Relation mx = GroupByAggregate(r, {0}, 1, AggregateOp::kMax).value();
  EXPECT_EQ(mx.at(0, 1), 10u);
  EXPECT_EQ(mx.at(1, 1), 9u);
}

TEST(GroupByAggregateTest, ScalarGroupLocal) {
  // Empty group_cols: one all-rows group, output arity 1.
  const Relation r = Relation::FromRows({{4, 10}, {9, 3}, {2, 7}});
  const Relation sum = GroupByAggregate(r, {}, 1, AggregateOp::kSum).value();
  EXPECT_EQ(sum, Relation::FromRows({{20}}));
  const Relation count =
      GroupByAggregate(r, {}, -1, AggregateOp::kCount).value();
  EXPECT_EQ(count, Relation::FromRows({{3}}));
  // An empty input has no groups at all — not a zero row.
  const Relation empty(2);
  EXPECT_TRUE(GroupByAggregate(empty, {}, 1, AggregateOp::kSum)->empty());
}

class DistributedAggregateTest
    : public ::testing::TestWithParam<std::tuple<AggregateOp, bool>> {};

TEST_P(DistributedAggregateTest, MatchesLocalReference) {
  const auto [op, combiners] = GetParam();
  const int p = 8;
  Rng rng(6);
  const Relation rel = GenerateUniform(rng, 4000, 2, 64);
  Cluster cluster(p, 3);
  GroupByOptions options;
  options.use_combiners = combiners;
  const DistRelation result =
      DistributedGroupByAggregate(cluster, DistRelation::Scatter(rel, p), {0},
                                  1, op, options)
          .value();
  EXPECT_TRUE(MultisetEqual(result.Collect(),
                            GroupByAggregate(rel, {0}, 1, op).value()));
}

// Distributed and local agree on the scalar (empty group_cols) group —
// the contract divergence the CHECK at the old aggregate.cc:22 left open.
TEST_P(DistributedAggregateTest, ScalarGroupMatchesLocal) {
  const auto [op, combiners] = GetParam();
  const int p = 8;
  Rng rng(8);
  const Relation rel = GenerateUniform(rng, 2000, 2, 64);
  Cluster cluster(p, 3);
  GroupByOptions options;
  options.use_combiners = combiners;
  const DistRelation result =
      DistributedGroupByAggregate(cluster, DistRelation::Scatter(rel, p), {},
                                  1, op, options)
          .value();
  const Relation collected = result.Collect();
  EXPECT_EQ(collected.size(), 1);
  EXPECT_TRUE(
      MultisetEqual(collected, GroupByAggregate(rel, {}, 1, op).value()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedAggregateTest,
    ::testing::Combine(::testing::Values(AggregateOp::kSum,
                                         AggregateOp::kCount,
                                         AggregateOp::kMin,
                                         AggregateOp::kMax),
                       ::testing::Values(false, true)));

// The combiner toggle is a pure optimization: on and off must produce the
// same multiset for every op (the regression for the kCount no-combiner
// shape bug, which returned row counts only by accident of arity).
class CombinerToggleTest : public ::testing::TestWithParam<AggregateOp> {};

TEST_P(CombinerToggleTest, CombinersOnOffAgree) {
  const AggregateOp op = GetParam();
  const int p = 8;
  Rng rng(7);
  const Relation rel = GenerateZipf(rng, 3000, 2, 100, 0, 1.2);
  GroupByOptions on;
  on.use_combiners = true;
  GroupByOptions off;
  off.use_combiners = false;
  Cluster c1(p, 3);
  Cluster c2(p, 3);
  const DistRelation with =
      DistributedGroupByAggregate(c1, DistRelation::Scatter(rel, p), {0}, 1,
                                  op, on)
          .value();
  const DistRelation without =
      DistributedGroupByAggregate(c2, DistRelation::Scatter(rel, p), {0}, 1,
                                  op, off)
          .value();
  EXPECT_TRUE(MultisetEqual(with.Collect(), without.Collect()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CombinerToggleTest,
                         ::testing::Values(AggregateOp::kSum,
                                           AggregateOp::kCount,
                                           AggregateOp::kMin,
                                           AggregateOp::kMax),
                         [](const auto& info) { return OpName(info.param); });

TEST(DistributedAggregateTest, CountWithoutCombinersShipsOnlyGroupColumns) {
  const int p = 8;
  Rng rng(9);
  const Relation rel = GenerateUniform(rng, 2000, 3, 40);
  GroupByOptions off;
  off.use_combiners = false;
  Cluster cluster(p, 3);
  ASSERT_TRUE(DistributedGroupByAggregate(cluster,
                                          DistRelation::Scatter(rel, p), {0},
                                          1, AggregateOp::kCount, off)
                  .ok());
  const RoundCost& shuffle = cluster.cost_report().rounds()[0];
  // Every shuffled tuple is exactly the 1-column group key — no value
  // payload rides along for COUNT.
  EXPECT_EQ(shuffle.TotalValuesReceived(), shuffle.TotalTuplesReceived());
}

TEST(DistributedAggregateTest, SumOverflowSurfacesTypedError) {
  const Value half = Value{1} << 63;
  Relation rel(2);
  rel.AppendRow({7, half});
  rel.AppendRow({7, half});  // Exact wrap to 0.
  for (const bool combiners : {false, true}) {
    Cluster cluster(4, 3);
    GroupByOptions options;
    options.use_combiners = combiners;
    const auto result = DistributedGroupByAggregate(
        cluster, DistRelation::Scatter(rel, 4), {0}, 1, AggregateOp::kSum,
        options);
    ASSERT_FALSE(result.ok()) << "combiners=" << combiners;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  }
}

// --- The per-server kernel against the std::map oracle ---
//
// The oracle for server s: route the raw input by its group key with the
// hash a fresh cluster of the same seed draws first (the shuffle's hash),
// then run the serial std::map GroupByAggregate over what s received. The
// kernel's fragment s must equal it row for row — same groups, same
// accumulators, sorted by key — and the collect must equal the serial
// GroupByAggregate of the whole input.

constexpr uint64_t kKernelSeed = 17;

std::vector<Relation> OracleFragments(const DistRelation& input,
                                      const std::vector<int>& group_cols,
                                      int value_col, AggregateOp op) {
  const int p = input.num_servers();
  Cluster oracle(p, kKernelSeed);
  const DistRelation owned = HashPartition(
      oracle, input, group_cols, oracle.NewHashFunction(), "oracle: route");
  std::vector<Relation> expected;
  for (int s = 0; s < p; ++s) {
    expected.push_back(
        GroupByAggregate(owned.fragment(s), group_cols, value_col, op)
            .value());
  }
  return expected;
}

void ExpectKernelMatchesOracle(const DistRelation& input,
                               const std::vector<int>& group_cols,
                               int value_col, AggregateOp op, bool combiners,
                               int threads = 2) {
  const int p = input.num_servers();
  ClusterOptions cluster_options;
  cluster_options.num_threads = threads;
  Cluster cluster(p, kKernelSeed, cluster_options);
  GroupByOptions options;
  options.use_combiners = combiners;
  const StatusOr<DistRelation> got = DistributedGroupByAggregate(
      cluster, input, group_cols, value_col, op, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<Relation> expected =
      OracleFragments(input, group_cols, value_col, op);
  for (int s = 0; s < p; ++s) {
    EXPECT_EQ(got->fragment(s), expected[s])
        << "server " << s << " op=" << OpName(op)
        << " combiners=" << combiners;
  }
  Relation collected = got->Collect();
  collected.SortRows();
  EXPECT_EQ(collected,
            GroupByAggregate(input.Collect(), group_cols, value_col, op)
                .value())
      << "op=" << OpName(op) << " combiners=" << combiners;
}

// Every op x combiners over 2- and 3-column keys, including a key whose
// columns are out of order in the input.
class GroupByKernelTest
    : public ::testing::TestWithParam<std::tuple<AggregateOp, bool>> {};

TEST_P(GroupByKernelTest, MultiColumnKeysMatchOracle) {
  const auto [op, combiners] = GetParam();
  Rng rng(12);
  const Relation rel = GenerateZipf(rng, 5000, 4, 40, 0, 1.1);
  const DistRelation input = DistRelation::Scatter(rel, 8);
  for (const std::vector<int>& key :
       std::vector<std::vector<int>>{{0, 1}, {2, 0}, {0, 1, 2}, {3, 1, 0}}) {
    const int value_col = key[0] == 3 ? 2 : 3;
    ExpectKernelMatchesOracle(input, key, value_col, op, combiners);
  }
  if (op == AggregateOp::kCount) {
    ExpectKernelMatchesOracle(input, {0, 1}, -1, op, combiners);
  }
}

TEST_P(GroupByKernelTest, EdgeShapesMatchOracle) {
  const auto [op, combiners] = GetParam();
  const int p = 8;
  Rng rng(13);
  const Relation rel = GenerateUniform(rng, 600, 3, 30);
  // Fewer rows than servers: most fragments are empty.
  ExpectKernelMatchesOracle(
      DistRelation::Scatter(Relation::FromRows({{1, 2, 3}, {1, 2, 4}}), p),
      {0, 1}, 2, op, combiners);
  // No rows at all.
  ExpectKernelMatchesOracle(DistRelation(3, p), {0, 1}, 2, op, combiners);
  // Every row on one server.
  std::vector<Relation> lopsided(p, Relation(3));
  lopsided[5] = rel;
  const DistRelation one_server =
      DistRelation::FromFragments(std::move(lopsided));
  ExpectKernelMatchesOracle(one_server, {0, 1}, 2, op, combiners);
  ExpectKernelMatchesOracle(one_server, {2}, 0, op, combiners);
  // One group.
  ExpectKernelMatchesOracle(
      DistRelation::Scatter(GenerateConstantColumn(900, 0, 7), p), {0}, 1, op,
      combiners);
  // The scalar group.
  ExpectKernelMatchesOracle(DistRelation::Scatter(rel, p), {}, 1, op,
                            combiners);
  ExpectKernelMatchesOracle(one_server, {}, 2, op, combiners);
}

TEST_P(GroupByKernelTest, ValuesAtOrAboveTwoToThe63) {
  const auto [op, combiners] = GetParam();
  const Value big = Value{1} << 63;
  Relation rel(3);
  for (Value i = 0; i < 200; ++i) {
    // Keys and values straddle 2^63; one value is >= 2^63, so every
    // group's SUM stays below 2^64.
    rel.AppendRow({big + i % 5, i % 3, (i == 0 ? big : 0) + i});
    rel.AppendRow({i % 5, ~Value{0} - i % 3, i});
  }
  const DistRelation input = DistRelation::Scatter(rel, 8);
  ExpectKernelMatchesOracle(input, {0, 1}, 2, op, combiners);
  ExpectKernelMatchesOracle(input, {1}, 2, op, combiners);
  ExpectKernelMatchesOracle(input, {0}, 2, op, combiners);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupByKernelTest,
    ::testing::Combine(::testing::ValuesIn(kAllOps), ::testing::Bool()),
    [](const auto& info) {
      return OpName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_combiners" : "_raw");
    });

// Output bytes do not depend on the pool width: the combine scans each
// fragment serially, and the merge sorts.
TEST(GroupByKernelTest, SameFragmentsAtEveryThreadCount) {
  Rng rng(14);
  const DistRelation input =
      DistRelation::Scatter(GenerateZipf(rng, 4000, 3, 200, 1, 1.3), 16);
  for (const int threads : {1, 3, 8}) {
    for (const bool combiners : {true, false}) {
      ExpectKernelMatchesOracle(input, {1, 2}, 0, AggregateOp::kSum,
                                combiners, threads);
    }
  }
}

// Two rows of one group whose SUM wraps, placed on `servers` (equal =
// inside one fragment's combine, different = only the merge sees both).
DistRelation OverflowingPair(int first_server, int second_server) {
  const Value half = Value{1} << 63;
  std::vector<Relation> fragments(4, Relation(2));
  fragments[first_server].AppendRow({7, half});
  fragments[second_server].AppendRow({7, half});
  fragments[2].AppendRow({8, 1});
  return DistRelation::FromFragments(std::move(fragments));
}

TEST(GroupByKernelTest, CombineOverflowIsOutOfRange) {
  Cluster cluster(4, 3);
  const auto result = DistributedGroupByAggregate(
      cluster, OverflowingPair(1, 1), {0}, 1, AggregateOp::kSum);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  // The combine fails before the shuffle: no round was metered.
  EXPECT_EQ(cluster.cost_report().num_rounds(), 0);
}

TEST(GroupByKernelTest, MergeOverflowIsOutOfRange) {
  for (const bool combiners : {true, false}) {
    Cluster cluster(4, 3);
    GroupByOptions options;
    options.use_combiners = combiners;
    const auto result = DistributedGroupByAggregate(
        cluster, OverflowingPair(0, 3), {0}, 1, AggregateOp::kSum, options);
    ASSERT_FALSE(result.ok()) << "combiners=" << combiners;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
    // Each partial fits, so the failure is the merge's, after the shuffle.
    EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
  }
}

TEST(ScalarSumTest, PartialOverflowIsOutOfRange) {
  Cluster cluster(4, 3);
  const auto result =
      DistributedSum(cluster, OverflowingPair(1, 1), /*value_col=*/1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(cluster.cost_report().num_rounds(), 0);
}

TEST(ScalarSumTest, TreeMergeOverflowIsOutOfRange) {
  Cluster cluster(4, 3);
  const auto result =
      DistributedSum(cluster, OverflowingPair(0, 3), /*value_col=*/1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_GE(cluster.cost_report().num_rounds(), 1);
}

TEST(ScalarSumTest, CorrectAcrossFanIns) {
  Rng rng(4);
  const Relation rel = GenerateUniform(rng, 5000, 1, 1000);
  Value expected = 0;
  for (int64_t i = 0; i < rel.size(); ++i) expected += rel.at(i, 0);
  for (const int p : {1, 7, 16, 64}) {
    for (const int fan_in : {2, 4, 8}) {
      Cluster cluster(p, 3);
      const ScalarAggregateResult result =
          DistributedSum(cluster, DistRelation::Scatter(rel, p), 0, fan_in)
              .value();
      EXPECT_EQ(result.sum, expected) << "p=" << p << " f=" << fan_in;
      const int expected_rounds =
          p == 1 ? 0
                 : static_cast<int>(std::ceil(std::log(p) /
                                              std::log(fan_in) - 1e-9));
      EXPECT_EQ(result.rounds, expected_rounds)
          << "p=" << p << " f=" << fan_in;
      EXPECT_EQ(cluster.cost_report().num_rounds(), result.rounds);
    }
  }
}

TEST(ScalarSumTest, TreeLoadIsFanIn) {
  const int p = 64;
  Rng rng(5);
  const Relation rel = GenerateUniform(rng, 640, 1, 10);
  Cluster cluster(p, 3);
  ASSERT_TRUE(
      DistributedSum(cluster, DistRelation::Scatter(rel, p), 0, 4).ok());
  // Each round a leader receives at most fan_in - 1 partials.
  EXPECT_LE(cluster.cost_report().MaxLoadTuples(), 3);
}

TEST(ScalarSumTest, OverflowSurfacesTypedError) {
  // Two fragments whose partials are each fine but whose tree merge wraps.
  const Value half = Value{1} << 63;
  Relation rel(1);
  rel.AppendRow({half});
  rel.AppendRow({half});
  rel.AppendRow({1});
  Cluster cluster(4, 3);
  const auto result =
      DistributedSum(cluster, DistRelation::Scatter(rel, 4), 0, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace mpcqp
