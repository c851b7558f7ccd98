#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/flat_counter.h"
#include "join/broadcast_join.h"
#include "join/cartesian.h"
#include "join/hash_join.h"
#include "join/heavy_hitters.h"
#include "join/skew_join.h"
#include "join/sort_join.h"
#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

Relation Reference2Way(const Relation& left, const Relation& right,
                       int left_key, int right_key) {
  return HashJoinLocal(left, right, {left_key}, {right_key});
}

// ---------- Parallel hash join ----------

class ParallelHashJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelHashJoinTest, MatchesSerialReference) {
  const auto [p, domain] = GetParam();
  Rng rng(101);
  Cluster cluster(p, 5);
  const Relation left = GenerateUniform(rng, 300, 2, domain);
  const Relation right = GenerateUniform(rng, 200, 2, domain);
  const DistRelation out = ParallelHashJoin(
      cluster, DistRelation::Scatter(left, p),
      DistRelation::Scatter(right, p), {1}, {0});
  EXPECT_TRUE(
      MultisetEqual(out.Collect(), Reference2Way(left, right, 1, 0)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelHashJoinTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(10, 1000)));

// The other two local kernels under the same hash shuffle: each server
// joins its own fragments with SortMergeJoinLocal or NestedLoopJoinLocal,
// and the union must be the serial join. SortJoin runs the sort-merge
// kernel on range fragments; this pins it on hash fragments, where equal
// keys from both sides meet on one server in arbitrary row order.
enum class LocalKernel { kSortMerge, kNestedLoop };

class PartitionedLocalJoinTest
    : public ::testing::TestWithParam<std::tuple<int, int, LocalKernel>> {};

TEST_P(PartitionedLocalJoinTest, MatchesSerialReference) {
  const auto [p, domain, kernel] = GetParam();
  Rng rng(101);
  Cluster cluster(p, 5);
  const Relation left = GenerateUniform(rng, 300, 2, domain);
  const Relation right = GenerateUniform(rng, 200, 2, domain);
  const HashFunction hash = cluster.NewHashFunction();
  cluster.BeginRound("shuffle");
  const DistRelation left_parts = HashPartition(
      cluster, DistRelation::Scatter(left, p), {1}, hash, "");
  const DistRelation right_parts = HashPartition(
      cluster, DistRelation::Scatter(right, p), {0}, hash, "");
  cluster.EndRound();
  std::vector<Relation> outputs;
  for (int s = 0; s < p; ++s) {
    outputs.push_back(
        kernel == LocalKernel::kSortMerge
            ? SortMergeJoinLocal(left_parts.fragment(s),
                                 right_parts.fragment(s), {1}, {0})
            : NestedLoopJoinLocal(left_parts.fragment(s),
                                  right_parts.fragment(s), {1}, {0}));
  }
  EXPECT_TRUE(MultisetEqual(
      DistRelation::FromFragments(std::move(outputs)).Collect(),
      Reference2Way(left, right, 1, 0)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionedLocalJoinTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(10, 1000),
                       ::testing::Values(LocalKernel::kSortMerge,
                                         LocalKernel::kNestedLoop)),
    [](const auto& info) {
      return "p" + std::to_string(std::get<0>(info.param)) + "_domain" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == LocalKernel::kSortMerge
                  ? "_sort_merge"
                  : "_nested_loop");
    });

TEST(ParallelHashJoinTest, LoadNearInOverPOnSkewFreeData) {
  const int p = 16;
  Rng rng(7);
  Cluster cluster(p, 5);
  // Every join value appears exactly once per side: no skew at all.
  const Relation left = GenerateMatchingDegree(rng, 16000, 1);
  const Relation right = GenerateMatchingDegree(rng, 16000, 1);
  ParallelHashJoin(cluster, DistRelation::Scatter(left, p),
                   DistRelation::Scatter(right, p), {1}, {1});
  const int64_t load = cluster.cost_report().MaxLoadTuples();
  const int64_t ideal = 32000 / p;
  EXPECT_LT(load, 2 * ideal) << "hash join load far above IN/p";
  EXPECT_GE(load, ideal);
}

TEST(ParallelHashJoinTest, SkewConcentratesLoad) {
  const int p = 16;
  Rng rng(7);
  Cluster cluster(p, 5);
  // All tuples share one join value: everything lands on one server.
  const Relation left = GenerateConstantColumn(4000, 1, 7);
  const Relation right = GenerateConstantColumn(4000, 0, 7);
  ParallelHashJoin(cluster, DistRelation::Scatter(left, p),
                   DistRelation::Scatter(right, p), {1}, {0});
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 8000);
}

TEST(ParallelHashJoinTest, MultiColumnKey) {
  const int p = 8;
  Rng rng(3);
  Cluster cluster(p, 5);
  const Relation left = GenerateUniform(rng, 200, 3, 6);
  const Relation right = GenerateUniform(rng, 200, 3, 6);
  const DistRelation out = ParallelHashJoin(
      cluster, DistRelation::Scatter(left, p),
      DistRelation::Scatter(right, p), {0, 1}, {1, 2});
  EXPECT_TRUE(MultisetEqual(out.Collect(),
                            HashJoinLocal(left, right, {0, 1}, {1, 2})));
}

// ---------- Broadcast join ----------

TEST(BroadcastJoinTest, MatchesReferenceAndLoadIsSmallSide) {
  const int p = 8;
  Rng rng(5);
  Cluster cluster(p, 5);
  const Relation big = GenerateUniform(rng, 4000, 2, 100);
  const Relation small = GenerateUniform(rng, 64, 2, 100);
  const DistRelation out =
      BroadcastJoin(cluster, DistRelation::Scatter(big, p),
                    DistRelation::Scatter(small, p), {1}, {0});
  EXPECT_TRUE(MultisetEqual(out.Collect(), Reference2Way(big, small, 1, 0)));
  // Load = |small| per server, independent of the big side.
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 64);
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

TEST(BroadcastJoinTest, ImmuneToSkew) {
  const int p = 8;
  Cluster cluster(p, 5);
  const Relation big = GenerateConstantColumn(2000, 1, 3);
  const Relation small = GenerateConstantColumn(32, 0, 3);
  const DistRelation out =
      BroadcastJoin(cluster, DistRelation::Scatter(big, p),
                    DistRelation::Scatter(small, p), {1}, {0});
  EXPECT_EQ(out.TotalSize(), 2000 * 32);
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 32);
}

TEST(BroadcastJoinTest, MultiColumnKey) {
  const int p = 8;
  Rng rng(6);
  Cluster cluster(p, 5);
  const Relation big = GenerateUniform(rng, 1500, 3, 6);
  const Relation small = GenerateUniform(rng, 40, 3, 6);
  const DistRelation out =
      BroadcastJoin(cluster, DistRelation::Scatter(big, p),
                    DistRelation::Scatter(small, p), {0, 2}, {1, 0});
  const Relation reference = HashJoinLocal(big, small, {0, 2}, {1, 0});
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(MultisetEqual(out.Collect(), reference));
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 40);
}

// An empty broadcast side costs no load and joins to nothing, and the
// empty result still has the output contract's arity on every server.
TEST(BroadcastJoinTest, EmptyBroadcastSideYieldsEmptyOutput) {
  const int p = 4;
  Rng rng(8);
  Cluster cluster(p, 5);
  const Relation big = GenerateUniform(rng, 500, 2, 50);
  const DistRelation out =
      BroadcastJoin(cluster, DistRelation::Scatter(big, p),
                    DistRelation::Scatter(Relation(3), p), {1}, {0});
  EXPECT_EQ(out.TotalSize(), 0);
  ASSERT_EQ(out.num_servers(), p);
  for (int s = 0; s < p; ++s) EXPECT_EQ(out.fragment(s).arity(), 4);
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 0);
}

// ---------- Cartesian product ----------

TEST(CartesianTest, OptimalGridShapeBalances) {
  // Equal sizes: square grid.
  EXPECT_EQ(OptimalGridShape(1000, 1000, 16),
            (std::pair<int, int>{4, 4}));
  // Tiny left: broadcast regime 1 x p.
  EXPECT_EQ(OptimalGridShape(1, 100000, 16),
            (std::pair<int, int>{1, 16}));
  // p = 1.
  EXPECT_EQ(OptimalGridShape(50, 50, 1), (std::pair<int, int>{1, 1}));
}

TEST(CartesianTest, ProductIsComplete) {
  const int p = 12;
  Rng rng(9);
  Rng data_rng(10);
  Cluster cluster(p, 5);
  const Relation left = GenerateUniform(data_rng, 40, 2, 1000);
  const Relation right = GenerateUniform(data_rng, 70, 1, 1000);
  const DistRelation out =
      CartesianProduct(cluster, DistRelation::Scatter(left, p),
                       DistRelation::Scatter(right, p), rng);
  EXPECT_EQ(out.TotalSize(), 40 * 70);
  EXPECT_EQ(out.arity(), 3);
  EXPECT_TRUE(MultisetEqual(out.Collect(),
                            NestedLoopJoinLocal(left, right, {}, {})));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

TEST(CartesianTest, LoadNearTwoSqrtRSOverP) {
  const int p = 16;
  Rng rng(9);
  Rng data_rng(11);
  Cluster cluster(p, 5);
  const Relation left = GenerateUniform(data_rng, 2000, 1, 1 << 30);
  const Relation right = GenerateUniform(data_rng, 2000, 1, 1 << 30);
  CartesianProduct(cluster, DistRelation::Scatter(left, p),
                   DistRelation::Scatter(right, p), rng);
  const double optimal = 2.0 * std::sqrt(2000.0 * 2000.0 / p);
  const auto load = static_cast<double>(cluster.cost_report().MaxLoadTuples());
  EXPECT_LT(load, 1.5 * optimal);
  EXPECT_GT(load, 0.9 * optimal);
}

// ---------- Heavy hitters ----------

TEST(HeavyHitterTest, FindsExactlyTheFrequentValues) {
  Relation r(2);
  for (int i = 0; i < 100; ++i) r.AppendRow({static_cast<Value>(i), 1});
  for (int i = 0; i < 40; ++i) r.AppendRow({static_cast<Value>(i), 2});
  for (int i = 0; i < 5; ++i) r.AppendRow({static_cast<Value>(i), 3});
  const DistRelation dist = DistRelation::Scatter(r, 4);
  const auto hitters = FindHeavyHitters(dist, 1, 30);
  ASSERT_EQ(hitters.size(), 2u);
  EXPECT_EQ(hitters[0].value, 1u);
  EXPECT_EQ(hitters[0].count, 100);
  EXPECT_EQ(hitters[1].value, 2u);
}

TEST(HeavyHitterTest, ThresholdIsStrict) {
  Relation r(1);
  for (int i = 0; i < 10; ++i) r.AppendRow({7});
  const DistRelation dist = DistRelation::Scatter(r, 2);
  EXPECT_TRUE(FindHeavyHitters(dist, 0, 10).empty());
  EXPECT_EQ(FindHeavyHitters(dist, 0, 9).size(), 1u);
}

// FindHeavyHitters against a std::map count over fragments that include
// empty ones and the values 0, 2^63 and UINT64_MAX. Every distinct count
// is tried as the threshold, so a count equal to it is always excluded.
TEST(HeavyHitterTest, MatchesMapReference) {
  const std::vector<Value> domain = {
      0, 1, 2, Value{1} << 63, UINT64_MAX - 1, UINT64_MAX};
  const int p = 6;
  DistRelation dist(2, p);
  std::map<Value, int64_t> reference;
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    // Skewed picks: the low-index values repeat the most.
    const size_t pick = std::min(rng.Next() % domain.size(),
                                 rng.Next() % domain.size());
    const Value value = domain[pick];
    // Servers 0, 2 and 3 stay empty.
    const int server = (i % 2 == 0) ? 1 : (i % 3 == 0 ? 4 : 5);
    dist.fragment(server).AppendRow({static_cast<Value>(i), value});
    ++reference[value];
  }
  ASSERT_TRUE(dist.fragment(0).empty());
  std::set<int64_t> thresholds = {-1, 0};
  for (const auto& [value, count] : reference) {
    thresholds.insert(count);
    thresholds.insert(count - 1);
  }
  const FlatCounter counts = CountColumn(dist, 1);
  for (int64_t threshold : thresholds) {
    std::vector<HeavyHitter> expected;
    for (const auto& [value, count] : reference) {
      if (count > threshold) expected.push_back({value, count});
    }
    EXPECT_EQ(FindHeavyHitters(dist, 1, threshold), expected)
        << "threshold " << threshold;
    EXPECT_EQ(FindHeavyHitters(counts, threshold), expected)
        << "threshold " << threshold;
  }
  for (const auto& [value, count] : reference) {
    EXPECT_EQ(counts.Get(value), count);
  }
  EXPECT_TRUE(FindHeavyHitters(DistRelation(2, 3), 0, 0).empty());
}

// ---------- Skew-aware join ----------

// A value heavy on one side only still joins with its few partner rows:
// its grid is shaped from the partner degree read off the other side's
// count. Value 7 is heavy in `left` only and value 9 in `right` only;
// value 11 is heavy in `left` and absent from `right`, so its rows are
// dropped rather than shuffled.
TEST(SkewJoinTest, OneSidedHitterTakesPartnerDegreeFromOtherCount) {
  const int p = 8;
  Relation left(2);
  Relation right(2);
  for (Value i = 0; i < 600; ++i) left.AppendRow({i, 7});
  for (Value i = 0; i < 5; ++i) right.AppendRow({7, i});
  for (Value i = 0; i < 5; ++i) left.AppendRow({i, 9});
  for (Value i = 0; i < 600; ++i) right.AppendRow({9, i});
  for (Value i = 0; i < 400; ++i) left.AppendRow({i, 11});
  for (Value v = 100; v < 400; ++v) {
    left.AppendRow({v, v});
    right.AppendRow({v, v});
  }
  const DistRelation left_dist = DistRelation::Scatter(left, p);
  const DistRelation right_dist = DistRelation::Scatter(right, p);
  // Threshold IN/p = 2210 / 8 = 276: 7, 9 and 11 are heavy on one side.
  const FlatCounter left_counts = CountColumn(left_dist, 1);
  const FlatCounter right_counts = CountColumn(right_dist, 0);
  EXPECT_EQ(right_counts.Get(7), 5);
  EXPECT_EQ(left_counts.Get(9), 5);
  EXPECT_EQ(right_counts.Get(11), 0);
  ASSERT_EQ(FindHeavyHitters(left_counts, 276),
            (std::vector<HeavyHitter>{{7, 600}, {11, 400}}));
  ASSERT_EQ(FindHeavyHitters(right_counts, 276),
            (std::vector<HeavyHitter>{{9, 600}}));

  Cluster hash_cluster(p, 5);
  const Relation expected =
      ParallelHashJoin(hash_cluster, left_dist, right_dist, {1}, {0})
          .Collect();
  ASSERT_EQ(expected.size(), 2 * 600 * 5 + 300);

  // Equal weights sqrt(600 * 5) and sqrt(5 * 600): each grid gets p / 2
  // servers. Light rows travel once; a left row of a grid goes to each of
  // its columns, a right row to each of its rows; value 11 travels nowhere.
  const auto [rows7, cols7] = OptimalGridShape(600, 5, p / 2);
  const auto [rows9, cols9] = OptimalGridShape(5, 600, p / 2);
  const int64_t expected_comm =
      600 + 600 * cols7 + 5 * rows7 + 5 * cols9 + 600 * rows9;

  std::vector<RoundCost> first_rounds;
  for (int threads : {1, 2, 8}) {
    ClusterOptions options;
    options.num_threads = threads;
    Cluster cluster(p, 5, options);
    Rng rng(33);
    const DistRelation out =
        SkewAwareJoin(cluster, left_dist, right_dist, 1, 0, rng);
    EXPECT_TRUE(MultisetEqual(out.Collect(), expected))
        << "threads=" << threads;
    EXPECT_EQ(cluster.cost_report().TotalCommTuples(), expected_comm)
        << "threads=" << threads;
    const std::vector<RoundCost>& rounds = cluster.cost_report().rounds();
    ASSERT_EQ(rounds.size(), 1u);
    if (first_rounds.empty()) {
      first_rounds = rounds;
      continue;
    }
    EXPECT_EQ(rounds[0].tuples_received, first_rounds[0].tuples_received)
        << "threads=" << threads;
    EXPECT_EQ(rounds[0].tuples_sent, first_rounds[0].tuples_sent)
        << "threads=" << threads;
  }
}

class SkewJoinCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(SkewJoinCorrectnessTest, MatchesReferenceUnderZipf) {
  const auto [p, skew, seed] = GetParam();
  Rng data_rng(seed);
  Rng rng(seed + 100);
  Cluster cluster(p, 5);
  const Relation left = GenerateZipf(data_rng, 1500, 2, 400, 1, skew);
  const Relation right = GenerateZipf(data_rng, 1500, 2, 400, 0, skew);
  const DistRelation out =
      SkewAwareJoin(cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 0, rng);
  EXPECT_TRUE(
      MultisetEqual(out.Collect(), Reference2Way(left, right, 1, 0)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkewJoinCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 4, 16),
                       ::testing::Values(0.0, 1.0, 1.5),
                       ::testing::Values(21u, 22u)));

TEST(SkewJoinTest, ExtremeSkewMatchesReference) {
  const int p = 16;
  Rng rng(23);
  Cluster cluster(p, 5);
  const Relation left = GenerateConstantColumn(800, 1, 7);
  const Relation right = GenerateConstantColumn(800, 0, 7);
  const DistRelation out =
      SkewAwareJoin(cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 0, rng);
  EXPECT_EQ(out.TotalSize(), 800 * 800);
}

TEST(SkewJoinTest, BeatsHashJoinOnExtremeSkew) {
  const int p = 16;
  const Relation left = GenerateConstantColumn(4000, 1, 7);
  const Relation right = GenerateConstantColumn(4000, 0, 7);

  Cluster hash_cluster(p, 5);
  ParallelHashJoin(hash_cluster, DistRelation::Scatter(left, p),
                   DistRelation::Scatter(right, p), {1}, {0});
  Rng rng(29);
  Cluster skew_cluster(p, 5);
  SkewAwareJoin(skew_cluster, DistRelation::Scatter(left, p),
                DistRelation::Scatter(right, p), 1, 0, rng);

  // Hash join: everything on one server (8000). Skew join: grid slices,
  // about 2*sqrt(|R||S|/p) = 2000.
  EXPECT_EQ(hash_cluster.cost_report().MaxLoadTuples(), 8000);
  EXPECT_LT(skew_cluster.cost_report().MaxLoadTuples(), 3000);
}

TEST(SkewJoinTest, NoHeavyHittersBehavesLikeHashJoin) {
  const int p = 8;
  Rng data_rng(31);
  Rng rng(32);
  const Relation left = GenerateMatchingDegree(data_rng, 4000, 1);
  const Relation right = GenerateMatchingDegree(data_rng, 4000, 1);

  Cluster cluster(p, 5);
  const DistRelation out =
      SkewAwareJoin(cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 1, rng);
  EXPECT_TRUE(
      MultisetEqual(out.Collect(), Reference2Way(left, right, 1, 1)));
  EXPECT_LT(cluster.cost_report().MaxLoadTuples(), 2 * 8000 / p);
}

TEST(SkewJoinTest, MeteredStatisticsSameAnswerExtraRounds) {
  const int p = 16;
  Rng data_rng(35);
  const Relation left = GenerateZipf(data_rng, 2000, 2, 200, 1, 1.4);
  const Relation right = GenerateZipf(data_rng, 2000, 2, 200, 0, 1.4);

  Rng rng_a(36);
  Cluster oracle_cluster(p, 5);
  const DistRelation oracle =
      SkewAwareJoin(oracle_cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 0, rng_a);

  Rng rng_b(36);
  Cluster metered_cluster(p, 5);
  SkewJoinOptions options;
  options.metered_statistics = true;
  const DistRelation metered =
      SkewAwareJoin(metered_cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 0, rng_b, options);

  EXPECT_TRUE(MultisetEqual(oracle.Collect(), metered.Collect()));
  EXPECT_EQ(oracle_cluster.cost_report().num_rounds(), 1);
  // 2 detection rounds per side + the join round.
  EXPECT_EQ(metered_cluster.cost_report().num_rounds(), 5);
}

TEST(SkewJoinTest, ThresholdFactorChangesHitterSet) {
  const int p = 8;
  Rng data_rng(33);
  Rng rng(34);
  const Relation left = GenerateZipf(data_rng, 2000, 2, 100, 1, 1.5);
  const Relation right = GenerateUniform(data_rng, 2000, 2, 100);
  SkewJoinOptions strict;
  strict.threshold_factor = 4.0;
  Cluster cluster(p, 5);
  const DistRelation out =
      SkewAwareJoin(cluster, DistRelation::Scatter(left, p),
                    DistRelation::Scatter(right, p), 1, 0, rng, strict);
  EXPECT_TRUE(
      MultisetEqual(out.Collect(), Reference2Way(left, right, 1, 0)));
}

// ---------- Parallel sort join ----------

class SortJoinCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SortJoinCorrectnessTest, MatchesReference) {
  const auto [p, skew] = GetParam();
  Rng data_rng(41);
  Rng rng(42);
  Cluster cluster(p, 5);
  const Relation left = GenerateZipf(data_rng, 1200, 2, 300, 1, skew);
  const Relation right = GenerateZipf(data_rng, 1000, 2, 300, 0, skew);
  const DistRelation out =
      ParallelSortJoin(cluster, DistRelation::Scatter(left, p),
                       DistRelation::Scatter(right, p), 1, 0, rng);
  EXPECT_TRUE(
      MultisetEqual(out.Collect(), Reference2Way(left, right, 1, 0)));
  // Constant rounds: 2 for PSRS + at most 1 for crossing keys.
  EXPECT_LE(cluster.cost_report().num_rounds(), 3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SortJoinCorrectnessTest,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Values(0.0, 1.2)));

TEST(SortJoinTest, ExtremeSkewCorrectAndBalanced) {
  const int p = 16;
  Rng rng(51);
  Cluster cluster(p, 5);
  const Relation left = GenerateConstantColumn(2000, 1, 7);
  const Relation right = GenerateConstantColumn(2000, 0, 7);
  const DistRelation out =
      ParallelSortJoin(cluster, DistRelation::Scatter(left, p),
                       DistRelation::Scatter(right, p), 1, 0, rng);
  EXPECT_EQ(out.TotalSize(), 2000 * 2000);
  // The crossing-value grids keep the load near 2 sqrt(|R||S|/p) + IN/p.
  EXPECT_LT(cluster.cost_report().MaxLoadTuples(), 2500);
}

}  // namespace
}  // namespace mpcqp
