// Death tests for API-misuse CHECKs: the library aborts (never corrupts
// the meter) on programmer errors.

#include <gtest/gtest.h>

#include <algorithm>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "multiway/hypercube.h"
#include "relation/relation.h"

namespace mpcqp {
namespace {

TEST(ClusterDeathTest, NestedBeginRoundAborts) {
  Cluster cluster(2, 1);
  cluster.BeginRound("outer");
  EXPECT_DEATH(cluster.BeginRound("inner"), "BeginRound while a round");
}

TEST(ClusterDeathTest, EndRoundWithoutBeginAborts) {
  Cluster cluster(2, 1);
  EXPECT_DEATH(cluster.EndRound(), "EndRound without");
}

TEST(ClusterDeathTest, RecordMessageOutsideRoundAborts) {
  Cluster cluster(2, 1);
  EXPECT_DEATH(cluster.RecordMessage(0, 1, 1, 1), "outside a round");
}

TEST(ClusterDeathTest, RecordMessageBadServerAborts) {
  Cluster cluster(2, 1);
  cluster.BeginRound("r");
  EXPECT_DEATH(cluster.RecordMessage(0, 7, 1, 1), "CHECK failed");
}

TEST(ClusterDeathTest, NewHashFunctionInsideParallelRegionAborts) {
  // The multi-threaded cluster is built inside the death statement so the
  // worker threads exist only in the forked child.
  EXPECT_DEATH(
      {
        ClusterOptions options;
        options.num_threads = 4;
        Cluster cluster(4, 1, options);
        cluster.pool().ParallelFor(
            4, [&](int64_t) { cluster.NewHashFunction(); });
      },
      "inside a parallel region");
}

TEST(ClusterDeathTest, NewHashFunctionInsideSerialParallelForAborts) {
  // The misuse is caught even at num_threads = 1, where ParallelFor runs
  // inline and no actual race exists: determinism would still break at
  // other thread counts.
  Cluster cluster(4, 1);
  EXPECT_DEATH(cluster.pool().ParallelFor(
                   4, [&](int64_t) { cluster.NewHashFunction(); }),
               "inside a parallel region");
}

TEST(ClusterDeathTest, ResetDuringRoundAborts) {
  Cluster cluster(2, 1);
  cluster.BeginRound("r");
  EXPECT_DEATH(cluster.ResetCosts(), "during a round");
}

TEST(RelationDeathTest, ArityMismatchAborts) {
  Relation r(2);
  EXPECT_DEATH(r.AppendRow({1, 2, 3}), "CHECK failed");
}

TEST(RelationDeathTest, OutOfRangeAccessAborts) {
  Relation r = Relation::FromRows({{1, 2}});
  EXPECT_DEATH(r.at(5, 0), "CHECK failed");
  EXPECT_DEATH(r.at(0, 9), "CHECK failed");
}

TEST(ExchangeDeathTest, BadDestinationAborts) {
  Cluster cluster(2, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}}), 2);
  EXPECT_DEATH(Route(
                   cluster, dist,
                   [](int, const Relation&, int64_t begin, int64_t end,
                      RouteSink& sink) {
                     for (int64_t i = begin; i < end; ++i) {
                       sink.Add(99);
                       sink.EndRow();
                     }
                   },
                   "bad"),
               "CHECK failed");
}

// A grid route whose base plus largest offset leaves [0, p).
TEST(ExchangeDeathTest, GridOffsetPastLastServerAborts) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}, {2}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation&, int64_t begin, int64_t end,
                      int32_t* base) {
                     std::fill(base, base + (end - begin), 2);
                   },
                   {0, 2}, "bad"),
               "CHECK failed");
}

TEST(ExchangeDeathTest, NegativeGridBaseAborts) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation&, int64_t begin, int64_t end,
                      int32_t* base) {
                     std::fill(base, base + (end - begin), -1);
                   },
                   {0}, "bad"),
               "CHECK failed");
}

TEST(ExchangeDeathTest, NegativeGridOffsetAborts) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation&, int64_t begin, int64_t end,
                      int32_t* base) {
                     std::fill(base, base + (end - begin), 2);
                   },
                   {0, -1}, "bad"),
               "negative grid offset");
}

// A slab lists each offset once.
TEST(ExchangeDeathTest, DuplicateGridOffsetAborts) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation&, int64_t begin, int64_t end,
                      int32_t* base) {
                     std::fill(base, base + (end - begin), 0);
                   },
                   {0, 0}, "bad"),
               "duplicate grid offset");
}

// Bases 0, 1 and 2 with offsets {0, 1}: base 0's slab mate 1 is itself a
// base that receives rows, so the slabs overlap.
TEST(ExchangeDeathTest, OverlappingGridSlabsAbort) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{0}, {1}, {2}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation& frag, int64_t begin, int64_t end,
                      int32_t* base) {
                     for (int64_t i = begin; i < end; ++i) {
                       base[i - begin] = static_cast<int32_t>(frag.row(i)[0]);
                     }
                   },
                   {0, 1}, "bad"),
               "is also a base");
}

// Bases 0 and 1 with offsets {0, 2, 3}: server 3 is base 0's mate at
// offset 3 and base 1's at offset 2.
TEST(ExchangeDeathTest, GridMateOfTwoBasesAborts) {
  Cluster cluster(5, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{0}, {1}}), 5);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation& frag, int64_t begin, int64_t end,
                      int32_t* base) {
                     for (int64_t i = begin; i < end; ++i) {
                       base[i - begin] = static_cast<int32_t>(frag.row(i)[0]);
                     }
                   },
                   {0, 2, 3}, "bad"),
               "reached from two bases");
}

// The base holds a slab's payload, so offset 0 is part of every slab.
TEST(ExchangeDeathTest, GridWithoutZeroOffsetAborts) {
  Cluster cluster(4, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}}), 4);
  EXPECT_DEATH(RouteGrid(
                   cluster, dist,
                   [](const Relation&, int64_t begin, int64_t end,
                      int32_t* base) {
                     std::fill(base, base + (end - begin), 0);
                   },
                   {1, 2}, "bad"),
               "must include 0");
}

// A Route callback must close exactly one row per row of its morsel.
TEST(ExchangeDeathTest, SinkRowCountMismatchAborts) {
  Cluster cluster(2, 1);
  const DistRelation dist =
      DistRelation::Scatter(Relation::FromRows({{1}, {2}, {3}, {4}}), 2);
  EXPECT_DEATH(Route(
                   cluster, dist,
                   [](int, const Relation&, int64_t, int64_t,
                      RouteSink& sink) {
                     sink.Add(0);
                     sink.EndRow();  // Once per morsel, not per row.
                   },
                   "bad"),
               "EndRow once per row");
  EXPECT_DEATH(Route(
                   cluster, dist,
                   [](int, const Relation&, int64_t begin, int64_t end,
                      RouteSink& sink) {
                     for (int64_t i = begin; i <= end; ++i) sink.EndRow();
                   },
                   "bad"),
               "EndRow once per row");
}

TEST(HyperCubeDeathTest, ForcedSharesExceedingPAbort) {
  Cluster cluster(4, 1);
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  std::vector<DistRelation> atoms = {
      DistRelation::Scatter(Relation::FromRows({{1, 2}}), 4),
      DistRelation::Scatter(Relation::FromRows({{2, 3}}), 4)};
  HyperCubeOptions options;
  options.forced_shares = {2, 2, 2};  // Product 8 > p = 4.
  EXPECT_DEATH(HyperCubeJoin(cluster, q, atoms, options), "CHECK failed");
}

}  // namespace
}  // namespace mpcqp
