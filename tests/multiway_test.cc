#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>
#include <tuple>

#include "mpc/cluster.h"
#include "multiway/binary_plan.h"
#include "multiway/hypercube.h"
#include "multiway/shares.h"
#include "multiway/skew_hc.h"
#include "multiway/triangle_hl.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  out.reserve(atoms.size());
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

// ---------- Integer shares ----------

TEST(SharesTest, TriangleEqualSizesNearCubeRoot) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const IntegerShares s = ComputeShares(q, {1000, 1000, 1000}, 64);
  EXPECT_EQ(s.shares, (std::vector<int>{4, 4, 4}));
  EXPECT_NEAR(s.predicted_load, 1000.0 / 16.0, 1.0);
}

TEST(SharesTest, ProductNeverExceedsP) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  for (int p : {1, 2, 3, 7, 10, 33, 100}) {
    const IntegerShares s = ComputeShares(q, {500, 700, 900}, p);
    int64_t product = 1;
    for (int v : s.shares) {
      EXPECT_GE(v, 1);
      product *= v;
    }
    EXPECT_LE(product, p) << "p=" << p;
  }
}

TEST(SharesTest, TwoWayJoinAllShareOnJoinVariable) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const IntegerShares s = ComputeShares(q, {5000, 5000}, 16);
  EXPECT_EQ(s.shares[1], 16);
  EXPECT_EQ(s.shares[0], 1);
  EXPECT_EQ(s.shares[2], 1);
}

TEST(SharesTest, ExhaustiveNeverWorseThanGreedy) {
  for (int p : {4, 8, 27, 60}) {
    for (const auto& sizes :
         {std::vector<int64_t>{1000, 1000, 1000},
          std::vector<int64_t>{100, 10000, 10000},
          std::vector<int64_t>{64, 512, 4096}}) {
      const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
      const IntegerShares greedy =
          ComputeShares(q, sizes, p, ShareRounding::kFloorGreedy);
      const IntegerShares exact =
          ComputeShares(q, sizes, p, ShareRounding::kExhaustive);
      EXPECT_LE(exact.predicted_load, greedy.predicted_load + 1e-9)
          << "p=" << p;
    }
  }
}

TEST(SharesTest, PredictedLoadCountsDistinctVarsOnce) {
  const auto q = ConjunctiveQuery::Parse("Q(x) :- R(x,x)");
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(PredictedLoad(*q, {100}, {4}), 25.0, 1e-9);
}

// ---------- HyperCube ----------

struct HcCase {
  const char* query;
  int64_t rows;
  uint64_t domain;
};

// Names the case by its fields, so test names stay stable across builds.
void PrintTo(const HcCase& c, std::ostream* os) {
  *os << c.query << " rows=" << c.rows << " domain=" << c.domain;
}

class HyperCubeTest
    : public ::testing::TestWithParam<std::tuple<HcCase, int>> {};

TEST_P(HyperCubeTest, MatchesSerialReference) {
  const auto [spec, p] = GetParam();
  const auto q = ConjunctiveQuery::Parse(spec.query);
  ASSERT_TRUE(q.ok());
  Rng rng(81);
  Cluster cluster(p, 5);
  std::vector<Relation> atoms;
  for (int j = 0; j < q->num_atoms(); ++j) {
    atoms.push_back(
        GenerateUniform(rng, spec.rows, q->atom(j).arity(), spec.domain));
  }
  const HyperCubeResult result =
      HyperCubeJoin(cluster, *q, Scatter(atoms, p));
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(*q, atoms)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HyperCubeTest,
    ::testing::Combine(
        ::testing::Values(
            HcCase{"R(x,y), S(y,z), T(z,x)", 150, 12},
            HcCase{"R(x,y), S(y,z)", 200, 15},
            HcCase{"R(x), S(y)", 30, 50},
            HcCase{"R(x,y), S(y,z), T(z,w)", 120, 8},
            HcCase{"R(x0,x1), S(x0,x2), T(x0,x3)", 100, 6},
            HcCase{"A(x,y), B(y,z), C(z,w), D(w,x)", 80, 6}),
        ::testing::Values(1, 8, 27, 64)));

TEST(HyperCubeTest, RepeatedVariableAtom) {
  const auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,x), S(x,y)");
  ASSERT_TRUE(q.ok());
  Rng rng(83);
  Cluster cluster(8, 5);
  std::vector<Relation> atoms = {GenerateUniform(rng, 100, 2, 5),
                                 GenerateUniform(rng, 100, 2, 5)};
  const HyperCubeResult result =
      HyperCubeJoin(cluster, *q, Scatter(atoms, 8));
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(*q, atoms)));
}

TEST(HyperCubeTest, OutputProducedExactlyOnce) {
  // Duplicate-free inputs with a forced non-trivial grid: the distributed
  // output must be duplicate-free too (each result at exactly one server).
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(85);
  Cluster cluster(27, 5);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(Dedup(GenerateUniform(rng, 200, 2, 10)));
  }
  const HyperCubeResult result = HyperCubeJoin(cluster, q, Scatter(atoms, 27));
  const Relation collected = result.output.Collect();
  EXPECT_EQ(collected.size(), Dedup(collected).size());
}

TEST(HyperCubeTest, TriangleLoadScalesAsPToTwoThirds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(87);
  const int64_t n = 3000;
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateMatchingDegree(rng, n, 1));
  }
  double prev_load = 1e18;
  for (int p : {1, 8, 64}) {
    Cluster cluster(p, 5);
    HyperCubeJoin(cluster, q, Scatter(atoms, p));
    const double load =
        static_cast<double>(cluster.cost_report().MaxLoadTuples());
    const double theory = 3.0 * n / std::pow(p, 2.0 / 3.0);
    EXPECT_LT(load, 2.0 * theory) << "p=" << p;
    EXPECT_LT(load, prev_load);
    prev_load = load;
  }
}

TEST(HyperCubeTest, ForcedSharesRespected) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(89);
  Cluster cluster(16, 5);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 100, 2, 9));
  }
  HyperCubeOptions options;
  options.forced_shares = {4, 4, 1};
  const HyperCubeResult result =
      HyperCubeJoin(cluster, q, Scatter(atoms, 16), options);
  EXPECT_EQ(result.shares, options.forced_shares);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(q, atoms)));
}

TEST(HyperCubeTest, EmptyAtomGivesEmptyOutput) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(91);
  Cluster cluster(8, 5);
  std::vector<Relation> atoms = {GenerateUniform(rng, 50, 2, 5), Relation(2),
                                 GenerateUniform(rng, 50, 2, 5)};
  const HyperCubeResult result = HyperCubeJoin(cluster, q, Scatter(atoms, 8));
  EXPECT_TRUE(result.output.Collect().empty());
}

// ---------- SkewHC ----------

class SkewHcTest
    : public ::testing::TestWithParam<std::tuple<int, double, uint64_t>> {};

TEST_P(SkewHcTest, MatchesSerialReferenceUnderSkew) {
  const auto [p, skew, seed] = GetParam();
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(seed);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateZipf(rng, 400, 2, 60, j % 2, skew));
  }
  Cluster cluster(p, 5);
  const SkewHcResult result = SkewHcJoin(cluster, q, Scatter(atoms, p));
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(q, atoms)));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkewHcTest,
    ::testing::Combine(::testing::Values(1, 8, 27),
                       ::testing::Values(0.0, 1.0, 2.0),
                       ::testing::Values(93u, 94u)));

TEST(SkewHcTest, NoSkewRunsSingleResidual) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(95);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateMatchingDegree(rng, 1000, 1));
  }
  Cluster cluster(8, 5);
  const SkewHcResult result = SkewHcJoin(cluster, q, Scatter(atoms, 8));
  ASSERT_EQ(result.residuals.size(), 1u);
  EXPECT_TRUE(result.residuals[0].heavy_vars.empty());
}

// Serial reference for SkewHC's class sizes: a value is heavy for v when
// its degree exceeds max(1, IN/p) in some atom containing v, and a row of
// atom j belongs to a combo's class when its heaviness signature over the
// atom's variables equals combo & vars(j). Checks every executed residual.
void ExpectSerialClassSizes(const ConjunctiveQuery& q,
                            const std::vector<Relation>& atoms, int p,
                            const std::vector<ResidualInfo>& residuals) {
  int64_t total_in = 0;
  for (const Relation& a : atoms) total_in += a.size();
  const int64_t threshold = std::max<int64_t>(1, total_in / p);
  std::vector<std::set<Value>> heavy(q.num_vars());
  for (int j = 0; j < q.num_atoms(); ++j) {
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      std::map<Value, int64_t> degree;
      for (int64_t i = 0; i < atoms[j].size(); ++i) ++degree[atoms[j].at(i, c)];
      for (const auto& [value, count] : degree) {
        if (count > threshold) heavy[v].insert(value);
      }
    }
  }
  for (const ResidualInfo& info : residuals) {
    uint32_t combo = 0;
    for (int v : info.heavy_vars) combo |= 1u << v;
    ASSERT_EQ(static_cast<int>(info.class_sizes.size()), q.num_atoms());
    for (int j = 0; j < q.num_atoms(); ++j) {
      uint32_t vars = 0;
      for (const auto& [v, c] : DistinctVarCols(q.atom(j))) vars |= 1u << v;
      int64_t expected = 0;
      for (int64_t i = 0; i < atoms[j].size(); ++i) {
        uint32_t sig = 0;
        for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
          if (heavy[v].count(atoms[j].at(i, c)) > 0) sig |= 1u << v;
        }
        if (sig == (combo & vars)) ++expected;
      }
      EXPECT_EQ(info.class_sizes[j], expected)
          << "combo " << combo << " atom " << j;
    }
  }
}

TEST(SkewHcTest, HeavyValueSpawnsResiduals) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(97);
  // z skewed to a constant in S and T.
  std::vector<Relation> atoms = {
      GenerateUniform(rng, 600, 2, 40),       // R(x,y) uniform.
      GenerateConstantColumn(600, 1, 7),      // S(y,z): z == 7.
      GenerateConstantColumn(600, 0, 7),      // T(z,x): z == 7.
  };
  // Classes are counted in parallel over the pool and routed over
  // morsels; neither may change them.
  for (int threads : {1, 4}) {
    for (int64_t morsel_rows : {ClusterOptions{}.morsel_rows, int64_t{97}}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << " morsel_rows " << morsel_rows);
      ClusterOptions options;
      options.num_threads = threads;
      options.morsel_rows = morsel_rows;
      Cluster cluster(16, 5, options);
      const SkewHcResult result = SkewHcJoin(cluster, q, Scatter(atoms, 16));
      EXPECT_TRUE(
          MultisetEqual(result.output.Collect(), EvalJoinLocal(q, atoms)));
      EXPECT_GE(result.residuals.size(), 1u);
      bool has_heavy_combo = false;
      for (const ResidualInfo& info : result.residuals) {
        if (!info.heavy_vars.empty()) has_heavy_combo = true;
      }
      EXPECT_TRUE(has_heavy_combo);
      ExpectSerialClassSizes(q, atoms, 16, result.residuals);
    }
  }
}

TEST(SkewHcTest, BeatsPlainHyperCubeOnSkewedTriangle) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(99);
  const int64_t n = 2000;
  // Heavy z = 7 in both S and T; R uniform. HyperCube's z-dimension is
  // useless for the heavy tuples: they all hash to one z-slab.
  std::vector<Relation> atoms = {
      GenerateMatchingDegree(rng, n, 1),
      GenerateConstantColumn(n, 1, 7),
      GenerateConstantColumn(n, 0, 7),
  };
  const int p = 64;
  Cluster hc_cluster(p, 5);
  HyperCubeOptions options;
  options.forced_shares = {4, 4, 4};
  HyperCubeJoin(hc_cluster, q, Scatter(atoms, p), options);
  Cluster shc_cluster(p, 5);
  SkewHcJoin(shc_cluster, q, Scatter(atoms, p));
  EXPECT_LT(shc_cluster.cost_report().MaxLoadTuples(),
            hc_cluster.cost_report().MaxLoadTuples());
}

TEST(SkewHcTest, WorksForStarQueries) {
  const auto q = ConjunctiveQuery::Parse("R(x,y), S(x,z)");
  ASSERT_TRUE(q.ok());
  Rng rng(101);
  std::vector<Relation> atoms = {GenerateZipf(rng, 500, 2, 50, 0, 1.5),
                                 GenerateZipf(rng, 500, 2, 50, 0, 1.5)};
  Cluster cluster(16, 5);
  const SkewHcResult result = SkewHcJoin(cluster, *q, Scatter(atoms, 16));
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(*q, atoms)));
  ExpectSerialClassSizes(*q, atoms, 16, result.residuals);
}

// ---------- Triangle heavy-light + semijoin plan (slide 59) ----------

class TriangleHlTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TriangleHlTest, MatchesSerialReference) {
  const auto [p, skew] = GetParam();
  Rng data_rng(113);
  Rng rng(114);
  std::vector<Relation> atoms = {
      GenerateUniform(data_rng, 500, 2, 60),
      GenerateZipf(data_rng, 500, 2, 60, 1, skew),   // S(y,z): z skewed.
      GenerateZipf(data_rng, 500, 2, 60, 0, skew),   // T(z,x): z skewed.
  };
  Cluster cluster(p, 5);
  const TriangleHlResult result = TriangleHeavyLightJoin(
      cluster, DistRelation::Scatter(atoms[0], p),
      DistRelation::Scatter(atoms[1], p), DistRelation::Scatter(atoms[2], p),
      rng);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(),
                    EvalJoinLocal(ConjunctiveQuery::Triangle(), atoms)));
  EXPECT_EQ(result.overlapped_rounds, 2);
  EXPECT_LE(result.metered_rounds, 3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TriangleHlTest,
                         ::testing::Combine(::testing::Values(1, 8, 27),
                                            ::testing::Values(0.0, 1.5)));

TEST(TriangleHlTest, HeavyZDetectedAndLoadBounded) {
  const int p = 64;
  const int64_t n = 4000;
  Rng data_rng(115);
  Rng rng(116);
  std::vector<Relation> atoms = {
      GenerateMatchingDegree(data_rng, n, 1),
      GenerateConstantColumn(n, 1, 7),
      GenerateConstantColumn(n, 0, 7),
  };
  Cluster cluster(p, 5);
  const TriangleHlResult result = TriangleHeavyLightJoin(
      cluster, DistRelation::Scatter(atoms[0], p),
      DistRelation::Scatter(atoms[1], p), DistRelation::Scatter(atoms[2], p),
      rng);
  EXPECT_GE(result.heavy_values, 1);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(),
                    EvalJoinLocal(ConjunctiveQuery::Triangle(), atoms)));
  // Better than the skew-blind hash cascade, which would pay the full
  // heavy degree (n) on one server.
  EXPECT_LT(cluster.cost_report().MaxLoadTuples(), n);
}

// ---------- Iterative binary join plans ----------

class BinaryPlanTest : public ::testing::TestWithParam<std::tuple<int, bool>> {
};

TEST_P(BinaryPlanTest, MatchesSerialReference) {
  const auto [p, skew_aware] = GetParam();
  const ConjunctiveQuery q = ConjunctiveQuery::Path(4);
  Rng data_rng(103);
  Rng rng(104);
  std::vector<Relation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(GenerateUniform(data_rng, 200, 2, 25));
  }
  Cluster cluster(p, 5);
  BinaryPlanOptions options;
  options.skew_aware = skew_aware;
  const BinaryPlanResult result =
      IterativeBinaryJoin(cluster, q, Scatter(atoms, p), rng, options);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(q, atoms)));
  EXPECT_EQ(result.intermediate_sizes.size(), 3u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinaryPlanTest,
                         ::testing::Combine(::testing::Values(1, 4, 16),
                                            ::testing::Values(false, true)));

TEST(BinaryPlanTest, TriangleViaBinaryJoins) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng data_rng(105);
  Rng rng(106);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(data_rng, 300, 2, 20));
  }
  Cluster cluster(8, 5);
  const BinaryPlanResult result =
      IterativeBinaryJoin(cluster, q, Scatter(atoms, 8), rng);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(q, atoms)));
  // Two join steps, each one round.
  EXPECT_EQ(cluster.cost_report().num_rounds(), 2);
}

TEST(BinaryPlanTest, CartesianStepWhenDisconnected) {
  const ConjunctiveQuery q = ConjunctiveQuery::CartesianProduct();
  Rng data_rng(107);
  Rng rng(108);
  std::vector<Relation> atoms = {GenerateUniform(data_rng, 50, 1, 1000),
                                 GenerateUniform(data_rng, 60, 1, 1000)};
  Cluster cluster(8, 5);
  const BinaryPlanResult result =
      IterativeBinaryJoin(cluster, q, Scatter(atoms, 8), rng);
  EXPECT_EQ(result.output.TotalSize(), 50 * 60);
}

TEST(BinaryPlanTest, CustomOrderChangesIntermediates) {
  // Path-3 where the middle relation is selective: joining it early
  // shrinks intermediates.
  const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  Rng data_rng(109);
  Rng rng(110);
  std::vector<Relation> atoms = {GenerateUniform(data_rng, 400, 2, 10),
                                 GenerateUniform(data_rng, 20, 2, 10),
                                 GenerateUniform(data_rng, 400, 2, 10)};
  Cluster c1(4, 5);
  const auto default_plan =
      IterativeBinaryJoin(c1, q, Scatter(atoms, 4), rng);
  Cluster c2(4, 5);
  BinaryPlanOptions opt;
  opt.order = {1, 0, 2};
  const auto custom_plan =
      IterativeBinaryJoin(c2, q, Scatter(atoms, 4), rng, opt);
  EXPECT_TRUE(MultisetEqual(default_plan.output.Collect(),
                            custom_plan.output.Collect()));
  EXPECT_LE(custom_plan.intermediate_sizes[0],
            default_plan.intermediate_sizes[0]);
}

TEST(BinaryPlanTest, RepeatedVarAtomNormalized) {
  const auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,x), S(x,y)");
  ASSERT_TRUE(q.ok());
  Rng data_rng(111);
  Rng rng(112);
  std::vector<Relation> atoms = {GenerateUniform(data_rng, 100, 2, 6),
                                 GenerateUniform(data_rng, 100, 2, 6)};
  Cluster cluster(4, 5);
  const BinaryPlanResult result =
      IterativeBinaryJoin(cluster, *q, Scatter(atoms, 4), rng);
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), EvalJoinLocal(*q, atoms)));
}

}  // namespace
}  // namespace mpcqp
