#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <tuple>
#include <vector>

#include "query/hypergraph_lp.h"
#include "query/local_eval.h"
#include "query/query.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

constexpr double kTol = 1e-5;

// ---------- Parsing & construction ----------

TEST(QueryTest, ParseWithHead) {
  const auto q = ConjunctiveQuery::Parse("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 3);
  EXPECT_EQ(q->num_atoms(), 3);
  EXPECT_EQ(q->var_name(0), "x");
  EXPECT_EQ(q->atom(2).name, "T");
  EXPECT_EQ(q->atom(2).vars, (std::vector<int>{2, 0}));
}

TEST(QueryTest, ParseWithoutHead) {
  const auto q = ConjunctiveQuery::Parse("R(a,b), S(b,c)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->num_vars(), 3);
  EXPECT_EQ(q->var_name(2), "c");
}

TEST(QueryTest, ParseRepeatedVarInAtom) {
  const auto q = ConjunctiveQuery::Parse("R(x,x), S(x,y)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atom(0).vars, (std::vector<int>{0, 0}));
}

TEST(QueryTest, ParseErrors) {
  EXPECT_FALSE(ConjunctiveQuery::Parse("").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("R(x,").ok());
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q(x,y) :- R(x)").ok());  // y unused.
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q(x) :- R(x,z)").ok());  // z not head.
  EXPECT_FALSE(ConjunctiveQuery::Parse("Q(x,x) :- R(x)").ok());  // dup head.
  EXPECT_FALSE(ConjunctiveQuery::Parse("R(x,y) garbage").ok());
}

TEST(QueryTest, ToStringRoundTrips) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const auto reparsed = ConjunctiveQuery::Parse(q.ToString());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->ToString(), q.ToString());
}

TEST(QueryTest, StockQueries) {
  EXPECT_EQ(ConjunctiveQuery::Triangle().num_atoms(), 3);
  EXPECT_EQ(ConjunctiveQuery::Path(5).num_vars(), 6);
  EXPECT_EQ(ConjunctiveQuery::Star(4).num_vars(), 5);
  EXPECT_EQ(ConjunctiveQuery::Cycle(4).num_vars(), 4);
  EXPECT_EQ(ConjunctiveQuery::Bowtie().num_atoms(), 3);
  EXPECT_EQ(ConjunctiveQuery::Triangle().AtomsWithVar(0),
            (std::vector<int>{0, 2}));
}

// ---------- Fractional LPs: values from the deck ----------

struct LpCase {
  ConjunctiveQuery query;
  double tau_star;  // Fractional edge packing (slides 41, 51, 53, 61-62).
  double rho_star;  // Fractional edge cover.
};

// Names the case by its fields, so test names stay stable across builds.
void PrintTo(const LpCase& c, std::ostream* os) {
  *os << c.query.ToString() << " tau*=" << c.tau_star
      << " rho*=" << c.rho_star;
}

class HypergraphLpTest : public ::testing::TestWithParam<LpCase> {};

TEST_P(HypergraphLpTest, PackingMatchesDeck) {
  const auto packing = FractionalEdgePacking(GetParam().query);
  ASSERT_TRUE(packing.ok());
  EXPECT_NEAR(packing->value, GetParam().tau_star, kTol);
}

TEST_P(HypergraphLpTest, CoverMatchesDeck) {
  const auto cover = FractionalEdgeCover(GetParam().query);
  ASSERT_TRUE(cover.ok());
  EXPECT_NEAR(cover->value, GetParam().rho_star, kTol);
}

TEST_P(HypergraphLpTest, VertexCoverEqualsPackingByDuality) {
  const auto packing = FractionalEdgePacking(GetParam().query);
  const auto vc = FractionalVertexCover(GetParam().query);
  ASSERT_TRUE(packing.ok());
  ASSERT_TRUE(vc.ok());
  EXPECT_NEAR(packing->value, vc->value, kTol);
}

TEST_P(HypergraphLpTest, PackingWeightsFeasible) {
  const ConjunctiveQuery& q = GetParam().query;
  const auto packing = FractionalEdgePacking(q);
  ASSERT_TRUE(packing.ok());
  for (int v = 0; v < q.num_vars(); ++v) {
    double sum = 0;
    for (int j = 0; j < q.num_atoms(); ++j) {
      if (q.atom(j).ContainsVar(v)) sum += packing->weights[j];
    }
    EXPECT_LE(sum, 1.0 + kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DeckQueries, HypergraphLpTest,
    ::testing::Values(
        // Two-way join: τ*=1 (slide 41), ρ*=2.
        LpCase{ConjunctiveQuery::TwoWayJoin(), 1.0, 2.0},
        // Triangle: τ*=3/2, ρ*=3/2 (slides 41, 55).
        LpCase{ConjunctiveQuery::Triangle(), 1.5, 1.5},
        // Bowtie R(x),S(x,y),T(y): τ*=2 (slide 53), ρ*=... cover needs
        // x and y covered: S alone covers both: ρ*=1.
        LpCase{ConjunctiveQuery::Bowtie(), 2.0, 1.0},
        // Path-2 (two joins): τ*=2? No: x1 shared. Packing u1+u2<=1 at x1,
        // ends free: max = 2 with u=(1,1)? x1 violated. τ* = 1 + ... for
        // path-2: u1<=1 (x0), u1+u2<=1 (x1), u2<=1 (x2) -> max sum = 1.
        // Wait - u1=1, u2=0 gives 1; u1=u2=0.5 gives 1. τ*=1? No: the
        // packing may also exceed via... it is exactly 1. Cover: need x0,
        // x1, x2: both atoms weight 1 -> ρ*=2.
        LpCase{ConjunctiveQuery::Path(2), 1.0, 2.0},
        // Path-3: τ*=2 (pack R1, R3), ρ*=2 (cover R1, R3).
        LpCase{ConjunctiveQuery::Path(3), 2.0, 2.0},
        // Path-20: τ*=10 (slide 62). The cover LP matrix of a path is
        // totally unimodular, so ρ* equals the integral minimum edge
        // cover of a 21-vertex path: 11.
        LpCase{ConjunctiveQuery::Path(20), 10.0, 11.0},
        // Star-3: center limits packing... each atom contains x0, so
        // Σu <= 1: τ*=1; cover: every leaf needs its atom: ρ*=3.
        LpCase{ConjunctiveQuery::Star(3), 1.0, 3.0},
        // 4-cycle: τ*=2, ρ*=2.
        LpCase{ConjunctiveQuery::Cycle(4), 2.0, 2.0}));

// ---------- AGM bound ----------

TEST(AgmTest, TriangleEqualSizes) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const auto bound = AgmBound(q, {1000, 1000, 1000});
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(*bound, std::pow(1000.0, 1.5), std::pow(1000.0, 1.5) * 1e-4);
}

TEST(AgmTest, ZeroSizeShortCircuits) {
  const auto bound = AgmBound(ConjunctiveQuery::Triangle(), {1000, 0, 1000});
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(*bound, 0.0);
}

TEST(AgmTest, TwoWayJoinIsProductBound) {
  const auto bound =
      AgmBound(ConjunctiveQuery::CartesianProduct(), {30, 40});
  ASSERT_TRUE(bound.ok());
  EXPECT_NEAR(*bound, 1200.0, 1.0);
}

TEST(AgmTest, BoundIsActuallyAnUpperBound) {
  // Random instances: |OUT| <= AGM.
  Rng rng(11);
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(GenerateUniform(rng, 60, 2, 8));
    }
    const Relation out = EvalJoinLocal(q, atoms);
    const auto bound = AgmBound(q, {60, 60, 60});
    ASSERT_TRUE(bound.ok());
    EXPECT_LE(static_cast<double>(out.size()), *bound + kTol);
  }
}

// ---------- Share exponents and the packing-load duality ----------

TEST(SharesLpTest, TriangleEqualSizesGivesTwoThirdsExponents) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const auto shares = OptimalShareExponents(q, {1000, 1000, 1000}, 64);
  ASSERT_TRUE(shares.ok());
  for (int v = 0; v < 3; ++v) {
    EXPECT_NEAR(shares->exponents[v], 1.0 / 3.0, 1e-4);
  }
  // L = N / p^{2/3} = 1000 / 16.
  EXPECT_NEAR(shares->predicted_load, 1000.0 / 16.0, 0.1);
}

TEST(SharesLpTest, TwoWayJoinPutsAllShareOnJoinVar) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const auto shares = OptimalShareExponents(q, {10000, 10000}, 16);
  ASSERT_TRUE(shares.ok());
  EXPECT_NEAR(shares->exponents[1], 1.0, 1e-4);  // y gets everything.
  EXPECT_NEAR(shares->predicted_load, 10000.0 / 16.0, 0.1);
}

TEST(SharesLpTest, SkewedSizesShiftShares) {
  // Tiny R: broadcasting R (shares on z only) is better.
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const auto shares = OptimalShareExponents(q, {100, 100000, 100000}, 64);
  ASSERT_TRUE(shares.ok());
  // The load is dominated by S and T; exponents on x,y shrink.
  EXPECT_LT(shares->exponents[0] + shares->exponents[1], 0.7);
}

class PackingDualityTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PackingDualityTest, MaxPackingLoadEqualsShareLpLoad) {
  const auto [query_id, p] = GetParam();
  ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  std::vector<int64_t> sizes = {1 << 14, 1 << 12, 1 << 13};
  if (query_id == 1) {
    q = ConjunctiveQuery::TwoWayJoin();
    sizes = {1 << 14, 1 << 10};
  } else if (query_id == 2) {
    q = ConjunctiveQuery::Path(4);
    sizes = {1000, 2000, 4000, 8000};
  } else if (query_id == 3) {
    q = ConjunctiveQuery::Star(3);
    sizes = {5000, 5000, 5000};
  }
  const auto share_load = OptimalShareExponents(q, sizes, p);
  const auto packing_load = MaxPackingLoad(q, sizes, p);
  ASSERT_TRUE(share_load.ok());
  ASSERT_TRUE(packing_load.ok());
  // Equal by LP duality, up to bisection/simplex tolerance. The share LP
  // clamps the load at >= 1 tuple, so compare the clamped values.
  const double expected = std::max(1.0, *packing_load);
  EXPECT_NEAR(std::log(share_load->predicted_load), std::log(expected),
              1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    QueriesAndP, PackingDualityTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(4, 16, 64)));

TEST(PackingLoadTest, ExplicitPackingsMatchSlide42Table) {
  // Unequal triangle (slide 42-44): L = max over the 4 packing rows.
  const std::vector<int64_t> sizes = {1 << 10, 1 << 16, 1 << 16};
  const int p = 64;
  const double row1 = LoadForPacking({0.5, 0.5, 0.5}, sizes, p);
  const double row2 = LoadForPacking({1, 0, 0}, sizes, p);
  const double row3 = LoadForPacking({0, 1, 0}, sizes, p);
  const double row4 = LoadForPacking({0, 0, 1}, sizes, p);
  const auto lp = MaxPackingLoad(ConjunctiveQuery::Triangle(), sizes, p);
  ASSERT_TRUE(lp.ok());
  const double best = std::max({row1, row2, row3, row4, 1.0});
  EXPECT_NEAR(std::log(*lp < 1.0 ? 1.0 : *lp), std::log(best), 1e-3);
}

// ---------- Local evaluation ----------

TEST(LocalEvalTest, TriangleByHand) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const Relation r = Relation::FromRows({{1, 2}, {4, 5}});
  const Relation s = Relation::FromRows({{2, 3}, {5, 6}});
  const Relation t = Relation::FromRows({{3, 1}, {6, 9}});
  const Relation out = EvalJoinLocal(q, {r, s, t});
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(out.at(0, 0), 1u);
  EXPECT_EQ(out.at(0, 1), 2u);
  EXPECT_EQ(out.at(0, 2), 3u);
}

TEST(LocalEvalTest, RepeatedVariableSelects) {
  // R(x,x) keeps only diagonal rows.
  const auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,x), S(x,y)");
  ASSERT_TRUE(q.ok());
  const Relation r = Relation::FromRows({{1, 1}, {1, 2}, {3, 3}});
  const Relation s = Relation::FromRows({{1, 7}, {3, 8}, {2, 9}});
  const Relation out = EvalJoinLocal(*q, {r, s});
  EXPECT_EQ(out.size(), 2);
}

TEST(LocalEvalTest, CrossProductQuery) {
  const ConjunctiveQuery q = ConjunctiveQuery::CartesianProduct();
  const Relation r = Relation::FromRows({{1}, {2}});
  const Relation s = Relation::FromRows({{7}, {8}, {9}});
  EXPECT_EQ(EvalJoinLocal(q, {r, s}).size(), 6);
}

TEST(LocalEvalTest, BagSemanticsMultiplicities) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const Relation r = Relation::FromRows({{1, 5}, {1, 5}});
  const Relation s = Relation::FromRows({{5, 2}, {5, 2}, {5, 3}});
  EXPECT_EQ(EvalJoinLocal(q, {r, s}).size(), 6);
}

TEST(LocalEvalTest, MatchesPairwiseJoinsOnRandomData) {
  Rng rng(13);
  const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(GenerateUniform(rng, 80, 2, 12));
    }
    // Manual pairwise plan: ((R1 x1 R2) x2 R3).
    const Relation i1 = HashJoinLocal(atoms[0], atoms[1], {1}, {0});
    const Relation i2 = HashJoinLocal(i1, atoms[2], {2}, {0});
    EXPECT_TRUE(MultisetEqual(EvalJoinLocal(q, atoms), i2));
  }
}

TEST(LocalEvalTest, EmptyAtomMeansEmptyResult) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(13);
  const Relation full = GenerateUniform(rng, 50, 2, 5);
  EXPECT_TRUE(EvalJoinLocal(q, {full, Relation(2), full}).empty());
}

// ---------- Atom normalization and variable bookkeeping ----------

TEST(NormalizeAtomTest, RepeatedVariableKeepsDiagonalRowsAsDistinctVars) {
  const auto q = ConjunctiveQuery::Parse("Q(x,y) :- R(x,x,y)");
  ASSERT_TRUE(q.ok());
  const Relation r =
      Relation::FromRows({{1, 1, 5}, {1, 2, 6}, {3, 3, 7}, {4, 3, 8}});
  EXPECT_EQ(DistinctVars(q->atom(0)), (std::vector<int>{0, 1}));
  EXPECT_EQ(NormalizeAtom(q->atom(0), r),
            Relation::FromRows({{1, 5}, {3, 7}}));
  // The filter alone keeps every column.
  EXPECT_EQ(FilterRepeatedVars(q->atom(0), r),
            Relation::FromRows({{1, 1, 5}, {3, 3, 7}}));
}

TEST(NormalizeAtomTest, AllColumnsOneVariableYieldsOneColumn) {
  const auto q = ConjunctiveQuery::Parse("Q(x) :- R(x,x)");
  ASSERT_TRUE(q.ok());
  const Relation r = Relation::FromRows({{2, 2}, {2, 3}, {4, 4}});
  EXPECT_EQ(NormalizeAtom(q->atom(0), r), Relation::FromRows({{2}, {4}}));
}

TEST(NormalizeAtomTest, NoRepeatedVariableReturnsInputWithoutCopy) {
  const auto q = ConjunctiveQuery::Parse("Q(x,y,z) :- R(z,x,y)");
  ASSERT_TRUE(q.ok());
  Rng rng(5);
  const Relation r = GenerateUniform(rng, 40, 3, 6);
  const Relation normalized = NormalizeAtom(q->atom(0), r);
  EXPECT_TRUE(normalized.SharesPayloadWith(r));
  EXPECT_TRUE(FilterRepeatedVars(q->atom(0), r).SharesPayloadWith(r));
  EXPECT_EQ(DistinctVars(q->atom(0)), (std::vector<int>{2, 0, 1}));
}

TEST(VarColumnsTest, SharedKeyColsFollowsFirstArgumentOrder) {
  const std::vector<int> a = {3, 1, 0};
  const std::vector<int> b = {0, 2, 1, 3};
  std::vector<int> a_keys;
  std::vector<int> b_keys;
  SharedKeyCols(a, b, &a_keys, &b_keys);
  EXPECT_EQ(a_keys, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(b_keys, (std::vector<int>{3, 2, 0}));
  // Swapped arguments: the same pairs, in b's variable order.
  SharedKeyCols(b, a, &b_keys, &a_keys);
  EXPECT_EQ(b_keys, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(a_keys, (std::vector<int>{2, 1, 0}));
  // Disjoint schemas share nothing (a cross product).
  SharedKeyCols({4}, a, &a_keys, &b_keys);
  EXPECT_TRUE(a_keys.empty());
  EXPECT_TRUE(b_keys.empty());
}

TEST(VarColumnsTest, ColumnsOfPermutationAndIdOrder) {
  const std::vector<int> vars = {2, 0, 3, 1};
  EXPECT_EQ(ColumnsOf({0, 1, 2, 3}, vars), (std::vector<int>{1, 3, 0, 2}));
  EXPECT_EQ(ColumnsOf({3, 2}, vars), (std::vector<int>{2, 0}));
  EXPECT_EQ(IdOrderColumns(vars, 4), (std::vector<int>{1, 3, 0, 2}));
  // Projecting by the id-order columns sorts the schema.
  std::vector<int> projected;
  for (int c : IdOrderColumns(vars, 4)) projected.push_back(vars[c]);
  EXPECT_EQ(projected, (std::vector<int>{0, 1, 2, 3}));
}

TEST(VarColumnsTest, JoinOutputVarsMatchesHashJoinLocalColumns) {
  // R(x,y) ⋈ S(z,y,w) on y: output columns x, y, z, w.
  const std::vector<int> left_vars = {0, 1};
  const std::vector<int> right_vars = {2, 1, 3};
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  SharedKeyCols(left_vars, right_vars, &left_keys, &right_keys);
  EXPECT_EQ(JoinOutputVars(left_vars, right_vars, right_keys),
            (std::vector<int>{0, 1, 2, 3}));
  const Relation joined =
      HashJoinLocal(Relation::FromRows({{1, 2}}),
                    Relation::FromRows({{7, 2, 9}}), left_keys, right_keys);
  EXPECT_EQ(joined, Relation::FromRows({{1, 2, 7, 9}}));
  // With no keys every right variable is appended.
  EXPECT_EQ(JoinOutputVars(left_vars, {4}, {}), (std::vector<int>{0, 1, 4}));
}

// ---------- Canonical query shapes ----------

TEST(QueryTest, CanonicalShapeInvariantUnderIsomorphism) {
  // The same triangle written three ways: different atom order, different
  // variable names, different atom names — one canonical shape.
  const auto a = ConjunctiveQuery::Parse("R(x,y), S(y,z), T(z,x)");
  const auto b = ConjunctiveQuery::Parse("E2(b,c), E1(a,b), E3(c,a)");
  const auto c = ConjunctiveQuery::Parse("T(w,u), R(u,v), S(v,w)");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const CanonicalQueryShape sa = CanonicalizeShape(*a);
  EXPECT_EQ(sa.shape, CanonicalizeShape(*b).shape);
  EXPECT_EQ(sa.shape, CanonicalizeShape(*c).shape);
}

TEST(QueryTest, CanonicalShapeDistinguishesDifferentShapes) {
  const auto triangle = ConjunctiveQuery::Parse("R(x,y), S(y,z), T(z,x)");
  const auto path = ConjunctiveQuery::Parse("R(x,y), S(y,z), T(z,w)");
  const auto star = ConjunctiveQuery::Parse("R(x,a), S(x,b), T(x,c)");
  ASSERT_TRUE(triangle.ok() && path.ok() && star.ok());
  const std::string st = CanonicalizeShape(*triangle).shape;
  const std::string sp = CanonicalizeShape(*path).shape;
  const std::string ss = CanonicalizeShape(*star).shape;
  EXPECT_NE(st, sp);
  EXPECT_NE(st, ss);
  EXPECT_NE(sp, ss);
}

TEST(QueryTest, CanonicalShapeAtomOrderIsAValidPermutation) {
  const auto q = ConjunctiveQuery::Parse("B(y,z), A(x,y), C(z,x,x)");
  ASSERT_TRUE(q.ok());
  const CanonicalQueryShape shape = CanonicalizeShape(*q);
  ASSERT_EQ(shape.atom_order.size(), 3u);
  std::vector<bool> seen(3, false);
  for (int j : shape.atom_order) {
    ASSERT_GE(j, 0);
    ASSERT_LT(j, 3);
    EXPECT_FALSE(seen[j]);
    seen[j] = true;
  }
  // atom_order[k] names the original atom at canonical position k: the
  // shape rebuilt by walking atoms in that order must equal the shape.
  EXPECT_FALSE(shape.shape.empty());
}

TEST(QueryTest, CanonicalShapeRecordsRepeatedVariables) {
  // R(x,x) and R(x,y) must canonicalize differently.
  const auto rep = ConjunctiveQuery::Parse("R(x,x)");
  const auto flat = ConjunctiveQuery::Parse("R(x,y)");
  ASSERT_TRUE(rep.ok() && flat.ok());
  EXPECT_NE(CanonicalizeShape(*rep).shape, CanonicalizeShape(*flat).shape);
}

TEST(QueryTest, CanonicalShapeGreedyFallbackPastSevenAtoms) {
  // 8 atoms takes the greedy path; it must still be deterministic and a
  // valid permutation, and isomorphic inputs with identical per-atom
  // signatures still canonicalize equal under the stable greedy order.
  std::string text;
  for (int j = 0; j < 8; ++j) {
    if (j > 0) text += ", ";
    text += "R" + std::to_string(j) + "(v" + std::to_string(j) + ",v" +
            std::to_string(j + 1) + ")";
  }
  const auto q = ConjunctiveQuery::Parse(text);
  ASSERT_TRUE(q.ok());
  const CanonicalQueryShape shape = CanonicalizeShape(*q);
  EXPECT_EQ(shape.atom_order.size(), 8u);
  EXPECT_EQ(shape.shape, CanonicalizeShape(*q).shape);
}

}  // namespace
}  // namespace mpcqp
