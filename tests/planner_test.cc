#include <gtest/gtest.h>

#include "common/status.h"
#include "mpc/cluster.h"
#include "mpc/metrics.h"
#include "planner/calibration.h"
#include "planner/enumerator.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"
#include "test_data.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

TEST(PlannerTest, CyclicQueryCannotUseGym) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(1);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 500, 2, 100));
  }
  const PlannedQuery planned = PlanQuery(q, Scatter(atoms, 16), 16);
  for (const CandidatePlan& plan : planned.candidates) {
    if (plan.algorithm == PlanAlgorithm::kGym) {
      EXPECT_FALSE(plan.feasible);
    }
  }
  EXPECT_NE(planned.plan.family, PlanAlgorithm::kGym);
}

TEST(PlannerTest, HighRoundCostFavorsOneRoundPlans) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(2);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 2000, 2, 1 << 14));
  }
  PlannerOptions cheap_rounds;
  cheap_rounds.round_cost_tuples = 0.0;
  PlannerOptions expensive_rounds;
  expensive_rounds.round_cost_tuples = 1e7;
  const PlannedQuery flexible =
      PlanQuery(q, Scatter(atoms, 64), 64, cheap_rounds);
  const PlannedQuery latency_bound =
      PlanQuery(q, Scatter(atoms, 64), 64, expensive_rounds);
  EXPECT_EQ(latency_bound.plan.estimated_rounds, 1);
  EXPECT_LE(flexible.plan.estimated_load,
            latency_bound.plan.estimated_load + 1e-9);
}

TEST(PlannerTest, DetectsSkewAndPrefersSkewResilientPlan) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(3);
  std::vector<Relation> atoms = {
      GenerateUniform(rng, 2000, 2, 1 << 14),
      GenerateConstantColumn(2000, 1, 7),
      GenerateConstantColumn(2000, 0, 7),
  };
  PlannerOptions options;
  options.round_cost_tuples = 1e7;  // Force a one-round plan.
  const PlannedQuery planned = PlanQuery(q, Scatter(atoms, 64), 64, options);
  EXPECT_TRUE(planned.input_is_skewed);
  EXPECT_EQ(planned.plan.family, PlanAlgorithm::kSkewHc);
}

TEST(PlannerTest, AcyclicSelectiveQueryPicksGymWhenRoundsAreFree) {
  const ConjunctiveQuery q = ConjunctiveQuery::Star(3);
  Rng rng(4);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    // Sparse center: OUT stays near IN.
    atoms.push_back(GenerateMatchingDegree(rng, 4000, 1));
  }
  PlannerOptions options;
  options.round_cost_tuples = 0.0;
  options.allowed = {PlanAlgorithm::kHyperCube, PlanAlgorithm::kGym};
  const PlannedQuery planned = PlanQuery(q, Scatter(atoms, 64), 64, options);
  // Star-3 has tau* = 1: HyperCube's one-round load is ~IN/p^{1/1}... but
  // the whole star concentrates on the center dimension, so its load
  // estimate is ~IN/p too; GYM wins or ties. Either way both must beat
  // broadcast-level loads; assert GYM is feasible and cost-ranked sanely.
  for (const CandidatePlan& plan : planned.candidates) {
    if (plan.algorithm == PlanAlgorithm::kGym) {
      EXPECT_TRUE(plan.feasible);
      EXPECT_LT(plan.estimated_load, 4.0 * 3 * 4000 / 64 + 1000);
    }
  }
}

// The planner's BigJoin candidate for `atoms` (it must be ranked).
CandidatePlan BigJoinCandidate(const ConjunctiveQuery& q,
                               const std::vector<DistRelation>& atoms) {
  const PlannedQuery planned = PlanQuery(q, atoms, atoms[0].num_servers());
  for (const CandidatePlan& plan : planned.candidates) {
    if (plan.algorithm == PlanAlgorithm::kBigJoin) return plan;
  }
  ADD_FAILURE() << "no bigjoin candidate";
  return CandidatePlan();
}

TEST(PlannerTest, BigJoinInfeasibleWithDuplicateInputs) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  Relation dup = Relation::FromRows({{1, 2}, {1, 2}});
  Relation clean = Relation::FromRows({{2, 3}});
  EXPECT_FALSE(BigJoinCandidate(q, Scatter({dup, clean}, 4)).feasible);

  // The two copies of (1,2) live on different servers; no fragment holds a
  // duplicate on its own.
  const std::vector<DistRelation> split = {
      DistRelation::FromFragments({Relation::FromRows({{1, 2}, {4, 2}}),
                                   Relation(2),
                                   Relation::FromRows({{1, 2}}),
                                   Relation(2)}),
      DistRelation::Scatter(clean, 4)};
  EXPECT_FALSE(BigJoinCandidate(q, split).feasible);

  // Control: the same layout with distinct rows stays feasible.
  const std::vector<DistRelation> distinct = {
      DistRelation::FromFragments({Relation::FromRows({{1, 2}, {4, 2}}),
                                   Relation(2),
                                   Relation::FromRows({{2, 1}}),
                                   Relation(2)}),
      DistRelation::Scatter(clean, 4)};
  EXPECT_TRUE(BigJoinCandidate(q, distinct).feasible);
}

// BigJoin is correct only on duplicate-free inputs, and the plan cache's
// size-only key cannot see duplicates: same-size data with one duplicate
// must be planned afresh, not handed the cached BigJoin plan.
TEST(PlannerTest, PlanCacheDoesNotReuseBigJoinAcrossDuplicates) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  constexpr int kServers = 64;
  const TriangleDuplicateData data = MakeTriangleDuplicateData();
  PlanCache cache;
  const PlannedQuery clean =
      PlanQuery(q, Scatter(data.atoms, kServers), kServers, {}, &cache);
  ASSERT_EQ(clean.plan.family, PlanAlgorithm::kBigJoin);

  const std::vector<Relation> atoms = {data.r_with_duplicate, data.atoms[1],
                                       data.atoms[2]};
  const std::vector<DistRelation> dist = Scatter(atoms, kServers);
  const PlannedQuery planned = PlanQuery(q, dist, kServers, {}, &cache);
  EXPECT_FALSE(planned.cache_hit);
  EXPECT_NE(planned.plan.family, PlanAlgorithm::kBigJoin);
  Cluster cluster(kServers, 1);
  Rng rng(2);
  const DistRelation out = ExecutePlannedQuery(cluster, q, dist, planned, rng);
  EXPECT_TRUE(MultisetEqual(out.Collect(), EvalJoinLocal(q, atoms)));
}

// The statistics as the planner once computed them: collect each atom,
// sort-dedup it for the duplicate flag, and build a sorted degree table
// per distinct-variable column.
PlannerStats CollectReferenceStats(const ConjunctiveQuery& q,
                                   const std::vector<DistRelation>& atoms,
                                   int64_t heavy_threshold) {
  PlannerStats stats;
  stats.distinct.assign(q.num_atoms(),
                        std::vector<int64_t>(q.num_vars(), 0));
  stats.var_is_heavy.assign(q.num_vars(), false);
  for (int j = 0; j < q.num_atoms(); ++j) {
    const int64_t size = atoms[j].TotalSize();
    stats.sizes.push_back(size);
    stats.total_in += size;
    const Relation whole = atoms[j].Collect();
    stats.atom_has_duplicates.push_back(Dedup(whole).size() != whole.size());
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      const Relation degrees = DegreeCount(whole, c);
      stats.distinct[j][v] = degrees.size();
      for (int64_t i = 0; i < degrees.size(); ++i) {
        if (static_cast<int64_t>(degrees.at(i, 1)) > heavy_threshold) {
          stats.var_is_heavy[v] = true;
        }
      }
    }
  }
  return stats;
}

// Gathers the statistics both ways, expects every field to agree, and
// returns the planner's.
PlannerStats GatherAndCompare(const ConjunctiveQuery& q,
                              const std::vector<DistRelation>& atoms,
                              int64_t heavy_threshold) {
  const PlannerStats want = CollectReferenceStats(q, atoms, heavy_threshold);
  const PlannerStats got = GatherPlannerStats(q, atoms, heavy_threshold);
  EXPECT_EQ(got.sizes, want.sizes);
  EXPECT_EQ(got.distinct, want.distinct);
  EXPECT_EQ(got.var_is_heavy, want.var_is_heavy);
  EXPECT_EQ(got.atom_has_duplicates, want.atom_has_duplicates);
  EXPECT_EQ(got.total_in, want.total_in);
  return got;
}

// Puts every row of `rel` on server 0 of `p`.
DistRelation OnOneServer(const Relation& rel, int p) {
  std::vector<Relation> fragments(p, Relation(rel.arity()));
  fragments[0] = rel;
  return DistRelation::FromFragments(std::move(fragments));
}

TEST(PlannerTest, GatherPlannerStatsMatchesCollectReference) {
  const ConjunctiveQuery two_way = ConjunctiveQuery::TwoWayJoin();

  // An empty atom next to a non-empty one.
  {
    const PlannerStats stats = GatherAndCompare(
        two_way,
        {DistRelation(2, 8),
         DistRelation::Scatter(Relation::FromRows({{1, 2}, {3, 4}}), 8)},
        1);
    EXPECT_EQ(stats.sizes, (std::vector<int64_t>{0, 2}));
    EXPECT_EQ(stats.atom_has_duplicates, (std::vector<bool>{false, false}));
  }

  // The same data on one server and spread over 64, duplicate-free and
  // with duplicates.
  Rng rng(21);
  for (const Relation& data :
       {Dedup(GenerateUniform(rng, 3000, 2, 200)),
        GenerateUniform(rng, 3000, 2, 40)}) {
    const Relation other = GenerateUniform(rng, 500, 2, 200);
    const PlannerStats one = GatherAndCompare(
        two_way, {OnOneServer(data, 64), OnOneServer(other, 64)}, 30);
    const PlannerStats spread = GatherAndCompare(
        two_way,
        {DistRelation::Scatter(data, 64), DistRelation::Scatter(other, 64)},
        30);
    EXPECT_EQ(one.distinct, spread.distinct);
    EXPECT_EQ(one.atom_has_duplicates, spread.atom_has_duplicates);
  }

  // A duplicate whose copies sit on two fragments, none within one.
  {
    const DistRelation split = DistRelation::FromFragments(
        {Relation::FromRows({{5, 6}, {7, 8}}),
         Relation::FromRows({{9, 10}, {5, 6}})});
    const PlannerStats stats = GatherAndCompare(
        two_way, {split, DistRelation::Scatter(Relation(2), 2)}, 1);
    EXPECT_TRUE(stats.atom_has_duplicates[0]);
  }

  // A repeated-variable atom R(x,x) and an arity-3 atom S(x,y,z).
  {
    const ConjunctiveQuery q =
        ConjunctiveQuery::Make({"x", "y", "z"}, {Atom{"R", {0, 0}},
                                                  Atom{"S", {0, 1, 2}}});
    const Relation r = Relation::FromRows({{1, 1}, {2, 2}, {3, 9}, {1, 1}});
    const Relation s =
        Relation::FromRows({{1, 2, 3}, {1, 2, 4}, {2, 2, 3}, {1, 2, 3}});
    const PlannerStats stats = GatherAndCompare(
        q, {DistRelation::Scatter(r, 3), DistRelation::Scatter(s, 3)}, 1);
    EXPECT_EQ(stats.distinct[0], (std::vector<int64_t>{3, 0, 0}));
    EXPECT_EQ(stats.distinct[1], (std::vector<int64_t>{2, 1, 2}));
    EXPECT_EQ(stats.atom_has_duplicates, (std::vector<bool>{true, true}));
  }

  // A degree exactly at the threshold is light; one above it is heavy.
  {
    const Relation r = Relation::FromRows(
        {{7, 1}, {7, 2}, {7, 3}, {8, 4}, {9, 4}, {10, 4}, {11, 4}});
    const PlannerStats stats = GatherAndCompare(
        two_way,
        {DistRelation::Scatter(r, 4),
         DistRelation::Scatter(Relation::FromRows({{4, 1}}), 4)},
        3);
    EXPECT_EQ(stats.var_is_heavy, (std::vector<bool>{false, true, false}));
  }

  // The extreme values 0 and UINT64_MAX, in a duplicate and apart.
  {
    const Value max = UINT64_MAX;
    const DistRelation r = DistRelation::FromFragments(
        {Relation::FromRows({{0, max}, {max, 0}, {0, 0}}),
         Relation::FromRows({{max, max}, {0, max}})});
    const DistRelation s = DistRelation::FromFragments(
        {Relation::FromRows({{max, 0}}), Relation::FromRows({{0, 0}})});
    const PlannerStats stats = GatherAndCompare(two_way, {r, s}, 2);
    EXPECT_EQ(stats.distinct[0], (std::vector<int64_t>{2, 2, 0}));
    EXPECT_EQ(stats.atom_has_duplicates, (std::vector<bool>{true, false}));
    EXPECT_EQ(stats.var_is_heavy, (std::vector<bool>{true, true, false}));
  }
}

TEST(PlannerTest, ForcedPlanMatchesReferenceForEveryAlgorithm) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng data_rng(5);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(Dedup(GenerateUniform(data_rng, 300, 2, 15)));
  }
  const Relation expected = EvalJoinLocal(q, atoms);
  for (const PlanAlgorithm algorithm :
       {PlanAlgorithm::kHyperCube, PlanAlgorithm::kSkewHc,
        PlanAlgorithm::kBinaryPlan, PlanAlgorithm::kBigJoin}) {
    const StatusOr<PlannedQuery> forced = ForcedPlan(q, algorithm);
    ASSERT_TRUE(forced.ok()) << forced.status().ToString();
    EXPECT_EQ(forced->plan.family, algorithm);
    Cluster cluster(8, 5);
    Rng rng(6);
    const DistRelation out =
        ExecutePlannedQuery(cluster, q, Scatter(atoms, 8), *forced, rng);
    EXPECT_TRUE(MultisetEqual(out.Collect(), expected))
        << PlanAlgorithmName(algorithm);
    // A forced plan is not a planner call.
    const StatsReport stats = BuildStatsReport(cluster);
    EXPECT_EQ(stats.plan_cache_hits, 0);
    EXPECT_EQ(stats.plan_cache_misses, 0);
  }
}

TEST(PlannerTest, ExecuteGymPlanOnAcyclicQuery) {
  const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  Rng data_rng(7);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(data_rng, 200, 2, 25));
  }
  const StatusOr<PlannedQuery> forced = ForcedPlan(q, PlanAlgorithm::kGym);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  Cluster cluster(8, 5);
  Rng rng(8);
  const DistRelation out =
      ExecutePlannedQuery(cluster, q, Scatter(atoms, 8), *forced, rng);
  EXPECT_TRUE(MultisetEqual(out.Collect(), EvalJoinLocal(q, atoms)));

  // GYM needs an acyclic query: forcing it on the triangle is a typed
  // error, not a CHECK at execution.
  const StatusOr<PlannedQuery> cyclic =
      ForcedPlan(ConjunctiveQuery::Triangle(), PlanAlgorithm::kGym);
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerTest, ForcedBinaryPlanIsIdentityOrderWithSkewAwareSteps) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const StatusOr<PlannedQuery> forced =
      ForcedPlan(q, PlanAlgorithm::kBinaryPlan);
  ASSERT_TRUE(forced.ok());
  EXPECT_TRUE(forced->forced);
  EXPECT_EQ(forced->plan.join_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(forced->plan.tree.ToString(q),
            "project [x,y,z]\n"
            "  shuffle-join [z,x]\n"
            "    exchange on [z,x]\n"
            "      shuffle-join(skew) [y]\n"
            "        exchange on [y]\n"
            "          scan R [x,y]\n"
            "        exchange on [y]\n"
            "          scan S [y,z]\n"
            "    exchange on [z,x]\n"
            "      scan T [z,x]\n");
}

TEST(PlannerTest, ParseAlgorithmNameAcceptsExactlyTheCliSpellings) {
  for (const char* planner : {"auto", "planner"}) {
    const auto parsed = ParseAlgorithmName(planner);
    ASSERT_TRUE(parsed.ok()) << planner;
    EXPECT_FALSE(parsed->has_value()) << planner;
  }
  const std::pair<const char*, PlanAlgorithm> forced[] = {
      {"hypercube", PlanAlgorithm::kHyperCube},
      {"skewhc", PlanAlgorithm::kSkewHc},
      {"binary", PlanAlgorithm::kBinaryPlan},
      {"gym", PlanAlgorithm::kGym},
  };
  for (const auto& [name, family] : forced) {
    const auto parsed = ParseAlgorithmName(name);
    ASSERT_TRUE(parsed.ok()) << name;
    ASSERT_TRUE(parsed->has_value()) << name;
    EXPECT_EQ(**parsed, family) << name;
  }
  for (const char* bad : {"", "bogus", "skew-hc", "binary-plan", "bigjoin",
                          "HyperCube"}) {
    const auto parsed = ParseAlgorithmName(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------- Cost-based enumeration (PlanQuery) ----------

// Path query A(x,y) ⋈ B(y,z) ⋈ C(z,w) where y is a single constant in A
// and B: the identity order materializes the full |A|·|B| cross product on
// y before C can cut it down. The DP must not start with A ⋈ B.
std::vector<Relation> BlowupPathData(int64_t rows) {
  Rng rng(41);
  Relation a(2);
  Relation b(2);
  for (int64_t i = 0; i < rows; ++i) {
    a.AppendRow({Value(1000 + i), Value(7)});
    b.AppendRow({Value(7), Value(i)});
  }
  // C keeps only a sliver of B's z values: the selective edge.
  Relation c(2);
  for (int64_t i = 0; i < rows / 20; ++i) {
    c.AppendRow({Value(i * 20), Value(5000 + i)});
  }
  return {a, b, c};
}

TEST(PlannerTest, DpAvoidsBlowupJoinOrder) {
  const auto parsed = ConjunctiveQuery::Parse("A(x,y), B(y,z), C(z,w)");
  ASSERT_TRUE(parsed.ok());
  const ConjunctiveQuery& q = *parsed;
  const std::vector<Relation> atoms = BlowupPathData(300);

  PlannerOptions options;
  options.allowed = {PlanAlgorithm::kBinaryPlan};
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, 8), 8, options, nullptr);
  ASSERT_EQ(planned.plan.family, PlanAlgorithm::kBinaryPlan);
  ASSERT_EQ(planned.plan.join_order.size(), 3u);
  // The first joined pair must not be {A, B} (the blowup pair).
  const int first = planned.plan.join_order[0];
  const int second = planned.plan.join_order[1];
  EXPECT_FALSE((first == 0 && second == 1) || (first == 1 && second == 0))
      << "DP kept the exploding A-B prefix";
  EXPECT_GT(planned.dp_states, 0);
  EXPECT_FALSE(planned.plan.tree.empty());

  // The reordered plan still computes the right answer.
  Cluster cluster(8, 5);
  Rng rng(6);
  const DistRelation out =
      ExecutePlannedQuery(cluster, q, Scatter(atoms, 8), planned, rng);
  EXPECT_TRUE(MultisetEqual(out.Collect(), EvalJoinLocal(q, atoms)));
}

TEST(PlannerTest, CalibrationProducesUsableCoefficients) {
  const CostCoefficients c = CalibrateCostModel(4, 1);
  EXPECT_TRUE(c.calibrated);
  EXPECT_GT(c.route_us_per_tuple, 0.0);
  EXPECT_GT(c.copy_us_per_value, 0.0);
  EXPECT_GT(c.local_us_per_tuple, 0.0);
  EXPECT_GE(c.round_overhead_us, 1.0);
  EXPECT_FALSE(c.ToString().empty());
  EXPECT_EQ(c.ToString().find("uncalibrated"), std::string::npos);
}

TEST(PlannerTest, CalibratedPricingIsMonotoneInLoadAndRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  PlannerOptions options;
  options.cost.calibrated = true;  // Defaults give positive coefficients.
  const double cheap = PriceCandidate(1000, 1, q, options);
  const double heavier = PriceCandidate(2000, 1, q, options);
  const double more_rounds = PriceCandidate(1000, 3, q, options);
  EXPECT_LT(cheap, heavier);
  EXPECT_LT(cheap, more_rounds);
}

TEST(PlannerTest, UncalibratedPricingMatchesLegacyLambdaFormula) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  PlannerOptions options;
  options.round_cost_tuples = 250.0;
  EXPECT_DOUBLE_EQ(PriceCandidate(1000, 2, q, options), 1000 + 2 * 250.0);
}

TEST(PlannerTest, RationalesAndNamesPopulated) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(9);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 100, 2, 20));
  }
  const PlannedQuery planned = PlanQuery(q, Scatter(atoms, 4), 4);
  EXPECT_EQ(planned.candidates.size(), 5u);
  for (const CandidatePlan& plan : planned.candidates) {
    EXPECT_FALSE(plan.rationale.empty());
    EXPECT_NE(std::string(PlanAlgorithmName(plan.algorithm)), "unknown");
  }
}

}  // namespace
}  // namespace mpcqp
