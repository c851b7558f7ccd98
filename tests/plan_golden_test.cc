// Plan-choice goldens: representative query/data/λ scenarios with the
// planner's chosen family and full EXPLAIN tree pinned in-source. Cost
// model or enumerator changes that silently flip a plan choice, reorder a
// join, or reshape the operator tree fail here loudly.
//
// Regenerating: run with MPCQP_REGEN_GOLDENS=1; each test prints a
// paste-ready golden string and fails (regen runs are never green runs).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "mpc/dist_relation.h"
#include "planner/planner.h"
#include "query/query.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

constexpr int kServers = 16;

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

// Golden = "<family>\n<EXPLAIN tree>".
std::string Explain(const ConjunctiveQuery& q, const PlannedQuery& planned) {
  return std::string(PlanAlgorithmName(planned.plan.family)) + "\n" +
         planned.plan.tree.ToString(q);
}

void ExpectMatchesGolden(const std::string& name, const std::string& actual,
                         const std::string& golden) {
  if (std::getenv("MPCQP_REGEN_GOLDENS") != nullptr) {
    std::fprintf(stderr, "const char k%s[] =\n", name.c_str());
    std::string line;
    for (char c : actual) {
      if (c == '\n') {
        std::fprintf(stderr, "    \"%s\\n\"\n", line.c_str());
        line.clear();
      } else {
        line += c;
      }
    }
    if (!line.empty()) std::fprintf(stderr, "    \"%s\"\n", line.c_str());
    std::fprintf(stderr, "    ;\n");
    FAIL() << "MPCQP_REGEN_GOLDENS set: printed actuals, not comparing";
  }
  EXPECT_EQ(actual, golden) << name << " actual:\n" << actual;
}

// ---------- Uniform triangle, rounds free ----------

const char kUniformTriangleFreeRounds[] =
    "binary-plan\n"
    "project [x,y,z]\n"
    "  shuffle-join [x,y] est=1\n"
    "    exchange on [x,y]\n"
    "      shuffle-join [z] est=2118\n"
    "        exchange on [z]\n"
    "          scan T [z,x]\n"
    "        exchange on [z]\n"
    "          scan S [y,z]\n"
    "    exchange on [x,y]\n"
    "      scan R [x,y]\n";

TEST(PlanGoldenTest, UniformTriangleFreeRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(51);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 2000, 2, 1 << 14));
  }
  PlannerOptions options;
  options.round_cost_tuples = 0.0;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
  ExpectMatchesGolden("UniformTriangleFreeRounds", Explain(q, planned),
                      kUniformTriangleFreeRounds);
}

// ---------- Uniform triangle, rounds prohibitive: one-round HyperCube ----

const char kUniformTriangleCostlyRounds[] =
    "hypercube\n"
    "hypercube(R,S,T)\n";

TEST(PlanGoldenTest, UniformTriangleCostlyRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(51);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 2000, 2, 1 << 14));
  }
  PlannerOptions options;
  options.round_cost_tuples = 1e7;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
  ExpectMatchesGolden("UniformTriangleCostlyRounds", Explain(q, planned),
                      kUniformTriangleCostlyRounds);
}

// ---------- Skewed triangle, one round forced: SkewHC ----------

const char kSkewedTriangleCostlyRounds[] =
    "skew-hc\n"
    "skew-hc(R,S,T)\n";

TEST(PlanGoldenTest, SkewedTriangleCostlyRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(52);
  std::vector<Relation> atoms = {
      GenerateUniform(rng, 2000, 2, 1 << 14),
      GenerateConstantColumn(2000, 1, 7),
      GenerateConstantColumn(2000, 0, 7),
  };
  PlannerOptions options;
  options.round_cost_tuples = 1e7;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
  ExpectMatchesGolden("SkewedTriangleCostlyRounds", Explain(q, planned),
                      kSkewedTriangleCostlyRounds);
}

// ---------- Every candidate's estimate, bit for bit ----------

// One line per whole-query candidate: family, feasibility, estimated load
// (every bit, %.17g) and estimated rounds. Pins the estimators themselves,
// not only the family they make the planner pick.
std::string CandidateTable(const ConjunctiveQuery& q,
                           const std::vector<Relation>& atoms) {
  PlannerOptions options;
  options.round_cost_tuples = 1e7;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
  std::string table;
  for (const CandidatePlan& c : planned.candidates) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s feasible=%d L=%.17g r=%d\n",
                  PlanAlgorithmName(c.algorithm), c.feasible ? 1 : 0,
                  c.estimated_load, c.estimated_rounds);
    table += line;
  }
  return table;
}

const char kCandidateEstimates[] =
    "uniform triangle\n"
    "hypercube feasible=1 L=1500 r=1\n"
    "skew-hc feasible=1 L=1500 r=1\n"
    "binary-plan feasible=1 L=257.3451561672843 r=2\n"
    "gym feasible=0 L=0 r=0\n"
    "bigjoin feasible=1 L=375.0746119339305 r=12\n"
    "skewed triangle\n"
    "hypercube feasible=1 L=3000 r=1\n"
    "skew-hc feasible=1 L=1500 r=1\n"
    "binary-plan feasible=1 L=250 r=2\n"
    "gym feasible=0 L=0 r=0\n"
    "bigjoin feasible=1 L=500 r=12\n"
    "zipf(1.5) star\n"
    "hypercube feasible=1 L=4000 r=1\n"
    "skew-hc feasible=1 L=1000 r=1\n"
    "binary-plan feasible=1 L=1968.5039370078741 r=1\n"
    "gym feasible=1 L=2282.5203252032525 r=7\n"
    "bigjoin feasible=0 L=0 r=0\n";

TEST(PlanGoldenTest, CandidateEstimates) {
  const ConjunctiveQuery triangle = ConjunctiveQuery::Triangle();
  std::string actual = "uniform triangle\n";
  {
    // PlanGoldenTest.UniformTriangleCostlyRounds' data.
    Rng rng(51);
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(GenerateUniform(rng, 2000, 2, 1 << 14));
    }
    actual += CandidateTable(triangle, atoms);
  }
  actual += "skewed triangle\n";
  {
    // PlanGoldenTest.SkewedTriangleCostlyRounds' data.
    Rng rng(52);
    const std::vector<Relation> atoms = {
        GenerateUniform(rng, 2000, 2, 1 << 14),
        GenerateConstantColumn(2000, 1, 7),
        GenerateConstantColumn(2000, 0, 7),
    };
    actual += CandidateTable(triangle, atoms);
  }
  actual += "zipf(1.5) star\n";
  {
    const auto star = ConjunctiveQuery::Parse("R(x,y), S(x,z)");
    ASSERT_TRUE(star.ok());
    Rng rng(55);
    const std::vector<Relation> atoms = {
        GenerateZipf(rng, 2000, 2, 200, 0, 1.5),
        GenerateZipf(rng, 2000, 2, 200, 0, 1.5),
    };
    actual += CandidateTable(*star, atoms);
  }
  ExpectMatchesGolden("CandidateEstimates", actual, kCandidateEstimates);
}

// ---------- Acyclic path, rounds free ----------

const char kAcyclicPathFreeRounds[] =
    "binary-plan\n"
    "project [x0,x1,x2,x3]\n"
    "  shuffle-join [x1] est=4000\n"
    "    exchange on [x1]\n"
    "      shuffle-join [x2] est=4000\n"
    "        exchange on [x2]\n"
    "          scan R3 [x2,x3]\n"
    "        exchange on [x2]\n"
    "          scan R2 [x1,x2]\n"
    "    exchange on [x1]\n"
    "      scan R1 [x0,x1]\n";

TEST(PlanGoldenTest, AcyclicPathFreeRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  Rng rng(53);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateMatchingDegree(rng, 4000, 1));
  }
  PlannerOptions options;
  options.round_cost_tuples = 0.0;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
  ExpectMatchesGolden("AcyclicPathFreeRounds", Explain(q, planned),
                      kAcyclicPathFreeRounds);
}

// ---------- DP blowup avoidance: join order must skip the A-B prefix ----

const char kDpReorderedPath[] =
    "binary-plan\n"
    "project [x,y,z,w]\n"
    "  shuffle-join(skew) [y] est=8000\n"
    "    exchange on [y]\n"
    "      shuffle-join(skew) [z] est=20\n"
    "        exchange on [z]\n"
    "          scan C [z,w]\n"
    "        exchange on [z]\n"
    "          scan B [y,z]\n"
    "    exchange on [y]\n"
    "      scan A [x,y]\n";

TEST(PlanGoldenTest, DpReorderedPath) {
  const auto parsed = ConjunctiveQuery::Parse("A(x,y), B(y,z), C(z,w)");
  ASSERT_TRUE(parsed.ok());
  const ConjunctiveQuery& q = *parsed;
  // y is one constant in A and B: the identity order explodes to |A|·|B|.
  Relation a(2);
  Relation b(2);
  for (int64_t i = 0; i < 400; ++i) {
    a.AppendRow({Value(1000 + i), Value(7)});
    b.AppendRow({Value(7), Value(i)});
  }
  Relation c(2);
  for (int64_t i = 0; i < 20; ++i) {
    c.AppendRow({Value(i * 20), Value(5000 + i)});
  }
  PlannerOptions options;
  options.allowed = {PlanAlgorithm::kBinaryPlan};
  const PlannedQuery planned = PlanQuery(q, Scatter({a, b, c}, kServers),
                                         kServers, options, nullptr);
  ExpectMatchesGolden("DpReorderedPath", Explain(q, planned),
                      kDpReorderedPath);
}

// ---------- λ sweep: the family sequence across round prices ----------

const char kLambdaSweep[] =
    "lambda=0: binary-plan\n"
    "lambda=10: binary-plan\n"
    "lambda=1000: binary-plan\n"
    "lambda=100000: hypercube\n"
    "lambda=1e+07: hypercube\n";

TEST(PlanGoldenTest, LambdaSweepFamilies) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(54);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 2000, 2, 1 << 14));
  }
  std::string actual;
  for (double lambda : {0.0, 10.0, 1e3, 1e5, 1e7}) {
    PlannerOptions options;
    options.round_cost_tuples = lambda;
    const PlannedQuery planned =
        PlanQuery(q, Scatter(atoms, kServers), kServers, options, nullptr);
    char line[64];
    std::snprintf(line, sizeof(line), "lambda=%g: %s\n", lambda,
                  PlanAlgorithmName(planned.plan.family));
    actual += line;
  }
  ExpectMatchesGolden("LambdaSweep", actual, kLambdaSweep);
}

}  // namespace
}  // namespace mpcqp
