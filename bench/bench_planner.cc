// E19 — the planner as a measured optimizer, two studies:
//
//  1. Adversarial join-order study: a path query A(x,y), B(y,z), C(z,w)
//     whose y-column is one constant in A and B. Any static strategy that
//     joins A with B first materializes |A|·|B| tuples; the planner's DP
//     starts from the selective C edge instead. We execute the planner's
//     plan AND every feasible static strategy wall-clock (each whole-query
//     family forced by ForcedPlan, plus the identity-order binary plan);
//     the planner must beat the worst static by >= 3x or the bench exits
//     nonzero.
//
//  2. Plan-cache study: the second PlanQuery for the same query + stats
//     must hit the cache and skip enumeration entirely (dp_states == 0),
//     or the bench exits nonzero.
//
//  3. Cold planning cost: PlanQuery without a cache on the triangle
//     shape, 3 x 60K uniform tuples at p=64 (the statistics pass plus
//     enumeration). Informational only; no gate.
//
// Emits BENCH_planner.json with the studies' datapoints for CI tracking.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "mpc/cluster.h"
#include "multiway/binary_plan.h"
#include "planner/calibration.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::FmtInt;
using bench::Table;
using bench::WallTimer;

constexpr int kServers = 16;

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

// y constant in A and B: the A-B prefix explodes to rows^2 tuples; C keeps
// only 5 of B's z values, so C-first orders stay near-linear and OUT is
// small enough that the reordered binary plan dominates every one-round
// strategy on estimated load as well.
std::vector<Relation> AdversarialPathData(int64_t rows) {
  Relation a(2);
  Relation b(2);
  for (int64_t i = 0; i < rows; ++i) {
    a.AppendRow({Value(1000000 + i), Value(7)});
    b.AppendRow({Value(7), Value(i)});
  }
  Relation c(2);
  for (int64_t i = 0; i < 5; ++i) {
    c.AppendRow({Value(i * (rows / 5)), Value(5000000 + i)});
  }
  return {a, b, c};
}

double TimeStatic(const ConjunctiveQuery& q, const std::vector<Relation>& atoms,
                  PlanAlgorithm family) {
  const StatusOr<PlannedQuery> forced = ForcedPlan(q, family);
  MPCQP_CHECK(forced.ok()) << forced.status().ToString();
  Cluster cluster(kServers, 7);
  Rng rng(11);
  WallTimer timer;
  ExecutePlannedQuery(cluster, q, Scatter(atoms, kServers), *forced, rng);
  return timer.ElapsedMs();
}

int Run() {
  BenchJson json("planner");
  int failures = 0;

  // ---- Study 1: planner vs every feasible static strategy ----
  const auto parsed = ConjunctiveQuery::Parse("A(x,y), B(y,z), C(z,w)");
  const ConjunctiveQuery& q = *parsed;
  const std::vector<Relation> atoms = AdversarialPathData(2000);

  // Calibrated pricing is what makes a 15-round variable-at-a-time plan
  // with a small load estimate lose to a 2-round reordered binary plan:
  // rounds cost measured microseconds, not zero.
  PlannerOptions options;
  options.cost = CalibrateCostModel(kServers, /*num_threads=*/1);
  std::printf("calibrated cost model: %s\n", options.cost.ToString().c_str());

  PlanCache cache;
  const PlannedQuery planned =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, &cache);
  Cluster planner_cluster(kServers, 7);
  Rng planner_rng(11);
  WallTimer exec_timer;
  ExecutePlannedQuery(planner_cluster, q, Scatter(atoms, kServers), planned,
                      planner_rng);
  const double planner_ms = exec_timer.ElapsedMs();

  bench::Banner("E19: adversarial path, planner vs static strategies (p=" +
                std::to_string(kServers) + ")");
  std::printf("planner chose %s via: %s\n",
              PlanAlgorithmName(planned.plan.family),
              planned.plan.rationale.c_str());

  Table table({"strategy", "wall ms", "measured L", "rounds"});
  table.AddRow({std::string("planner (") +
                    PlanAlgorithmName(planned.plan.family) + ")",
                Fmt(planner_ms, 1),
                FmtInt(planner_cluster.cost_report().MaxLoadTuples()),
                FmtInt(planner_cluster.cost_report().num_rounds())});

  double worst_ms = 0.0;
  std::string worst_name;
  for (const CandidatePlan& plan : planned.candidates) {
    // The binary family's static row is the identity order below.
    if (!plan.feasible || plan.algorithm == PlanAlgorithm::kBinaryPlan) {
      continue;
    }
    const double ms = TimeStatic(q, atoms, plan.algorithm);
    table.AddRow({std::string("static ") + PlanAlgorithmName(plan.algorithm),
                  Fmt(ms, 1), "-", FmtInt(plan.estimated_rounds)});
    if (ms > worst_ms) {
      worst_ms = ms;
      worst_name = PlanAlgorithmName(plan.algorithm);
    }
    json.Set(std::string("static_") + PlanAlgorithmName(plan.algorithm) +
                 "_ms",
             ms);
  }
  {
    // The vanilla binary driver's default (identity) join order — the
    // static plan every naive system would run — hits the A-B blowup.
    Cluster cluster(kServers, 7);
    Rng rng(11);
    WallTimer timer;
    IterativeBinaryJoin(cluster, q, Scatter(atoms, kServers), rng, {});
    const double ms = timer.ElapsedMs();
    table.AddRow({"static binary-plan (identity order)", Fmt(ms, 1), "-",
                  FmtInt(cluster.cost_report().num_rounds())});
    if (ms > worst_ms) {
      worst_ms = ms;
      worst_name = "binary-plan-identity";
    }
    json.Set("static_binary_identity_ms", ms);
  }
  table.Print();

  const double speedup = planner_ms > 0 ? worst_ms / planner_ms : 0.0;
  std::printf("worst static: %s at %s ms; planner %s ms -> %.1fx\n",
              worst_name.c_str(), Fmt(worst_ms, 1).c_str(),
              Fmt(planner_ms, 1).c_str(), speedup);
  json.Set("planner_ms", planner_ms);
  json.Set("planner_family",
           std::string(PlanAlgorithmName(planned.plan.family)));
  json.Set("worst_static", worst_name);
  json.Set("worst_static_ms", worst_ms);
  json.Set("speedup_vs_worst_static", speedup);
  if (speedup < 3.0) {
    std::printf("FAIL: planner is not >=3x faster than the worst static "
                "strategy\n");
    ++failures;
  }

  // ---- Study 2: warm plan cache skips enumeration ----
  const double cold_planning_ms = planned.planning_ms;
  const PlannedQuery warm =
      PlanQuery(q, Scatter(atoms, kServers), kServers, options, &cache);
  bench::Banner("E19: plan cache, cold vs warm planning");
  std::printf("cold: %.3f ms, %lld dp states; warm: %.3f ms, %lld dp "
              "states, cache_hit=%s\n",
              cold_planning_ms, static_cast<long long>(planned.dp_states),
              warm.planning_ms, static_cast<long long>(warm.dp_states),
              warm.cache_hit ? "yes" : "no");
  json.Set("cold_planning_ms", cold_planning_ms);
  json.Set("cold_dp_states", planned.dp_states);
  json.Set("warm_planning_ms", warm.planning_ms);
  json.Set("warm_dp_states", warm.dp_states);
  json.Set("warm_cache_hit", warm.cache_hit ? 1 : 0);
  if (!warm.cache_hit || warm.dp_states != 0) {
    std::printf("FAIL: warm plan was not a cache hit with zero dp states\n");
    ++failures;
  }

  // ---- Study 3: cold planning on the triangle shape ----
  {
    constexpr int kTriangleServers = 64;
    constexpr int kRepeats = 5;
    const ConjunctiveQuery triangle = ConjunctiveQuery::Triangle();
    Rng data_rng(19);
    std::vector<Relation> tri_atoms;
    for (int j = 0; j < 3; ++j) {
      tri_atoms.push_back(GenerateUniform(data_rng, 60000, 2, 3000));
    }
    const std::vector<DistRelation> scattered =
        Scatter(tri_atoms, kTriangleServers);
    std::vector<double> runs;
    for (int i = 0; i < kRepeats; ++i) {
      runs.push_back(
          PlanQuery(triangle, scattered, kTriangleServers).planning_ms);
    }
    std::sort(runs.begin(), runs.end());
    const double median_ms = runs[kRepeats / 2];
    bench::Banner("E19: cold PlanQuery, triangle 3 x 60K, p=64");
    std::printf("median of %d: %.3f ms (min %.3f, max %.3f)\n", kRepeats,
                median_ms, runs.front(), runs.back());
    json.Set("triangle_cold_plan_ms", median_ms);
  }

  json.Write();
  return failures;
}

}  // namespace
}  // namespace mpcqp

int main() { return mpcqp::Run() == 0 ? 0 : 1; }
