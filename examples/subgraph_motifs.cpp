// Subgraph (motif) queries on a graph — the application domain of the
// deck's slide-97 systems (BiGJoin, SEED, TwinTwigJoin, PSgL). Counts
// directed 4-cycles A->B->C->D->A two ways: the one-round HyperCube and
// the multi-round BiGJoin-style plan, then length-3 paths via the planner.
//
//   ./build/examples/subgraph_motifs

#include <cstdio>

#include "mpc/cluster.h"
#include "multiway/bigjoin.h"
#include "multiway/hypercube.h"
#include "planner/planner.h"
#include "query/query.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

int main() {
  using namespace mpcqp;

  const int p = 16;
  Rng rng(5);
  Relation edges = GenerateRandomGraph(rng, 2500, 25000);
  edges = AddClique(edges, 9000, 12);  // Plant motifs + skew.

  std::printf("graph: %lld edges; p = %d\n\n",
              static_cast<long long>(edges.size()), p);

  // Directed 4-cycle: E(a,b), E(b,c), E(c,d), E(d,a).
  const auto cycle =
      ConjunctiveQuery::Parse("Q(a,b,c,d) :- E1(a,b), E2(b,c), E3(c,d), "
                              "E4(d,a)");
  if (!cycle.ok()) return 1;
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(DistRelation::Scatter(edges, p));
  }

  long long hc_count = 0;
  long long big_count = 0;
  {
    Cluster cluster(p, 1);
    const HyperCubeResult result = HyperCubeJoin(cluster, *cycle, atoms);
    hc_count = result.output.TotalSize();
    std::printf("4-cycles via HyperCube : %lld  (r=%d, L=%lld)\n", hc_count,
                cluster.cost_report().num_rounds(),
                static_cast<long long>(cluster.cost_report().MaxLoadTuples()));
  }
  {
    Cluster cluster(p, 1);
    const BigJoinResult result = BigJoin(cluster, *cycle, atoms);
    big_count = result.output.TotalSize();
    std::printf("4-cycles via BiGJoin   : %lld  (r=%d, L=%lld)\n", big_count,
                result.rounds,
                static_cast<long long>(cluster.cost_report().MaxLoadTuples()));
  }
  if (hc_count != big_count) {
    std::printf("ERROR: counts disagree\n");
    return 1;
  }

  // Length-3 paths, planner's choice.
  const auto path = ConjunctiveQuery::Parse("P1(a,b), P2(b,c), P3(c,d)");
  if (!path.ok()) return 1;
  std::vector<DistRelation> path_atoms;
  for (int j = 0; j < 3; ++j) {
    path_atoms.push_back(DistRelation::Scatter(edges, p));
  }
  const PlannedQuery planned = PlanQuery(*path, path_atoms, p);
  Cluster cluster(p, 1);
  Rng plan_rng(7);
  const DistRelation paths =
      ExecutePlannedQuery(cluster, *path, path_atoms, planned, plan_rng);
  std::printf(
      "\nlength-3 paths via planner (%s, skew detected: %s): %lld  "
      "(r=%d, L=%lld)\n",
      PlanAlgorithmName(planned.plan.family),
      planned.input_is_skewed ? "yes" : "no",
      static_cast<long long>(paths.TotalSize()),
      cluster.cost_report().num_rounds(),
      static_cast<long long>(cluster.cost_report().MaxLoadTuples()));
  return 0;
}
