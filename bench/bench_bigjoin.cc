// E18 — deck slide 97 ("Multi-round Multiway Joins In Practice"): a
// BiGJoin-style distributed Generic Join against the 1-round HyperCube
// and the iterative binary-join plan, on skew-free and skewed triangles.
//
// The practical systems trade rounds for replication-free exchanges and
// skew robustness; this bench measures that trade on the simulator. Set
// semantics throughout (inputs deduplicated).

#include <cmath>

#include "bench/bench_util.h"
#include "mpc/cluster.h"
#include "multiway/bigjoin.h"
#include "multiway/binary_plan.h"
#include "multiway/hypercube.h"
#include "query/trie_join.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

void RunInstance(const char* label, const std::vector<Relation>& atoms,
                 int p) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  std::vector<Relation> deduped;
  for (const Relation& r : atoms) deduped.push_back(Dedup(r));
  const Relation expected = Dedup(TrieJoin(q, deduped));
  bench::Banner(std::string("E18 (slide 97): triangle, ") + label +
                ", p=" + std::to_string(p) + ", |OUT|=" +
                std::to_string(expected.size()));
  Table table({"algorithm", "rounds", "L (tuples)", "total comm", "correct"});

  {
    Cluster cluster(p, 7);
    const HyperCubeResult hc =
        HyperCubeJoin(cluster, q, Scatter(atoms, p));
    table.AddRow({"HyperCube (1 round)",
                  FmtInt(cluster.cost_report().num_rounds()),
                  FmtInt(cluster.cost_report().MaxLoadTuples()),
                  FmtInt(cluster.cost_report().TotalCommTuples()),
                  MultisetEqual(Dedup(hc.output.Collect()), expected)
                      ? "yes"
                      : "NO"});
  }
  {
    Cluster cluster(p, 7);
    Rng rng(11);
    const BinaryPlanResult bj =
        IterativeBinaryJoin(cluster, q, Scatter(atoms, p), rng);
    table.AddRow({"binary joins",
                  FmtInt(cluster.cost_report().num_rounds()),
                  FmtInt(cluster.cost_report().MaxLoadTuples()),
                  FmtInt(cluster.cost_report().TotalCommTuples()),
                  MultisetEqual(Dedup(bj.output.Collect()), expected)
                      ? "yes"
                      : "NO"});
  }
  {
    Cluster cluster(p, 7);
    const BigJoinResult big = BigJoin(cluster, q, Scatter(atoms, p));
    table.AddRow({"BiGJoin-style (var-at-a-time)", FmtInt(big.rounds),
                  FmtInt(cluster.cost_report().MaxLoadTuples()),
                  FmtInt(cluster.cost_report().TotalCommTuples()),
                  MultisetEqual(big.output.Collect(), expected) ? "yes"
                                                                : "NO"});
  }
  table.Print();
}

void Run() {
  const int p = 64;
  const int64_t n = 20000;
  {
    Rng rng(31);
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(Dedup(GenerateUniform(rng, n, 2, 1 << 16)));
    }
    RunInstance("skew-free", atoms, p);
  }
  {
    Rng rng(37);
    // A hub vertex touching everything: HyperCube's hash dimensions
    // collapse for the hub's tuples.
    Relation edges = GenerateRandomGraph(rng, 6000, n);
    for (Value v = 0; v < 3000; ++v) {
      edges.AppendRow({999999, v});
      edges.AppendRow({v, 999999});
    }
    std::vector<Relation> atoms = {edges, edges, edges};
    RunInstance("hub-skewed graph", atoms, p);
  }
  std::printf(
      "\nShape check: HyperCube wins rounds (1) at p^{1/3} extra load and "
      "suffers under the hub; the var-at-a-time plan pays O(k + filters) "
      "rounds but its per-round traffic tracks the true prefix counts — "
      "the trade the slide-97 systems make.\n");
}

}  // namespace
}  // namespace mpcqp

int main() {
  mpcqp::Run();
  return 0;
}
