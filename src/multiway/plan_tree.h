#ifndef MPCQP_MULTIWAY_PLAN_TREE_H_
#define MPCQP_MULTIWAY_PLAN_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "query/query.h"

namespace mpcqp {

// The executable operator tree: the planner emits one per plan, and
// IterativeBinaryJoin builds one for its join order. Exchange operators
// are explicit nodes sitting at every shuffle point: a shuffle join's two
// children are kExchange nodes (hash-repartition on the join key), whose
// own children produce the tuples. Whole-query strategies (HyperCube,
// SkewHC, GYM, BiGJoin) appear as one kAlgorithm node over all atoms —
// their internal exchange structure is owned by the respective driver.
enum class PlanOp {
  kScan,        // Leaf: one normalized atom (repeat-filtered, projected).
  kExchange,    // Hash-repartition child output on `keys`.
  kShuffleJoin, // Local join of two exchanged inputs (one MPC round).
  kProduct,     // Cartesian grid product of two inputs (one MPC round).
  kAlgorithm,   // Whole-query driver (PlanAlgorithm in algorithm_name).
  kProject,     // Root: project columns to variable-id order.
};

struct PlanNode {
  PlanOp op = PlanOp::kScan;
  int atom = -1;                 // kScan: atom index into the query.
  std::vector<int> children;     // Indices into PlanTree::nodes.
  // Output columns as query variable ids, in output order.
  std::vector<int> vars;
  // kExchange: key columns of this node's child output; kShuffleJoin
  // copies its children's keys for the local join.
  std::vector<int> keys;
  bool skew_aware = false;       // kShuffleJoin: use the skew-aware join.
  double est_rows = 0.0;         // Enumerator's cardinality estimate.
  std::string algorithm_name;    // kAlgorithm: driver name.
};

// Nodes in evaluation (post-)order; `root` indexes the final node. The
// tree is immutable once built; ToString is the EXPLAIN / golden format.
struct PlanTree {
  std::vector<PlanNode> nodes;
  int root = -1;

  bool empty() const { return nodes.empty(); }
  // Indented one-node-per-line rendering, stable across runs:
  //   project [x,y,z]
  //     shuffle-join [y] est=120
  //       exchange on [y]
  //         scan R [x,y]
  //       ...
  std::string ToString(const ConjunctiveQuery& q) const;
};

// Builds the explicit tree for a left-deep join order over `q`'s atoms:
// scans, exchanges at each shuffle point, shuffle-join/product internal
// nodes (products where no variable is shared), and a root projection.
// `est_rows[k]` (optional, may be empty) annotates the intermediate after
// joining order[0..k]. With `skew_aware`, shuffle joins on a single key
// use the skew-aware join; multi-key joins always hash.
PlanTree BuildJoinOrderTree(const ConjunctiveQuery& q,
                            const std::vector<int>& order, bool skew_aware,
                            const std::vector<double>& est_rows);

// Builds the one-node tree delegating to a whole-query driver.
PlanTree BuildAlgorithmTree(const ConjunctiveQuery& q,
                            const std::string& algorithm_name);

// Executes a join-order tree node by node: kScan normalizes the atom
// (drops rows violating repeated variables, projects to one column per
// distinct variable), kShuffleJoin runs the hash or skew-aware parallel
// join over its exchange children's keys, kProduct the Cartesian grid,
// kProject the final column permutation. This is the only executor of
// left-deep binary plans; IterativeBinaryJoin builds a tree and runs it
// here. A non-null `step_sizes` receives the total size of each join or
// product output in evaluation order. kAlgorithm trees are executed by
// the planner (it owns the driver dispatch); passing one here
// CHECK-fails.
DistRelation ExecuteJoinOrderTree(Cluster& cluster, const ConjunctiveQuery& q,
                                  const std::vector<DistRelation>& atoms,
                                  const PlanTree& tree, Rng& rng,
                                  std::vector<int64_t>* step_sizes = nullptr);

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_PLAN_TREE_H_
