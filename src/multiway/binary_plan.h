#ifndef MPCQP_MULTIWAY_BINARY_PLAN_H_
#define MPCQP_MULTIWAY_BINARY_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "query/query.h"

namespace mpcqp {

// Multi-round evaluation by iterated two-way joins (deck slides 57-63):
// the plan every practical system defaults to. A left-deep chain over the
// atoms in a given order; each step is one parallel two-way join round.
//
// On skew-free inputs this reaches L = O(IN/p) in n-1 rounds (slide 57);
// on adversarial inputs intermediates can explode to |Ti| >> p·IN
// (slide 63) — both reproduced by the benches.
struct BinaryPlanOptions {
  // Use the skew-aware join for steps with a single shared variable
  // (multi-variable steps always use the hash join).
  bool skew_aware = false;
  // Atom join order; empty = 0, 1, ..., l-1.
  std::vector<int> order;
};

struct BinaryPlanResult {
  // Output columns = query variables in id order.
  DistRelation output;
  // Total size of each intermediate (after each of the l-1 join steps).
  std::vector<int64_t> intermediate_sizes;
};

// atoms[j] instantiates q.atom(j). Builds the left-deep PlanTree for the
// order (BuildJoinOrderTree) and runs it with ExecuteJoinOrderTree, the
// executor planned binary plans use too.
BinaryPlanResult IterativeBinaryJoin(Cluster& cluster,
                                     const ConjunctiveQuery& q,
                                     const std::vector<DistRelation>& atoms,
                                     Rng& rng,
                                     const BinaryPlanOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_BINARY_PLAN_H_
