#include "multiway/binary_plan.h"

#include <numeric>
#include <utility>

#include "multiway/plan_tree.h"

namespace mpcqp {

BinaryPlanResult IterativeBinaryJoin(Cluster& cluster,
                                     const ConjunctiveQuery& q,
                                     const std::vector<DistRelation>& atoms,
                                     Rng& rng,
                                     const BinaryPlanOptions& options) {
  std::vector<int> order = options.order;
  if (order.empty()) {
    order.resize(q.num_atoms());
    std::iota(order.begin(), order.end(), 0);
  }
  const PlanTree tree =
      BuildJoinOrderTree(q, order, options.skew_aware, /*est_rows=*/{});
  std::vector<int64_t> step_sizes;
  DistRelation output =
      ExecuteJoinOrderTree(cluster, q, atoms, tree, rng, &step_sizes);
  return {std::move(output), std::move(step_sizes)};
}

}  // namespace mpcqp
