#ifndef MPCQP_MULTIWAY_BIGJOIN_H_
#define MPCQP_MULTIWAY_BIGJOIN_H_

#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "query/query.h"

namespace mpcqp {

// A distributed, multi-round, worst-case-optimal join in the style of
// BiGJoin (Ammar et al., VLDB'18 — one of the deck's slide-97 "multi-round
// multiway joins in practice"): Generic Join executed variable-at-a-time
// across the cluster.
//
// Round structure per variable x_i (bound vars B = {x_1..x_{i-1}}):
//   extend: the distributed prefix set P (one tuple per partial binding)
//           is co-partitioned with the chosen extender atom (the smallest
//           atom containing x_i) on their shared bound variables and each
//           prefix emits one extended prefix per matching x_i value;
//   filter: every other atom containing x_i semijoin-reduces the extended
//           prefixes by its projection onto (vars ∩ (B ∪ {x_i}))
//           (sound partial filtering; it becomes exact once the atom's
//           last variable binds).
//
// r = O(k·l) rounds; communication per round is proportional to the
// current prefix-set size, which Generic Join bounds by IN^{ρ*}. Compared
// with one-round HyperCube: more rounds, but no multicast replication and
// robustness to skew without residual-query machinery.
//
// SET semantics: duplicates in the inputs do not multiply (the same
// result as Dedup(TrieJoin) over deduplicated inputs). Output columns =
// query variables in id order.
struct BigJoinOptions {
  // Variable binding order; empty = variable id order.
  std::vector<int> var_order;
};

struct BigJoinResult {
  DistRelation output;
  int rounds = 0;
};

BigJoinResult BigJoin(Cluster& cluster, const ConjunctiveQuery& q,
                      const std::vector<DistRelation>& atoms,
                      const BigJoinOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_BIGJOIN_H_
