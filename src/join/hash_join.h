#ifndef MPCQP_JOIN_HASH_JOIN_H_
#define MPCQP_JOIN_HASH_JOIN_H_

#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// The parallel (partitioned) hash join of deck slide 23: one round that
// sends every tuple of both inputs to server h(join key), then a local
// hash join (HashJoinLocal) per server.
//
// Output contract (shared by every two-way join in the library): columns of
// `left`, then the non-key columns of `right`; fragments live where the
// join was computed.
//
// Load: O(IN/p) w.h.p. on skew-free inputs; degrades to Θ(d) when a join
// value has degree d >> IN/p (slides 24-26).
DistRelation ParallelHashJoin(Cluster& cluster, const DistRelation& left,
                              const DistRelation& right,
                              const std::vector<int>& left_keys,
                              const std::vector<int>& right_keys);

}  // namespace mpcqp

#endif  // MPCQP_JOIN_HASH_JOIN_H_
