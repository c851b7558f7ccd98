#ifndef MPCQP_JOIN_BROADCAST_JOIN_H_
#define MPCQP_JOIN_BROADCAST_JOIN_H_

#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// Broadcast (a.k.a. map-side / replicated) join, deck slide 32: when one
// input is much smaller, replicate it to every server and leave the big
// input in place. One round; load |small| per server, independent of skew.
//
// `left` stays in place; `right` is broadcast, and each server runs a
// local hash join. Output contract matches ParallelHashJoin.
DistRelation BroadcastJoin(Cluster& cluster, const DistRelation& left,
                           const DistRelation& right,
                           const std::vector<int>& left_keys,
                           const std::vector<int>& right_keys);

}  // namespace mpcqp

#endif  // MPCQP_JOIN_BROADCAST_JOIN_H_
