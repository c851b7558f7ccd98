#include "join/broadcast_join.h"

#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/relation_ops.h"

namespace mpcqp {

DistRelation BroadcastJoin(Cluster& cluster, const DistRelation& left,
                           const DistRelation& right,
                           const std::vector<int>& left_keys,
                           const std::vector<int>& right_keys) {
  MPCQP_CHECK_EQ(left_keys.size(), right_keys.size());
  const int p = cluster.num_servers();

  DistRelation replicated =
      Broadcast(cluster, right, "broadcast join: replicate small side");

  // Local joins: one pool task per server, each writing its own slot. The
  // replicated fragments are COW handles to one shared payload; probing
  // them concurrently is read-only and race-free.
  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local join", "compute", s);
    outputs[s] = HashJoinLocal(left.fragment(s), replicated.fragment(s),
                               left_keys, right_keys);
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
