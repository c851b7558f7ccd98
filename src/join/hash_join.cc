#include "join/hash_join.h"

#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/relation_ops.h"

namespace mpcqp {

DistRelation ParallelHashJoin(Cluster& cluster, const DistRelation& left,
                              const DistRelation& right,
                              const std::vector<int>& left_keys,
                              const std::vector<int>& right_keys) {
  MPCQP_CHECK_EQ(left_keys.size(), right_keys.size());
  MPCQP_CHECK(!left_keys.empty());
  MPCQP_TRACE_SCOPE("hash_join", "algorithm");
  const int p = cluster.num_servers();

  // Both shuffles share one hash function (same key, same server) and one
  // MPC round.
  const HashFunction hash = cluster.NewHashFunction();
  cluster.BeginRound("parallel hash join: shuffle");
  DistRelation left_parts =
      HashPartition(cluster, left, left_keys, hash, "");
  DistRelation right_parts =
      HashPartition(cluster, right, right_keys, hash, "");
  cluster.EndRound();

  // Local joins: one pool task per server, each writing its own slot.
  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local join", "compute", s);
    outputs[s] = HashJoinLocal(left_parts.fragment(s),
                               right_parts.fragment(s), left_keys, right_keys);
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
