#ifndef MPCQP_ACYCLIC_GYM_H_
#define MPCQP_ACYCLIC_GYM_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/shares.h"
#include "query/ghd.h"
#include "query/query.h"

namespace mpcqp {

// GYM: distributed Yannakakis over a GHD (deck slides 78-95).
//
// Phases:
//   0. Materialize each bag (free for width-1 GHDs; width-w bags take w-1
//      step-parallel binary-join rounds).
//   1. Upward semijoin phase (leaves toward root).
//   2. Downward semijoin phase (root toward leaves).
//   3. Join phase (bottom-up).
//
// Vanilla mode runs one semijoin/join per round (the r = O(n) of slide
// 78; star-4 takes 9 rounds, slides 80-89). Optimized mode processes a
// whole GHD level per round — parallel semijoin copies + an intersection
// round where a parent has several children — and replaces the join phase
// with a single SkewHC round over the reduced bags (r = O(d); star-4
// takes 4 rounds, slides 90-94).
//
// Load: O((IN^w + OUT)/p) — linear scalability whenever OUT (and the bag
// materializations) stay proportional to input (slide 78).
struct GymOptions {
  bool optimized = false;
};

struct GymResult {
  // Output columns = query variables in id order.
  DistRelation output;
  // MPC rounds this call consumed (measured on the cluster).
  int rounds = 0;
  // Largest materialized bag, the IN^w term of the load bound.
  int64_t max_bag_size = 0;
};

// atoms[j] instantiates q.atom(j); `ghd` must validate against `q`.
GymResult GymJoin(Cluster& cluster, const ConjunctiveQuery& q, const Ghd& ghd,
                  const std::vector<DistRelation>& atoms, Rng& rng,
                  const GymOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_ACYCLIC_GYM_H_
