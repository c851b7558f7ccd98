#ifndef MPCQP_MULTIWAY_TRIANGLE_HL_H_
#define MPCQP_MULTIWAY_TRIANGLE_HL_H_

#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/shares.h"

namespace mpcqp {

// The heavy-light + semijoin plan for the triangle (deck slide 59): the
// multi-round alternative to SkewHC that is worst-case optimal at r = 2.
//
//   R(x,y) ⋈ S(y,z) ⋈ T(z,x), with z values of degree > IN/p^{1/3} in
//   S or T designated heavy (at most O(p^{1/3}) of them):
//
//   - light z: one-round HyperCube on (R, S_light, T_light) over all p
//     servers, L = O(IN/p^{2/3});
//   - heavy z: the residual q(z=h) = R(x,y) ⋈ S(y,h) ⋈ T(h,x) runs as a
//     two-round semijoin-style binary plan (R ⋈ S_heavy on y, then ⋈
//     T_heavy on (z, x)), also L = O(IN/p^{2/3}) because each heavy z's
//     degree is capped.
//
//   Both parts run on the same servers; a deployment overlaps the light
//   round with the heavy plan's first round, giving the slide's r = 2.
//   The simulator executes them sequentially (3 metered rounds) and
//   reports both counts.
//
// A bench-only driver: bench_multiround_plans, multiway_test and
// cost_golden_test call it directly. It is not a planner family, and
// ParseAlgorithmName has no name for it, so no query text or CLI flag
// reaches it.
struct TriangleHlOptions {
  // Heavy threshold factor over IN/p^{1/3}.
  double threshold_factor = 1.0;
};

struct TriangleHlResult {
  // Output columns (x, y, z).
  DistRelation output;
  int64_t heavy_values = 0;   // Heavy z values handled by the 2-round plan.
  int metered_rounds = 0;     // Rounds as executed sequentially.
  int overlapped_rounds = 0;  // max(1, 2): the deck's round count.
};

// r, s, t instantiate R(x,y), S(y,z), T(z,x).
TriangleHlResult TriangleHeavyLightJoin(Cluster& cluster,
                                        const DistRelation& r,
                                        const DistRelation& s,
                                        const DistRelation& t, Rng& rng,
                                        const TriangleHlOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_TRIANGLE_HL_H_
