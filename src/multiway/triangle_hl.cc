#include "multiway/triangle_hl.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/trace.h"
#include "join/heavy_hitters.h"
#include "mpc/metrics.h"
#include "multiway/binary_plan.h"
#include "multiway/hypercube.h"
#include "query/query.h"
#include "relation/relation_ops.h"

namespace mpcqp {

TriangleHlResult TriangleHeavyLightJoin(Cluster& cluster,
                                        const DistRelation& r,
                                        const DistRelation& s,
                                        const DistRelation& t, Rng& rng,
                                        const TriangleHlOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(r.arity(), 2);
  MPCQP_CHECK_EQ(s.arity(), 2);
  MPCQP_CHECK_EQ(t.arity(), 2);
  MPCQP_TRACE_SCOPE("triangle_hl", "algorithm");
  const int rounds_before = cluster.cost_report().num_rounds();

  const int64_t total_in = r.TotalSize() + s.TotalSize() + t.TotalSize();
  const int64_t threshold = std::max<int64_t>(
      1, static_cast<int64_t>(
             options.threshold_factor * static_cast<double>(total_in) /
             std::pow(static_cast<double>(p), 1.0 / 3.0)));

  // Heavy z values: degree above IN/p^{1/3} in S.z (column 1) or T.z
  // (column 0). Free statistics, per the model.
  std::unordered_set<Value> heavy;
  for (const HeavyHitter& h : FindHeavyHitters(s, 1, threshold)) {
    heavy.insert(h.value);
  }
  for (const HeavyHitter& h : FindHeavyHitters(t, 0, threshold)) {
    heavy.insert(h.value);
  }

  // Local split of S and T by z-heaviness (free compute).
  DistRelation s_light(2, p);
  DistRelation s_heavy(2, p);
  DistRelation t_light(2, p);
  DistRelation t_heavy(2, p);
  {
    ScopedPhaseTimer split_phase(cluster.metrics(), Phase::kLocalCompute);
    for (int srv = 0; srv < p; ++srv) {
      s_light.fragment(srv) = Filter(s.fragment(srv), [&](const Value* row) {
        return heavy.count(row[1]) == 0;
      });
      s_heavy.fragment(srv) = Filter(s.fragment(srv), [&](const Value* row) {
        return heavy.count(row[1]) > 0;
      });
      t_light.fragment(srv) = Filter(t.fragment(srv), [&](const Value* row) {
        return heavy.count(row[0]) == 0;
      });
      t_heavy.fragment(srv) = Filter(t.fragment(srv), [&](const Value* row) {
        return heavy.count(row[0]) > 0;
      });
    }
  }

  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();

  // Light part: one-round HyperCube over all p servers.
  const HyperCubeResult light =
      HyperCubeJoin(cluster, q, {r, s_light, t_light});

  TriangleHlResult result{light.output, static_cast<int64_t>(heavy.size()),
                          0, 2};

  // Heavy part: the two-round semijoin-style plan, only if any heavy z
  // tuples can match.
  if (s_heavy.TotalSize() > 0 && t_heavy.TotalSize() > 0) {
    BinaryPlanOptions plan;
    plan.order = {0, 1, 2};  // R ⋈ S_heavy (on y), then ⋈ T_heavy (z, x).
    const BinaryPlanResult heavy_part =
        IterativeBinaryJoin(cluster, q, {r, s_heavy, t_heavy}, rng, plan);
    for (int srv = 0; srv < p; ++srv) {
      result.output.fragment(srv).Append(heavy_part.output.fragment(srv));
    }
  }

  result.metered_rounds = cluster.cost_report().num_rounds() - rounds_before;
  return result;
}

}  // namespace mpcqp
