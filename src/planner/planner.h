#ifndef MPCQP_PLANNER_PLANNER_H_
#define MPCQP_PLANNER_PLANNER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/plan_tree.h"
#include "planner/calibration.h"
#include "query/query.h"

namespace mpcqp {

class PlanCache;

// The cost-based distributed query planner, operationalizing the deck's
// takeaways (slides 129-131):
//
//  - skew-free inputs: the 1-round optimum is IN/p^{1/τ*} (HyperCube);
//    multi-round binary plans reach IN/p when intermediates do not grow;
//  - skewed inputs: SkewHC's residual decomposition is worst-case optimal
//    in one round;
//  - acyclic queries with small output: GYM reaches (IN+OUT)/p in O(d)
//    rounds;
//  - skew with large outputs on cyclic queries: the BiGJoin-style
//    variable-at-a-time plan bounds traffic by the true prefix counts.
//
// PlanQuery scores the five whole-query strategies from cheap catalog
// statistics, runs a System-R-style DP over binary join orders, prices
// every candidate with a cost model calibrated from measured phase
// timings (see planner/calibration.h), emits an executable PlanTree with
// exchange operators at the shuffle points, and consults/fills a
// PlanCache keyed by canonical query shape + relation statistics so
// repeated queries skip planning entirely. ForcedPlan builds the plan for
// a family chosen by name instead. ExecutePlannedQuery is the one place
// a plan reaches a whole-query driver.

enum class PlanAlgorithm {
  kHyperCube,
  kSkewHc,
  kBinaryPlan,
  kGym,
  kBigJoin,
};

const char* PlanAlgorithmName(PlanAlgorithm algorithm);

// Parses an algorithm name as spelled on the command line and in
// ServeOptions::algorithm: "auto" and "planner" select the cost-based
// planner (nullopt); "hypercube", "skewhc", "binary" and "gym" force that
// family. Any other name is INVALID_ARGUMENT.
StatusOr<std::optional<PlanAlgorithm>> ParseAlgorithmName(
    const std::string& name);

struct PlannerOptions {
  // λ: tuples-equivalent charge per round (0 = rounds are free, pure
  // load minimization; large = rounds dominate, one-round plans win).
  // Used whenever `cost.calibrated` is false; a calibrated cost model
  // replaces it with measured microseconds (round_overhead_us as the
  // round price).
  double round_cost_tuples = 0.0;
  // Candidates the planner is allowed to pick from; empty = all.
  std::vector<PlanAlgorithm> allowed;
  // Measured per-tuple phase costs (CalibrateCostModel); when
  // `cost.calibrated` the planner prices candidates in microseconds.
  CostCoefficients cost;
};

struct CandidatePlan {
  PlanAlgorithm algorithm = PlanAlgorithm::kHyperCube;
  double estimated_load = 0.0;  // Tuples per server.
  int estimated_rounds = 0;
  double total_cost = 0.0;      // load + λ·rounds, or calibrated µs.
  bool feasible = true;         // E.g. GYM needs acyclicity.
  std::string rationale;
};

// Exact planner statistics: per-atom sizes and per-variable distinct
// counts, per-variable heavy flags against the given threshold, and
// duplicate presence per atom. The theory assumes them free; here
// GatherPlannerStats reads each atom's fragments in place, one hash-count
// pass per distinct-variable column plus one hashed duplicate check per
// atom, on every plan-cache miss.
struct PlannerStats {
  std::vector<int64_t> sizes;                  // Per atom.
  std::vector<std::vector<int64_t>> distinct;  // distinct[j][v] or 0.
  std::vector<bool> var_is_heavy;              // Per query variable.
  std::vector<bool> atom_has_duplicates;       // Per atom.
  int64_t total_in = 0;
};

PlannerStats GatherPlannerStats(const ConjunctiveQuery& q,
                                const std::vector<DistRelation>& atoms,
                                int64_t heavy_threshold);

// Load/rounds estimate of one whole-query strategy from the statistics
// (exposed for the enumerator and tests).
CandidatePlan EstimateCandidate(PlanAlgorithm algorithm,
                                const ConjunctiveQuery& q,
                                const PlannerStats& stats, int p);

// One executable plan: the strategy family plus everything needed to run
// it. For kBinaryPlan the join order (original atom indices) and skew flag
// define the left-deep tree the executor walks; other families dispatch
// to their whole-query driver. `tree` is the explicit operator tree (EXPLAIN,
// goldens); it is rebuilt deterministically from the fields on cache hits.
struct EnumeratedPlan {
  PlanAlgorithm family = PlanAlgorithm::kHyperCube;
  std::vector<int> join_order;  // kBinaryPlan only.
  bool skew_aware = false;      // kBinaryPlan only.
  double estimated_load = 0.0;
  int estimated_rounds = 0;
  double total_cost = 0.0;
  std::string rationale;
  // kBinaryPlan: estimated rows after each join step (len = atoms-1);
  // annotates the tree and is cached so hits rebuild identical EXPLAINs.
  std::vector<double> step_est_rows;
  PlanTree tree;
};

struct PlannedQuery {
  EnumeratedPlan plan;
  // The macro ranking that competed with the DP order (for EXPLAIN).
  std::vector<CandidatePlan> candidates;
  bool input_is_skewed = false;
  bool cache_hit = false;
  // DP states expanded while planning; 0 on a cache hit — the warm-path
  // assertion that enumeration was skipped.
  int64_t dp_states = 0;
  double planning_ms = 0.0;
  // Built by ForcedPlan: no statistics, no candidates, and not a planner
  // call, so executing it records no planning in the cluster's metrics.
  bool forced = false;
};

// Plans `q` end to end: gathers statistics, scores the whole-query
// strategies, runs the join-order DP, prices everything with the options'
// cost model, and emits the winner as an executable plan tree. A non-null
// `cache` is consulted first (hit = no stats scan, no enumeration) and
// filled on miss.
PlannedQuery PlanQuery(const ConjunctiveQuery& q,
                       const std::vector<DistRelation>& atoms,
                       int cluster_size, const PlannerOptions& options = {},
                       PlanCache* cache = nullptr);

// The plan that runs `family` as forced by name: the driver's one-node
// kAlgorithm tree, or for kBinaryPlan the identity join order with
// skew-aware single-key steps. Gathers no statistics. INVALID_ARGUMENT
// when the family cannot run `q` (GYM on a cyclic query).
StatusOr<PlannedQuery> ForcedPlan(const ConjunctiveQuery& q,
                                  PlanAlgorithm family);

// Executes a planned or forced query: kBinaryPlan plans walk the tree
// node by node (ExecuteJoinOrderTree); the other families dispatch to
// their driver. Output columns = query variables in id order; bag
// semantics except kBigJoin (set semantics — the planner only proposes it
// when inputs are duplicate-free).
DistRelation ExecutePlannedQuery(Cluster& cluster, const ConjunctiveQuery& q,
                                 const std::vector<DistRelation>& atoms,
                                 const PlannedQuery& planned, Rng& rng);

}  // namespace mpcqp

#endif  // MPCQP_PLANNER_PLANNER_H_
