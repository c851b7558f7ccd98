#ifndef MPCQP_PLANNER_ENUMERATOR_H_
#define MPCQP_PLANNER_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "planner/planner.h"
#include "query/query.h"

namespace mpcqp {

// Prices a (load, rounds) estimate under the options' cost model:
// uncalibrated = load + λ·rounds (tuple-equivalents, the original advisory
// metric); calibrated = microseconds from the measured per-tuple phase
// coefficients. Both are monotone in load at fixed rounds, so the DP can
// minimize the bottleneck load and stay optimal under either model.
double PriceCandidate(double load, int rounds, const ConjunctiveQuery& q,
                      const PlannerOptions& options);

// Canonical cardinality estimate for the join of the atoms in `mask`
// (bit j = atom j): the independence cascade applied in ascending atom
// index order. Fixing the order makes the estimate a function of the set,
// not the path the DP took to reach it.
double EstimateMaskRows(const ConjunctiveQuery& q, const PlannerStats& stats,
                        uint32_t mask);

struct EnumerationResult {
  EnumeratedPlan best;
  // The whole-query strategies' scores; the kBinaryPlan entry reflects
  // the best enumerated order, not the identity cascade.
  std::vector<CandidatePlan> candidates;
  bool input_is_skewed = false;
  // (mask, atom) transitions the enumerator expanded; 0 means planning
  // was skipped entirely (cache hit).
  int64_t dp_states = 0;
};

// The enumeration layer: scores every allowed whole-query strategy, runs
// a System-R-style subset DP over left-deep binary join orders (greedy
// fallback past 12 atoms), prices everything under the same
// cost model, and returns the winner as an executable plan tree.
EnumerationResult EnumeratePlans(const ConjunctiveQuery& q,
                                 const PlannerStats& stats, int p,
                                 const PlannerOptions& options);

}  // namespace mpcqp

#endif  // MPCQP_PLANNER_ENUMERATOR_H_
