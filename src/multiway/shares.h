#ifndef MPCQP_MULTIWAY_SHARES_H_
#define MPCQP_MULTIWAY_SHARES_H_

#include <cstdint>
#include <vector>

#include "query/query.h"

namespace mpcqp {

// Integer HyperCube shares: p_1 × ... × p_k with Π p_i <= p.
// The fractional optimum comes from the share LP
// (OptimalShareExponents); these routines round it to integers.

enum class ShareRounding {
  // Floor each p^{e_i} (product stays <= p), then greedily bump the share
  // that most reduces the predicted load while the product still fits.
  kFloorGreedy,
  // Exact search over all integer share vectors with product <= p.
  // Exponential in num_vars; fine for the small queries of the deck and
  // used as the ablation baseline (A1).
  kExhaustive,
};

struct IntegerShares {
  std::vector<int> shares;       // One per query variable; product <= p.
  double predicted_load = 0.0;   // max_j |S_j| / Π_{i∈S_j} shares_i.
};

// Predicted per-server load for a given share vector.
double PredictedLoad(const ConjunctiveQuery& q,
                     const std::vector<int64_t>& sizes,
                     const std::vector<int>& shares);

// Computes integer shares for `q` with per-atom sizes on `p` servers.
IntegerShares ComputeShares(const ConjunctiveQuery& q,
                            const std::vector<int64_t>& sizes, int p,
                            ShareRounding rounding = ShareRounding::kFloorGreedy);

// Shares for the residual query of SkewHC's combo `heavy_vars` (bit v set
// = variable v heavy): every heavy variable keeps share 1, and the light
// ones take ComputeShares of the query that keeps each atom's light
// variables, sized by `sizes` (per atom of `q`). Atoms left with no light
// variable are dropped from it, since they only filter. One share per
// variable of `q`.
std::vector<int> ResidualShares(const ConjunctiveQuery& q, uint32_t heavy_vars,
                                const std::vector<int64_t>& sizes, int p);

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_SHARES_H_
