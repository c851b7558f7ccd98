#ifndef MPCQP_MULTIWAY_SKEW_HC_H_
#define MPCQP_MULTIWAY_SKEW_HC_H_

#include <cstdint>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/shares.h"
#include "query/query.h"

namespace mpcqp {

// The SkewHC algorithm (deck slides 46-51): a one-round multiway join that
// is worst-case optimal on skewed inputs, with load IN/p^{1/ψ*}.
//
// A value is heavy for variable x if its degree exceeds
// threshold_factor·IN/p in some atom containing x. The input splits into
// residual queries, one per heavy/light combination over the variables:
// heavy variables are removed from the hashing dimensions (their values
// "ride along" in the tuples and keep share 1), atoms reduced to their
// light variables form the residual hypergraph whose own share LP picks
// the grid, and atoms left with no light variable become broadcast
// filters. All residual queries execute in parallel in the same round;
// each output tuple is produced by exactly one residual at exactly one
// server.
struct SkewHcOptions {
  // Multiplies the IN/p heavy threshold (ablation knob A2).
  double threshold_factor = 1.0;
};

// Book-keeping about one executed residual query (a heavy/light combo),
// e.g. to print the slide-48..50 table.
struct ResidualInfo {
  std::vector<int> heavy_vars;       // Variable ids marked heavy.
  std::vector<int> shares;           // Per original variable (heavy -> 1).
  std::vector<int64_t> class_sizes;  // Per atom: tuples routed under combo.
  int64_t output_size = 0;
};

struct SkewHcResult {
  DistRelation output;  // Columns = query variables in id order.
  std::vector<ResidualInfo> residuals;  // Executed combos only.
};

SkewHcResult SkewHcJoin(Cluster& cluster, const ConjunctiveQuery& q,
                        const std::vector<DistRelation>& atoms,
                        const SkewHcOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_SKEW_HC_H_
