#ifndef MPCQP_JOIN_HEAVY_HITTERS_H_
#define MPCQP_JOIN_HEAVY_HITTERS_H_

#include <cstdint>
#include <vector>

#include "common/flat_counter.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// A join value and its frequency in a relation column.
struct HeavyHitter {
  Value value = 0;
  int64_t count = 0;

  friend bool operator==(const HeavyHitter& a, const HeavyHitter& b) {
    return a.value == b.value && a.count == b.count;
  }
};

// Per-value counts of column `col` over every fragment of `rel`: one
// serial FlatCounter pass that reads the fragments in place. The exact
// degree of any value is one Get away.
FlatCounter CountColumn(const DistRelation& rel, int col);

// Values of column `col` with frequency STRICTLY greater than `threshold`,
// sorted by value. The deck's threshold is IN/p (slide 29).
//
// Degree detection is exact here. In a deployment it is one cheap extra
// round (per-server partial counts of candidate values, each server
// holding at most p candidates above IN/p locally); the simulator computes
// it directly and the algorithms treat it as free statistics, matching the
// theory's assumption that degrees are known.
//
// Counting is one CountColumn pass; only the survivors are sorted.
std::vector<HeavyHitter> FindHeavyHitters(const DistRelation& rel, int col,
                                          int64_t threshold);

// The same cut over counts already taken, for callers that also read other
// values' degrees from `counts`.
std::vector<HeavyHitter> FindHeavyHitters(const FlatCounter& counts,
                                          int64_t threshold);

}  // namespace mpcqp

#endif  // MPCQP_JOIN_HEAVY_HITTERS_H_
