#include "join/heavy_hitters.h"

#include <utility>
#include <vector>

#include "common/check.h"

namespace mpcqp {

FlatCounter CountColumn(const DistRelation& rel, int col) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  const size_t arity = static_cast<size_t>(rel.arity());
  FlatCounter counts;
  for (int s = 0; s < rel.num_servers(); ++s) {
    const std::vector<Value>& data = rel.fragment(s).data();
    for (size_t i = static_cast<size_t>(col); i < data.size(); i += arity) {
      counts.Add(data[i]);
    }
  }
  return counts;
}

std::vector<HeavyHitter> FindHeavyHitters(const DistRelation& rel, int col,
                                          int64_t threshold) {
  return FindHeavyHitters(CountColumn(rel, col), threshold);
}

std::vector<HeavyHitter> FindHeavyHitters(const FlatCounter& counts,
                                          int64_t threshold) {
  std::vector<HeavyHitter> result;
  for (const auto& [value, count] : counts.SortedEntries(threshold)) {
    result.push_back({value, count});
  }
  return result;
}

}  // namespace mpcqp
