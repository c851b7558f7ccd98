#include "sort/band_join.h"

#include <algorithm>

#include "common/check.h"
#include "mpc/exchange.h"
#include "sort/psrs.h"

namespace mpcqp {

DistRelation BandJoin(Cluster& cluster, const DistRelation& left,
                      const DistRelation& right, int left_col, int right_col,
                      Value epsilon) {
  MPCQP_CHECK_GE(left_col, 0);
  MPCQP_CHECK_LT(left_col, left.arity());
  MPCQP_CHECK_GE(right_col, 0);
  MPCQP_CHECK_LT(right_col, right.arity());
  const int p = cluster.num_servers();

  // Rounds 1-2: PSRS on the right side; its splitters define the server
  // intervals.
  PsrsOptions options;
  options.key_cols = {right_col};
  const PsrsResult sorted_right = PsrsSort(cluster, right, options);
  std::vector<Value> splitters;
  splitters.reserve(sorted_right.splitters.size());
  for (const auto& key : sorted_right.splitters) {
    splitters.push_back(key.front());
  }

  // Round 3: replicate each left tuple to every server whose interval
  // intersects its epsilon window. Server i owns [splitters[i-1],
  // splitters[i]) with ties-to-the-right at boundaries (upper_bound),
  // matching the PSRS partition.
  const DistRelation routed_left = Route(
      cluster, left,
      [&](int /*src*/, const Relation& frag, int64_t begin, int64_t end,
          RouteSink& sink) {
        for (int64_t i = begin; i < end; ++i) {
          const Value key = frag.row(i)[left_col];
          const Value lo = key >= epsilon ? key - epsilon : 0;
          const Value hi =
              key + epsilon >= key ? key + epsilon : ~Value{0};  // Saturate.
          const int first = static_cast<int>(
              std::upper_bound(splitters.begin(), splitters.end(), lo) -
              splitters.begin());
          // PSRS's binary search sends a right tuple with key k to the
          // first index whose splitter exceeds k; the last server whose
          // interval can contain hi is upper_bound(hi).
          const int last = static_cast<int>(
              std::upper_bound(splitters.begin(), splitters.end(), hi) -
              splitters.begin());
          for (int s = first; s <= last; ++s) sink.Add(s);
          sink.EndRow();
        }
      },
      "band join: window replication");

  // Local sweep: sort both sides, slide a window.
  std::vector<Relation> outputs;
  outputs.reserve(p);
  std::vector<Value> scratch(left.arity() + right.arity());
  for (int s = 0; s < p; ++s) {
    Relation lf = routed_left.fragment(s);
    lf.SortRowsBy({left_col});
    const Relation& rf = sorted_right.sorted.fragment(s);  // Sorted already.
    Relation out(left.arity() + right.arity());
    int64_t window_start = 0;
    for (int64_t ri = 0; ri < rf.size(); ++ri) {
      const Value rkey = rf.at(ri, right_col);
      const Value lo = rkey >= epsilon ? rkey - epsilon : 0;
      while (window_start < lf.size() &&
             lf.at(window_start, left_col) < lo) {
        ++window_start;
      }
      for (int64_t li = window_start; li < lf.size(); ++li) {
        const Value lkey = lf.at(li, left_col);
        if (lkey > rkey && lkey - rkey > epsilon) break;
        std::copy(lf.row(li), lf.row(li) + left.arity(), scratch.begin());
        std::copy(rf.row(ri), rf.row(ri) + right.arity(),
                  scratch.begin() + left.arity());
        out.AppendRow(scratch.data());
      }
    }
    outputs.push_back(std::move(out));
  }
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
