#ifndef MPCQP_TESTS_TEST_DATA_H_
#define MPCQP_TESTS_TEST_DATA_H_

#include <set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "query/local_eval.h"
#include "query/query.h"
#include "relation/relation.h"

namespace mpcqp {

// `rows` distinct pairs, each value uniform in [0, domain).
inline Relation DistinctUniformPairs(Rng& rng, int64_t rows,
                                     uint64_t domain) {
  std::set<std::pair<Value, Value>> seen;
  Relation out(2);
  while (out.size() < rows) {
    const Value a = rng.Uniform(domain);
    const Value b = rng.Uniform(domain);
    if (seen.emplace(a, b).second) out.AppendRow({a, b});
  }
  return out;
}

// The triangle data a size-only plan-cache key cannot tell apart: three
// duplicate-free relations, and a copy of R whose last row is replaced by
// a second copy of an R row that closes a triangle. Same sizes, one
// duplicate, one more triangle under bag semantics.
struct TriangleDuplicateData {
  std::vector<Relation> atoms;  // R, S, T, all duplicate-free.
  Relation r_with_duplicate;
};

inline TriangleDuplicateData MakeTriangleDuplicateData() {
  Rng rng(2900);
  TriangleDuplicateData data;
  for (int j = 0; j < 3; ++j) {
    data.atoms.push_back(DistinctUniformPairs(rng, 2900, 300));
  }
  const Relation& r = data.atoms[0];
  const int64_t last = r.size() - 1;
  const Relation triangles =
      EvalJoinLocal(ConjunctiveQuery::Triangle(), data.atoms);
  for (int64_t t = 0; t < triangles.size(); ++t) {
    const Value x = triangles.at(t, 0);
    const Value y = triangles.at(t, 1);
    if (r.at(last, 0) == x && r.at(last, 1) == y) continue;
    data.r_with_duplicate = Relation(2);
    for (int64_t i = 0; i < last; ++i) data.r_with_duplicate.AppendRowFrom(r, i);
    data.r_with_duplicate.AppendRow({x, y});
    break;
  }
  return data;
}

}  // namespace mpcqp

#endif  // MPCQP_TESTS_TEST_DATA_H_
