#include "relation/columnar.h"

#include "common/check.h"

namespace mpcqp {

void GatherKeyColumn(const Value* base, int arity, int col, int64_t begin,
                     int64_t end, Value* out) {
  const Value* src = base + static_cast<size_t>(begin) * arity + col;
  for (int64_t i = 0; i < end - begin; ++i, src += arity) out[i] = *src;
}

void GatherKeyColumn(RelationView view, int col, int64_t begin, int64_t end,
                     Value* out) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, view.arity());
  MPCQP_CHECK_GE(begin, 0);
  MPCQP_CHECK_LE(begin, end);
  MPCQP_CHECK_LE(end, view.size());
  if (begin == end) return;
  const int arity = view.arity();
  const Value* base = view.base();
  if (const int64_t* sel = view.selection(); sel != nullptr) {
    for (int64_t i = begin; i < end; ++i) {
      out[i - begin] = base[static_cast<size_t>(sel[i]) * arity + col];
    }
    return;
  }
  GatherKeyColumn(base, arity, col, begin, end, out);
}

}  // namespace mpcqp
