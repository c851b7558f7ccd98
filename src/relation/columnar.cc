#include "relation/columnar.h"

#include <algorithm>

#include "common/check.h"

namespace mpcqp {

bool UseColumnarScan(int arity, int columns_read) {
  MPCQP_CHECK_GE(columns_read, 0);
  // Reading (nearly) the whole row: compaction would copy everything the
  // scan touches anyway.
  if (columns_read >= arity) return false;
  return arity >= kColumnarScanArityFactor * std::max(columns_read, 1);
}

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
