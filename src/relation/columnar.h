#ifndef MPCQP_RELATION_COLUMNAR_H_
#define MPCQP_RELATION_COLUMNAR_H_

#include <cstdint>

#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

// ---- Input-derived scan rule ----
// Group-by scans compact the columns they read out of the row-major
// payload when the kernel reads at most a third of the row:
// arity >= kColumnarScanArityFactor * columns_read. Narrower rows are
// cheaper to stride over directly. The rule reads only the input's shape,
// never thread count or morsel size, so every decomposition runs the same
// kernel and outputs stay bit-identical. Paired runs that keep it
// (EXPERIMENTS.md E22): the compacted group-by scan measured 1.49x, 1.01x
// and 1.45x over the stride loop in three t=1 runs on 8-wide rows.
inline constexpr int kColumnarScanArityFactor = 3;

// True if a scan kernel reading `columns_read` of `arity` columns should
// compact those columns out of the wide rows before the hot loop.
bool UseColumnarScan(int arity, int columns_read);

// ---- Shared key-gather helper ----
// The one strided gather loop: out[i] = row i's column `col`, for rows
// [begin, end) of a row-major buffer. Every kernel that needs a row-major
// gather (exchange route, KeyIndex build, group-by scans) calls this
// instead of hand-rolling the stride arithmetic.
void GatherKeyColumn(const Value* base, int arity, int col, int64_t begin,
                     int64_t end, Value* out);
// View-aware variant: honors the view's selection vector, if any.
void GatherKeyColumn(RelationView view, int col, int64_t begin, int64_t end,
                     Value* out);

}  // namespace mpcqp

#endif  // MPCQP_RELATION_COLUMNAR_H_
