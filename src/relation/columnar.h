#ifndef MPCQP_RELATION_COLUMNAR_H_
#define MPCQP_RELATION_COLUMNAR_H_

#include <cstdint>

#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

// ---- Shared key-gather helper ----
// The one strided gather loop: out[i] = row i's column `col`, for rows
// [begin, end) of a row-major buffer. Every kernel that needs a row-major
// gather (exchange route, KeyIndex build, local joins) calls this
// instead of hand-rolling the stride arithmetic.
void GatherKeyColumn(const Value* base, int arity, int col, int64_t begin,
                     int64_t end, Value* out);
// View-aware variant: honors the view's selection vector, if any.
void GatherKeyColumn(RelationView view, int col, int64_t begin, int64_t end,
                     Value* out);

}  // namespace mpcqp

#endif  // MPCQP_RELATION_COLUMNAR_H_
