#ifndef MPCQP_RELATION_COLUMNAR_H_
#define MPCQP_RELATION_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

class ThreadPool;

// ---- Input-derived scan rule ----
// Scans (selection / group-by) compact the columns they read out of the
// row-major payload when the kernel reads at most a third of the row:
// arity >= kColumnarScanArityFactor * columns_read. Narrower rows are
// cheaper to stride over directly. The rule reads only the input's shape,
// never thread count or morsel size, so every decomposition runs the same
// kernel and outputs stay bit-identical. Paired runs that keep it
// (EXPERIMENTS.md E22): the compacted group-by scan measured 1.49x, 1.01x
// and 1.45x over the stride loop in three t=1 runs on 8-wide rows, and the
// SelectRange gather 1.2-2.1x over the stride loop on 16-wide rows.
inline constexpr int kColumnarScanArityFactor = 3;

// True if a scan kernel reading `columns_read` of `arity` columns should
// compact those columns out of the wide rows before the hot loop.
bool UseColumnarScan(int arity, int columns_read);

// ---- Shared key-gather helper ----
// The one strided gather loop: out[i] = row i's column `col`, for rows
// [begin, end) of a row-major buffer. Every kernel that still needs a
// row-major gather (exchange route, KeyIndex build, group-by scans) calls
// this instead of hand-rolling the stride arithmetic.
void GatherKeyColumn(const Value* base, int arity, int col, int64_t begin,
                     int64_t end, Value* out);
// View-aware variant: honors the view's selection vector, if any.
void GatherKeyColumn(RelationView view, int col, int64_t begin, int64_t end,
                     Value* out);

// A relation stored column-major: one flat buffer where column c occupies
// [c * rows, (c + 1) * rows). The contiguous columns are what make the
// hot kernels vectorizable — HashMany/BucketMany over column(key), tight
// predicate loops for selections, and group-by scans that never touch
// non-grouping columns.
//
// Copies are copy-on-write with exactly Relation's semantics: handles
// share an immutable payload, Mutable() detaches (cloning only if another
// handle still shares), and SharesPayloadWith is the diagnostic hook.
// The row count is fixed at construction/transpose time — columnar
// storage is a scan-optimized snapshot, not an append target; build
// row-major, transpose, scan.
class ColumnarRelation {
 public:
  ColumnarRelation() : arity_(0) {}
  explicit ColumnarRelation(int arity);

  // Transposes a row-major relation. With a pool, the transpose tiles
  // rows into morsels of `morsel_rows` (<= 0 means one morsel) and runs
  // work-stealing parallel; the output bytes are identical for every
  // (pool, morsel_rows) since morsels write disjoint row ranges.
  static ColumnarRelation FromRowMajor(const Relation& rel,
                                       ThreadPool* pool = nullptr,
                                       int64_t morsel_rows = 0);

  // Inverse transpose, same parallelism and determinism contract.
  Relation ToRowMajor(ThreadPool* pool = nullptr,
                      int64_t morsel_rows = 0) const;

  int arity() const { return arity_; }
  int64_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  // Pointer to column `col`: size() contiguous values. Invalid for
  // nullary or empty relations.
  const Value* column(int col) const;

  Value at(int64_t row, int col) const;

  // Explicit COW detach: clones the payload if shared, returns the
  // now-private flat column-major buffer for in-place mutation (e.g.
  // rewriting one column). The shape (arity, rows) is unchanged.
  std::vector<Value>& Mutable();

  bool SharesPayloadWith(const ColumnarRelation& other) const {
    return payload_ != nullptr && payload_ == other.payload_;
  }

  // Exact equality: same arity, same rows in the same order.
  friend bool operator==(const ColumnarRelation& a, const ColumnarRelation& b);

 private:
  struct Payload {
    std::vector<Value> data;  // Column-major; column c at [c*rows, (c+1)*rows).
  };

  int arity_;
  int64_t rows_ = 0;
  std::shared_ptr<Payload> payload_;
};

}  // namespace mpcqp

#endif  // MPCQP_RELATION_COLUMNAR_H_
