#include "relation/columnar.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/check.h"
#include "common/exec_context.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"

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
  simd::GatherStride(src, arity, end - begin, out);
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
    simd::GatherIndexed(base, sel + begin, end - begin, arity, col, out);
    return;
  }
  GatherKeyColumn(base, arity, col, begin, end, out);
}

ColumnarRelation::ColumnarRelation(int arity) : arity_(arity) {
  MPCQP_CHECK_GE(arity, 0);
}

namespace {

// Runs body(begin, end) over [0, rows): morsel-tiled on the pool when one
// is given, inline otherwise. The decomposition covers disjoint ranges, so
// transpose outputs are bit-identical for every (pool, morsel_rows).
void ForEachRowRange(ThreadPool* pool, int64_t rows, int64_t morsel_rows,
                     const std::function<void(int64_t, int64_t)>& body) {
  if (pool != nullptr && morsel_rows > 0 && rows > morsel_rows) {
    pool->ParallelForGrained(rows, morsel_rows, body);
  } else {
    body(0, rows);
  }
}

}  // namespace

ColumnarRelation ColumnarRelation::FromRowMajor(const Relation& rel,
                                                ThreadPool* pool,
                                                int64_t morsel_rows) {
  ColumnarRelation out(rel.arity());
  out.rows_ = rel.size();
  if (out.arity_ == 0 || out.rows_ == 0) return out;
  out.payload_ = std::make_shared<Payload>();
  out.payload_->data.resize(static_cast<size_t>(out.rows_) * out.arity_);
  const Value* src = rel.data().data();
  Value* dst = out.payload_->data.data();
  const int arity = out.arity_;
  const int64_t rows = out.rows_;
  // Contiguous row reads fan out into `arity` sequential write streams
  // (one per column) — the cache-friendly direction for small arities.
  ForEachRowRange(pool, rows, morsel_rows, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      const Value* row = src + static_cast<size_t>(r) * arity;
      for (int c = 0; c < arity; ++c) {
        dst[static_cast<size_t>(c) * rows + r] = row[c];
      }
    }
  });
  return out;
}

Relation ColumnarRelation::ToRowMajor(ThreadPool* pool,
                                      int64_t morsel_rows) const {
  Relation out(arity_);
  if (arity_ == 0) {
    for (int64_t i = 0; i < rows_; ++i) out.AppendNullaryRow();
    return out;
  }
  if (rows_ == 0) return out;
  Value* dst = out.ResizeRowsForOverwrite(rows_);
  const Value* src = payload_->data.data();
  const int arity = arity_;
  const int64_t rows = rows_;
  ForEachRowRange(pool, rows, morsel_rows, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      Value* row = dst + static_cast<size_t>(r) * arity;
      for (int c = 0; c < arity; ++c) {
        row[c] = src[static_cast<size_t>(c) * rows + r];
      }
    }
  });
  return out;
}

const Value* ColumnarRelation::column(int col) const {
  MPCQP_CHECK_GT(arity_, 0);
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, arity_);
  MPCQP_CHECK_GT(rows_, 0);
  return payload_->data.data() + static_cast<size_t>(col) * rows_;
}

Value ColumnarRelation::at(int64_t row, int col) const {
  MPCQP_CHECK_GE(row, 0);
  MPCQP_CHECK_LT(row, rows_);
  return column(col)[row];
}

std::vector<Value>& ColumnarRelation::Mutable() {
  if (!payload_) {
    payload_ = std::make_shared<Payload>();
  } else if (payload_.use_count() > 1) {
    // Same COW detach protocol as Relation::Mutable, including per-query
    // attribution of the clone.
    auto owned = std::make_shared<Payload>();
    owned->data = payload_->data;
    payload_ = std::move(owned);
    const int64_t bytes =
        static_cast<int64_t>(payload_->data.size() * sizeof(Value));
    TraceCounters::cow_detaches.fetch_add(1, std::memory_order_relaxed);
    TraceCounters::cow_detach_bytes.fetch_add(bytes,
                                              std::memory_order_relaxed);
    if (const ExecContext* context = CurrentExecContext();
        context != nullptr && context->cow_detaches != nullptr) {
      context->cow_detaches->fetch_add(1, std::memory_order_relaxed);
      context->cow_detach_bytes->fetch_add(bytes, std::memory_order_relaxed);
    }
  } else {
    // See Relation::Mutable: adopt the last sharer's detach before any
    // in-place write through the relaxed use_count() observation.
    std::shared_ptr<Payload> acquire_last_detach(payload_);
    acquire_last_detach.reset();
  }
  return payload_->data;
}

bool operator==(const ColumnarRelation& a, const ColumnarRelation& b) {
  if (a.arity_ != b.arity_ || a.rows_ != b.rows_) return false;
  if (a.payload_ == b.payload_) return true;  // Shared payload: equal.
  if (a.payload_ == nullptr || b.payload_ == nullptr) {
    return a.rows_ == 0;  // One side empty-with-no-payload.
  }
  return a.payload_->data == b.payload_->data;
}

}  // namespace mpcqp
