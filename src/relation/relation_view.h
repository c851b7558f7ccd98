#ifndef MPCQP_RELATION_RELATION_VIEW_H_
#define MPCQP_RELATION_RELATION_VIEW_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "relation/relation.h"

namespace mpcqp {

// A non-owning window onto a Relation: a contiguous row span, optionally
// indirected through a selection vector of row indices. Local operators
// (join build/probe, projection, dedup, aggregation) take RelationViews so
// callers can hand them a whole fragment, a sub-range, or a filtered
// subset without materializing a Relation copy.
//
// A view borrows: the viewed Relation (and the selection vector, if any)
// must outlive it, and the Relation must not be mutated while viewed —
// the same contract a KeyIndex always had. Views are cheap value types;
// pass them by value. Binding a view to a temporary Relation inside one
// full expression is fine; storing such a view dangles.
class RelationView {
 public:
  // An empty nullary view.
  RelationView() = default;

  // Whole-relation view (implicit: operators taking views accept a
  // Relation unchanged at the call site).
  RelationView(const Relation& rel)  // NOLINT(google-explicit-constructor)
      : arity_(rel.arity()),
        rows_(rel.size()),
        base_(rel.arity() > 0 && rel.size() > 0 ? rel.row(0) : nullptr),
        rel_(&rel) {}

  // Rows [begin, end) of `rel`.
  RelationView(const Relation& rel, int64_t begin, int64_t end)
      : arity_(rel.arity()), rows_(end - begin) {
    MPCQP_CHECK_GE(begin, 0);
    MPCQP_CHECK_LE(begin, end);
    MPCQP_CHECK_LE(end, rel.size());
    if (arity_ > 0 && rows_ > 0) base_ = rel.row(begin);
    if (begin == 0 && end == rel.size()) rel_ = &rel;
  }

  // Rows rel[selection[i]] in selection order. `selection` is borrowed.
  RelationView(const Relation& rel, const std::vector<int64_t>& selection)
      : arity_(rel.arity()),
        rows_(static_cast<int64_t>(selection.size())),
        sel_(selection.data()) {
    MPCQP_CHECK_GT(arity_, 0) << "selection views need a positive arity";
    if (rows_ > 0) base_ = rel.data().data();
  }

  int arity() const { return arity_; }
  int64_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  // Pointer to the `i`-th viewed row. Invalid for nullary views.
  const Value* row(int64_t i) const {
    MPCQP_CHECK_GT(arity_, 0);
    MPCQP_CHECK_GE(i, 0);
    MPCQP_CHECK_LT(i, rows_);
    const int64_t r = sel_ != nullptr ? sel_[i] : i;
    return base_ + static_cast<size_t>(r) * arity_;
  }

  Value at(int64_t i, int col) const {
    MPCQP_CHECK_GE(col, 0);
    MPCQP_CHECK_LT(col, arity_);
    return row(i)[col];
  }

  // Raw access for the tight gather/scan kernels (relation/columnar.h):
  // base() is row 0 of the span — or the whole flat buffer when a
  // selection is set, in which case selection() holds absolute row
  // indices into it. nullptr selection means the view is contiguous.
  const Value* base() const { return base_; }
  const int64_t* selection() const { return sel_; }

  // Materializes the viewed rows. A whole-relation view returns a
  // payload-sharing handle (no bytes move, COW); spans and selections
  // copy exactly the viewed rows.
  Relation ToRelation() const {
    if (rel_ != nullptr && sel_ == nullptr) return *rel_;
    Relation out(arity_);
    if (arity_ == 0) {
      for (int64_t i = 0; i < rows_; ++i) out.AppendNullaryRow();
      return out;
    }
    out.Reserve(rows_);
    for (int64_t i = 0; i < rows_; ++i) out.AppendRow(row(i));
    return out;
  }

 private:
  int arity_ = 0;
  int64_t rows_ = 0;
  const Value* base_ = nullptr;   // Row 0 of the span / the flat buffer.
  const int64_t* sel_ = nullptr;  // Optional selection (indices into base_).
  const Relation* rel_ = nullptr;  // Set for whole-relation views only.
};

// Row `i` of `view`, honouring its selection vector, without
// RelationView::row's per-call CHECKs: for kernels that validate their
// inputs once and then only index rows below view.size() (the pre-sized
// writers of the local joins, the KeyIndex build and probe).
inline const Value* RowPtr(const RelationView& view, int64_t i) {
  const int64_t r = view.selection() != nullptr ? view.selection()[i] : i;
  return view.base() + static_cast<size_t>(r) * view.arity();
}

}  // namespace mpcqp

#endif  // MPCQP_RELATION_RELATION_VIEW_H_
