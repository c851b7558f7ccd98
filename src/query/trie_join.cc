#include "query/trie_join.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/trace.h"
#include "query/local_eval.h"

namespace mpcqp {

namespace {

// How many atoms of `q` hold each variable.
std::vector<int> AtomCounts(const ConjunctiveQuery& q) {
  std::vector<int> atom_count(q.num_vars(), 0);
  for (const Atom& atom : q.atoms()) {
    for (int v : DistinctVars(atom)) ++atom_count[v];
  }
  return atom_count;
}

// Whether a trie root at `depth` of the variable order, whose variable
// `atoms` atoms hold, carries a root index: it is re-probed (depth >= 1)
// and intersected with one other range (leapfrog keeps its seeks).
bool IndexesRoot(int depth, int atoms) { return depth >= 1 && atoms == 2; }

// The search's variable order: variables in more atoms first, ties by id.
std::vector<int> VariableOrder(const ConjunctiveQuery& q) {
  const int k = q.num_vars();
  const std::vector<int> atom_count = AtomCounts(q);
  std::vector<int> order(k);
  for (int v = 0; v < k; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return atom_count[x] > atom_count[y];
  });
  return order;
}

// Sorts the projection onto `cols` of the `n` rows of `in` (row-major,
// `in_width` values a row) lexicographically and returns it as n rows of
// cols.size() values. An LSD radix sort that visits only the bits that
// vary: one OR/AND pass per column finds each column's span of varying
// bits, and each pass sorts one digit of that span, last column first.
// The first pass reads `in` itself, so the projection costs no copy of its
// own. Digits are about log2(n) bits wide (8 to 16), so a histogram costs
// no more than a scatter; a small domain takes one pass per column, not
// eight. The buffers are written before they are read, so none is
// zero-filled.
std::unique_ptr<Value[]> SortKeys(const Value* in, int in_width,
                                  const std::vector<int>& cols, int64_t n) {
  const int width = static_cast<int>(cols.size());
  std::vector<Value> any(width, 0);
  std::vector<Value> all(width, ~Value{0});
  for (int64_t r = 0; r < n; ++r) {
    const Value* row = in + r * in_width;
    for (int c = 0; c < width; ++c) {
      any[c] |= row[cols[c]];
      all[c] &= row[cols[c]];
    }
  }
  struct Pass {
    int col;
    int shift;
    Value mask;
  };
  std::vector<Pass> passes;
  const int digit = std::clamp(
      static_cast<int>(std::bit_width(static_cast<uint64_t>(n))), 8, 16);
  for (int c = width - 1; c >= 0; --c) {
    const Value varying = any[c] ^ all[c];
    if (varying == 0) continue;
    const int low = std::countr_zero(varying);
    const int high = 64 - std::countl_zero(varying);
    for (int shift = low; shift < high; shift += digit) {
      passes.push_back(
          {c, shift, (Value{1} << std::min(digit, high - shift)) - 1});
    }
  }

  const size_t size = static_cast<size_t>(n) * width;
  auto out = std::make_unique_for_overwrite<Value[]>(size);
  if (passes.empty()) {
    for (int64_t r = 0; r < n; ++r) {
      for (int c = 0; c < width; ++c) {
        out[r * width + c] = in[r * in_width + cols[c]];
      }
    }
    return out;
  }
  std::unique_ptr<Value[]> spare;
  if (passes.size() > 1) spare = std::make_unique_for_overwrite<Value[]>(size);
  std::vector<int> identity(width);
  for (int c = 0; c < width; ++c) identity[c] = c;
  const Value* src = in;
  int src_width = in_width;
  const int* src_cols = cols.data();
  std::vector<int64_t> next;
  for (const Pass& pass : passes) {
    const int col = src_cols[pass.col];
    next.assign(pass.mask + 1, 0);
    for (int64_t r = 0; r < n; ++r) {
      ++next[(src[r * src_width + col] >> pass.shift) & pass.mask];
    }
    int64_t sum = 0;
    for (int64_t& count : next) {
      const int64_t start = sum;
      sum += count;
      count = start;
    }
    Value* dst = out.get();
    for (int64_t r = 0; r < n; ++r) {
      const Value* row = src + r * src_width;
      Value* to = dst + next[(row[col] >> pass.shift) & pass.mask]++ * width;
      for (int k = 0; k < width; ++k) to[k] = row[src_cols[k]];
    }
    src = dst;
    src_width = width;
    src_cols = identity.data();
    out.swap(spare);  // `spare` now holds this pass's rows.
  }
  return spare;
}

// The first column where sorted row r differs from row r - 1: 0 for the
// first row, `width` for a repeat of its predecessor.
int FirstDifference(const Value* rows, int64_t r, int width) {
  if (r == 0) return 0;
  const Value* row = rows + r * width;
  const Value* prev = row - width;
  int d = 0;
  while (d < width && row[d] == prev[d]) ++d;
  return d;
}

// First index in [lo, hi) whose value is >= target, galloping from lo.
int64_t Seek(const Value* vals, int64_t lo, int64_t hi, Value target) {
  if (lo >= hi || vals[lo] >= target) return lo;
  int64_t below = lo;  // vals[below] < target.
  int64_t step = 1;
  while (below + step < hi && vals[below + step] < target) {
    below += step;
    step *= 2;
  }
  const int64_t end = std::min(below + step, hi);
  return std::lower_bound(vals + below + 1, vals + end, target) - vals;
}

// The search over the built tries. Every (trie, level) that a depth
// touches is fixed by the variable order, so its pointers are resolved
// once; the recursion itself allocates nothing.
//
// A root whose variable binds below depth 0 is intersected again for every
// binding of the earlier variables (S's root y in the triangle). When it
// shares its depth with one other slot, its trie carries a root index,
// value -> position + 1 in a FlatCounter, and the search looks each value
// of the other range up there instead of searching the root.
class TrieSearch {
 public:
  TrieSearch(const std::vector<const AtomTrie*>& tries,
             const std::vector<int>& order, int num_vars)
      : order_(order), binding_(num_vars, 0) {
    const int k = static_cast<int>(order.size());
    std::vector<int> depth_of(num_vars);
    for (int d = 0; d < k; ++d) depth_of[order[d]] = d;
    // pos_[base[j] + l]: the node trie j has chosen at level l.
    std::vector<int> base(tries.size());
    int num_pos = 0;
    for (size_t j = 0; j < tries.size(); ++j) {
      base[j] = num_pos;
      num_pos += static_cast<int>(tries[j]->level_vars.size());
    }
    pos_.assign(num_pos, 0);
    hi_.assign(num_pos, 0);
    std::vector<std::vector<Slot>> by_depth(k);
    for (size_t j = 0; j < tries.size(); ++j) {
      const AtomTrie& trie = *tries[j];
      const std::vector<int>& levels = trie.level_vars;
      for (size_t l = 0; l < levels.size(); ++l) {
        Slot slot;
        slot.vals = trie.vals[l].data();
        if (l == 0 && trie.root_index) slot.index = &*trie.root_index;
        slot.parent_off = l == 0 ? nullptr : trie.off[l - 1].data();
        slot.root_size = static_cast<int64_t>(trie.vals[0].size());
        slot.parent_pos = l == 0 ? -1 : base[j] + static_cast<int>(l) - 1;
        slot.pos = base[j] + static_cast<int>(l);
        by_depth[depth_of[levels[l]]].push_back(slot);
      }
      leaves_.push_back(
          {trie.mult.data(),
           base[j] + static_cast<int>(levels.size()) - 1});
    }
    for (int d = 0; d < k; ++d) {
      for (const Slot& slot : by_depth[d]) {
        if (slot.parent_off != nullptr) continue;
        MPCQP_CHECK_EQ(slot.index != nullptr,
                       IndexesRoot(d, static_cast<int>(by_depth[d].size())))
            << "a trie built for another query";
      }
    }
    depth_begin_.push_back(0);
    for (const std::vector<Slot>& slots : by_depth) {
      MPCQP_CHECK(!slots.empty());
      slots_.insert(slots_.end(), slots.begin(), slots.end());
      depth_begin_.push_back(static_cast<int>(slots_.size()));
    }
  }

  std::vector<Value> Run() {
    Search(0);
    return std::move(out_);
  }

 private:
  // Size ratio past which a two-slot intersection gallops instead of
  // merging.
  static constexpr int64_t kLopsided = 16;

  struct Slot {
    const Value* vals;
    const int64_t* parent_off;  // Null at level 0.
    const FlatCounter* index = nullptr;  // Value -> position + 1, or null.
    int64_t root_size;
    int parent_pos;
    int pos;
  };
  struct Leaf {
    const int64_t* mult;
    int pos;
  };

  // The value range [*lo, *hi) a slot ranges over under its parent node.
  void Range(const Slot& s, int64_t* lo, int64_t* hi) const {
    if (s.parent_off == nullptr) {
      *lo = 0;
      *hi = s.root_size;
    } else {
      const int64_t parent = pos_[s.parent_pos];
      *lo = s.parent_off[parent];
      *hi = s.parent_off[parent + 1];
    }
  }

  // Intersects a small range of one slot with a range of another at least
  // kLopsided times larger: each small value gallops the large cursor.
  void Gallop(size_t depth, const Slot& small, int64_t s, int64_t s_end,
              const Slot& large, int64_t l, int64_t l_end) {
    Value& bound = binding_[order_[depth]];
    for (; s < s_end; ++s) {
      const Value v = small.vals[s];
      l = Seek(large.vals, l, l_end, v);
      if (l == l_end) return;
      if (large.vals[l] != v) continue;
      pos_[small.pos] = s;
      pos_[large.pos] = l;
      bound = v;
      Search(depth + 1);
      ++l;
    }
  }

  // Intersects a range of one slot with an indexed root: one lookup per
  // value, in the range's ascending order.
  void Probe(size_t depth, const Slot& scan, int64_t s, int64_t s_end,
             const Slot& root) {
    Value& bound = binding_[order_[depth]];
    for (; s < s_end; ++s) {
      const Value v = scan.vals[s];
      const int64_t found = root.index->Get(v);
      if (found == 0) continue;
      pos_[scan.pos] = s;
      pos_[root.pos] = found - 1;
      bound = v;
      Search(depth + 1);
    }
  }

  void Emit() {
    int64_t copies = 1;
    for (const Leaf& leaf : leaves_) copies *= leaf.mult[pos_[leaf.pos]];
    for (int64_t i = 0; i < copies; ++i) {
      out_.insert(out_.end(), binding_.begin(), binding_.end());
    }
  }

  void Search(size_t depth) {
    if (depth == order_.size()) {
      Emit();
      return;
    }
    const Slot* slots = slots_.data() + depth_begin_[depth];
    const int count = depth_begin_[depth + 1] - depth_begin_[depth];
    Value& bound = binding_[order_[depth]];
    if (count == 1) {
      const Slot& a = slots[0];
      int64_t lo;
      int64_t hi;
      Range(a, &lo, &hi);
      for (int64_t i = lo; i < hi; ++i) {
        pos_[a.pos] = i;
        bound = a.vals[i];
        Search(depth + 1);
      }
      return;
    }
    if (count == 2) {
      const Slot& a = slots[0];
      const Slot& b = slots[1];
      int64_t i;
      int64_t i_end;
      int64_t j;
      int64_t j_end;
      Range(a, &i, &i_end);
      Range(b, &j, &j_end);
      // An indexed root larger than the other range is probed by value.
      // Otherwise lopsided ranges gallop and comparable ones merge with
      // branch-free cursor steps.
      if (a.index != nullptr && i_end - i > j_end - j) {
        Probe(depth, b, j, j_end, a);
        return;
      }
      if (b.index != nullptr && j_end - j > i_end - i) {
        Probe(depth, a, i, i_end, b);
        return;
      }
      if ((i_end - i) * kLopsided < j_end - j) {
        Gallop(depth, a, i, i_end, b, j, j_end);
        return;
      }
      if ((j_end - j) * kLopsided < i_end - i) {
        Gallop(depth, b, j, j_end, a, i, i_end);
        return;
      }
      while (i < i_end && j < j_end) {
        const Value va = a.vals[i];
        const Value vb = b.vals[j];
        if (va == vb) {
          pos_[a.pos] = i;
          pos_[b.pos] = j;
          bound = va;
          Search(depth + 1);
        }
        i += va <= vb;
        j += vb <= va;
      }
      return;
    }
    // Leapfrog: seek every cursor to the largest current value until all
    // agree. A slot's cursor is its pos_ entry.
    for (int s = 0; s < count; ++s) {
      int64_t lo;
      Range(slots[s], &lo, &hi_[slots[s].pos]);
      if (lo >= hi_[slots[s].pos]) return;
      pos_[slots[s].pos] = lo;
    }
    while (true) {
      Value target = 0;
      for (int s = 0; s < count; ++s) {
        target = std::max(target, slots[s].vals[pos_[slots[s].pos]]);
      }
      bool agree = true;
      for (int s = 0; s < count; ++s) {
        const Slot& slot = slots[s];
        int64_t& cursor = pos_[slot.pos];
        cursor = Seek(slot.vals, cursor, hi_[slot.pos], target);
        if (cursor == hi_[slot.pos]) return;
        if (slot.vals[cursor] != target) agree = false;
      }
      if (!agree) continue;
      bound = target;
      Search(depth + 1);
      if (++pos_[slots[0].pos] == hi_[slots[0].pos]) return;
    }
  }

  std::vector<int> order_;
  std::vector<Value> binding_;  // Per variable id.
  std::vector<int64_t> pos_;
  std::vector<int64_t> hi_;  // Leapfrog cursor ends, indexed like pos_.
  std::vector<Slot> slots_;  // Grouped by depth.
  std::vector<int> depth_begin_;
  std::vector<Leaf> leaves_;
  std::vector<Value> out_;
};

}  // namespace

AtomTrie BuildTrie(const ConjunctiveQuery& q, int j, const Relation& rel) {
  MPCQP_TRACE_SCOPE("trie build", "compute");
  const Atom& atom = q.atom(j);
  MPCQP_CHECK_EQ(rel.arity(), atom.arity());
  const std::vector<int> order = VariableOrder(q);
  std::vector<int> order_pos(q.num_vars());
  for (int d = 0; d < q.num_vars(); ++d) order_pos[order[d]] = d;

  AtomTrie trie;
  const std::vector<int> vars = DistinctVars(atom);
  trie.level_vars = vars;
  std::sort(trie.level_vars.begin(), trie.level_vars.end(),
            [&](int x, int y) { return order_pos[x] < order_pos[y]; });
  const int width = static_cast<int>(vars.size());
  trie.vals.resize(width);
  trie.off.resize(width - 1);
  const Relation normalized = NormalizeAtom(atom, rel);
  const int64_t n = normalized.size();
  if (n == 0) return trie;
  const std::unique_ptr<Value[]> rows =
      SortKeys(normalized.data().data(), normalized.arity(),
               ColumnsOf(trie.level_vars, vars), n);

  // A row opens one node on every level from its first difference with
  // its predecessor on; a repeated row opens none. Count the nodes, size
  // each level exactly, then fill it.
  std::vector<int64_t> opened(width + 1, 0);  // Rows by first difference.
  for (int64_t r = 0; r < n; ++r) {
    ++opened[FirstDifference(rows.get(), r, width)];
  }
  int64_t nodes = 0;
  for (int l = 0; l < width; ++l) {
    nodes += opened[l];
    trie.vals[l].resize(nodes);
    if (l + 1 < width) trie.off[l].resize(nodes + 1);
  }
  trie.mult.resize(nodes);
  std::vector<int64_t> at(width, 0);  // Nodes written per level.
  for (int64_t r = 0; r < n; ++r) {
    const Value* row = rows.get() + r * width;
    const int d = FirstDifference(rows.get(), r, width);
    if (d == width) {
      ++trie.mult[at[width - 1] - 1];
      continue;
    }
    for (int l = d; l < width; ++l) {
      if (l + 1 < width) trie.off[l][at[l]] = at[l + 1];
      trie.vals[l][at[l]++] = row[l];
    }
    trie.mult[at[width - 1] - 1] = 1;
  }
  for (int l = 0; l + 1 < width; ++l) trie.off[l][at[l]] = at[l + 1];

  const int root = trie.level_vars[0];
  if (IndexesRoot(order_pos[root], AtomCounts(q)[root])) {
    const std::vector<Value>& roots = trie.vals[0];
    const int64_t size = static_cast<int64_t>(roots.size());
    FlatCounter& index = trie.root_index.emplace(size);
    for (int64_t i = 0; i < size; ++i) index.Add(roots[i], i + 1);
  }
  return trie;
}

Relation SearchTries(const ConjunctiveQuery& q,
                     const std::vector<const AtomTrie*>& tries) {
  MPCQP_CHECK_EQ(static_cast<int>(tries.size()), q.num_atoms());
  const int k = q.num_vars();
  for (int j = 0; j < q.num_atoms(); ++j) {
    MPCQP_CHECK_EQ(tries[j]->level_vars.size(),
                   DistinctVars(q.atom(j)).size());
    if (tries[j]->empty()) return Relation(k);  // An empty atom kills the join.
  }
  MPCQP_TRACE_SCOPE("trie search", "compute");
  std::vector<Value> out = TrieSearch(tries, VariableOrder(q), k).Run();
  return Relation(k, std::move(out));
}

Relation TrieJoin(const ConjunctiveQuery& q,
                  const std::vector<Relation>& atoms) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  std::vector<AtomTrie> tries(q.num_atoms());
  std::vector<const AtomTrie*> built;
  for (int j = 0; j < q.num_atoms(); ++j) {
    tries[j] = BuildTrie(q, j, atoms[j]);
    if (tries[j].empty()) return Relation(q.num_vars());
    built.push_back(&tries[j]);
  }
  return SearchTries(q, built);
}

}  // namespace mpcqp
