#include "query/trie_join.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/trace.h"
#include "query/local_eval.h"

namespace mpcqp {

namespace {

// Sorts `n` rows of `width` values, row-major in `rows`, lexicographically
// by an LSD radix sort that visits only the bits that vary: one OR/AND
// pass per column finds each column's span of varying bits, and each pass
// sorts one digit of that span, last column first. Digits are about
// log2(n) bits wide (8 to 16), so a histogram costs no more than a
// scatter; a small domain takes one pass per column, not eight.
void RadixSortRows(std::vector<Value>& rows, int64_t n, int width) {
  if (n < 2) return;
  std::vector<Value> any(width, 0);
  std::vector<Value> all(width, ~Value{0});
  for (int64_t r = 0; r < n; ++r) {
    const Value* row = rows.data() + r * width;
    for (int c = 0; c < width; ++c) {
      any[c] |= row[c];
      all[c] &= row[c];
    }
  }
  const int digit = std::clamp(
      static_cast<int>(std::bit_width(static_cast<uint64_t>(n))), 8, 16);
  std::vector<int64_t> next;
  std::vector<Value> scratch(rows.size());
  for (int c = width - 1; c >= 0; --c) {
    const Value varying = any[c] ^ all[c];
    if (varying == 0) continue;
    const int low = std::countr_zero(varying);
    const int high = 64 - std::countl_zero(varying);
    for (int shift = low; shift < high; shift += digit) {
      const Value mask = (Value{1} << std::min(digit, high - shift)) - 1;
      const Value* src = rows.data();
      next.assign(mask + 1, 0);
      for (int64_t r = 0; r < n; ++r) {
        ++next[(src[r * width + c] >> shift) & mask];
      }
      int64_t sum = 0;
      for (int64_t& count : next) {
        const int64_t start = sum;
        sum += count;
        count = start;
      }
      Value* dst = scratch.data();
      for (int64_t r = 0; r < n; ++r) {
        const Value* row = src + r * width;
        Value* out = dst + next[(row[c] >> shift) & mask]++ * width;
        for (int k = 0; k < width; ++k) out[k] = row[k];
      }
      rows.swap(scratch);
    }
  }
}

// One atom's flat trie. Level l holds the atom's l-th variable (in the
// global order): `vals[l]` lists, node by node, the sorted distinct values
// under each level-(l-1) node, and node i's children are
// vals[l+1][off[l][i], off[l][i+1]). Leaves carry the multiplicity of
// their full key.
struct FlatTrie {
  std::vector<std::vector<Value>> vals;
  std::vector<std::vector<int64_t>> off;
  std::vector<int64_t> mult;
};

// Builds the trie of `n` lexicographically sorted rows of `width` values
// in one scan: a row opens new nodes from the first column where it
// differs from its predecessor; an identical row bumps the leaf count.
FlatTrie BuildTrie(const std::vector<Value>& rows, int64_t n, int width) {
  FlatTrie trie;
  trie.vals.resize(width);
  trie.off.resize(width - 1);
  for (int64_t r = 0; r < n; ++r) {
    const Value* row = rows.data() + r * width;
    int d = 0;
    if (r > 0) {
      const Value* prev = row - width;
      while (d < width && row[d] == prev[d]) ++d;
    }
    if (d == width) {
      ++trie.mult.back();
      continue;
    }
    for (int l = d; l < width; ++l) {
      if (l + 1 < width) {
        trie.off[l].push_back(static_cast<int64_t>(trie.vals[l + 1].size()));
      }
      trie.vals[l].push_back(row[l]);
    }
    trie.mult.push_back(1);
  }
  for (int l = 0; l + 1 < width; ++l) {
    trie.off[l].push_back(static_cast<int64_t>(trie.vals[l + 1].size()));
  }
  return trie;
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
// shares its depth with one other slot, the constructor indexes it once,
// value -> position + 1 in a FlatCounter, and the search looks each value
// of the other range up there instead of searching the root.
class TrieSearch {
 public:
  TrieSearch(const std::vector<FlatTrie>& tries,
             const std::vector<std::vector<int>>& levels,
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
      num_pos += static_cast<int>(levels[j].size());
    }
    pos_.assign(num_pos, 0);
    hi_.assign(num_pos, 0);
    std::vector<std::vector<Slot>> by_depth(k);
    for (size_t j = 0; j < tries.size(); ++j) {
      const FlatTrie& trie = tries[j];
      for (size_t l = 0; l < levels[j].size(); ++l) {
        Slot slot;
        slot.vals = trie.vals[l].data();
        slot.parent_off = l == 0 ? nullptr : trie.off[l - 1].data();
        slot.root_size = static_cast<int64_t>(trie.vals[0].size());
        slot.parent_pos = l == 0 ? -1 : base[j] + static_cast<int>(l) - 1;
        slot.pos = base[j] + static_cast<int>(l);
        by_depth[depth_of[levels[j][l]]].push_back(slot);
      }
      leaves_.push_back(
          {trie.mult.data(),
           base[j] + static_cast<int>(levels[j].size()) - 1});
    }
    // At most one root per trie, so the reserve keeps the slot pointers
    // valid.
    indexes_.reserve(tries.size());
    for (int d = 1; d < k; ++d) {
      if (by_depth[d].size() != 2) continue;  // Leapfrog keeps its seeks.
      for (Slot& slot : by_depth[d]) {
        if (slot.parent_off != nullptr) continue;
        FlatCounter& index = indexes_.emplace_back(slot.root_size);
        for (int64_t i = 0; i < slot.root_size; ++i) {
          index.Add(slot.vals[i], i + 1);
        }
        slot.index = &index;
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
  std::vector<FlatCounter> indexes_;  // Re-probed roots, see the class note.
  std::vector<Value> out_;
};

}  // namespace

Relation TrieJoin(const ConjunctiveQuery& q,
                  const std::vector<Relation>& atoms) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  const int k = q.num_vars();

  // Variables in more atoms first, ties by id.
  std::vector<int> atom_count(k, 0);
  for (const Atom& atom : q.atoms()) {
    for (int v : DistinctVars(atom)) ++atom_count[v];
  }
  std::vector<int> order(k);
  for (int v = 0; v < k; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return atom_count[x] > atom_count[y];
  });
  std::vector<int> order_pos(k);
  for (int d = 0; d < k; ++d) order_pos[order[d]] = d;

  std::vector<FlatTrie> tries;
  std::vector<std::vector<int>> levels;
  {
    MPCQP_TRACE_SCOPE("trie build", "compute");
    for (int j = 0; j < q.num_atoms(); ++j) {
      const Atom& atom = q.atom(j);
      MPCQP_CHECK_EQ(atoms[j].arity(), atom.arity());
      const std::vector<int> vars = DistinctVars(atom);
      std::vector<int> level_vars = vars;
      std::sort(level_vars.begin(), level_vars.end(),
                [&](int x, int y) { return order_pos[x] < order_pos[y]; });
      const std::vector<int> cols = ColumnsOf(level_vars, vars);
      const Relation normalized = NormalizeAtom(atom, atoms[j]);
      const int64_t n = normalized.size();
      if (n == 0) return Relation(k);  // An empty atom kills the join.

      const int width = static_cast<int>(cols.size());
      std::vector<Value> rows(static_cast<size_t>(n) * width);
      const int in_width = normalized.arity();
      const Value* in = normalized.data().data();
      for (int64_t r = 0; r < n; ++r) {
        for (int c = 0; c < width; ++c) {
          rows[r * width + c] = in[r * in_width + cols[c]];
        }
      }
      RadixSortRows(rows, n, width);
      tries.push_back(BuildTrie(rows, n, width));
      levels.push_back(std::move(level_vars));
    }
  }

  MPCQP_TRACE_SCOPE("trie search", "compute");
  std::vector<Value> out = TrieSearch(tries, levels, order, k).Run();
  return Relation(k, std::move(out));
}

}  // namespace mpcqp
