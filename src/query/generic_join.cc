#include "query/generic_join.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "query/local_eval.h"

namespace mpcqp {

namespace {

// Trie over an atom's tuples, one level per variable in the global
// elimination order (Leapfrog-Triejoin layout). Built once per atom; the
// search then walks child maps instead of re-scanning rows.
struct TrieNode {
  std::map<Value, TrieNode> children;
};

struct AtomTrie {
  std::vector<int> vars;        // Atom's distinct vars, elimination order.
  TrieNode root;
  std::vector<TrieNode*> path;  // Current descent; path[0] == &root.

  int Depth() const { return static_cast<int>(path.size()) - 1; }
  TrieNode* Current() const { return path.back(); }
};

// Builds the trie of an atom instance from its NormalizeAtom form (one
// column per distinct variable), levels ordered by `order_pos` (global
// position of each variable).
AtomTrie BuildTrie(const Atom& atom, const Relation& rel,
                   const std::vector<int>& order_pos) {
  const std::vector<int> vars = DistinctVars(atom);
  AtomTrie trie;
  trie.vars = vars;
  std::sort(trie.vars.begin(), trie.vars.end(),
            [&](int x, int y) { return order_pos[x] < order_pos[y]; });
  const std::vector<int> cols = ColumnsOf(trie.vars, vars);
  const Relation normalized = NormalizeAtom(atom, rel);
  for (int64_t r = 0; r < normalized.size(); ++r) {
    const Value* row = normalized.row(r);
    TrieNode* node = &trie.root;
    for (int c : cols) node = &node->children[row[c]];
  }
  // NOTE: path is initialized by the caller once the trie has its final
  // address (a pointer taken here would dangle after the move).
  return trie;
}

struct SearchState {
  std::vector<AtomTrie> tries;
  std::vector<int> order;      // Variable elimination order.
  std::vector<Value> binding;  // Per variable id.
  Relation* output;
};

void Search(SearchState& state, size_t depth) {
  if (depth == state.order.size()) {
    state.output->AppendRow(state.binding.data());
    return;
  }
  const int var = state.order[depth];

  // Tries whose next level is `var` (their earlier vars are all bound,
  // because trie levels follow the global order).
  std::vector<AtomTrie*> involved;
  for (AtomTrie& trie : state.tries) {
    if (trie.Depth() < static_cast<int>(trie.vars.size()) &&
        trie.vars[trie.Depth()] == var) {
      involved.push_back(&trie);
    }
  }
  MPCQP_CHECK(!involved.empty());

  // Enumerate the smallest child map, probe the others.
  AtomTrie* smallest = involved.front();
  for (AtomTrie* trie : involved) {
    if (trie->Current()->children.size() <
        smallest->Current()->children.size()) {
      smallest = trie;
    }
  }
  for (auto& [value, child] : smallest->Current()->children) {
    bool viable = true;
    size_t descended = 0;
    for (AtomTrie* trie : involved) {
      const auto it = trie->Current()->children.find(value);
      if (it == trie->Current()->children.end()) {
        viable = false;
        break;
      }
      trie->path.push_back(&it->second);
      ++descended;
    }
    if (viable) {
      state.binding[var] = value;
      Search(state, depth + 1);
    }
    for (size_t i = 0; i < descended; ++i) involved[i]->path.pop_back();
  }
}

}  // namespace

Relation EvalJoinWcoj(const ConjunctiveQuery& q,
                      const std::vector<Relation>& atoms,
                      const std::vector<int>& var_order) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  SearchState state;
  if (var_order.empty()) {
    for (int v = 0; v < q.num_vars(); ++v) state.order.push_back(v);
  } else {
    MPCQP_CHECK_EQ(static_cast<int>(var_order.size()), q.num_vars());
    std::vector<bool> seen(q.num_vars(), false);
    for (int v : var_order) {
      MPCQP_CHECK_GE(v, 0);
      MPCQP_CHECK_LT(v, q.num_vars());
      MPCQP_CHECK(!seen[v]) << "duplicate variable in order";
      seen[v] = true;
    }
    state.order = var_order;
  }
  std::vector<int> order_pos(q.num_vars(), 0);
  for (size_t i = 0; i < state.order.size(); ++i) {
    order_pos[state.order[i]] = static_cast<int>(i);
  }

  Relation output(q.num_vars());
  for (int j = 0; j < q.num_atoms(); ++j) {
    MPCQP_CHECK_EQ(atoms[j].arity(), q.atom(j).arity());
    state.tries.push_back(BuildTrie(q.atom(j), atoms[j], order_pos));
    if (state.tries.back().root.children.empty()) {
      return output;  // An empty atom kills the join.
    }
  }
  for (AtomTrie& trie : state.tries) trie.path.push_back(&trie.root);
  state.binding.assign(q.num_vars(), 0);
  state.output = &output;
  Search(state, 0);
  return output;
}

}  // namespace mpcqp
