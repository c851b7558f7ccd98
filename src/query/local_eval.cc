#include "query/local_eval.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "query/ghd.h"
#include "query/trie_join.h"
#include "relation/relation_ops.h"

namespace mpcqp {

Relation FilterRepeatedVars(const Atom& atom, const Relation& rel) {
  MPCQP_CHECK_EQ(rel.arity(), atom.arity());
  // (column, first column of its variable) for every repeated occurrence.
  std::vector<std::pair<int, int>> repeats;
  for (int c = 0; c < atom.arity(); ++c) {
    const int first = static_cast<int>(
        std::find(atom.vars.begin(), atom.vars.end(), atom.vars[c]) -
        atom.vars.begin());
    if (first != c) repeats.push_back({c, first});
  }
  if (repeats.empty()) return rel;
  return Filter(rel, [&](const Value* row) {
    for (const auto& [c, d] : repeats) {
      if (row[c] != row[d]) return false;
    }
    return true;
  });
}

Relation NormalizeAtom(const Atom& atom, const Relation& rel) {
  std::vector<int> cols;
  for (const auto& [v, c] : DistinctVarCols(atom)) cols.push_back(c);
  const Relation filtered = FilterRepeatedVars(atom, rel);
  if (static_cast<int>(cols.size()) == atom.arity()) return filtered;
  return Project(filtered, cols);
}

Relation EvalJoinLocal(const ConjunctiveQuery& q,
                       const std::vector<Relation>& atoms) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());

  // Normalized atom instances with their variable lists.
  std::vector<Relation> rels;
  std::vector<std::vector<int>> rel_vars;
  for (int j = 0; j < q.num_atoms(); ++j) {
    rels.push_back(NormalizeAtom(q.atom(j), atoms[j]));
    rel_vars.push_back(DistinctVars(q.atom(j)));
  }

  // Greedy join order: start from atom 0; repeatedly join an unused atom
  // sharing a variable with the accumulated result (else any remaining —
  // a genuine cross product).
  std::vector<bool> used(q.num_atoms(), false);
  Relation acc = rels[0];
  std::vector<int> acc_vars = rel_vars[0];
  used[0] = true;

  for (int step = 1; step < q.num_atoms(); ++step) {
    int pick = -1;
    for (int j = 0; j < q.num_atoms(); ++j) {
      if (used[j]) continue;
      for (int v : rel_vars[j]) {
        if (std::find(acc_vars.begin(), acc_vars.end(), v) !=
            acc_vars.end()) {
          pick = j;
          break;
        }
      }
      if (pick >= 0) break;
    }
    if (pick < 0) {
      for (int j = 0; j < q.num_atoms() && pick < 0; ++j) {
        if (!used[j]) pick = j;
      }
    }
    used[pick] = true;

    // Key columns: shared variables, in the picked atom's column order.
    std::vector<int> left_keys;
    std::vector<int> right_keys;
    SharedKeyCols(rel_vars[pick], acc_vars, &right_keys, &left_keys);
    acc = HashJoinLocal(acc, rels[pick], left_keys, right_keys);
    acc_vars = JoinOutputVars(acc_vars, rel_vars[pick], right_keys);
  }

  return Project(acc, IdOrderColumns(acc_vars, q.num_vars()));
}

Relation LocalJoin(const ConjunctiveQuery& q,
                   const std::vector<Relation>& atoms) {
  return IsAcyclic(q) ? EvalJoinLocal(q, atoms) : TrieJoin(q, atoms);
}

}  // namespace mpcqp
