#include "acyclic/yannakakis.h"

#include "common/check.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"

namespace mpcqp {

Relation MaterializeBag(const ConjunctiveQuery& q, const GhdNode& node,
                        const std::vector<Relation>& atoms) {
  MPCQP_CHECK(!node.atoms.empty());
  // Sub-query over the bag's vars (already sorted ascending by Ghd).
  std::vector<int> index_of_var(q.num_vars(), -1);
  std::vector<std::string> names;
  for (size_t i = 0; i < node.vars.size(); ++i) {
    index_of_var[node.vars[i]] = static_cast<int>(i);
    names.push_back(q.var_name(node.vars[i]));
  }
  std::vector<Atom> sub_atoms;
  std::vector<Relation> sub_rels;
  for (int a : node.atoms) {
    Atom atom = q.atom(a);
    for (int& v : atom.vars) v = index_of_var[v];
    sub_atoms.push_back(std::move(atom));
    sub_rels.push_back(atoms[a]);
  }
  const ConjunctiveQuery sub = ConjunctiveQuery::Make(names, sub_atoms);
  return LocalJoin(sub, sub_rels);
}

Relation YannakakisSerial(const ConjunctiveQuery& q, const Ghd& ghd,
                          const std::vector<Relation>& atoms) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  const Status valid = ghd.Validate(q);
  MPCQP_CHECK(valid.ok()) << valid;

  // Bags (columns = bag vars ascending).
  std::vector<Relation> bags;
  for (int n = 0; n < ghd.num_nodes(); ++n) {
    bags.push_back(MaterializeBag(q, ghd.node(n), atoms));
  }

  const std::vector<std::vector<int>> levels = ghd.LevelsFromRoot();

  // Upward semijoin phase: deepest level first, parent ⋉ child.
  std::vector<int> lk;
  std::vector<int> rk;
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    for (int n : *level) {
      const int parent = ghd.node(n).parent;
      if (parent < 0) continue;
      SharedKeyCols(ghd.node(parent).vars, ghd.node(n).vars, &lk, &rk);
      bags[parent] = SemijoinLocal(bags[parent], bags[n], lk, rk);
    }
  }
  // Downward semijoin phase: child ⋉ parent, top level first.
  for (const std::vector<int>& level : levels) {
    for (int n : level) {
      const int parent = ghd.node(n).parent;
      if (parent < 0) continue;
      SharedKeyCols(ghd.node(n).vars, ghd.node(parent).vars, &lk, &rk);
      bags[n] = SemijoinLocal(bags[n], bags[parent], lk, rk);
    }
  }

  // Join phase: bottom-up; child results fold into their parents.
  std::vector<Relation> results = bags;
  std::vector<std::vector<int>> result_vars;
  for (int n = 0; n < ghd.num_nodes(); ++n) {
    result_vars.push_back(ghd.node(n).vars);
  }
  for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
    for (int n : *level) {
      const int parent = ghd.node(n).parent;
      if (parent < 0) continue;
      SharedKeyCols(result_vars[parent], result_vars[n], &lk, &rk);
      results[parent] = HashJoinLocal(results[parent], results[n], lk, rk);
      result_vars[parent] =
          JoinOutputVars(result_vars[parent], result_vars[n], rk);
    }
  }

  // Project the root result to variable-id order.
  const int root = ghd.root();
  return Project(results[root],
                 IdOrderColumns(result_vars[root], q.num_vars()));
}

}  // namespace mpcqp
