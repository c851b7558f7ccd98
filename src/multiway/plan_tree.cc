#include "multiway/plan_tree.h"

#include <cstdio>

#include "common/check.h"
#include "join/cartesian.h"
#include "join/hash_join.h"
#include "join/skew_join.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

std::string VarList(const ConjunctiveQuery& q, const std::vector<int>& vars) {
  std::string out = "[";
  for (size_t i = 0; i < vars.size(); ++i) {
    if (i > 0) out += ",";
    out += q.var_name(vars[i]);
  }
  return out + "]";
}

void AppendNode(const PlanTree& tree, const ConjunctiveQuery& q, int index,
                int depth, std::string& out) {
  const PlanNode& node = tree.nodes[index];
  out.append(static_cast<size_t>(depth) * 2, ' ');
  switch (node.op) {
    case PlanOp::kScan:
      out += "scan " + q.atom(node.atom).name + " " + VarList(q, node.vars);
      break;
    case PlanOp::kExchange: {
      std::vector<int> key_vars;
      for (int k : node.keys) key_vars.push_back(node.vars[k]);
      out += "exchange on " + VarList(q, key_vars);
      break;
    }
    case PlanOp::kShuffleJoin: {
      std::vector<int> key_vars;
      const PlanNode& left = tree.nodes[node.children[0]];
      for (int k : left.keys) key_vars.push_back(left.vars[k]);
      out += std::string("shuffle-join") + (node.skew_aware ? "(skew)" : "") +
             " " + VarList(q, key_vars);
      break;
    }
    case PlanOp::kProduct:
      out += "product (grid exchange)";
      break;
    case PlanOp::kAlgorithm:
      out += node.algorithm_name + "(";
      for (int j = 0; j < q.num_atoms(); ++j) {
        if (j > 0) out += ",";
        out += q.atom(j).name;
      }
      out += ")";
      break;
    case PlanOp::kProject:
      out += "project " + VarList(q, node.vars);
      break;
  }
  if (node.est_rows > 0 &&
      (node.op == PlanOp::kShuffleJoin || node.op == PlanOp::kProduct)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " est=%.0f", node.est_rows);
    out += buf;
  }
  out += "\n";
  for (int child : node.children) {
    AppendNode(tree, q, child, depth + 1, out);
  }
}

}  // namespace

std::string PlanTree::ToString(const ConjunctiveQuery& q) const {
  if (empty()) return "(empty plan)";
  std::string out;
  AppendNode(*this, q, root, 0, out);
  return out;
}

PlanTree BuildJoinOrderTree(const ConjunctiveQuery& q,
                            const std::vector<int>& order, bool skew_aware,
                            const std::vector<double>& est_rows) {
  MPCQP_CHECK_EQ(static_cast<int>(order.size()), q.num_atoms());
  PlanTree tree;
  auto add = [&](PlanNode node) {
    tree.nodes.push_back(std::move(node));
    return static_cast<int>(tree.nodes.size()) - 1;
  };

  // A scan outputs the atom's distinct variables (NormalizeAtom).
  auto scan = [&](int j) {
    PlanNode node;
    node.op = PlanOp::kScan;
    node.atom = j;
    node.vars = DistinctVars(q.atom(j));
    return node;
  };

  PlanNode first = scan(order[0]);
  std::vector<int> acc_vars = first.vars;
  int acc = add(std::move(first));

  for (size_t step = 1; step < order.size(); ++step) {
    PlanNode rel = scan(order[step]);
    const std::vector<int> rel_vars = rel.vars;
    const int scan_index = add(std::move(rel));

    // Key columns: every variable of the new atom already bound by the
    // accumulated join, as (left column, right column) pairs in the new
    // atom's column order.
    std::vector<int> left_keys;
    std::vector<int> right_keys;
    SharedKeyCols(rel_vars, acc_vars, &right_keys, &left_keys);

    PlanNode parent;
    if (left_keys.empty()) {
      parent.op = PlanOp::kProduct;
      parent.children = {acc, scan_index};
    } else {
      PlanNode exchange_left;
      exchange_left.op = PlanOp::kExchange;
      exchange_left.children = {acc};
      exchange_left.vars = acc_vars;
      exchange_left.keys = left_keys;
      const int left_index = add(std::move(exchange_left));

      PlanNode exchange_right;
      exchange_right.op = PlanOp::kExchange;
      exchange_right.children = {scan_index};
      exchange_right.vars = rel_vars;
      exchange_right.keys = right_keys;
      const int right_index = add(std::move(exchange_right));

      parent.op = PlanOp::kShuffleJoin;
      parent.children = {left_index, right_index};
      parent.skew_aware = skew_aware && left_keys.size() == 1;
    }
    acc_vars = JoinOutputVars(acc_vars, rel_vars, right_keys);
    parent.vars = acc_vars;
    if (step - 1 < est_rows.size()) parent.est_rows = est_rows[step - 1];
    acc = add(std::move(parent));
  }

  PlanNode project;
  project.op = PlanOp::kProject;
  project.children = {acc};
  for (int v = 0; v < q.num_vars(); ++v) project.vars.push_back(v);
  tree.root = add(std::move(project));
  return tree;
}

PlanTree BuildAlgorithmTree(const ConjunctiveQuery& q,
                            const std::string& algorithm_name) {
  PlanTree tree;
  PlanNode node;
  node.op = PlanOp::kAlgorithm;
  node.algorithm_name = algorithm_name;
  for (int v = 0; v < q.num_vars(); ++v) node.vars.push_back(v);
  tree.nodes.push_back(std::move(node));
  tree.root = 0;
  return tree;
}

namespace {

// One step of a left-deep plan (one MPC round): the Cartesian grid for a
// kProduct node, else the shuffle join on its exchange children's keys.
DistRelation RunStep(Cluster& cluster, const PlanTree& tree,
                     const PlanNode& node, const DistRelation& left,
                     const DistRelation& right, Rng& rng) {
  if (node.op == PlanOp::kProduct) {
    return CartesianProduct(cluster, left, right, rng);
  }
  const std::vector<int>& left_keys = tree.nodes[node.children[0]].keys;
  const std::vector<int>& right_keys = tree.nodes[node.children[1]].keys;
  if (node.skew_aware) {
    MPCQP_CHECK_EQ(left_keys.size(), 1u);
    return SkewAwareJoin(cluster, left, right, left_keys[0], right_keys[0],
                         rng);
  }
  return ParallelHashJoin(cluster, left, right, left_keys, right_keys);
}

DistRelation EvalNode(Cluster& cluster, const ConjunctiveQuery& q,
                      const std::vector<DistRelation>& atoms,
                      const PlanTree& tree, int index, Rng& rng,
                      std::vector<int64_t>* step_sizes) {
  const PlanNode& node = tree.nodes[index];
  auto eval_child = [&](int k) {
    return EvalNode(cluster, q, atoms, tree, node.children[k], rng,
                    step_sizes);
  };
  switch (node.op) {
    case PlanOp::kScan: {
      const DistRelation& rel = atoms[node.atom];
      DistRelation out(static_cast<int>(node.vars.size()), rel.num_servers());
      for (int s = 0; s < rel.num_servers(); ++s) {
        out.fragment(s) = NormalizeAtom(q.atom(node.atom), rel.fragment(s));
      }
      return out;
    }
    case PlanOp::kExchange:
      // The repartition itself runs inside the parent join driver (which
      // brackets both sides' shuffles into one metered round); this node
      // carries the key columns and feeds the child through.
      return eval_child(0);
    case PlanOp::kShuffleJoin:
    case PlanOp::kProduct: {
      // Left before right: the scans and rounds run in plan order.
      const DistRelation left = eval_child(0);
      const DistRelation right = eval_child(1);
      DistRelation out = RunStep(cluster, tree, node, left, right, rng);
      if (step_sizes != nullptr) step_sizes->push_back(out.TotalSize());
      return out;
    }
    case PlanOp::kProject: {
      DistRelation acc = eval_child(0);
      const std::vector<int>& acc_vars = tree.nodes[node.children[0]].vars;
      MPCQP_CHECK_EQ(acc_vars.size(), node.vars.size());
      const std::vector<int> cols = ColumnsOf(node.vars, acc_vars);
      DistRelation out(static_cast<int>(cols.size()), acc.num_servers());
      cluster.pool().ParallelFor(acc.num_servers(), [&](int64_t s) {
        out.fragment(s) = Project(acc.fragment(s), cols);
      });
      return out;
    }
    case PlanOp::kAlgorithm:
      MPCQP_CHECK(false) << "kAlgorithm nodes are executed by the planner's "
                            "driver dispatch, not the tree walker";
  }
  MPCQP_CHECK(false) << "unknown plan op";
  return DistRelation(1, cluster.num_servers());
}

}  // namespace

DistRelation ExecuteJoinOrderTree(Cluster& cluster, const ConjunctiveQuery& q,
                                  const std::vector<DistRelation>& atoms,
                                  const PlanTree& tree, Rng& rng,
                                  std::vector<int64_t>* step_sizes) {
  MPCQP_CHECK(!tree.empty());
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  return EvalNode(cluster, q, atoms, tree, tree.root, rng, step_sizes);
}

}  // namespace mpcqp
