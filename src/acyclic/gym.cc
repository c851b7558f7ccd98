#include "acyclic/gym.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "multiway/skew_hc.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Runs `local(s)` for every server s as metered local compute; the
// per-server outputs are independent, so they do not depend on threads.
template <typename LocalFn>
DistRelation PerServer(Cluster& cluster, const LocalFn& local) {
  std::vector<Relation> frags(cluster.num_servers());
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(cluster.num_servers(), [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("gym local", "compute", s);
    frags[s] = local(static_cast<int>(s));
  });
  return DistRelation::FromFragments(std::move(frags));
}

// Every server's fragment of `rel` projected onto `cols`.
DistRelation ProjectEach(Cluster& cluster, const DistRelation& rel,
                         const std::vector<int>& cols) {
  return PerServer(cluster,
                   [&](int s) { return Project(rel.fragment(s), cols); });
}

// Atom `a` of `q` normalized on every server with its columns in
// ascending variable order (GYM's bag layout); `vars` receives that order.
DistRelation AscendingAtom(Cluster& cluster, const ConjunctiveQuery& q,
                           int a, const DistRelation& rel,
                           std::vector<int>* vars) {
  const Atom& atom = q.atom(a);
  const std::vector<int> distinct = DistinctVars(atom);
  *vars = distinct;
  std::sort(vars->begin(), vars->end());
  const bool ascending = *vars == distinct;
  const std::vector<int> cols = ColumnsOf(*vars, distinct);
  return PerServer(cluster, [&](int s) {
    const Relation normalized = NormalizeAtom(atom, rel.fragment(s));
    return ascending ? normalized : Project(normalized, cols);
  });
}

// Two relations co-partitioned for a per-server semijoin or join on
// left_keys[i] == right_keys[i].
struct CoPartitioned {
  DistRelation left{0, 1};
  DistRelation right{0, 1};
  std::vector<int> left_keys;
  std::vector<int> right_keys;
};

// Co-partitions `left` (columns hold `left_vars`, possibly followed by a
// row-id column) and `right` on their shared variables under a freshly
// drawn hash function. With no shared variable, `left` stays in place and
// `right` is broadcast. Runs inside the caller's open round.
CoPartitioned CoPartition(Cluster& cluster, const DistRelation& left,
                          const std::vector<int>& left_vars,
                          const DistRelation& right,
                          const std::vector<int>& right_vars) {
  CoPartitioned parts;
  SharedKeyCols(left_vars, right_vars, &parts.left_keys, &parts.right_keys);
  const HashFunction hash = cluster.NewHashFunction();
  if (parts.left_keys.empty()) {
    parts.left = left;
    parts.right = Broadcast(cluster, right, "");
  } else {
    parts.left = HashPartition(cluster, left, parts.left_keys, hash, "");
    parts.right = HashPartition(cluster, right, parts.right_keys, hash, "");
  }
  return parts;
}

// Runs `kernel` (SemijoinLocal or HashJoinLocal) on every server's
// co-partitioned fragments.
DistRelation JoinEach(Cluster& cluster, const CoPartitioned& parts,
                      Relation (*kernel)(RelationView, RelationView,
                                         const std::vector<int>&,
                                         const std::vector<int>&)) {
  return PerServer(cluster, [&](int s) {
    return kernel(parts.left.fragment(s), parts.right.fragment(s),
                  parts.left_keys, parts.right_keys);
  });
}

}  // namespace

GymResult GymJoin(Cluster& cluster, const ConjunctiveQuery& q, const Ghd& ghd,
                  const std::vector<DistRelation>& atoms, Rng& rng,
                  const GymOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  MPCQP_TRACE_SCOPE("gym", "algorithm");
  {
    const Status valid = ghd.Validate(q);
    MPCQP_CHECK(valid.ok()) << valid;
  }
  const int rounds_before = cluster.cost_report().num_rounds();

  // ---- Phase 0: materialize bags (columns = bag vars ascending). Each
  // bag starts from its first atom; all bags advance one binary-join step
  // per shared round. ----
  std::vector<DistRelation> bags;
  std::vector<std::vector<int>> bag_vars(ghd.num_nodes());
  std::vector<std::vector<int>> pending;  // Per bag: atoms not yet joined.
  int max_steps = 0;
  for (int n = 0; n < ghd.num_nodes(); ++n) {
    const std::vector<int>& node_atoms = ghd.node(n).atoms;
    bags.push_back(AscendingAtom(cluster, q, node_atoms[0],
                                 atoms[node_atoms[0]], &bag_vars[n]));
    pending.emplace_back(node_atoms.begin() + 1, node_atoms.end());
    max_steps = std::max(max_steps, static_cast<int>(pending[n].size()));
  }
  for (int step = 0; step < max_steps; ++step) {
    cluster.BeginRound("gym: bag materialization step " +
                       std::to_string(step + 1));
    std::vector<std::pair<int, CoPartitioned>> work;  // (bag, parts).
    for (int b = 0; b < ghd.num_nodes(); ++b) {
      if (pending[b].empty()) continue;
      // Prefer a pending atom sharing a variable with the accumulator.
      const auto shares = [&](int a) {
        for (int v : q.atom(a).vars) {
          if (std::find(bag_vars[b].begin(), bag_vars[b].end(), v) !=
              bag_vars[b].end()) {
            return true;
          }
        }
        return false;
      };
      auto pick = std::find_if(pending[b].begin(), pending[b].end(), shares);
      if (pick == pending[b].end()) pick = pending[b].begin();
      const int a = *pick;
      pending[b].erase(pick);
      std::vector<int> rel_vars;
      const DistRelation rel =
          AscendingAtom(cluster, q, a, atoms[a], &rel_vars);
      // Disconnected bags degrade to a broadcast cross product (left in
      // place, right replicated) — simple and correct for bag-local use.
      work.emplace_back(
          b, CoPartition(cluster, bags[b], bag_vars[b], rel, rel_vars));
      bag_vars[b] =
          JoinOutputVars(bag_vars[b], rel_vars, work.back().second.right_keys);
    }
    cluster.EndRound();
    for (const auto& [b, parts] : work) {
      bags[b] = JoinEach(cluster, parts, HashJoinLocal);
    }
  }
  for (int n = 0; n < ghd.num_nodes(); ++n) {
    std::vector<int> sorted_vars = bag_vars[n];
    std::sort(sorted_vars.begin(), sorted_vars.end());
    if (sorted_vars != bag_vars[n]) {
      bags[n] = ProjectEach(cluster, bags[n],
                            ColumnsOf(sorted_vars, bag_vars[n]));
      bag_vars[n] = std::move(sorted_vars);
    }
  }

  GymResult result{DistRelation(q.num_vars(), p), 0, 0};
  for (const DistRelation& bag : bags) {
    result.max_bag_size = std::max(result.max_bag_size, bag.TotalSize());
  }

  const std::vector<std::vector<int>> levels = ghd.LevelsFromRoot();

  // ---- Phase 1: upward semijoins, parent ⋉ child. ----
  for (int d = static_cast<int>(levels.size()) - 2; d >= 0; --d) {
    // Parents at level d, children at level d+1.
    std::map<int, std::vector<int>> children_of;
    for (int n : levels[d + 1]) {
      children_of[ghd.node(n).parent].push_back(n);
    }

    if (!options.optimized) {
      // One round per child; each filters its parent in turn.
      for (const auto& [parent, children] : children_of) {
        for (int child : children) {
          cluster.BeginRound("gym: upward semijoin");
          const CoPartitioned parts =
              CoPartition(cluster, bags[parent], bag_vars[parent],
                          bags[child], bag_vars[child]);
          cluster.EndRound();
          bags[parent] = JoinEach(cluster, parts, SemijoinLocal);
        }
      }
      continue;
    }

    // Optimized: every (parent, child) semijoin filters its own copy of
    // the parent in one round; a parent keeps the row ids that survive
    // all of its copies, after an intersection round that aligns the
    // copies by id when some parent has several children.
    std::map<int, DistRelation> with_ids;
    for (const auto& [parent, children] : children_of) {
      with_ids.emplace(parent, AppendRowIds(bags[parent]));
    }
    cluster.BeginRound("gym: upward semijoin level");
    std::vector<std::pair<int, CoPartitioned>> pairs;  // (parent, parts).
    for (const auto& [parent, children] : children_of) {
      for (int child : children) {
        pairs.emplace_back(parent, CoPartition(cluster, with_ids.at(parent),
                                               bag_vars[parent], bags[child],
                                               bag_vars[child]));
      }
    }
    cluster.EndRound();
    std::map<int, std::vector<DistRelation>> copies;
    for (const auto& [parent, parts] : pairs) {
      copies[parent].push_back(JoinEach(cluster, parts, SemijoinLocal));
    }

    const bool intersect =
        std::any_of(children_of.begin(), children_of.end(),
                    [](const auto& entry) { return entry.second.size() > 1; });
    if (intersect) {
      cluster.BeginRound("gym: upward semijoin intersect");
      const HashFunction id_hash(0x517cc1b727220a95ULL);
      for (auto& [parent, parts] : copies) {
        for (DistRelation& part : parts) {
          part = HashPartition(cluster, part, {part.arity() - 1}, id_hash, "");
        }
      }
      cluster.EndRound();
    }
    for (const auto& [parent, parts] : copies) {
      const int id_col = static_cast<int>(bag_vars[parent].size());
      bags[parent] = PerServer(cluster, [&](int s) {
        // Keep the rows of the first copy whose id is in every copy (a
        // copy holds an id at most once), and drop the id column.
        FlatCounter count;
        for (const DistRelation& part : parts) {
          const Relation& f = part.fragment(s);
          for (int64_t i = 0; i < f.size(); ++i) count.Add(f.at(i, id_col));
        }
        const Relation& rep = parts[0].fragment(s);
        Relation out(id_col);
        for (int64_t i = 0; i < rep.size(); ++i) {
          if (count.Get(rep.at(i, id_col)) ==
              static_cast<int64_t>(parts.size())) {
            out.AppendRow(rep.row(i));
          }
        }
        return out;
      });
    }
  }

  // ---- Phase 2: downward semijoins, child ⋉ parent, root first. Vanilla
  // runs one round per child, optimized one round per level. ----
  for (size_t d = 1; d < levels.size(); ++d) {
    const std::vector<int>& level = levels[d];
    const size_t per_round = options.optimized ? level.size() : 1;
    for (size_t begin = 0; begin < level.size(); begin += per_round) {
      cluster.BeginRound(options.optimized ? "gym: downward semijoin level"
                                           : "gym: downward semijoin");
      std::vector<std::pair<int, CoPartitioned>> pairs;  // (child, parts).
      for (size_t i = begin; i < begin + per_round; ++i) {
        const int child = level[i];
        const int parent = ghd.node(child).parent;
        pairs.emplace_back(child,
                           CoPartition(cluster, bags[child], bag_vars[child],
                                       bags[parent], bag_vars[parent]));
      }
      cluster.EndRound();
      for (const auto& [child, parts] : pairs) {
        bags[child] = JoinEach(cluster, parts, SemijoinLocal);
      }
    }
  }

  // ---- Phase 3: join. ----
  if (options.optimized) {
    // One SkewHC round over the reduced bags.
    std::vector<Atom> bag_atoms;
    for (int n = 0; n < ghd.num_nodes(); ++n) {
      Atom atom;
      atom.name = "B" + std::to_string(n);
      atom.vars = bag_vars[n];
      bag_atoms.push_back(std::move(atom));
    }
    const ConjunctiveQuery bag_query =
        ConjunctiveQuery::Make(q.var_names(), bag_atoms);
    result.output = SkewHcJoin(cluster, bag_query, bags).output;
  } else {
    // Bottom-up: each child's result folds into its parent's.
    std::vector<DistRelation> results = bags;
    std::vector<std::vector<int>> result_vars = bag_vars;
    for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
      for (int n : *level) {
        const int parent = ghd.node(n).parent;
        if (parent < 0) continue;
        cluster.BeginRound("gym: join step");
        const CoPartitioned parts =
            CoPartition(cluster, results[parent], result_vars[parent],
                        results[n], result_vars[n]);
        cluster.EndRound();
        results[parent] = JoinEach(cluster, parts, HashJoinLocal);
        result_vars[parent] =
            JoinOutputVars(result_vars[parent], result_vars[n],
                           parts.right_keys);
      }
    }
    const int root = ghd.root();
    result.output =
        ProjectEach(cluster, results[root],
                    IdOrderColumns(result_vars[root], q.num_vars()));
  }

  (void)rng;
  result.rounds = cluster.cost_report().num_rounds() - rounds_before;
  return result;
}

}  // namespace mpcqp
