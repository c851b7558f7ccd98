#include "acyclic/gym.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/trace.h"
#include "join/hash_join.h"
#include "mpc/exchange.h"
#include "multiway/skew_hc.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Shared key columns between two variable lists.
void SharedKeyCols(const std::vector<int>& left_vars,
                   const std::vector<int>& right_vars,
                   std::vector<int>* left_keys, std::vector<int>* right_keys) {
  left_keys->clear();
  right_keys->clear();
  for (size_t i = 0; i < left_vars.size(); ++i) {
    const auto it =
        std::find(right_vars.begin(), right_vars.end(), left_vars[i]);
    if (it != right_vars.end()) {
      left_keys->push_back(static_cast<int>(i));
      right_keys->push_back(static_cast<int>(it - right_vars.begin()));
    }
  }
}

// Locally normalizes atom `a` of q (repeat filter + one column per
// distinct variable, ascending var order).
DistRelation NormalizedAtom(const ConjunctiveQuery& q, int a,
                            const DistRelation& rel) {
  const Atom& atom = q.atom(a);
  std::vector<int> distinct_vars;
  std::vector<int> first_col;
  for (int c = 0; c < atom.arity(); ++c) {
    if (std::find(distinct_vars.begin(), distinct_vars.end(),
                  atom.vars[c]) == distinct_vars.end()) {
      distinct_vars.push_back(atom.vars[c]);
      first_col.push_back(c);
    }
  }
  // Ascending var order.
  std::vector<int> order(distinct_vars.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int x, int y) {
    return distinct_vars[x] < distinct_vars[y];
  });
  std::vector<int> cols;
  for (int i : order) cols.push_back(first_col[i]);

  DistRelation out(static_cast<int>(cols.size()), rel.num_servers());
  const bool repeats = static_cast<int>(distinct_vars.size()) != atom.arity();
  for (int s = 0; s < rel.num_servers(); ++s) {
    Relation frag = rel.fragment(s);
    if (repeats) {
      frag = Filter(frag, [&](const Value* row) {
        for (int c = 0; c < atom.arity(); ++c) {
          for (int d = c + 1; d < atom.arity(); ++d) {
            if (atom.vars[c] == atom.vars[d] && row[c] != row[d]) {
              return false;
            }
          }
        }
        return true;
      });
    }
    out.fragment(s) = Project(frag, cols);
  }
  return out;
}

// Appends a unique id column to every row of `rel` (local compute).
DistRelation WithRowIds(const DistRelation& rel) {
  DistRelation out(rel.arity() + 1, rel.num_servers());
  Value id = 0;
  std::vector<Value> row(rel.arity() + 1);
  for (int s = 0; s < rel.num_servers(); ++s) {
    const Relation& frag = rel.fragment(s);
    for (int64_t i = 0; i < frag.size(); ++i) {
      std::copy(frag.row(i), frag.row(i) + rel.arity(), row.begin());
      row[rel.arity()] = id++;
      out.fragment(s).AppendRow(row.data());
    }
  }
  return out;
}

// Drops the trailing id column (local compute).
DistRelation StripIdColumn(const DistRelation& rel) {
  std::vector<int> cols;
  for (int c = 0; c + 1 < rel.arity(); ++c) cols.push_back(c);
  DistRelation out(rel.arity() - 1, rel.num_servers());
  for (int s = 0; s < rel.num_servers(); ++s) {
    out.fragment(s) = Project(rel.fragment(s), cols);
  }
  return out;
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

  // ---- Phase 0: materialize bags (columns = bag vars ascending). ----
  std::vector<DistRelation> bags;
  std::vector<std::vector<int>> bag_vars;
  {
    // Per-bag normalized atom chains; all bags advance one binary-join
    // step per shared round.
    struct BagBuild {
      DistRelation acc{0, 1};
      std::vector<int> acc_vars;
      std::vector<int> pending;  // Atom indices not yet joined.
    };
    std::vector<BagBuild> builds;
    int max_steps = 0;
    for (int n = 0; n < ghd.num_nodes(); ++n) {
      const GhdNode& node = ghd.node(n);
      BagBuild build;
      build.acc = NormalizedAtom(q, node.atoms[0], atoms[node.atoms[0]]);
      std::vector<int> distinct;
      for (int v : q.atom(node.atoms[0]).vars) {
        if (std::find(distinct.begin(), distinct.end(), v) ==
            distinct.end()) {
          distinct.push_back(v);
        }
      }
      std::sort(distinct.begin(), distinct.end());
      build.acc_vars = distinct;
      for (size_t i = 1; i < node.atoms.size(); ++i) {
        build.pending.push_back(node.atoms[i]);
      }
      max_steps =
          std::max(max_steps, static_cast<int>(build.pending.size()));
      builds.push_back(std::move(build));
    }
    for (int step = 0; step < max_steps; ++step) {
      cluster.BeginRound("gym: bag materialization step " +
                         std::to_string(step + 1));
      struct StepWork {
        int bag;
        DistRelation left{0, 1};
        DistRelation right{0, 1};
        std::vector<int> lk, rk;
        std::vector<int> right_vars;
      };
      std::vector<StepWork> work;
      for (size_t b = 0; b < builds.size(); ++b) {
        BagBuild& build = builds[b];
        if (build.pending.empty()) continue;
        // Prefer a pending atom sharing a variable with the accumulator.
        int pick_pos = 0;
        for (size_t i = 0; i < build.pending.size(); ++i) {
          bool shares = false;
          for (int v : q.atom(build.pending[i]).vars) {
            if (std::find(build.acc_vars.begin(), build.acc_vars.end(),
                          v) != build.acc_vars.end()) {
              shares = true;
            }
          }
          if (shares) {
            pick_pos = static_cast<int>(i);
            break;
          }
        }
        const int a = build.pending[pick_pos];
        build.pending.erase(build.pending.begin() + pick_pos);
        DistRelation rel = NormalizedAtom(q, a, atoms[a]);
        std::vector<int> rel_vars;
        for (int v : q.atom(a).vars) {
          if (std::find(rel_vars.begin(), rel_vars.end(), v) ==
              rel_vars.end()) {
            rel_vars.push_back(v);
          }
        }
        std::sort(rel_vars.begin(), rel_vars.end());
        StepWork w;
        w.bag = static_cast<int>(b);
        SharedKeyCols(build.acc_vars, rel_vars, &w.lk, &w.rk);
        const HashFunction hash = cluster.NewHashFunction();
        // Disconnected bags degrade to a broadcast cross product (left in
        // place, right replicated) — simple and correct for bag-local use.
        w.left = w.lk.empty()
                     ? build.acc
                     : HashPartition(cluster, build.acc, w.lk, hash, "");
        w.right = w.rk.empty()
                      ? Broadcast(cluster, rel, "")
                      : HashPartition(cluster, rel, w.rk, hash, "");
        w.right_vars = rel_vars;
        work.push_back(std::move(w));
      }
      cluster.EndRound();
      for (StepWork& w : work) {
        BagBuild& build = builds[w.bag];
        std::vector<Relation> frags;
        for (int s = 0; s < p; ++s) {
          frags.push_back(HashJoinLocal(w.left.fragment(s),
                                        w.right.fragment(s), w.lk, w.rk));
        }
        build.acc = DistRelation::FromFragments(std::move(frags));
        for (size_t c = 0; c < w.right_vars.size(); ++c) {
          if (std::find(w.rk.begin(), w.rk.end(), static_cast<int>(c)) ==
              w.rk.end()) {
            build.acc_vars.push_back(w.right_vars[c]);
          }
        }
      }
    }
    // Project every bag to ascending var order.
    for (int n = 0; n < ghd.num_nodes(); ++n) {
      BagBuild& build = builds[n];
      std::vector<int> sorted_vars = build.acc_vars;
      std::sort(sorted_vars.begin(), sorted_vars.end());
      std::vector<int> cols;
      for (int v : sorted_vars) {
        const auto it = std::find(build.acc_vars.begin(),
                                  build.acc_vars.end(), v);
        cols.push_back(static_cast<int>(it - build.acc_vars.begin()));
      }
      DistRelation bag(static_cast<int>(cols.size()), p);
      for (int s = 0; s < p; ++s) {
        bag.fragment(s) = Project(build.acc.fragment(s), cols);
      }
      bags.push_back(std::move(bag));
      bag_vars.push_back(std::move(sorted_vars));
    }
  }

  GymResult result{DistRelation(q.num_vars(), p), 0, 0};
  for (const DistRelation& bag : bags) {
    result.max_bag_size = std::max(result.max_bag_size, bag.TotalSize());
  }

  const std::vector<std::vector<int>> levels = ghd.LevelsFromRoot();
  std::vector<int> lk;
  std::vector<int> rk;

  // ---- Phase 1: upward semijoins. ----
  for (int d = static_cast<int>(levels.size()) - 2; d >= 0; --d) {
    // Parents at level d, children at level d+1.
    std::map<int, std::vector<int>> children_of;
    for (int n : levels[d + 1]) {
      children_of[ghd.node(n).parent].push_back(n);
    }
    if (children_of.empty()) continue;

    if (!options.optimized) {
      for (const auto& [parent, children] : children_of) {
        for (int child : children) {
          const HashFunction hash = cluster.NewHashFunction();
          SharedKeyCols(bag_vars[parent], bag_vars[child], &lk, &rk);
          cluster.BeginRound("gym: upward semijoin");
          DistRelation pp = lk.empty()
                                ? bags[parent]
                                : HashPartition(cluster, bags[parent], lk,
                                                hash, "");
          DistRelation cp = rk.empty()
                                ? Broadcast(cluster, bags[child], "")
                                : HashPartition(cluster, bags[child], rk,
                                                hash, "");
          cluster.EndRound();
          std::vector<Relation> frags;
          for (int s = 0; s < p; ++s) {
            frags.push_back(
                SemijoinLocal(pp.fragment(s), cp.fragment(s), lk, rk));
          }
          bags[parent] = DistRelation::FromFragments(std::move(frags));
        }
      }
    } else {
      // Optimized: every (parent, child) semijoin copy in one round;
      // multi-child parents intersect their copies in a second round.
      struct Copy {
        int parent;
        DistRelation filtered{0, 1};
      };
      std::vector<Copy> copies;
      std::map<int, DistRelation> parent_with_id;
      for (const auto& [parent, children] : children_of) {
        parent_with_id.emplace(parent, WithRowIds(bags[parent]));
      }
      cluster.BeginRound("gym: upward semijoin level");
      struct PendingPair {
        int parent;
        DistRelation pp{0, 1};
        DistRelation cp{0, 1};
        std::vector<int> lk, rk;
      };
      std::vector<PendingPair> pairs;
      for (const auto& [parent, children] : children_of) {
        for (int child : children) {
          const HashFunction hash = cluster.NewHashFunction();
          SharedKeyCols(bag_vars[parent], bag_vars[child], &lk, &rk);
          PendingPair pair;
          pair.parent = parent;
          pair.lk = lk;
          pair.rk = rk;
          pair.pp = lk.empty() ? parent_with_id.at(parent)
                               : HashPartition(cluster,
                                               parent_with_id.at(parent), lk,
                                               hash, "");
          pair.cp = rk.empty()
                        ? Broadcast(cluster, bags[child], "")
                        : HashPartition(cluster, bags[child], rk, hash, "");
          pairs.push_back(std::move(pair));
        }
      }
      cluster.EndRound();
      for (PendingPair& pair : pairs) {
        std::vector<Relation> frags;
        for (int s = 0; s < p; ++s) {
          frags.push_back(SemijoinLocal(pair.pp.fragment(s),
                                        pair.cp.fragment(s), pair.lk,
                                        pair.rk));
        }
        copies.push_back(
            {pair.parent, DistRelation::FromFragments(std::move(frags))});
      }

      bool need_intersect = false;
      for (const auto& [parent, children] : children_of) {
        if (children.size() > 1) need_intersect = true;
      }
      if (!need_intersect) {
        for (Copy& copy : copies) {
          bags[copy.parent] = StripIdColumn(copy.filtered);
        }
      } else {
        // Intersection round: align copies by row id, keep ids surviving
        // every child's filter.
        cluster.BeginRound("gym: upward semijoin intersect");
        std::map<int, std::vector<DistRelation>> routed;
        for (Copy& copy : copies) {
          const int id_col = copy.filtered.arity() - 1;
          const HashFunction hash(0x517cc1b727220a95ULL);
          routed[copy.parent].push_back(
              HashPartition(cluster, copy.filtered, {id_col}, hash, ""));
        }
        cluster.EndRound();
        for (auto& [parent, parts] : routed) {
          const size_t need = parts.size();
          const int id_col = parts[0].arity() - 1;
          std::vector<Relation> frags;
          for (int s = 0; s < p; ++s) {
            FlatCounter count;
            for (const DistRelation& part : parts) {
              const Relation& f = part.fragment(s);
              for (int64_t i = 0; i < f.size(); ++i) {
                count.Add(f.at(i, id_col));
              }
            }
            // Representative rows come from the first copy.
            const Relation& rep = parts[0].fragment(s);
            Relation out(rep.arity());
            for (int64_t i = 0; i < rep.size(); ++i) {
              if (count.Get(rep.at(i, id_col)) ==
                  static_cast<int64_t>(need)) {
                out.AppendRowFrom(rep, i);
              }
            }
            frags.push_back(std::move(out));
          }
          bags[parent] =
              StripIdColumn(DistRelation::FromFragments(std::move(frags)));
        }
      }
    }
  }

  // ---- Phase 2: downward semijoins. ----
  for (size_t d = 0; d + 1 < levels.size(); ++d) {
    if (!options.optimized) {
      for (int child : levels[d + 1]) {
        const int parent = ghd.node(child).parent;
        const HashFunction hash = cluster.NewHashFunction();
        SharedKeyCols(bag_vars[child], bag_vars[parent], &lk, &rk);
        cluster.BeginRound("gym: downward semijoin");
        DistRelation cp = lk.empty()
                              ? bags[child]
                              : HashPartition(cluster, bags[child], lk, hash,
                                              "");
        DistRelation pp = rk.empty()
                              ? Broadcast(cluster, bags[parent], "")
                              : HashPartition(cluster, bags[parent], rk,
                                              hash, "");
        cluster.EndRound();
        std::vector<Relation> frags;
        for (int s = 0; s < p; ++s) {
          frags.push_back(
              SemijoinLocal(cp.fragment(s), pp.fragment(s), lk, rk));
        }
        bags[child] = DistRelation::FromFragments(std::move(frags));
      }
    } else {
      cluster.BeginRound("gym: downward semijoin level");
      struct PendingPair {
        int child;
        DistRelation cp{0, 1};
        DistRelation pp{0, 1};
        std::vector<int> lk, rk;
      };
      std::vector<PendingPair> pairs;
      for (int child : levels[d + 1]) {
        const int parent = ghd.node(child).parent;
        const HashFunction hash = cluster.NewHashFunction();
        SharedKeyCols(bag_vars[child], bag_vars[parent], &lk, &rk);
        PendingPair pair;
        pair.child = child;
        pair.lk = lk;
        pair.rk = rk;
        pair.cp = lk.empty()
                      ? bags[child]
                      : HashPartition(cluster, bags[child], lk, hash, "");
        pair.pp = rk.empty()
                      ? Broadcast(cluster, bags[parent], "")
                      : HashPartition(cluster, bags[parent], rk, hash, "");
        pairs.push_back(std::move(pair));
      }
      cluster.EndRound();
      for (PendingPair& pair : pairs) {
        std::vector<Relation> frags;
        for (int s = 0; s < p; ++s) {
          frags.push_back(SemijoinLocal(pair.cp.fragment(s),
                                        pair.pp.fragment(s), pair.lk,
                                        pair.rk));
        }
        bags[pair.child] = DistRelation::FromFragments(std::move(frags));
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
    std::vector<DistRelation> results = bags;
    std::vector<std::vector<int>> result_vars = bag_vars;
    for (auto level = levels.rbegin(); level != levels.rend(); ++level) {
      for (int n : *level) {
        const int parent = ghd.node(n).parent;
        if (parent < 0) continue;
        SharedKeyCols(result_vars[parent], result_vars[n], &lk, &rk);
        const HashFunction hash = cluster.NewHashFunction();
        cluster.BeginRound("gym: join step");
        DistRelation pp =
            lk.empty() ? results[parent]
                       : HashPartition(cluster, results[parent], lk, hash,
                                       "");
        DistRelation cp = rk.empty()
                              ? Broadcast(cluster, results[n], "")
                              : HashPartition(cluster, results[n], rk, hash,
                                              "");
        cluster.EndRound();
        std::vector<Relation> frags;
        for (int s = 0; s < p; ++s) {
          frags.push_back(
              HashJoinLocal(pp.fragment(s), cp.fragment(s), lk, rk));
        }
        results[parent] = DistRelation::FromFragments(std::move(frags));
        for (size_t c = 0; c < result_vars[n].size(); ++c) {
          if (std::find(rk.begin(), rk.end(), static_cast<int>(c)) ==
              rk.end()) {
            result_vars[parent].push_back(result_vars[n][c]);
          }
        }
      }
    }
    const int root = ghd.root();
    MPCQP_CHECK_EQ(static_cast<int>(result_vars[root].size()), q.num_vars());
    std::vector<int> cols(q.num_vars());
    for (int v = 0; v < q.num_vars(); ++v) {
      const auto it = std::find(result_vars[root].begin(),
                                result_vars[root].end(), v);
      cols[v] = static_cast<int>(it - result_vars[root].begin());
    }
    for (int s = 0; s < p; ++s) {
      result.output.fragment(s) = Project(results[root].fragment(s), cols);
    }
  }

  (void)rng;
  result.rounds = cluster.cost_report().num_rounds() - rounds_before;
  return result;
}

}  // namespace mpcqp
