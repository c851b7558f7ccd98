#include "multiway/bigjoin.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "join/semi_join.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "query/local_eval.h"
#include "relation/key_index.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Columns 0..n-1: a proposer projection's key columns.
std::vector<int> LeadingCols(size_t n) {
  std::vector<int> cols(n);
  for (size_t c = 0; c < n; ++c) cols[c] = static_cast<int>(c);
  return cols;
}

// One involved atom's role in an extension step.
struct Proposer {
  int atom = 0;
  std::vector<int> shared_vars;   // Bound vars present in the atom.
  std::vector<int> prefix_keys;   // Their columns in the prefix relation.
  // Projection onto shared_vars + {var}: fragments, with key columns
  // 0..|shared|-1 and the new value last.
  DistRelation projection{0, 1};
  // Global distinct v-count when shared_vars is empty (a constant
  // per-prefix count).
  int64_t global_count = 0;
};

}  // namespace

BigJoinResult BigJoin(Cluster& cluster, const ConjunctiveQuery& q,
                      const std::vector<DistRelation>& atoms,
                      const BigJoinOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  MPCQP_TRACE_SCOPE("bigjoin", "algorithm");
  const int rounds_before = cluster.cost_report().num_rounds();

  std::vector<int> order = options.var_order;
  if (order.empty()) {
    for (int v = 0; v < q.num_vars(); ++v) order.push_back(v);
  }
  MPCQP_CHECK_EQ(static_cast<int>(order.size()), q.num_vars());

  std::vector<DistRelation> rels;
  std::vector<std::vector<int>> rel_vars;
  for (int j = 0; j < q.num_atoms(); ++j) {
    // Set semantics: each normalized atom fragment is deduplicated.
    rel_vars.push_back(DistinctVars(q.atom(j)));
    rels.emplace_back(static_cast<int>(rel_vars.back().size()), p);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      rels[j].fragment(s) =
          Dedup(NormalizeAtom(q.atom(j), atoms[j].fragment(s)));
    });
  }

  DistRelation prefixes(0, p);
  std::vector<int> bound;

  for (const int var : order) {
    std::vector<int> involved;
    for (int j = 0; j < q.num_atoms(); ++j) {
      if (std::find(rel_vars[j].begin(), rel_vars[j].end(), var) !=
          rel_vars[j].end()) {
        involved.push_back(j);
      }
    }
    MPCQP_CHECK(!involved.empty());

    // Build every involved atom's projection (shared bound vars + var).
    std::vector<Proposer> proposers;
    for (int j : involved) {
      Proposer proposer;
      proposer.atom = j;
      for (int v : bound) {
        if (std::find(rel_vars[j].begin(), rel_vars[j].end(), v) !=
            rel_vars[j].end()) {
          proposer.shared_vars.push_back(v);
        }
      }
      proposer.prefix_keys = ColumnsOf(proposer.shared_vars, bound);
      std::vector<int> cols = ColumnsOf(proposer.shared_vars, rel_vars[j]);
      cols.push_back(ColumnsOf({var}, rel_vars[j]).front());
      proposer.projection =
          DistRelation(static_cast<int>(cols.size()), p);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        proposer.projection.fragment(s) =
            Dedup(Project(rels[j].fragment(s), cols));
      });
      if (proposer.shared_vars.empty()) {
        // Constant per-prefix candidate count: the global distinct count
        // of v-values (a scalar a deployment piggybacks on its catalog;
        // not metered).
        const Relation values = Dedup(Project(
            proposer.projection.Collect(),
            {proposer.projection.arity() - 1}));
        proposer.global_count = values.size();
      }
      proposers.push_back(std::move(proposer));
    }

    if (bound.empty()) {
      // Seed: the smallest atom's value set, deduplicated globally; then
      // filter by every other involved atom's value set.
      size_t best = 0;
      for (size_t i = 1; i < proposers.size(); ++i) {
        if (proposers[i].global_count < proposers[best].global_count) {
          best = i;
        }
      }
      const HashFunction hash = cluster.NewHashFunction();
      const DistRelation parts =
          HashPartition(cluster, proposers[best].projection, {0}, hash,
                        "bigjoin: seed " + q.var_name(var));
      DistRelation seeded(1, p);
      for (int s = 0; s < p; ++s) {
        seeded.fragment(s) = Dedup(parts.fragment(s));
      }
      prefixes = std::move(seeded);
      bound.push_back(var);
      for (size_t i = 0; i < proposers.size(); ++i) {
        if (i == best) continue;
        prefixes = DistributedSemijoin(
            cluster, prefixes, proposers[i].projection, {0},
            {proposers[i].projection.arity() - 1});
      }
      continue;
    }

    // ---- Count round: annotate each prefix with every proposer's
    // candidate count. Prefixes carry an id; all co-partitions share one
    // MPC round. ----
    const DistRelation prefixes_with_id = AppendRowIds(prefixes);
    const int id_col = prefixes_with_id.arity() - 1;

    struct CountParts {
      DistRelation prefix_parts{0, 1};
      DistRelation proj_parts{0, 1};
    };
    std::vector<CountParts> count_parts(proposers.size());
    cluster.BeginRound("bigjoin: count " + q.var_name(var));
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty()) continue;
      const HashFunction hash = cluster.NewHashFunction();
      count_parts[i].prefix_parts = HashPartition(
          cluster, prefixes_with_id, proposers[i].prefix_keys, hash, "");
      count_parts[i].proj_parts = HashPartition(
          cluster, proposers[i].projection,
          LeadingCols(proposers[i].shared_vars.size()), hash, "");
    }
    cluster.EndRound();

    // Local counting, then one round to bring all counts to the prefix's
    // id-home where the argmin proposer is chosen.
    DistRelation count_tuples(3, p);  // (prefix id, proposer idx, count).
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty()) continue;
      const std::vector<int> proj_keys =
          LeadingCols(proposers[i].shared_vars.size());
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("local count", "compute", s);
        const Relation deduped = Dedup(count_parts[i].proj_parts.fragment(s));
        const KeyIndex index(deduped, proj_keys);
        const Relation& pf = count_parts[i].prefix_parts.fragment(s);
        std::vector<Value> key(proj_keys.size());
        for (int64_t r = 0; r < pf.size(); ++r) {
          for (size_t c = 0; c < proposers[i].prefix_keys.size(); ++c) {
            key[c] = pf.at(r, proposers[i].prefix_keys[c]);
          }
          const int64_t count =
              static_cast<int64_t>(index.Lookup(key.data()).size());
          count_tuples.fragment(s).AppendRow(
              {pf.at(r, id_col), static_cast<Value>(i),
               static_cast<Value>(count)});
        }
      });
    }

    const HashFunction id_hash = cluster.NewHashFunction();
    cluster.BeginRound("bigjoin: argmin " + q.var_name(var));
    const DistRelation counts_home =
        HashPartition(cluster, count_tuples, {0}, id_hash, "");
    const DistRelation prefix_home =
        HashPartition(cluster, prefixes_with_id, {id_col}, id_hash, "");
    cluster.EndRound();

    // Choose the argmin proposer per prefix (constant-count proposers
    // compete with their global count).
    int64_t best_constant = -1;
    int constant_idx = -1;
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (proposers[i].shared_vars.empty() &&
          (constant_idx < 0 || proposers[i].global_count < best_constant)) {
        best_constant = proposers[i].global_count;
        constant_idx = static_cast<int>(i);
      }
    }
    DistRelation chosen(prefixes_with_id.arity() + 1, p);  // +choice col.
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      std::map<Value, std::pair<int64_t, int>> best;  // id -> (count, idx).
      const Relation& cf = counts_home.fragment(s);
      for (int64_t r = 0; r < cf.size(); ++r) {
        const Value id = cf.at(r, 0);
        const int idx = static_cast<int>(cf.at(r, 1));
        const int64_t count = static_cast<int64_t>(cf.at(r, 2));
        const auto it = best.find(id);
        if (it == best.end() || count < it->second.first) {
          best[id] = {count, idx};
        }
      }
      const Relation& pf = prefix_home.fragment(s);
      std::vector<Value> row(chosen.arity());
      for (int64_t r = 0; r < pf.size(); ++r) {
        const Value id = pf.at(r, id_col);
        int choice = constant_idx;
        int64_t count = best_constant;
        const auto it = best.find(id);
        if (it != best.end() &&
            (choice < 0 || it->second.first < count)) {
          choice = it->second.second;
          count = it->second.first;
        }
        MPCQP_CHECK_GE(choice, 0);
        if (count == 0) continue;  // No candidates anywhere: prefix dies.
        std::copy(pf.row(r), pf.row(r) + pf.arity(), row.begin());
        row[pf.arity()] = static_cast<Value>(choice);
        chosen.fragment(s).AppendRow(row.data());
      }
    });
    const int choice_col = chosen.arity() - 1;

    // ---- Extend round: each prefix travels to its chosen proposer's
    // shard; all shuffles share one MPC round. ----
    cluster.BeginRound("bigjoin: extend " + q.var_name(var));
    struct ExtendParts {
      DistRelation prefix_parts{0, 1};
      DistRelation proj_parts{0, 1};
      bool broadcast = false;
    };
    std::vector<ExtendParts> extend_parts(proposers.size());
    for (size_t i = 0; i < proposers.size(); ++i) {
      // Prefixes that chose proposer i (local filter).
      DistRelation mine(chosen.arity(), p);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        mine.fragment(s) = Filter(chosen.fragment(s), [&](const Value* r) {
          return r[choice_col] == static_cast<Value>(i);
        });
      });
      if (mine.TotalSize() == 0) continue;
      if (proposers[i].shared_vars.empty()) {
        extend_parts[i].broadcast = true;
        extend_parts[i].prefix_parts = mine;
        extend_parts[i].proj_parts =
            Broadcast(cluster, proposers[i].projection, "");
      } else {
        const HashFunction hash = cluster.NewHashFunction();
        extend_parts[i].prefix_parts = HashPartition(
            cluster, mine, proposers[i].prefix_keys, hash, "");
        extend_parts[i].proj_parts = HashPartition(
            cluster, proposers[i].projection,
            LeadingCols(proposers[i].shared_vars.size()), hash, "");
      }
    }
    cluster.EndRound();

    DistRelation extended(static_cast<int>(bound.size()) + 1, p);
    for (size_t i = 0; i < proposers.size(); ++i) {
      if (extend_parts[i].prefix_parts.arity() == 0) continue;
      const std::vector<int> proj_keys =
          LeadingCols(proposers[i].shared_vars.size());
      ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
      cluster.pool().ParallelFor(p, [&](int64_t s) {
        MPCQP_TRACE_SCOPE_ARG("local extend", "compute", s);
        const Relation proj =
            Dedup(extend_parts[i].proj_parts.fragment(s));
        // Join emits prefix columns (incl. id & choice) + the new value;
        // strip the bookkeeping columns.
        const Relation joined = HashJoinLocal(
            extend_parts[i].prefix_parts.fragment(s), proj,
            proposers[i].prefix_keys, proj_keys);
        std::vector<int> keep = LeadingCols(bound.size());
        keep.push_back(joined.arity() - 1);  // The new value.
        const Relation stripped = Project(joined, keep);
        extended.fragment(s).Append(stripped);
      });
    }
    bound.push_back(var);
    prefixes = std::move(extended);

    // ---- Filter rounds: every involved atom semijoin-reduces the
    // extended prefixes by its projection (sound even for the proposer;
    // cheap since it is a pure filter). ----
    for (size_t i = 0; i < proposers.size(); ++i) {
      std::vector<int> filter_vars = proposers[i].shared_vars;
      filter_vars.push_back(var);
      prefixes = DistributedSemijoin(cluster, prefixes,
                                     proposers[i].projection,
                                     ColumnsOf(filter_vars, bound),
                                     LeadingCols(filter_vars.size()));
    }
  }

  const std::vector<int> cols = IdOrderColumns(bound, q.num_vars());
  BigJoinResult result{DistRelation(q.num_vars(), p), 0};
  {
    ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      result.output.fragment(s) = Project(prefixes.fragment(s), cols);
    });
  }
  result.rounds = cluster.cost_report().num_rounds() - rounds_before;
  return result;
}

}  // namespace mpcqp
