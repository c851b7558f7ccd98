#include "multiway/skew_hc.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/check.h"
#include "common/trace.h"
#include "join/heavy_hitters.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "query/hypergraph_lp.h"
#include "query/local_eval.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Heaviness signature of a row restricted to the atom's variables: bit v
// set iff the row's value for v is heavy.
uint32_t RowSignature(const Value* row,
                      const std::vector<std::pair<int, int>>& var_cols,
                      const std::vector<std::unordered_set<Value>>& heavy) {
  uint32_t sig = 0;
  for (const auto& [v, c] : var_cols) {
    if (heavy[v].count(row[c]) > 0) sig |= (1u << v);
  }
  return sig;
}

}  // namespace

SkewHcResult SkewHcJoin(Cluster& cluster, const ConjunctiveQuery& q,
                        const std::vector<DistRelation>& atoms,
                        const SkewHcOptions& options) {
  const int p = cluster.num_servers();
  const int k = q.num_vars();
  MPCQP_TRACE_SCOPE("skew_hc", "algorithm");
  MPCQP_CHECK_LE(k, 30) << "SkewHC uses a bitmask over variables";
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) {
    MPCQP_CHECK_EQ(atoms[j].arity(), q.atom(j).arity());
    MPCQP_CHECK_EQ(atoms[j].num_servers(), p);
  }

  int64_t total_in = 0;
  for (const DistRelation& a : atoms) total_in += a.TotalSize();
  const int64_t threshold = std::max<int64_t>(
      1, static_cast<int64_t>(options.threshold_factor *
                              static_cast<double>(total_in) / p));

  // Heavy sets per variable: degree > threshold in any atom containing it.
  std::vector<std::unordered_set<Value>> heavy(k);
  for (int j = 0; j < q.num_atoms(); ++j) {
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      for (const HeavyHitter& h : FindHeavyHitters(atoms[j], c, threshold)) {
        heavy[v].insert(h.value);
      }
    }
  }

  uint32_t heavy_capable = 0;
  for (int v = 0; v < k; ++v) {
    if (!heavy[v].empty()) heavy_capable |= (1u << v);
  }

  // Per-atom class sizes by signature (over the atom's own variables).
  std::vector<std::map<uint32_t, int64_t>> class_sizes(q.num_atoms());
  std::vector<std::vector<std::pair<int, int>>> atom_var_cols;
  for (int j = 0; j < q.num_atoms(); ++j) {
    atom_var_cols.push_back(DistinctVarCols(q.atom(j)));
    for (int s = 0; s < p; ++s) {
      const Relation& frag = atoms[j].fragment(s);
      for (int64_t i = 0; i < frag.size(); ++i) {
        ++class_sizes[j][RowSignature(frag.row(i), atom_var_cols[j], heavy)];
      }
    }
  }
  std::vector<uint32_t> atom_var_mask(q.num_atoms(), 0);
  for (int j = 0; j < q.num_atoms(); ++j) {
    for (const auto& [v, c] : atom_var_cols[j]) {
      atom_var_mask[j] |= (1u << v);
    }
  }

  // Enumerate combos (subsets of heavy-capable variables); plan each.
  struct ComboPlan {
    uint32_t combo = 0;
    std::vector<int> shares;      // Per original variable; heavy -> 1.
    std::vector<int64_t> sizes;   // Per atom class size.
    int64_t grid_size = 1;        // Π shares.
    int offset = 0;               // Rotation into [0, p).
  };
  std::vector<ComboPlan> plans;
  std::vector<uint32_t> combos;
  // Standard submask enumeration of heavy_capable (includes 0).
  for (uint32_t sub = heavy_capable;; sub = (sub - 1) & heavy_capable) {
    combos.push_back(sub);
    if (sub == 0) break;
  }
  std::sort(combos.begin(), combos.end());
  for (uint32_t combo : combos) {
    ComboPlan plan;
    plan.combo = combo;
    plan.sizes.resize(q.num_atoms());
    bool viable = true;
    for (int j = 0; j < q.num_atoms(); ++j) {
      const uint32_t sig = combo & atom_var_mask[j];
      const auto it = class_sizes[j].find(sig);
      plan.sizes[j] = it == class_sizes[j].end() ? 0 : it->second;
      if (plan.sizes[j] == 0) viable = false;
    }
    if (!viable) continue;

    // Residual query over light variables.
    std::vector<int> light_vars;
    for (int v = 0; v < k; ++v) {
      if ((combo & (1u << v)) == 0) light_vars.push_back(v);
    }
    plan.shares.assign(k, 1);
    if (!light_vars.empty()) {
      std::vector<int> light_index(k, -1);
      for (size_t i = 0; i < light_vars.size(); ++i) {
        light_index[light_vars[i]] = static_cast<int>(i);
      }
      std::vector<std::string> names;
      for (int v : light_vars) names.push_back(q.var_name(v));
      std::vector<Atom> residual_atoms;
      std::vector<int64_t> residual_sizes;
      for (int j = 0; j < q.num_atoms(); ++j) {
        Atom atom;
        atom.name = q.atom(j).name;
        for (const auto& [v, c] : atom_var_cols[j]) {
          if (light_index[v] >= 0) atom.vars.push_back(light_index[v]);
        }
        if (!atom.vars.empty()) {
          residual_atoms.push_back(std::move(atom));
          residual_sizes.push_back(plan.sizes[j]);
        }
      }
      if (!residual_atoms.empty()) {
        // A light variable only in filter atoms cannot occur: every light
        // variable's atoms all contain it as a light variable.
        const ConjunctiveQuery residual =
            ConjunctiveQuery::Make(names, residual_atoms);
        const IntegerShares shares =
            ComputeShares(residual, residual_sizes, p);
        for (size_t i = 0; i < light_vars.size(); ++i) {
          plan.shares[light_vars[i]] = shares.shares[i];
        }
      }
    }
    plan.grid_size = 1;
    for (int v = 0; v < k; ++v) plan.grid_size *= plan.shares[v];
    // Rotate each combo's grid to a different region of the cluster.
    plan.offset = static_cast<int>((combo * 2654435761u) % p);
    plans.push_back(std::move(plan));
  }

  // Per-variable hash functions (shared across combos).
  std::vector<HashFunction> hashes;
  for (int v = 0; v < k; ++v) hashes.push_back(cluster.NewHashFunction());

  // The single communication round: route every (combo, atom) class.
  cluster.BeginRound("skew-hc: multicast residual classes");
  // routed[combo_index][atom] fragments.
  std::vector<std::vector<DistRelation>> routed;
  routed.reserve(plans.size());
  for (const ComboPlan& plan : plans) {
    std::vector<DistRelation> combo_routed;
    for (int j = 0; j < q.num_atoms(); ++j) {
      const uint32_t want_sig = plan.combo & atom_var_mask[j];
      // Class members only (local filter; free).
      DistRelation clazz(atoms[j].arity(), p);
      for (int s = 0; s < p; ++s) {
        const Relation& frag = atoms[j].fragment(s);
        for (int64_t i = 0; i < frag.size(); ++i) {
          if (RowSignature(frag.row(i), atom_var_cols[j], heavy) ==
              want_sig) {
            clazz.fragment(s).AppendRowFrom(frag, i);
          }
        }
      }

      // Strides over the combo's grid.
      std::vector<int64_t> strides(k, 0);
      int64_t acc = 1;
      for (int v = 0; v < k; ++v) {
        strides[v] = acc;
        acc *= plan.shares[v];
      }
      std::vector<int> fixed_light;   // Light vars present in this atom.
      std::vector<int> fixed_cols;
      for (const auto& [v, c] : atom_var_cols[j]) {
        if ((plan.combo & (1u << v)) == 0) {
          fixed_light.push_back(v);
          fixed_cols.push_back(c);
        }
      }
      std::vector<int> free_light;  // Light vars absent from this atom.
      for (int v = 0; v < k; ++v) {
        if ((plan.combo & (1u << v)) != 0) continue;
        if (std::find(fixed_light.begin(), fixed_light.end(), v) ==
            fixed_light.end()) {
          free_light.push_back(v);
        }
      }

      // The free dimensions' linear offsets, enumerated once; a row goes
      // to (offset + base + o) mod p for each, base from its fixed light
      // variables.
      std::vector<int64_t> free_offsets = {0};
      for (int v : free_light) {
        const size_t count = free_offsets.size();
        for (int coord = 1; coord < plan.shares[v]; ++coord) {
          for (size_t i = 0; i < count; ++i) {
            free_offsets.push_back(free_offsets[i] + coord * strides[v]);
          }
        }
      }

      combo_routed.push_back(Route(
          cluster, clazz,
          [&](int /*src*/, const Relation& frag, int64_t begin, int64_t end,
              RouteSink& sink) {
            const int64_t rows = end - begin;
            thread_local std::vector<Value> column;
            thread_local std::vector<int32_t> bucket;
            thread_local std::vector<int64_t> base;
            column.resize(static_cast<size_t>(rows));
            bucket.resize(static_cast<size_t>(rows));
            base.assign(static_cast<size_t>(rows), plan.offset);
            for (size_t f = 0; f < fixed_light.size(); ++f) {
              const int v = fixed_light[f];
              GatherKeyColumn(frag.data().data(), frag.arity(),
                              fixed_cols[f], begin, end, column.data());
              hashes[v].BucketMany(column.data(), rows, plan.shares[v],
                                   bucket.data());
              for (int64_t i = 0; i < rows; ++i) {
                base[i] += bucket[i] * strides[v];
              }
            }
            for (int64_t i = 0; i < rows; ++i) {
              for (const int64_t o : free_offsets) {
                sink.Add(static_cast<int>((base[i] + o) % p));
              }
              sink.EndRow();
            }
          },
          ""));
    }
    routed.push_back(std::move(combo_routed));
  }
  cluster.EndRound();

  // Local evaluation: one pool task per server, combos in order (classes
  // stay separated so a tuple multicast under two combos never
  // double-counts). A task writes only its own fragment and its own entry
  // of each combo's row counts.
  SkewHcResult result{DistRelation(k, p), {}};
  std::vector<std::vector<int64_t>> output_rows(plans.size(),
                                                std::vector<int64_t>(p, 0));
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local eval", "compute", s);
    std::vector<Relation> local_atoms(q.num_atoms());
    for (size_t ci = 0; ci < plans.size(); ++ci) {
      bool all_nonempty = true;
      for (int j = 0; j < q.num_atoms(); ++j) {
        local_atoms[j] = routed[ci][j].fragment(s);
        if (local_atoms[j].empty()) all_nonempty = false;
      }
      if (!all_nonempty) continue;
      const Relation out = LocalJoin(q, local_atoms);
      output_rows[ci][s] = out.size();
      result.output.fragment(s).Append(out);
    }
  });
  for (size_t ci = 0; ci < plans.size(); ++ci) {
    ResidualInfo info;
    for (int v = 0; v < k; ++v) {
      if ((plans[ci].combo & (1u << v)) != 0) info.heavy_vars.push_back(v);
    }
    info.shares = plans[ci].shares;
    info.class_sizes = plans[ci].sizes;
    for (int64_t rows : output_rows[ci]) info.output_size += rows;
    result.residuals.push_back(std::move(info));
  }
  return result;
}

}  // namespace mpcqp
