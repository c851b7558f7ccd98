#include "multiway/skew_hc.h"

#include <algorithm>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/trace.h"
#include "join/heavy_hitters.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "multiway/hypercube.h"
#include "query/local_eval.h"

namespace mpcqp {

SkewHcResult SkewHcJoin(Cluster& cluster, const ConjunctiveQuery& q,
                        const std::vector<DistRelation>& atoms,
                        const SkewHcOptions& options) {
  const int p = cluster.num_servers();
  const int k = q.num_vars();
  const int m = q.num_atoms();
  MPCQP_TRACE_SCOPE("skew_hc", "algorithm");
  MPCQP_CHECK_LE(k, 30) << "SkewHC uses a bitmask over variables";
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), m);
  for (int j = 0; j < m; ++j) {
    MPCQP_CHECK_EQ(atoms[j].arity(), q.atom(j).arity());
    MPCQP_CHECK_EQ(atoms[j].num_servers(), p);
  }

  int64_t total_in = 0;
  for (const DistRelation& a : atoms) total_in += a.TotalSize();
  const int64_t threshold = std::max<int64_t>(
      1, static_cast<int64_t>(options.threshold_factor *
                              static_cast<double>(total_in) / p));

  // Heavy sets per variable: degree > threshold in any atom containing it.
  std::vector<FlatCounter> heavy(k);
  uint32_t heavy_capable = 0;
  {
    ScopedPhaseTimer count_phase(cluster.metrics(), Phase::kLocalCompute);
    MPCQP_TRACE_SCOPE("skew_hc heavy hitters", "compute");
    for (int j = 0; j < m; ++j) {
      for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
        for (const HeavyHitter& h :
             FindHeavyHitters(atoms[j], c, threshold)) {
          heavy[v].Add(h.value);
          heavy_capable |= (1u << v);
        }
      }
    }
  }

  std::vector<std::vector<std::pair<int, int>>> atom_var_cols(m);
  std::vector<uint32_t> atom_var_mask(m, 0);
  for (int j = 0; j < m; ++j) {
    atom_var_cols[j] = DistinctVarCols(q.atom(j));
    for (const auto& [v, c] : atom_var_cols[j]) atom_var_mask[j] |= 1u << v;
  }

  // Classify every row once, one pool task per server: sigs[j][s][i] is
  // the heaviness signature of row i of atoms[j].fragment(s) over the
  // atom's variables (bit v set iff its value for v is heavy). Each task
  // also counts its server's classes; the counts merge in server order.
  std::vector<std::vector<std::vector<uint32_t>>> sigs(
      m, std::vector<std::vector<uint32_t>>(p));
  std::vector<std::vector<FlatCounter>> server_classes(
      p, std::vector<FlatCounter>(m));
  {
    ScopedPhaseTimer classify_phase(cluster.metrics(), Phase::kLocalCompute);
    MPCQP_TRACE_SCOPE("skew_hc classify", "compute");
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      for (int j = 0; j < m; ++j) {
        const Relation& frag = atoms[j].fragment(s);
        const Value* data = frag.data().data();
        const int arity = frag.arity();
        std::vector<uint32_t>& sig = sigs[j][s];
        sig.assign(static_cast<size_t>(frag.size()), 0);
        for (const auto& [v, c] : atom_var_cols[j]) {
          if ((heavy_capable & (1u << v)) == 0) continue;
          for (int64_t i = 0; i < frag.size(); ++i) {
            if (heavy[v].Get(data[i * arity + c]) > 0) sig[i] |= 1u << v;
          }
        }
        for (const uint32_t row_sig : sig) server_classes[s][j].Add(row_sig);
      }
    });
  }
  std::vector<FlatCounter> class_sizes(m);
  for (int s = 0; s < p; ++s) {
    for (int j = 0; j < m; ++j) class_sizes[j].MergeFrom(server_classes[s][j]);
  }

  // Enumerate combos (subsets of heavy-capable variables); plan each.
  struct ComboPlan {
    uint32_t combo = 0;
    std::vector<int> shares;     // Per original variable; heavy -> 1.
    std::vector<int64_t> sizes;  // Per atom class size.
    int offset = 0;              // Rotation into [0, p).
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
    plan.sizes.resize(m);
    bool viable = true;
    for (int j = 0; j < m; ++j) {
      plan.sizes[j] = class_sizes[j].Get(combo & atom_var_mask[j]);
      if (plan.sizes[j] == 0) viable = false;
    }
    if (!viable) continue;
    plan.shares = ResidualShares(q, combo, plan.sizes, p);
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
    for (int j = 0; j < m; ++j) {
      // Each atom routes in place: a row outside the combo's class closes
      // with no destination, and a class row goes to (offset + base + o)
      // mod p for every offset o of its slab.
      const uint32_t want_sig = plan.combo & atom_var_mask[j];
      const GridSlab slab(plan.shares, atom_var_cols[j]);
      combo_routed.push_back(Route(
          cluster, atoms[j],
          [&](int src, const Relation& frag, int64_t begin, int64_t end,
              RouteSink& sink) {
            const int64_t rows = end - begin;
            thread_local std::vector<int32_t> base;
            base.assign(static_cast<size_t>(rows), 0);
            slab.AddBases(frag, begin, end, hashes, base.data());
            const uint32_t* sig = sigs[j][src].data() + begin;
            for (int64_t i = 0; i < rows; ++i) {
              if (sig[i] == want_sig) {
                for (const int o : slab.offsets()) {
                  sink.Add((plan.offset + base[i] + o) % p);
                }
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
    std::vector<Relation> local_atoms(m);
    for (size_t ci = 0; ci < plans.size(); ++ci) {
      bool all_nonempty = true;
      for (int j = 0; j < m; ++j) {
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
