#include "multiway/hypercube.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "query/local_eval.h"
#include "relation/columnar.h"

namespace mpcqp {

HyperCubeResult HyperCubeJoin(Cluster& cluster, const ConjunctiveQuery& q,
                              const std::vector<DistRelation>& atoms,
                              const HyperCubeOptions& options) {
  const int p = cluster.num_servers();
  const int k = q.num_vars();
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) {
    MPCQP_CHECK_EQ(atoms[j].arity(), q.atom(j).arity());
    MPCQP_CHECK_EQ(atoms[j].num_servers(), p);
  }

  // Shares: forced, or optimized for the observed sizes.
  std::vector<int> shares;
  if (!options.forced_shares.empty()) {
    MPCQP_CHECK_EQ(static_cast<int>(options.forced_shares.size()), k);
    shares = options.forced_shares;
    int64_t product = 1;
    for (int s : shares) {
      MPCQP_CHECK_GE(s, 1);
      product *= s;
    }
    MPCQP_CHECK_LE(product, p);
  } else {
    std::vector<int64_t> sizes;
    sizes.reserve(q.num_atoms());
    for (const DistRelation& a : atoms) sizes.push_back(a.TotalSize());
    shares = ComputeShares(q, sizes, p).shares;
  }

  // Mixed-radix strides: coordinate c = (c_0..c_{k-1}) lives on server
  // Σ c_i * stride_i; only the first Π shares servers are used.
  std::vector<int64_t> strides(k, 1);
  for (int v = 1; v < k; ++v) strides[v] = strides[v - 1] * shares[v - 1];

  // One independent hash function per variable.
  std::vector<HashFunction> hashes;
  hashes.reserve(k);
  for (int v = 0; v < k; ++v) hashes.push_back(cluster.NewHashFunction());

  MPCQP_TRACE_SCOPE("hypercube", "algorithm");
  // Round 1 (the only round): multicast every atom.
  cluster.BeginRound("hypercube: multicast");
  std::vector<DistRelation> routed;
  routed.reserve(q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) {
    const Atom& atom = q.atom(j);
    // Fixed dimensions: first-occurrence column per distinct variable.
    const std::vector<std::pair<int, int>> var_cols = DistinctVarCols(atom);
    std::vector<bool> is_fixed(k, false);
    for (const auto& [v, c] : var_cols) is_fixed[v] = true;

    // The atom's slab: the fixed variables' coordinates give one base
    // server per row, and the row goes to base + o for every combination
    // o of the free dimensions' coordinates, enumerated once per atom.
    std::vector<int> offsets = {0};
    for (int v = 0; v < k; ++v) {
      if (is_fixed[v]) continue;
      const size_t count = offsets.size();
      for (int coord = 1; coord < shares[v]; ++coord) {
        for (size_t i = 0; i < count; ++i) {
          offsets.push_back(
              static_cast<int>(offsets[i] + coord * strides[v]));
        }
      }
    }

    // Rows violating a repeated variable can never join: dropping them
    // locally is free and saves communication. Rows keep full arity,
    // because the multicast meters every column.
    DistRelation prefiltered(atoms[j].arity(), p);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      prefiltered.fragment(s) =
          FilterRepeatedVars(atom, atoms[j].fragment(s));
    });

    // Fixed variables with a share above 1; a share-1 variable's only
    // coordinate is 0 (Bucket(v, 1) == 0), so it adds nothing to a base.
    std::vector<std::pair<int, int>> spread_cols;
    for (const auto& [v, c] : var_cols) {
      if (shares[v] > 1) spread_cols.push_back({v, c});
    }

    // Per morsel: gather each spread variable's column and bucket it in
    // one BucketMany pass (== Bucket element-wise), accumulating
    // bucket * stride into the bases.
    routed.push_back(RouteGrid(
        cluster, prefiltered,
        [&](const Relation& frag, int64_t begin, int64_t end,
            int32_t* base) {
          const int64_t rows = end - begin;
          std::fill(base, base + rows, 0);
          thread_local std::vector<Value> column;
          thread_local std::vector<int32_t> bucket;
          column.resize(static_cast<size_t>(rows));
          bucket.resize(static_cast<size_t>(rows));
          for (const auto& [v, c] : spread_cols) {
            GatherKeyColumn(frag.data().data(), frag.arity(), c, begin, end,
                            column.data());
            hashes[v].BucketMany(column.data(), rows, shares[v],
                                 bucket.data());
            const int32_t stride = static_cast<int32_t>(strides[v]);
            for (int64_t i = 0; i < rows; ++i) base[i] += bucket[i] * stride;
          }
        },
        offsets, ""));
  }
  cluster.EndRound();

  // Local evaluation on every (used) server: one pool task per server,
  // each with its own atom scratch.
  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local eval", "compute", s);
    std::vector<Relation> local_atoms(q.num_atoms());
    bool any = false;
    for (int j = 0; j < q.num_atoms(); ++j) {
      local_atoms[j] = routed[j].fragment(s);
      if (!local_atoms[j].empty()) any = true;
    }
    outputs[s] = any ? LocalJoin(q, local_atoms) : Relation(k);
  });
  return HyperCubeResult{DistRelation::FromFragments(std::move(outputs)),
                         std::move(shares)};
}

}  // namespace mpcqp
