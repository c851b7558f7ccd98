#include "multiway/hypercube.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "query/ghd.h"
#include "query/local_eval.h"
#include "query/trie_join.h"
#include "relation/columnar.h"

namespace mpcqp {

GridSlab::GridSlab(const std::vector<int>& shares,
                   const std::vector<std::pair<int, int>>& var_cols) {
  const int k = static_cast<int>(shares.size());
  std::vector<int32_t> strides(k, 1);
  for (int v = 1; v < k; ++v) strides[v] = strides[v - 1] * shares[v - 1];
  std::vector<bool> is_fixed(k, false);
  for (const auto& [v, c] : var_cols) {
    is_fixed[v] = true;
    if (shares[v] > 1) spread_.push_back({v, c, shares[v], strides[v]});
  }
  offsets_ = {0};
  for (int v = 0; v < k; ++v) {
    if (is_fixed[v]) continue;
    if (shares[v] > 1) free_.push_back({v, -1, shares[v], strides[v]});
    const size_t count = offsets_.size();
    for (int coord = 1; coord < shares[v]; ++coord) {
      for (size_t i = 0; i < count; ++i) {
        offsets_.push_back(offsets_[i] + coord * strides[v]);
      }
    }
  }
}

int GridSlab::Representative(int server) const {
  int representative = server;
  for (const Dim& d : free_) {
    representative -= server / d.stride % d.share * d.stride;
  }
  return representative;
}

void GridSlab::AddBases(const Relation& frag, int64_t begin, int64_t end,
                        const std::vector<HashFunction>& hashes,
                        int32_t* base) const {
  const int64_t rows = end - begin;
  thread_local std::vector<Value> column;
  thread_local std::vector<int32_t> bucket;
  column.resize(static_cast<size_t>(rows));
  bucket.resize(static_cast<size_t>(rows));
  for (const Dim& d : spread_) {
    GatherKeyColumn(frag.data().data(), frag.arity(), d.col, begin, end,
                    column.data());
    hashes[d.var].BucketMany(column.data(), rows, d.share, bucket.data());
    for (int64_t i = 0; i < rows; ++i) base[i] += bucket[i] * d.stride;
  }
}

namespace {

// The local step of a cyclic query on a grid of `grid` servers: one pool
// task per (atom, slab) builds the slab's trie from its representative's
// fragment, then one task per server searches its atoms' shared tries.
// The representative is the slab's RouteGrid base, and every other server
// of the slab holds a handle to its payload. Those handles are dropped
// before the builds start, and each representative's once its trie is
// built, so the tries replace the routed payloads instead of adding to
// them.
std::vector<Relation> JoinWithSlabTries(Cluster& cluster,
                                        const ConjunctiveQuery& q,
                                        const std::vector<GridSlab>& slabs,
                                        int grid,
                                        std::vector<DistRelation>& routed) {
  const int p = cluster.num_servers();
  const int m = q.num_atoms();
  struct Build {
    int atom;
    int server;
  };
  std::vector<Build> builds;
  // trie_of[j * grid + s]: the build whose trie server s reads for atom j.
  std::vector<int> trie_of(static_cast<size_t>(m) * grid);
  for (int j = 0; j < m; ++j) {
    for (int s = 0; s < grid; ++s) {
      const int representative = slabs[j].Representative(s);
      if (representative == s) {
        trie_of[j * grid + s] = static_cast<int>(builds.size());
        builds.push_back({j, s});
      } else {
        trie_of[j * grid + s] = trie_of[j * grid + representative];
        routed[j].fragment(s) = Relation(routed[j].arity());
      }
    }
  }

  std::vector<AtomTrie> tries(builds.size());
  cluster.pool().ParallelFor(static_cast<int64_t>(builds.size()),
                             [&](int64_t i) {
    const auto [j, s] = builds[i];
    tries[i] = BuildTrie(q, j, routed[j].fragment(s));
    routed[j].fragment(s) = Relation(routed[j].arity());
  });

  std::vector<Relation> outputs(p, Relation(q.num_vars()));
  cluster.pool().ParallelFor(grid, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local eval", "compute", s);
    std::vector<const AtomTrie*> server_tries(m);
    for (int j = 0; j < m; ++j) {
      server_tries[j] = &tries[trie_of[j * grid + s]];
    }
    outputs[s] = SearchTries(q, server_tries);
  });
  return outputs;
}

}  // namespace

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

  // One independent hash function per variable.
  std::vector<HashFunction> hashes;
  hashes.reserve(k);
  for (int v = 0; v < k; ++v) hashes.push_back(cluster.NewHashFunction());

  MPCQP_TRACE_SCOPE("hypercube", "algorithm");
  // Round 1 (the only round): multicast every atom.
  cluster.BeginRound("hypercube: multicast");
  std::vector<DistRelation> routed;
  routed.reserve(q.num_atoms());
  std::vector<GridSlab> slabs;
  slabs.reserve(q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) {
    const Atom& atom = q.atom(j);
    // The atom's slab: the fixed variables' coordinates give one base
    // server per row, and the free dimensions' offsets its slab mates,
    // which share the base's routed payload.
    const GridSlab& slab =
        slabs.emplace_back(shares, DistinctVarCols(atom));

    // Rows violating a repeated variable can never join: dropping them
    // locally is free and saves communication. Rows keep full arity,
    // because the multicast meters every column.
    DistRelation prefiltered(atoms[j].arity(), p);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      prefiltered.fragment(s) =
          FilterRepeatedVars(atom, atoms[j].fragment(s));
    });

    routed.push_back(RouteGrid(
        cluster, prefiltered,
        [&](const Relation& frag, int64_t begin, int64_t end,
            int32_t* base) {
          std::fill(base, base + (end - begin), 0);
          slab.AddBases(frag, begin, end, hashes, base);
        },
        slab.offsets(), ""));
  }
  cluster.EndRound();

  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  if (!IsAcyclic(q)) {
    int grid = 1;
    for (int share : shares) grid *= share;
    return HyperCubeResult{
        DistRelation::FromFragments(
            JoinWithSlabTries(cluster, q, slabs, grid, routed)),
        std::move(shares)};
  }
  // Acyclic: a hash-join LocalJoin per server, each with its own atom
  // scratch.
  std::vector<Relation> outputs(p);
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
