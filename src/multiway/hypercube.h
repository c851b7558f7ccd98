#ifndef MPCQP_MULTIWAY_HYPERCUBE_H_
#define MPCQP_MULTIWAY_HYPERCUBE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/shares.h"
#include "query/query.h"

namespace mpcqp {

// The HyperCube / Shares algorithm (Afrati-Ullman '10, Beame et al. '13-'14;
// deck slides 34-45): computes any full conjunctive query in ONE round.
//
// Servers are arranged in a p_1 × ... × p_k hypercube (one dimension per
// query variable, Π p_i <= p). Each tuple of atom S_j is multicast to all
// servers whose coordinates agree with h_i(t[x_i]) on the atom's variables;
// each server then evaluates the query on what it received. Every output
// tuple is produced at exactly one server (all its variables are hashed).
//
// Skew-free load: IN / p^{1/τ*} for equal-size atoms (τ* = fractional edge
// packing number); N/p^{2/3} for the triangle. Degrades under skew — use
// SkewHcJoin then.
// The multicast is RouteGrid's slab route: an atom's tuple reaches every
// server of its slab (the servers that agree on the atom's own
// variables), so all Π(free shares) of them hold the same fragment. It is
// written once, at the slab's base, and the other servers of the slab
// hold copy-on-write handles to it; each of them is still metered for
// every tuple, so (L, r, C) are those of a per-server copy.
// Each server evaluates its fragments with SQL bag semantics. For an
// acyclic query that is LocalJoin (query/local_eval.h), pairwise hash joins
// per server. For a cyclic query it is the trie join (query/trie_join.h),
// with one trie per slab rather than per server. Each (atom, slab) trie is
// built once, from the slab's representative server (its base), and every
// server of the slab searches it read-only. That is
// Σ_j Π(shares of atom j's variables) builds instead of one per (atom,
// server); like the shared payloads it saves simulator work and memory,
// not load, and the output is byte-identical to a per-server trie join.
struct HyperCubeOptions {
  // If non-empty, overrides the share computation (one entry per query
  // variable, product <= p). Used by benches reproducing specific rows of
  // the deck's tables.
  std::vector<int> forced_shares;
};

struct HyperCubeResult {
  // Output columns = query variables in id order.
  DistRelation output;
  // The integer shares actually used.
  std::vector<int> shares;
};

// One atom's slab of a share grid with mixed-radix strides (variable 0
// varies fastest): the atom's variables fix their coordinates from the
// row's hashes, and every other variable ranges over all of its own. A
// row goes to base + o for each o of offsets(), its base from AddBases;
// distinct bases have disjoint slabs, as RouteGrid requires.
// HyperCube builds one per atom; SkewHC one per (residual, atom), with
// its heavy variables at share 1.
class GridSlab {
 public:
  // `shares` has one entry per query variable; `var_cols` is the atom's
  // DistinctVarCols.
  GridSlab(const std::vector<int>& shares,
           const std::vector<std::pair<int, int>>& var_cols);

  // The free dimensions' linear offsets, enumerated once; 0 first.
  const std::vector<int>& offsets() const { return offsets_; }

  // The server of `server`'s slab whose free coordinates are all 0, i.e.
  // `server` minus its free offset. Every server of a slab receives the
  // same rows, in the same order. `server` must lie on the grid
  // (below the product of the shares).
  int Representative(int server) const;

  // base[i] += Σ_v hashes[v].Bucket(row[v], share_v) · stride_v for rows
  // [begin, end) of `frag`, one BucketMany pass per column. A share-1
  // variable's only coordinate is 0, so it adds nothing and is skipped.
  void AddBases(const Relation& frag, int64_t begin, int64_t end,
                const std::vector<HashFunction>& hashes,
                int32_t* base) const;

 private:
  struct Dim {
    int var;
    int col;
    int share;
    int32_t stride;
  };
  std::vector<Dim> spread_;  // The atom's variables with share > 1.
  std::vector<Dim> free_;    // The other variables with share > 1.
  std::vector<int> offsets_;
};

// atoms[j] instantiates q.atom(j) (arities must match).
HyperCubeResult HyperCubeJoin(Cluster& cluster, const ConjunctiveQuery& q,
                              const std::vector<DistRelation>& atoms,
                              const HyperCubeOptions& options = {});

}  // namespace mpcqp

#endif  // MPCQP_MULTIWAY_HYPERCUBE_H_
