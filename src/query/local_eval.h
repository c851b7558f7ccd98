#ifndef MPCQP_QUERY_LOCAL_EVAL_H_
#define MPCQP_QUERY_LOCAL_EVAL_H_

#include <vector>

#include "query/query.h"
#include "relation/relation.h"

namespace mpcqp {

// Evaluates the full conjunctive query `q` over the given atom instances
// (atoms[j] instantiates q.atom(j); arities must match). Output columns are
// the query variables in id order; bag (SQL) semantics — multiplicities
// multiply across atoms.
//
// This is a single-node operator: the parallel algorithms run it per server
// on partitioned fragments, and tests run it on whole inputs as the
// reference answer. Atoms are joined greedily, always preferring an atom
// sharing variables with the partial result (avoiding cross products when
// the query is connected). Repeated variables within an atom become
// selections.
Relation EvalJoinLocal(const ConjunctiveQuery& q,
                       const std::vector<Relation>& atoms);

// The per-server local join of every multiway driver (HyperCube, SkewHC's
// residual joins, bag materialization): TrieJoin (query/trie_join.h) when
// `q` is cyclic, where a binary plan builds IN²/D intermediates, and
// EvalJoinLocal when it is acyclic, where one hash build and probe per
// atom beats sorting every atom. Same bag-semantics multiset either way.
Relation LocalJoin(const ConjunctiveQuery& q,
                   const std::vector<Relation>& atoms);

// Atom normalization, shared by every driver: an atom instance whose atom
// repeats a variable, e.g. R(x,x,y), is turned into one column per
// distinct variable before it joins.

// The rows of `rel`, an instance of `atom`, whose repeated-variable
// columns agree. When `atom` repeats no variable this returns `rel`
// itself: a handle sharing its payload, no copy.
Relation FilterRepeatedVars(const Atom& atom, const Relation& rel);

// FilterRepeatedVars, then a projection onto one column per distinct
// variable in DistinctVarCols order. Also returns `rel` itself, with no
// copy, when `atom` repeats no variable.
Relation NormalizeAtom(const Atom& atom, const Relation& rel);

}  // namespace mpcqp

#endif  // MPCQP_QUERY_LOCAL_EVAL_H_
