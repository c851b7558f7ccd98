#ifndef MPCQP_QUERY_TRIE_JOIN_H_
#define MPCQP_QUERY_TRIE_JOIN_H_

#include <vector>

#include "query/query.h"
#include "relation/relation.h"

namespace mpcqp {

// Worst-case-optimal local join (NPRR / Leapfrog Triejoin) over flat
// sorted tries, with SQL bag semantics: the same multiset as
// EvalJoinLocal(q, atoms).
//
// Motivation (deck slides 55-56): the AGM bound OUT <= IN^{ρ*} is attained
// by variable-at-a-time algorithms, while a binary plan can build
// intermediates of size IN²/D whose final output is tiny. HyperCube's
// servers receive exactly such fragments for cyclic queries.
//
// - Variable order: variables in more atoms first, ties by variable id.
// - Each atom (after NormalizeAtom) becomes one trie whose levels are its
//   distinct variables in that order. Its key rows are sorted by an LSD
//   radix sort over only the bits that vary, then scanned once into
//   per-level value and offset arrays. Equal keys collapse into one leaf
//   carrying their multiplicity.
// - Variables bind one at a time: direct iteration when one atom holds the
//   variable, a merge for two (galloping when one range is far larger),
//   leapfrog for three or more. A full binding is emitted
//   Π(leaf multiplicities) times, so deduplicated inputs give set
//   semantics.
// - A trie root whose variable binds after the first depth is intersected
//   again for every binding of the earlier variables. If one other atom
//   shares that depth, the root is indexed once (a FlatCounter from value
//   to position + 1), and whenever the root is the larger range the other
//   range is walked in order with one lookup per value. A larger other
//   range still merges or gallops.
// - Traced runs show the kernel as a "trie build" and a "trie search"
//   span (the search span includes building the root indexes).
//
// Output columns are the query variables in id order. Rows come out in
// trie order (lexicographic in the variable order), which depends only on
// the atoms' contents: permuting input rows leaves the output
// byte-identical.
Relation TrieJoin(const ConjunctiveQuery& q,
                  const std::vector<Relation>& atoms);

}  // namespace mpcqp

#endif  // MPCQP_QUERY_TRIE_JOIN_H_
