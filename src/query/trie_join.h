#ifndef MPCQP_QUERY_TRIE_JOIN_H_
#define MPCQP_QUERY_TRIE_JOIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_counter.h"
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
// The kernel has two parts, a build per atom and a search over the built
// tries:
// - Variable order: variables in more atoms first, ties by variable id.
//   It depends only on `q`, so a trie built for q.atom(j) fits every
//   search of `q`.
// - BuildTrie: the atom (after NormalizeAtom) becomes one trie whose
//   levels are its distinct variables in that order. Its key rows are
//   sorted straight from the relation by an LSD radix sort over only the
//   bits that vary, then scanned twice: once to count each level's nodes,
//   once to fill levels sized exactly. Equal keys collapse into one leaf
//   carrying their multiplicity.
// - SearchTries: variables bind one at a time: direct iteration when one
//   atom holds the variable, a merge for two (galloping when one range is
//   far larger), leapfrog for three or more. A full binding is emitted
//   Π(leaf multiplicities) times, so deduplicated inputs give set
//   semantics.
// - A trie root whose variable binds after the first depth is intersected
//   again for every binding of the earlier variables. If exactly one other
//   atom holds that variable, BuildTrie indexes the root (a FlatCounter
//   from value to position + 1), and whenever the root is the larger range
//   the search walks the other range in order with one lookup per value.
//   A larger other range still merges or gallops. The rule reads only `q`,
//   so every search of a shared trie reads the one index.
// - A built trie is read-only. Any number of searches, on any threads, may
//   read it at once, so an atom fragment that several servers receive
//   whole (a HyperCube slab) is built once and shared.
// - Traced runs show one "trie build" span per built atom (including its
//   root index) and one "trie search" span per search.
//
// Output columns are the query variables in id order. Rows come out in
// trie order (lexicographic in the variable order), which depends only on
// the atoms' contents: permuting input rows leaves the output
// byte-identical.

// One atom's flat trie. Level l holds the atom's l-th variable in the
// variable order: `vals[l]` lists, node by node, the sorted distinct
// values under each level-(l-1) node, and node i's children are
// vals[l+1][off[l][i], off[l][i+1]). Leaves carry the multiplicity of
// their full key. Every level is sized exactly.
struct AtomTrie {
  std::vector<int> level_vars;  // Query variable ids, one per level.
  std::vector<std::vector<Value>> vals;
  std::vector<std::vector<int64_t>> off;
  std::vector<int64_t> mult;
  // vals[0]'s value -> position + 1, for a root the search re-probes.
  std::optional<FlatCounter> root_index;

  // True when the atom had no rows: its join is empty.
  bool empty() const { return mult.empty(); }
};

// The trie of `rel`, an instance of q.atom(j) (arities must match).
AtomTrie BuildTrie(const ConjunctiveQuery& q, int j, const Relation& rel);

// The join of `tries`, where tries[j] is BuildTrie(q, j, ·). Reads the
// tries only.
Relation SearchTries(const ConjunctiveQuery& q,
                     const std::vector<const AtomTrie*>& tries);

// Builds each atom's trie, then searches them; an empty atom stops the
// builds early.
Relation TrieJoin(const ConjunctiveQuery& q,
                  const std::vector<Relation>& atoms);

}  // namespace mpcqp

#endif  // MPCQP_QUERY_TRIE_JOIN_H_
