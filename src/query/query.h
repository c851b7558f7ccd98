#ifndef MPCQP_QUERY_QUERY_H_
#define MPCQP_QUERY_QUERY_H_

#include <string>
#include <utility>
#include <vector>

#include "common/statusor.h"

namespace mpcqp {

// One atom R(vars...) of a conjunctive query. Variables are integer ids
// into ConjunctiveQuery's variable table; a variable may repeat within an
// atom (self-join on a column).
struct Atom {
  std::string name;
  std::vector<int> vars;

  int arity() const { return static_cast<int>(vars.size()); }
  bool ContainsVar(int var) const;
};

// The distinct variables of `atom` in first-occurrence order, each paired
// with the column where it first appears: (variable, column). This is the
// atom's schema once repeated variables are filtered and projected away.
std::vector<std::pair<int, int>> DistinctVarCols(const Atom& atom);

// The variables of DistinctVarCols(atom): the column variables of
// NormalizeAtom's output (query/local_eval.h).
std::vector<int> DistinctVars(const Atom& atom);

// --- Variable-to-column bookkeeping shared by every join driver. A
// relation's schema is a variable list: column c holds variable vars[c].

// Join keys between relations whose columns hold `a_vars` and `b_vars`:
// for each variable of `a_vars`, in `a_vars` order, that `b_vars` also
// holds, its column in a goes to `a_keys` and its column in b to `b_keys`.
// The order is observable: HashPartition hashes key columns in order.
void SharedKeyCols(const std::vector<int>& a_vars,
                   const std::vector<int>& b_vars, std::vector<int>* a_keys,
                   std::vector<int>* b_keys);

// The column in `in_vars` of each variable of `vars`. CHECK-fails when
// `in_vars` lacks one of them.
std::vector<int> ColumnsOf(const std::vector<int>& vars,
                           const std::vector<int>& in_vars);

// The columns that put a result whose columns hold `vars` into
// variable-id order 0..num_vars-1 (a query's output order). CHECK-fails
// unless `vars` is a permutation of those ids.
std::vector<int> IdOrderColumns(const std::vector<int>& vars, int num_vars);

// The schema of HashJoinLocal(left, right, left_keys, right_keys)'s
// output: `left_vars`, then the variables of `right_vars` whose columns
// are not in `right_keys` (all of them for a cross product).
std::vector<int> JoinOutputVars(const std::vector<int>& left_vars,
                                const std::vector<int>& right_vars,
                                const std::vector<int>& right_keys);

// A full conjunctive query Q(x1..xk) :- S1(...), ..., Sl(...), i.e. the
// output contains every variable (the setting of the tutorial; slides
// 34-51). Output column order is variable-id order.
class ConjunctiveQuery {
 public:
  // Builds a query; every variable id in atoms must be in
  // [0, var_names.size()), and every variable must appear in some atom.
  static ConjunctiveQuery Make(std::vector<std::string> var_names,
                               std::vector<Atom> atoms);

  // Parses "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)". The head is optional
  // ("R(x,y), S(y,z)" works); when present it must list every variable
  // exactly once and defines the variable order. Whitespace is free.
  static StatusOr<ConjunctiveQuery> Parse(const std::string& text);

  // --- Stock queries used throughout the deck ---
  // Triangle: R(x,y), S(y,z), T(z,x).
  static ConjunctiveQuery Triangle();
  // Path/chain of `num_atoms` binary atoms: R1(x0,x1), ..., Rn(x_{n-1},x_n).
  static ConjunctiveQuery Path(int num_atoms);
  // Star: R1(x0,x1), R2(x0,x2), ..., Rn(x0,xn).
  static ConjunctiveQuery Star(int num_atoms);
  // Cycle of length n: R1(x0,x1), ..., Rn(x_{n-1},x0).
  static ConjunctiveQuery Cycle(int num_atoms);
  // Two-way join R(x,y), S(y,z).
  static ConjunctiveQuery TwoWayJoin();
  // Product with shared variable removed: R(x), S(y).
  static ConjunctiveQuery CartesianProduct();
  // Slide 53's R(x), S(x,y), T(y).
  static ConjunctiveQuery Bowtie();

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  const std::vector<Atom>& atoms() const { return atoms_; }
  const Atom& atom(int index) const;
  const std::string& var_name(int var) const;
  const std::vector<std::string>& var_names() const { return var_names_; }

  // Atom indices containing `var`.
  std::vector<int> AtomsWithVar(int var) const;

  // "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)".
  std::string ToString() const;

 private:
  ConjunctiveQuery(std::vector<std::string> var_names, std::vector<Atom> atoms)
      : var_names_(std::move(var_names)), atoms_(std::move(atoms)) {}

  std::vector<std::string> var_names_;
  std::vector<Atom> atoms_;
};

// The structural identity of a query, independent of variable names, atom
// (relation) names, and atom order: two queries get the same `shape` string
// iff they are isomorphic as hypergraphs with ordered atom columns. This is
// the plan-cache key — a cached plan for R(x,y),S(y,z) serves E(a,b),F(b,c).
struct CanonicalQueryShape {
  // E.g. the triangle canonicalizes to "2:0,1|2:1,2|2:2,0": per canonical
  // atom its arity and variable ids renamed by first occurrence.
  std::string shape;
  // atom_order[k] = original index of the atom at canonical position k (a
  // permutation of 0..num_atoms-1). Plans cached in canonical atom space
  // are remapped through this to the query at hand.
  std::vector<int> atom_order;
};

// Canonicalizes by taking the lexicographically least shape string over all
// atom permutations (exact for queries of up to 7 atoms; larger queries
// fall back to a deterministic greedy order, which is still a valid cache
// key — it just may miss some cross-query sharing).
CanonicalQueryShape CanonicalizeShape(const ConjunctiveQuery& q);

}  // namespace mpcqp

#endif  // MPCQP_QUERY_QUERY_H_
