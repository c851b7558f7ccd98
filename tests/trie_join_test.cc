#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "query/local_eval.h"
#include "query/trie_join.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<Relation> DedupAll(const std::vector<Relation>& atoms) {
  std::vector<Relation> deduped;
  for (const Relation& r : atoms) deduped.push_back(Dedup(r));
  return deduped;
}

// Reference: set-semantics result via the binary evaluator + dedup of
// deduplicated inputs.
Relation SetSemanticsReference(const ConjunctiveQuery& q,
                               const std::vector<Relation>& atoms) {
  return Dedup(EvalJoinLocal(q, DedupAll(atoms)));
}

// The trie join's set-semantics answer, the way set-semantics callers
// (BigJoin's reference, bench A3) use it.
Relation SetTrieJoin(const ConjunctiveQuery& q,
                     const std::vector<Relation>& atoms) {
  return Dedup(TrieJoin(q, DedupAll(atoms)));
}

std::vector<Relation> UniformAtoms(const ConjunctiveQuery& q, uint64_t seed,
                                   int64_t rows, uint64_t domain) {
  Rng rng(seed);
  std::vector<Relation> atoms;
  for (int j = 0; j < q.num_atoms(); ++j) {
    atoms.push_back(GenerateUniform(rng, rows, q.atom(j).arity(), domain));
  }
  return atoms;
}

ConjunctiveQuery ParseOrDie(const std::string& text) {
  StatusOr<ConjunctiveQuery> q = ConjunctiveQuery::Parse(text);
  EXPECT_TRUE(q.ok()) << text;
  return std::move(q).value();
}

// Each atom's rows in a seeded random order.
std::vector<Relation> Shuffled(const std::vector<Relation>& atoms,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Relation> shuffled;
  for (const Relation& atom : atoms) {
    std::vector<int64_t> perm(atom.size());
    for (int64_t i = 0; i < atom.size(); ++i) perm[i] = i;
    for (int64_t i = atom.size() - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(i + 1)]);
    }
    Relation copy(atom.arity());
    for (int64_t i : perm) copy.AppendRowFrom(atom, i);
    shuffled.push_back(std::move(copy));
  }
  return shuffled;
}

// TrieJoin equals the binary evaluator under bag semantics, and shuffling
// the inputs leaves its output byte-identical.
void ExpectBagEqualAndOrderFree(const ConjunctiveQuery& q,
                                const std::vector<Relation>& atoms,
                                const std::string& label) {
  const Relation out = TrieJoin(q, atoms);
  EXPECT_TRUE(MultisetEqual(out, EvalJoinLocal(q, atoms))) << label;
  EXPECT_TRUE(out == TrieJoin(q, Shuffled(atoms, 23))) << label;
}

// TrieJoin in its two parts: every atom's trie, then one search.
Relation BuildThenSearch(const ConjunctiveQuery& q,
                         const std::vector<Relation>& atoms) {
  std::vector<AtomTrie> tries;
  for (int j = 0; j < q.num_atoms(); ++j) {
    tries.push_back(BuildTrie(q, j, atoms[j]));
  }
  std::vector<const AtomTrie*> read;
  for (const AtomTrie& trie : tries) read.push_back(&trie);
  return SearchTries(q, read);
}

struct WcojCase {
  const char* query;
  int64_t rows;
  uint64_t domain;
};

// Names the case by its fields, so test names stay stable across builds.
void PrintTo(const WcojCase& c, std::ostream* os) {
  *os << c.query << " rows=" << c.rows << " domain=" << c.domain;
}

class TrieJoinTest
    : public ::testing::TestWithParam<std::tuple<WcojCase, uint64_t>> {};

TEST_P(TrieJoinTest, MatchesSetSemanticsReference) {
  const auto [spec, seed] = GetParam();
  const ConjunctiveQuery q = ParseOrDie(spec.query);
  const std::vector<Relation> atoms =
      UniformAtoms(q, seed, spec.rows, spec.domain);
  EXPECT_TRUE(MultisetEqual(SetTrieJoin(q, atoms),
                            SetSemanticsReference(q, atoms)));
}

// The same sweep under bag semantics: small domains make duplicate rows,
// whose multiplicities must multiply exactly as in the binary evaluator.
TEST_P(TrieJoinTest, MatchesBagSemanticsReference) {
  const auto [spec, seed] = GetParam();
  const ConjunctiveQuery q = ParseOrDie(spec.query);
  const std::vector<Relation> atoms =
      UniformAtoms(q, seed, spec.rows, spec.domain);
  EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), EvalJoinLocal(q, atoms)));
}

// Building every atom's trie and then searching them is TrieJoin, byte
// for byte.
TEST_P(TrieJoinTest, BuildThenSearchMatchesTrieJoin) {
  const auto [spec, seed] = GetParam();
  const ConjunctiveQuery q = ParseOrDie(spec.query);
  const std::vector<Relation> atoms =
      UniformAtoms(q, seed, spec.rows, spec.domain);
  EXPECT_TRUE(BuildThenSearch(q, atoms) == TrieJoin(q, atoms));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TrieJoinTest,
    ::testing::Combine(
        ::testing::Values(WcojCase{"R(x,y), S(y,z), T(z,x)", 200, 15},
                          WcojCase{"R(x,y), S(y,z)", 150, 12},
                          WcojCase{"R(x), S(y)", 20, 30},
                          WcojCase{"A(x,y), B(y,z), C(z,w), D(w,x)", 100, 8},
                          WcojCase{"R(x,y), S(x,z), T(x,w)", 120, 10}),
        ::testing::Values(1u, 2u, 3u)));

TEST(TrieJoinTest, TriangleByHand) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const Relation r = Relation::FromRows({{1, 2}, {4, 5}});
  const Relation s = Relation::FromRows({{2, 3}, {5, 6}});
  const Relation t = Relation::FromRows({{3, 1}, {6, 9}});
  const Relation out = SetTrieJoin(q, {r, s, t});
  ASSERT_EQ(out.size(), 1);
  EXPECT_EQ(out.at(0, 0), 1u);
  EXPECT_EQ(out.at(0, 1), 2u);
  EXPECT_EQ(out.at(0, 2), 3u);
}

TEST(TrieJoinTest, DuplicatesDoNotMultiply) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const Relation r = Relation::FromRows({{1, 5}, {1, 5}});
  const Relation s = Relation::FromRows({{5, 2}, {5, 2}});
  EXPECT_EQ(SetTrieJoin(q, {r, s}).size(), 1);    // Set semantics.
  EXPECT_EQ(EvalJoinLocal(q, {r, s}).size(), 4);  // Bag semantics.
  EXPECT_EQ(TrieJoin(q, {r, s}).size(), 4);
}

// The kernel fixes its variable order from the query (atom counts, then
// variable ids), so renumbering the variables changes the order it binds
// them in. The answer, reordered to common columns, must not move.
TEST(TrieJoinTest, VariableOrderDoesNotChangeResult) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(7);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 150, 2, 10));
  }
  const Relation base = SetTrieJoin(q, atoms);
  // Head order = variable ids; `cols` maps the output back to (x, y, z).
  for (const auto& [head, cols] :
       {std::pair<std::string, std::vector<int>>{"Q(z,y,x)", {2, 1, 0}},
        std::pair<std::string, std::vector<int>>{"Q(y,z,x)", {2, 0, 1}},
        std::pair<std::string, std::vector<int>>{"Q(z,x,y)", {1, 2, 0}}}) {
    const ConjunctiveQuery renamed =
        ParseOrDie(head + " :- R(x,y), S(y,z), T(z,x)");
    EXPECT_TRUE(
        MultisetEqual(Project(SetTrieJoin(renamed, atoms), cols), base))
        << head;
  }
}

TEST(TrieJoinTest, RepeatedVariableAtom) {
  const ConjunctiveQuery q = ParseOrDie("Q(x,y) :- R(x,x), S(x,y)");
  const Relation r = Relation::FromRows({{1, 1}, {1, 2}, {3, 3}});
  const Relation s = Relation::FromRows({{1, 7}, {3, 8}, {2, 9}});
  const Relation out = SetTrieJoin(q, {r, s});
  EXPECT_EQ(out.size(), 2);
}

TEST(TrieJoinTest, EmptyAtomShortCircuits) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(8);
  const Relation full = GenerateUniform(rng, 50, 2, 5);
  EXPECT_TRUE(SetTrieJoin(q, {full, Relation(2), full}).empty());
  EXPECT_TRUE(TrieJoin(q, {full, full, Relation(2)}).empty());
  EXPECT_TRUE(EvalJoinLocal(q, {full, full, Relation(2)}).empty());
}

TEST(TrieJoinTest, AvoidsBinaryPlanBlowup) {
  // The slide-63 adversarial instance: R1 ⋈ R2 is huge, the output is
  // empty. The trie join never materializes the blow-up, so this finishes
  // instantly even at sizes where the binary intermediate has ~10^6 rows.
  const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
  Rng rng(9);
  const Relation r1 = GenerateUniform(rng, 4000, 2, 8);
  const Relation r2 = GenerateUniform(rng, 4000, 2, 8);
  Relation r3(2);
  for (int i = 0; i < 4000; ++i) {
    r3.AppendRow({1000000 + static_cast<Value>(i), 0});
  }
  EXPECT_TRUE(SetTrieJoin(q, {r1, r2, r3}).empty());
  EXPECT_TRUE(TrieJoin(q, {r1, r2, r3}).empty());
}

// --- Bag semantics and the build path. Each compares against the binary
// evaluator by multiset.

TEST(TrieJoinTest, LeafMultiplicitiesMultiply) {
  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const Relation r = Relation::FromRows({{1, 5}, {1, 5}, {2, 6}});
  const Relation s = Relation::FromRows({{5, 2}, {5, 2}, {5, 2}, {7, 1}});
  const Relation out = TrieJoin(q, {r, s});
  EXPECT_EQ(out.size(), 6);
  for (int64_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.at(i, 0), 1u);
    EXPECT_EQ(out.at(i, 1), 5u);
    EXPECT_EQ(out.at(i, 2), 2u);
  }
  EXPECT_TRUE(MultisetEqual(out, EvalJoinLocal(q, {r, s})));
}

TEST(TrieJoinTest, MultiplicitiesMultiplyAcrossThreeAtoms) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const Relation r = Relation::FromRows({{1, 2}, {1, 2}});
  const Relation s = Relation::FromRows({{2, 3}, {2, 3}, {2, 3}});
  const Relation t = Relation::FromRows({{3, 1}, {3, 1}, {3, 4}});
  const Relation out = TrieJoin(q, {r, s, t});
  EXPECT_EQ(out.size(), 12);
  EXPECT_TRUE(MultisetEqual(out, EvalJoinLocal(q, {r, s, t})));
}

TEST(TrieJoinTest, RepeatedVariablesInCyclicQuery) {
  const ConjunctiveQuery q =
      ParseOrDie("Q(x,y,z) :- R(x,x,y), S(y,z,z), T(z,x)");
  for (uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<Relation> atoms = UniformAtoms(q, seed, 400, 5);
    const Relation expected = EvalJoinLocal(q, atoms);
    EXPECT_FALSE(expected.empty()) << seed;
    EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected)) << seed;
  }
}

TEST(TrieJoinTest, AllColumnsOneVariable) {
  const ConjunctiveQuery q = ParseOrDie("Q(x,y) :- R(x,x,x), S(x,y), T(y,x)");
  const std::vector<Relation> atoms = UniformAtoms(q, 4, 600, 4);
  const Relation expected = EvalJoinLocal(q, atoms);
  EXPECT_FALSE(expected.empty());
  EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected));
}

TEST(TrieJoinTest, ArityThreeAtoms) {
  for (const char* text :
       {"Q(x,y,z,w) :- R(x,y,z), S(y,z,w), T(w,x)",
        "Q(x,y,z,w) :- R(x,y,z), S(z,w,x), T(w,y,x)",
        "Q(a,b,c,d,e) :- R(a,b,c), S(c,d,e), T(e,a,b)"}) {
    const ConjunctiveQuery q = ParseOrDie(text);
    const std::vector<Relation> atoms = UniformAtoms(q, 11, 300, 6);
    const Relation expected = EvalJoinLocal(q, atoms);
    EXPECT_FALSE(expected.empty()) << text;
    EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected)) << text;
  }
}

// Wider domains than the sweep, so several intersection strategies run:
// a node's few children look up a whole root in its index, comparable
// ranges merge, and a variable in three atoms leapfrogs. A hub value in
// the first atom skews one side. A gallop through a child range is
// covered by HeavyParentLargerThanProbedRootKeepsMergeAndGallop.
TEST(TrieJoinTest, GallopMergeAndLeapfrogMatchBinaryPlan) {
  for (const char* text :
       {"Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        "Q(x,y,z,w) :- R(x,y), S(x,z), T(x,w), U(y,z)"}) {
    const ConjunctiveQuery q = ParseOrDie(text);
    std::vector<Relation> atoms = UniformAtoms(q, 18, 3000, 400);
    for (Value v = 0; v < 300; ++v) atoms[0].AppendRow({7, v});
    const Relation expected = EvalJoinLocal(q, atoms);
    EXPECT_FALSE(expected.empty()) << text;
    EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected)) << text;
  }
  // A variable in three atoms whose roots overlap only in part: the
  // leapfrog must skip every value one of them lacks.
  const ConjunctiveQuery q = ParseOrDie("Q(x,y,z) :- R(x,y), S(x,z), T(x)");
  Rng rng(19);
  const std::vector<Relation> atoms = {GenerateUniform(rng, 3000, 2, 400),
                                       GenerateUniform(rng, 3000, 2, 400),
                                       GenerateUniform(rng, 60, 1, 400)};
  const Relation expected = EvalJoinLocal(q, atoms);
  EXPECT_FALSE(expected.empty());
  EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected));
}

TEST(TrieJoinTest, SelfJoinSharesOneHandle) {
  Rng rng(12);
  const Relation edges = GenerateUniform(rng, 500, 2, 20);
  const ConjunctiveQuery triangle = ConjunctiveQuery::Triangle();
  const std::vector<Relation> three = {edges, edges, edges};
  EXPECT_TRUE(
      MultisetEqual(TrieJoin(triangle, three), EvalJoinLocal(triangle, three)));
  const ConjunctiveQuery mutual = ParseOrDie("Q(x,y) :- R(x,y), R(y,x)");
  EXPECT_TRUE(MultisetEqual(TrieJoin(mutual, {edges, edges}),
                            EvalJoinLocal(mutual, {edges, edges})));
}

// A query can have no nullary atom: ConjunctiveQuery rejects one, so the
// kernel never sees an atom without a trie level.
TEST(TrieJoinDeathTest, NullaryAtomIsRejectedBeforeTheKernel) {
  EXPECT_DEATH(ConjunctiveQuery::Make({"x"}, {Atom{"R", {}}, Atom{"S", {0}}}),
               "nullary");
}

// The radix build sorts only the bits that vary. Values at and above
// 2^56 exercise the top byte; values that differ only there make it the
// one digit that decides the order.
TEST(TrieJoinTest, ValuesInTheTopByte) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(13);
  auto top = [](uint64_t high, uint64_t low) {
    return (high << 56) | low;
  };
  std::vector<Relation> atoms;
  std::vector<Relation> top_only;
  for (int j = 0; j < 3; ++j) {
    Relation wide(2);
    Relation narrow(2);
    for (int i = 0; i < 300; ++i) {
      wide.AppendRow({top(1 + rng.Uniform(255), rng.Uniform(4)),
                      top(1 + rng.Uniform(255), rng.Uniform(4))});
      narrow.AppendRow(
          {top(rng.Uniform(6), 0x1234), top(rng.Uniform(6), 0x1234)});
    }
    // A few rows that every atom shares, so the outputs are non-empty.
    wide.AppendRow({top(0xFF, 3), top(0xFF, 3)});
    wide.AppendRow({top(0x80, 1), top(0x80, 1)});
    atoms.push_back(std::move(wide));
    top_only.push_back(std::move(narrow));
  }
  atoms[0].AppendRow({~Value{0}, ~Value{0}});
  atoms[1].AppendRow({~Value{0}, ~Value{0}});
  atoms[2].AppendRow({~Value{0}, ~Value{0}});
  for (const std::vector<Relation>* instance : {&atoms, &top_only}) {
    const Relation expected = EvalJoinLocal(q, *instance);
    EXPECT_FALSE(expected.empty());
    EXPECT_TRUE(MultisetEqual(TrieJoin(q, *instance), expected));
  }
}

// --- Indexed roots. A trie root whose variable binds below depth 0 and
// shares its depth with one other slot is looked up by value whenever it
// is the larger range; otherwise the merge or gallop runs.

// In the 4-cycle (order x, y, z, w) B's root y binds at depth 1 and C's
// root z at depth 2; both are probed from a parent's smaller child range.
TEST(TrieJoinTest, FourCycleProbesRootsAtDepthsOneAndTwo) {
  const ConjunctiveQuery q =
      ParseOrDie("Q(x,y,z,w) :- A(x,y), B(y,z), C(z,w), D(w,x)");
  for (uint64_t seed : {31u, 32u}) {
    const std::vector<Relation> atoms = UniformAtoms(q, seed, 2000, 60);
    EXPECT_FALSE(TrieJoin(q, atoms).empty()) << seed;
    ExpectBagEqualAndOrderFree(q, atoms, "4-cycle " + std::to_string(seed));
  }
}

// S's root holds 40 values of y. R's hub x = 7 has about 1000 children,
// more than 16x the root, so the root's values gallop through them; x = 8
// has about 100, comparable, so the two merge. Every other x has a few
// children, which probe the root's index.
TEST(TrieJoinTest, HeavyParentLargerThanProbedRootKeepsMergeAndGallop) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(33);
  Relation r = GenerateUniform(rng, 400, 2, 200);
  for (Value y = 0; y < 1000; ++y) r.AppendRow({7, y});
  for (Value y = 0; y < 100; ++y) r.AppendRow({8, 3 * y});
  Relation s(2);
  for (int i = 0; i < 400; ++i) {
    s.AppendRow({5 * rng.Uniform(40), rng.Uniform(200)});
  }
  const Relation t = GenerateUniform(rng, 3000, 2, 200);
  const std::vector<Relation> atoms = {r, s, t};
  EXPECT_FALSE(TrieJoin(q, atoms).empty());
  ExpectBagEqualAndOrderFree(q, atoms, "heavy parent");
}

// Probe values that the root lacks, next to 0, UINT64_MAX and values that
// differ only in the top byte, on both sides of the lookup.
TEST(TrieJoinTest, ProbesMissAbsentValuesAndHandleBoundaryValues) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const Value max = ~Value{0};
  const std::vector<Value> present = {
      0,          1,       Value{1} << 32, Value{1} << 56, Value{0x80} << 56,
      Value{0xFF} << 56, max - 1, max};
  std::vector<Value> probed = present;
  for (Value absent : {Value{2}, (Value{1} << 56) + 1, Value{0x7F} << 56,
                       max - 2}) {
    probed.push_back(absent);
  }
  Rng rng(34);
  auto pick = [&](const std::vector<Value>& pool) {
    return pool[rng.Uniform(pool.size())];
  };
  Relation r(2);
  Relation s(2);
  Relation t(2);
  for (int i = 0; i < 24; ++i) r.AppendRow({pick(present), pick(probed)});
  for (int i = 0; i < 300; ++i) s.AppendRow({pick(present), pick(present)});
  for (int i = 0; i < 300; ++i) t.AppendRow({pick(present), pick(present)});
  const std::vector<Relation> atoms = {r, s, t};
  EXPECT_FALSE(TrieJoin(q, atoms).empty());
  ExpectBagEqualAndOrderFree(q, atoms, "boundary values");
}

// S(y,y,z) normalizes to a (y, z) trie whose root y is probed at depth 1
// from R's few children per x; a small domain repeats S's rows, so leaf
// multiplicities multiply.
TEST(TrieJoinTest, RepeatedVariableAtomWithProbedRoot) {
  const ConjunctiveQuery q = ParseOrDie("Q(x,y,z) :- R(x,y), S(y,y,z), T(z,x)");
  for (uint64_t seed : {35u, 36u}) {
    Rng rng(seed);
    const std::vector<Relation> atoms = {GenerateUniform(rng, 40, 2, 12),
                                         GenerateUniform(rng, 3000, 3, 12),
                                         GenerateUniform(rng, 300, 2, 12)};
    EXPECT_FALSE(TrieJoin(q, atoms).empty()) << seed;
    ExpectBagEqualAndOrderFree(q, atoms,
                               "repeated variable " + std::to_string(seed));
  }
}

// A trie node always has a child, so an empty range reaches the probe as
// one whose values all miss the root: here every odd x's children are odd
// y's that S's even root lacks, and in the second instance no y matches.
TEST(TrieJoinTest, ProbedRangesThatMissTheWholeRoot) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(37);
  Relation r(2);
  Relation s(2);
  for (int i = 0; i < 500; ++i) {
    const Value x = rng.Uniform(50);
    const Value y = 2 * rng.Uniform(50) + (x % 2);
    r.AppendRow({x, y});
    s.AppendRow({2 * rng.Uniform(60), rng.Uniform(50)});
  }
  const Relation t = GenerateUniform(rng, 500, 2, 50);
  const std::vector<Relation> atoms = {r, s, t};
  const Relation out = TrieJoin(q, atoms);
  EXPECT_FALSE(out.empty());
  for (int64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.at(i, 0) % 2, 0u);
  ExpectBagEqualAndOrderFree(q, atoms, "odd parents miss");

  Relation odd(2);
  for (int64_t i = 0; i < r.size(); ++i) {
    odd.AppendRow({r.at(i, 0), 2 * r.at(i, 1) + 1});
  }
  const std::vector<Relation> disjoint = {odd, s, t};
  EXPECT_TRUE(TrieJoin(q, disjoint).empty());
  ExpectBagEqualAndOrderFree(q, disjoint, "no y matches");
}

// Rows come out in trie order, a function of the atoms' contents only:
// shuffling every input gives a byte-identical answer.
TEST(TrieJoinTest, OutputIsByteIdenticalUnderInputPermutation) {
  for (const char* text :
       {"Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        "Q(x,y,z) :- R(x,x,y), S(y,z,z), T(z,x)",
        "Q(x,y,z,w) :- A(x,y), B(y,z), C(z,w), D(w,x)"}) {
    const ConjunctiveQuery q = ParseOrDie(text);
    const std::vector<Relation> atoms = UniformAtoms(q, 14, 300, 6);
    const Relation out = TrieJoin(q, atoms);
    EXPECT_FALSE(out.empty()) << text;
    EXPECT_TRUE(out == TrieJoin(q, Shuffled(atoms, 15))) << text;
  }
}

// Build-then-search on the kernel's edge cases: an empty atom, a
// repeated-variable atom, and duplicate rows whose leaves carry a
// multiplicity above 1.
TEST(TrieJoinTest, BuildThenSearchEdgeCases) {
  const ConjunctiveQuery triangle = ConjunctiveQuery::Triangle();
  Rng rng(31);
  const Relation full = GenerateUniform(rng, 60, 2, 6);
  const std::vector<Relation> empty_atom = {full, Relation(2), full};
  EXPECT_TRUE(BuildTrie(triangle, 1, Relation(2)).empty());
  EXPECT_TRUE(BuildThenSearch(triangle, empty_atom).empty());
  EXPECT_TRUE(BuildThenSearch(triangle, empty_atom) ==
              TrieJoin(triangle, empty_atom));

  const ConjunctiveQuery repeated =
      ParseOrDie("Q(x,y,z) :- R(x,x,y), S(y,z,z), T(z,x)");
  const std::vector<Relation> repeated_atoms = {
      GenerateUniform(rng, 400, 3, 4), GenerateUniform(rng, 400, 3, 4),
      GenerateUniform(rng, 400, 2, 4)};
  const Relation repeated_out = BuildThenSearch(repeated, repeated_atoms);
  EXPECT_FALSE(repeated_out.empty());
  EXPECT_TRUE(repeated_out == TrieJoin(repeated, repeated_atoms));

  const ConjunctiveQuery q = ConjunctiveQuery::TwoWayJoin();
  const Relation r = Relation::FromRows({{1, 5}, {1, 5}, {2, 6}});
  const Relation s = Relation::FromRows({{5, 2}, {5, 2}, {5, 2}, {7, 1}});
  const AtomTrie s_trie = BuildTrie(q, 1, s);
  EXPECT_EQ(s_trie.mult, (std::vector<int64_t>{3, 1}));
  const Relation out = BuildThenSearch(q, {r, s});
  EXPECT_EQ(out.size(), 6);
  EXPECT_TRUE(out == TrieJoin(q, {r, s}));
}

// One trie read by many concurrent searches: R's trie is built once and
// every task of a ParallelFor searches it with its own S and T. Each
// result equals a TrieJoin that builds R itself.
TEST(TrieJoinTest, ConcurrentSearchesShareOneTrie) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(37);
  const Relation r = GenerateUniform(rng, 3000, 2, 60);
  const AtomTrie r_trie = BuildTrie(q, 0, r);
  constexpr int kSearches = 16;
  std::vector<std::vector<Relation>> atoms(kSearches);
  for (std::vector<Relation>& server : atoms) {
    server = {r, GenerateUniform(rng, 1500, 2, 60),
              GenerateUniform(rng, 1500, 2, 60)};
  }
  std::vector<Relation> shared(kSearches);
  ThreadPool pool(4);
  pool.ParallelFor(kSearches, [&](int64_t i) {
    const AtomTrie s_trie = BuildTrie(q, 1, atoms[i][1]);
    const AtomTrie t_trie = BuildTrie(q, 2, atoms[i][2]);
    shared[i] = SearchTries(q, {&r_trie, &s_trie, &t_trie});
  });
  for (int i = 0; i < kSearches; ++i) {
    EXPECT_FALSE(shared[i].empty()) << i;
    EXPECT_TRUE(shared[i] == TrieJoin(q, atoms[i])) << i;
  }
}

// In the triangle's order x, y, z only S's root (y, bound at depth 1 and
// held by R and S) is re-probed, so only S's trie carries a root index;
// concurrent searches that share S's trie all read that one index.
TEST(TrieJoinTest, ConcurrentSearchesShareOneRootIndex) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(41);
  const Relation s = GenerateUniform(rng, 3000, 2, 60);
  const AtomTrie s_trie = BuildTrie(q, 1, s);
  ASSERT_TRUE(s_trie.root_index.has_value());
  EXPECT_EQ(s_trie.root_index->num_keys(),
            static_cast<int64_t>(s_trie.vals[0].size()));
  constexpr int kSearches = 16;
  std::vector<std::vector<Relation>> atoms(kSearches);
  for (std::vector<Relation>& server : atoms) {
    server = {GenerateUniform(rng, 1500, 2, 60), s,
              GenerateUniform(rng, 1500, 2, 60)};
  }
  std::vector<Relation> shared(kSearches);
  ThreadPool pool(4);
  pool.ParallelFor(kSearches, [&](int64_t i) {
    const AtomTrie r_trie = BuildTrie(q, 0, atoms[i][0]);
    const AtomTrie t_trie = BuildTrie(q, 2, atoms[i][2]);
    EXPECT_FALSE(r_trie.root_index.has_value());
    EXPECT_FALSE(t_trie.root_index.has_value());
    shared[i] = SearchTries(q, {&r_trie, &s_trie, &t_trie});
  });
  for (int i = 0; i < kSearches; ++i) {
    EXPECT_FALSE(shared[i].empty()) << i;
    EXPECT_TRUE(shared[i] == TrieJoin(q, atoms[i])) << i;
  }
}

// --- Output goldens over HyperCube-routed fragments. Each instance routes
// its atoms to a grid the way a HyperCube round does, runs TrieJoin on every
// server and folds each server's output (row count, then its bytes) into
// one FNV-1a checksum, in server order. A kernel change that keeps every
// server's output bytes passes them unregenerated.

// Routes `atoms` to a grid with `shares[v]` coordinates for variable v:
// v's coordinate is SplitMix64(value + v) mod shares[v], and a row goes to
// every server whose coordinates agree on the atom's variables. Server ids
// are mixed-radix in variable order. Atoms must not repeat a variable.
std::vector<std::vector<Relation>> RouteToGrid(
    const ConjunctiveQuery& q, const std::vector<Relation>& atoms,
    const std::vector<int>& shares) {
  int p = 1;
  for (int s : shares) p *= s;
  std::vector<std::vector<Relation>> servers(p);
  for (int s = 0; s < p; ++s) {
    for (const Relation& atom : atoms) servers[s].emplace_back(atom.arity());
  }
  std::vector<int> coord(shares.size());
  for (int j = 0; j < q.num_atoms(); ++j) {
    const std::vector<int>& vars = q.atom(j).vars;
    for (int64_t r = 0; r < atoms[j].size(); ++r) {
      for (int s = 0; s < p; ++s) {
        int rest = s;
        for (size_t v = 0; v < shares.size(); ++v) {
          coord[v] = rest % shares[v];
          rest /= shares[v];
        }
        bool match = true;
        for (size_t c = 0; c < vars.size() && match; ++c) {
          const int v = vars[c];
          match = static_cast<int>(SplitMix64(atoms[j].at(r, c) + v) %
                                   shares[v]) == coord[v];
        }
        if (match) servers[s][j].AppendRowFrom(atoms[j], r);
      }
    }
  }
  return servers;
}

struct OutputGolden {
  int64_t rows;
  uint64_t checksum;
};

OutputGolden TrieJoinPerServer(
    const ConjunctiveQuery& q,
    const std::vector<std::vector<Relation>>& servers) {
  OutputGolden golden{0, 0xcbf29ce484222325ULL};
  auto fold = [&](const void* data, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      golden.checksum = (golden.checksum ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (const std::vector<Relation>& atoms : servers) {
    const Relation out = TrieJoin(q, atoms);
    const int64_t rows = out.size();
    golden.rows += rows;
    fold(&rows, sizeof(rows));
    fold(out.data().data(), out.data().size() * sizeof(Value));
  }
  return golden;
}

void ExpectGolden(const char* name, const OutputGolden& actual,
                  const OutputGolden& expected) {
  EXPECT_EQ(actual.rows, expected.rows) << name;
  EXPECT_EQ(actual.checksum, expected.checksum) << name;
  if (actual.rows != expected.rows || actual.checksum != expected.checksum) {
    std::fprintf(stderr, "%s: {%" PRId64 ", 0x%016" PRIx64 "ULL}\n", name,
                 actual.rows, actual.checksum);
  }
}

// The perfbench triangle_cold instance: 3 x 60K uniform rows over a 3K
// domain on a 4x4x4 grid (p = 64).
TEST(TrieJoinGoldenTest, UniformTriangleFragments) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const std::vector<Relation> atoms = UniformAtoms(q, 1, 60'000, 3'000);
  ExpectGolden("uniform triangle",
               TrieJoinPerServer(q, RouteToGrid(q, atoms, {4, 4, 4})),
               {7913, 0xde98b2507793b104ULL});
}

// The same shape with each atom's first column Zipf(1.1): a few hub values
// make lopsided child ranges on the servers they hash to.
TEST(TrieJoinGoldenTest, ZipfTriangleFragments) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(2);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateZipf(rng, 60'000, 2, 3'000, 0, 1.1));
  }
  ExpectGolden("zipf triangle",
               TrieJoinPerServer(q, RouteToGrid(q, atoms, {4, 4, 4})),
               {8621, 0xfaefe384f63b0f1cULL});
}

// A 4-cycle, whose trie roots for y and z bind below the first depth.
TEST(TrieJoinGoldenTest, FourCycleFragments) {
  const ConjunctiveQuery q =
      ParseOrDie("Q(x,y,z,w) :- A(x,y), B(y,z), C(z,w), D(w,x)");
  const std::vector<Relation> atoms = UniformAtoms(q, 3, 20'000, 1'000);
  ExpectGolden("four-cycle",
               TrieJoinPerServer(q, RouteToGrid(q, atoms, {4, 2, 4, 2})),
               {159762, 0x9e90710fcd4bb574ULL});
}

// LocalJoin picks the kernel by IsAcyclic: the trie join (byte-identical
// output) for cyclic queries, the binary evaluator for acyclic ones.
TEST(LocalJoinTest, CyclicQueriesRunTheTrieJoin) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  const std::vector<Relation> atoms = UniformAtoms(q, 16, 300, 12);
  const Relation out = LocalJoin(q, atoms);
  EXPECT_TRUE(out == TrieJoin(q, atoms));
  EXPECT_TRUE(MultisetEqual(out, EvalJoinLocal(q, atoms)));
}

TEST(LocalJoinTest, AcyclicQueriesRunTheBinaryPlan) {
  for (const ConjunctiveQuery& q :
       {ConjunctiveQuery::Path(3), ConjunctiveQuery::Star(3)}) {
    const std::vector<Relation> atoms = UniformAtoms(q, 17, 200, 12);
    EXPECT_TRUE(LocalJoin(q, atoms) == EvalJoinLocal(q, atoms))
        << q.ToString();
  }
}

}  // namespace
}  // namespace mpcqp
