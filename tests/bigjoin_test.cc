#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "mpc/cluster.h"
#include "multiway/bigjoin.h"
#include "query/trie_join.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

// Set-semantics reference: the trie join over deduplicated inputs.
Relation Reference(const ConjunctiveQuery& q,
                   const std::vector<Relation>& atoms) {
  std::vector<Relation> deduped;
  for (const Relation& r : atoms) deduped.push_back(Dedup(r));
  return Dedup(TrieJoin(q, deduped));
}

struct BigJoinCase {
  const char* query;
  int64_t rows;
  uint64_t domain;
};

// Names the case by its fields, so test names stay stable across builds.
void PrintTo(const BigJoinCase& c, std::ostream* os) {
  *os << c.query << " rows=" << c.rows << " domain=" << c.domain;
}

class BigJoinTest
    : public ::testing::TestWithParam<std::tuple<BigJoinCase, int>> {};

TEST_P(BigJoinTest, MatchesWcojReference) {
  const auto [spec, p] = GetParam();
  const auto q = ConjunctiveQuery::Parse(spec.query);
  ASSERT_TRUE(q.ok());
  Rng rng(21);
  std::vector<Relation> atoms;
  for (int j = 0; j < q->num_atoms(); ++j) {
    atoms.push_back(
        GenerateUniform(rng, spec.rows, q->atom(j).arity(), spec.domain));
  }
  Cluster cluster(p, 5);
  const BigJoinResult result = BigJoin(cluster, *q, Scatter(atoms, p));
  EXPECT_TRUE(
      MultisetEqual(result.output.Collect(), Reference(*q, atoms)));
  EXPECT_GT(result.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BigJoinTest,
    ::testing::Combine(
        ::testing::Values(
            BigJoinCase{"R(x,y), S(y,z), T(z,x)", 200, 15},
            BigJoinCase{"R(x,y), S(y,z)", 180, 12},
            BigJoinCase{"R(x), S(y)", 25, 40},
            BigJoinCase{"A(x,y), B(y,z), C(z,w), D(w,x)", 100, 8},
            BigJoinCase{"R(x0,x1), S(x0,x2), T(x0,x3)", 100, 6}),
        ::testing::Values(1, 4, 16)));

TEST(BigJoinTest, SkewedTriangleStillCorrect) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(22);
  std::vector<Relation> atoms = {
      GenerateUniform(rng, 500, 2, 100),
      GenerateZipf(rng, 500, 2, 100, 1, 1.5),
      GenerateZipf(rng, 500, 2, 100, 0, 1.5),
  };
  Cluster cluster(16, 5);
  const BigJoinResult result = BigJoin(cluster, q, Scatter(atoms, 16));
  EXPECT_TRUE(MultisetEqual(result.output.Collect(), Reference(q, atoms)));
}

TEST(BigJoinTest, CustomVariableOrder) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(23);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 250, 2, 14));
  }
  BigJoinOptions options;
  options.var_order = {2, 0, 1};
  Cluster cluster(8, 5);
  const BigJoinResult result =
      BigJoin(cluster, q, Scatter(atoms, 8), options);
  EXPECT_TRUE(MultisetEqual(result.output.Collect(), Reference(q, atoms)));
}

TEST(BigJoinTest, EmptyAtomGivesEmptyOutput) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(24);
  const Relation full = GenerateUniform(rng, 60, 2, 6);
  Cluster cluster(8, 5);
  const BigJoinResult result = BigJoin(
      cluster, q, Scatter({full, Relation(2), full}, 8));
  EXPECT_TRUE(result.output.Collect().empty());
}

TEST(BigJoinTest, RoundsScaleWithVarsNotData) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(25);
  std::vector<Relation> small_atoms;
  std::vector<Relation> big_atoms;
  for (int j = 0; j < 3; ++j) {
    small_atoms.push_back(GenerateUniform(rng, 100, 2, 10));
    big_atoms.push_back(GenerateUniform(rng, 2000, 2, 60));
  }
  Cluster c1(8, 5);
  const int small_rounds = BigJoin(c1, q, Scatter(small_atoms, 8)).rounds;
  Cluster c2(8, 5);
  const int big_rounds = BigJoin(c2, q, Scatter(big_atoms, 8)).rounds;
  EXPECT_EQ(small_rounds, big_rounds);
}

}  // namespace
}  // namespace mpcqp
