// Randomized differential testing: random connected conjunctive queries
// (cyclic or not), random data, every parallel algorithm in the library
// cross-checked against the serial evaluator. The single most effective
// guard against silent wrong-result bugs in the exchange/partitioning
// machinery.

#include <gtest/gtest.h>

#include <cstdlib>

#include "join/semi_join.h"
#include "join/skew_join.h"
#include "join/sort_join.h"
#include "acyclic/gym.h"
#include "mpc/cluster.h"
#include "multiway/bigjoin.h"
#include "multiway/binary_plan.h"
#include "multiway/hypercube.h"
#include "multiway/skew_hc.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/ghd.h"
#include "query/local_eval.h"
#include "query/trie_join.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// Trial budget: setting MPCQP_HEAVY_TESTS=1 (or any non-zero value) in the
// environment multiplies the random-seed range for soak runs; the default
// keeps the suite fast enough for every CI invocation.
uint64_t TrialSeedEnd() {
  const char* heavy = std::getenv("MPCQP_HEAVY_TESTS");
  const bool on = heavy != nullptr && heavy[0] != '\0' &&
                  !(heavy[0] == '0' && heavy[1] == '\0');
  return on ? 121 : 25;
}

ConjunctiveQuery RandomConnectedQuery(Rng& rng) {
  const int num_atoms = 2 + static_cast<int>(rng.Uniform(3));  // 2..4.
  std::vector<std::string> names;
  std::vector<Atom> atoms;
  auto fresh_var = [&]() {
    const int v = static_cast<int>(names.size());
    names.push_back("v" + std::to_string(v));
    return v;
  };
  for (int a = 0; a < num_atoms; ++a) {
    Atom atom;
    atom.name = "A" + std::to_string(a);
    const int arity = 1 + static_cast<int>(rng.Uniform(3));  // 1..3.
    for (int c = 0; c < arity; ++c) {
      // Mostly reuse existing variables (keeps the query connected and
      // occasionally cyclic); sometimes mint a fresh one.
      if (!names.empty() && rng.Uniform(3) != 0) {
        atom.vars.push_back(static_cast<int>(rng.Uniform(names.size())));
      } else {
        atom.vars.push_back(fresh_var());
      }
    }
    atoms.push_back(std::move(atom));
  }
  // Make sure every variable appears (fresh vars always do; reused too).
  return ConjunctiveQuery::Make(names, atoms);
}

std::vector<DistRelation> Scatter(const std::vector<Relation>& atoms, int p) {
  std::vector<DistRelation> out;
  for (const Relation& r : atoms) out.push_back(DistRelation::Scatter(r, p));
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllAlgorithmsAgreeWithSerialReference) {
  Rng shape_rng(GetParam());
  const ConjunctiveQuery q = RandomConnectedQuery(shape_rng);
  SCOPED_TRACE(q.ToString());

  Rng data_rng(GetParam() + 5000);
  std::vector<Relation> atoms;
  for (int j = 0; j < q.num_atoms(); ++j) {
    const int64_t rows = 40 + static_cast<int64_t>(data_rng.Uniform(80));
    atoms.push_back(GenerateUniform(data_rng, rows, q.atom(j).arity(), 25));
  }
  const Relation expected = EvalJoinLocal(q, atoms);
  // Guard against pathological blowups keeping the test fast.
  if (expected.size() > 2000000) GTEST_SKIP() << "output too large";

  // The serial kernels: the trie join on every query, and the per-server
  // selector (trie join when cyclic, the binary plan when acyclic).
  EXPECT_TRUE(MultisetEqual(TrieJoin(q, atoms), expected)) << "trie join";
  EXPECT_TRUE(MultisetEqual(LocalJoin(q, atoms), expected)) << "local join";

  for (const int p : {4, 9}) {
    // Odd seeds run the cluster with two OS threads, so this suite also
    // differentially tests the parallel executor against the reference.
    ClusterOptions cluster_options;
    cluster_options.num_threads = (GetParam() % 2 == 1) ? 2 : 1;
    {
      Cluster cluster(p, 5, cluster_options);
      const HyperCubeResult result =
          HyperCubeJoin(cluster, q, Scatter(atoms, p));
      EXPECT_TRUE(MultisetEqual(result.output.Collect(), expected))
          << "hypercube p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      const SkewHcResult result = SkewHcJoin(cluster, q, Scatter(atoms, p));
      EXPECT_TRUE(MultisetEqual(result.output.Collect(), expected))
          << "skew-hc p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      Rng rng(GetParam() + 7000);
      const BinaryPlanResult result =
          IterativeBinaryJoin(cluster, q, Scatter(atoms, p), rng);
      EXPECT_TRUE(MultisetEqual(result.output.Collect(), expected))
          << "binary p=" << p;
    }
    if (IsAcyclic(q)) {
      const StatusOr<Ghd> ghd = BuildJoinTree(q);
      ASSERT_TRUE(ghd.ok()) << ghd.status();
      for (const bool optimized : {false, true}) {
        Cluster cluster(p, 5, cluster_options);
        Rng rng(GetParam() + 8000);
        GymOptions options;
        options.optimized = optimized;
        const GymResult result =
            GymJoin(cluster, q, *ghd, Scatter(atoms, p), rng, options);
        EXPECT_TRUE(MultisetEqual(result.output.Collect(), expected))
            << (optimized ? "gym-optimized" : "gym") << " p=" << p;
      }
    }
  }

  // Set-semantics family on deduplicated inputs.
  std::vector<Relation> deduped;
  for (const Relation& r : atoms) deduped.push_back(Dedup(r));
  const Relation set_expected = Dedup(EvalJoinLocal(q, deduped));
  EXPECT_TRUE(MultisetEqual(Dedup(TrieJoin(q, deduped)), set_expected))
      << "trie join, set semantics";
  {
    Cluster cluster(9, 5);
    const BigJoinResult result = BigJoin(cluster, q, Scatter(deduped, 9));
    EXPECT_TRUE(MultisetEqual(result.output.Collect(), set_expected))
        << "bigjoin";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(uint64_t{1}, TrialSeedEnd()));

// Two-way join paths the conjunctive-query drivers do not reach directly:
// the sort-merge local algorithm, the PSRS-based sort join, the
// skew-aware join, and the semijoin/antijoin family, all cross-checked
// against the serial local reference on random (sometimes skewed) data.
class TwoWayDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoWayDifferentialTest, JoinAndSemijoinPathsAgreeWithLocalReference) {
  Rng rng(GetParam() * 977 + 3);
  const int left_arity = 2 + static_cast<int>(rng.Uniform(2));   // 2..3.
  const int right_arity = 2 + static_cast<int>(rng.Uniform(2));  // 2..3.
  const int left_key = static_cast<int>(rng.Uniform(left_arity));
  const int right_key = static_cast<int>(rng.Uniform(right_arity));
  const int64_t rows = 60 + static_cast<int64_t>(rng.Uniform(120));
  // Every third seed uses Zipf-skewed keys to drive the heavy-hitter and
  // crossing-key machinery; the rest stay uniform.
  const bool skewed = GetParam() % 3 == 0;
  const Relation left =
      skewed ? GenerateZipf(rng, rows, left_arity, 30, left_key, 1.3)
             : GenerateUniform(rng, rows, left_arity, 30);
  const Relation right =
      skewed ? GenerateZipf(rng, rows, right_arity, 30, right_key, 1.3)
             : GenerateUniform(rng, rows, right_arity, 30);

  const Relation expected =
      HashJoinLocal(left, right, {left_key}, {right_key});
  const Relation expected_semi =
      SemijoinLocal(left, right, {left_key}, {right_key});
  const Relation expected_anti =
      AntijoinLocal(left, right, {left_key}, {right_key});

  for (const int p : {4, 8}) {
    ClusterOptions cluster_options;
    cluster_options.num_threads = (GetParam() % 2 == 1) ? 2 : 1;
    const DistRelation dl = DistRelation::Scatter(left, p);
    const DistRelation dr = DistRelation::Scatter(right, p);
    {
      Cluster cluster(p, 5, cluster_options);
      Rng join_rng(GetParam() + 11000);
      const DistRelation result = ParallelSortJoin(
          cluster, dl, dr, left_key, right_key, join_rng);
      EXPECT_TRUE(MultisetEqual(result.Collect(), expected))
          << "sort join p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      Rng join_rng(GetParam() + 13000);
      const DistRelation result = SkewAwareJoin(
          cluster, dl, dr, left_key, right_key, join_rng);
      EXPECT_TRUE(MultisetEqual(result.Collect(), expected))
          << "skew-aware join p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      const DistRelation result = DistributedSemijoin(
          cluster, dl, dr, {left_key}, {right_key});
      EXPECT_TRUE(MultisetEqual(result.Collect(), expected_semi))
          << "semijoin p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      const DistRelation result = BroadcastSemijoin(
          cluster, dl, dr, {left_key}, {right_key});
      EXPECT_TRUE(MultisetEqual(result.Collect(), expected_semi))
          << "broadcast semijoin p=" << p;
    }
    {
      Cluster cluster(p, 5, cluster_options);
      const DistRelation result = DistributedAntijoin(
          cluster, dl, dr, {left_key}, {right_key});
      EXPECT_TRUE(MultisetEqual(result.Collect(), expected_anti))
          << "antijoin p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoWayDifferentialTest,
                         ::testing::Range(uint64_t{1}, TrialSeedEnd()));

// Planner differential: the planner-picked executable plan vs every
// feasible static driver on the same inputs, across {1, 2, 8} worker
// threads. Inputs are deduplicated, which makes the join output
// duplicate-free, so bag- and set-semantics drivers (including BigJoin)
// are all comparable by multiset equality: the planner must never change
// results, only schedules.
uint64_t PlannerTrialSeedEnd() {
  const char* heavy = std::getenv("MPCQP_HEAVY_TESTS");
  const bool on = heavy != nullptr && heavy[0] != '\0' &&
                  !(heavy[0] == '0' && heavy[1] == '\0');
  return on ? 61 : 13;
}

class PlannerDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerDifferentialTest, PlannedPlanAgreesWithEveryStaticDriver) {
  Rng shape_rng(GetParam() * 131 + 17);
  const ConjunctiveQuery q = RandomConnectedQuery(shape_rng);
  SCOPED_TRACE(q.ToString());

  Rng data_rng(GetParam() + 9000);
  std::vector<Relation> atoms;
  for (int j = 0; j < q.num_atoms(); ++j) {
    const int64_t rows = 40 + static_cast<int64_t>(data_rng.Uniform(80));
    atoms.push_back(
        Dedup(GenerateUniform(data_rng, rows, q.atom(j).arity(), 25)));
  }
  const Relation expected = EvalJoinLocal(q, atoms);
  if (expected.size() > 200000) GTEST_SKIP() << "output too large";

  const int p = 8;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ClusterOptions cluster_options;
    cluster_options.num_threads = threads;

    PlanCache cache;
    Cluster cluster(p, 5, cluster_options);
    Rng rng(GetParam() + 7000);
    const PlannedQuery planned =
        PlanQuery(q, Scatter(atoms, p), p, PlannerOptions{}, &cache);
    const DistRelation out =
        ExecutePlannedQuery(cluster, q, Scatter(atoms, p), planned, rng);
    EXPECT_TRUE(MultisetEqual(out.Collect(), expected))
        << "planner chose " << PlanAlgorithmName(planned.plan.family);

    // Every feasible static driver agrees on the same inputs.
    {
      Cluster c2(p, 5, cluster_options);
      EXPECT_TRUE(MultisetEqual(
          HyperCubeJoin(c2, q, Scatter(atoms, p)).output.Collect(), expected))
          << "hypercube";
    }
    {
      Cluster c2(p, 5, cluster_options);
      EXPECT_TRUE(MultisetEqual(
          SkewHcJoin(c2, q, Scatter(atoms, p)).output.Collect(), expected))
          << "skew-hc";
    }
    {
      Cluster c2(p, 5, cluster_options);
      Rng r2(GetParam() + 7000);
      EXPECT_TRUE(MultisetEqual(
          IterativeBinaryJoin(c2, q, Scatter(atoms, p), r2).output.Collect(),
          expected))
          << "binary (identity order)";
    }
    {
      Cluster c2(p, 5, cluster_options);
      EXPECT_TRUE(MultisetEqual(
          BigJoin(c2, q, Scatter(atoms, p)).output.Collect(), expected))
          << "bigjoin";
    }
    if (IsAcyclic(q)) {
      const auto tree = BuildJoinTree(q);
      ASSERT_TRUE(tree.ok());
      Cluster c2(p, 5, cluster_options);
      Rng r2(GetParam() + 7000);
      EXPECT_TRUE(MultisetEqual(
          GymJoin(c2, q, *tree, Scatter(atoms, p), r2).output.Collect(),
          expected))
          << "gym";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Range(uint64_t{1}, PlannerTrialSeedEnd()));

}  // namespace
}  // namespace mpcqp
