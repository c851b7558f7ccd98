// Golden CostReport regression: one representative run of each algorithm
// family, with every round's metered per-server loads pinned to in-source
// goldens. The data plane is free to change how bytes move (copy-on-write
// payloads, two-phase routing, shared broadcast buffers) but never what is
// metered — any refactor that silently changes a round label, a per-server
// tuple/value count, or the round structure fails here loudly.
//
// Regenerating: run with MPCQP_REGEN_GOLDENS=1 in the environment; each
// test prints a paste-ready C++ initializer for its golden table and
// fails (so regen runs are never mistaken for green runs).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "acyclic/gym.h"
#include "agg/aggregate.h"
#include "join/hash_join.h"
#include "join/skew_join.h"
#include "matmul/block_mm.h"
#include "matmul/matrix.h"
#include "mpc/cluster.h"
#include "mpc/cost.h"
#include "mpc/dist_relation.h"
#include "mpc/stats.h"
#include "multiway/binary_plan.h"
#include "multiway/hypercube.h"
#include "multiway/triangle_hl.h"
#include "query/ghd.h"
#include "query/query.h"
#include "sort/multi_round_sort.h"
#include "sort/psrs.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// One round's golden: the label plus aggregate loads for quick diagnosis
// and an FNV-1a checksum over all four per-server vectors for exactness.
struct GoldenRound {
  const char* label;
  int64_t max_tuples_received;
  int64_t total_tuples_received;
  uint64_t checksum;
};

uint64_t Fnv1a(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v);
  return h * 0x100000001b3ULL;
}

uint64_t RoundChecksum(const RoundCost& round) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto* vec :
       {&round.tuples_received, &round.values_received, &round.tuples_sent,
        &round.values_sent}) {
    for (int64_t v : *vec) h = Fnv1a(h, v);
  }
  return h;
}

void PrintActual(const std::string& name, const CostReport& report) {
  std::fprintf(stderr, "const GoldenRound k%s[] = {\n", name.c_str());
  for (const RoundCost& round : report.rounds()) {
    std::fprintf(stderr, "    {\"%s\", %" PRId64 ", %" PRId64
                         ", 0x%016" PRIx64 "ULL},\n",
                 round.label.c_str(), round.MaxTuplesReceived(),
                 round.TotalTuplesReceived(), RoundChecksum(round));
  }
  std::fprintf(stderr, "};\n");
}

template <size_t N>
void ExpectMatchesGolden(const std::string& name, const CostReport& report,
                         const GoldenRound (&golden)[N]) {
  if (std::getenv("MPCQP_REGEN_GOLDENS") != nullptr) {
    PrintActual(name, report);
    FAIL() << "MPCQP_REGEN_GOLDENS set: printed actuals, not comparing";
  }
  ASSERT_EQ(report.num_rounds(), static_cast<int>(N)) << name;
  for (size_t r = 0; r < N; ++r) {
    const RoundCost& round = report.rounds()[r];
    EXPECT_EQ(round.label, golden[r].label) << name << " round " << r;
    EXPECT_EQ(round.MaxTuplesReceived(), golden[r].max_tuples_received)
        << name << " round " << r << " (" << round.label << ")";
    EXPECT_EQ(round.TotalTuplesReceived(), golden[r].total_tuples_received)
        << name << " round " << r << " (" << round.label << ")";
    EXPECT_EQ(RoundChecksum(round), golden[r].checksum)
        << name << " round " << r << " (" << round.label << ")";
  }
  if (::testing::Test::HasFailure()) PrintActual(name, report);
}

constexpr int kServers = 8;
constexpr uint64_t kSeed = 42;

// ---------- Parallel hash join ----------

const GoldenRound kHashJoin[] = {
    {"parallel hash join: shuffle", 495, 1200, 0xb064fa0cc129e675ULL},
};

TEST(CostGoldenTest, HashJoin) {
  Rng rng(7);
  const Relation left = GenerateZipf(rng, 600, 2, 40, 0, 1.2);
  const Relation right = GenerateZipf(rng, 600, 2, 40, 0, 1.2);
  Cluster cluster(kServers, kSeed);
  ParallelHashJoin(cluster, DistRelation::Scatter(left, kServers),
                   DistRelation::Scatter(right, kServers), {0}, {0});
  ExpectMatchesGolden("HashJoin", cluster.cost_report(), kHashJoin);
}

// ---------- Skew-aware join ----------

const GoldenRound kSkewJoin[] = {
    {"skew-aware join: shuffle", 358, 1943, 0x388e686a85a617d9ULL},
};

TEST(CostGoldenTest, SkewJoin) {
  Rng data_rng(7);
  const Relation left = GenerateZipf(data_rng, 600, 2, 40, 0, 1.2);
  const Relation right = GenerateZipf(data_rng, 600, 2, 40, 0, 1.2);
  Cluster cluster(kServers, kSeed);
  Rng rng(11);
  SkewAwareJoin(cluster, DistRelation::Scatter(left, kServers),
                DistRelation::Scatter(right, kServers), 0, 0, rng);
  ExpectMatchesGolden("SkewJoin", cluster.cost_report(), kSkewJoin);
}

// ---------- HyperCube triangle ----------

const GoldenRound kHyperCubeTriangle[] = {
    {"hypercube: multicast", 431, 3000, 0xc22b198caf9028c1ULL},
};

TEST(CostGoldenTest, HyperCubeTriangle) {
  Rng rng(23);
  const Relation edges = GenerateRandomGraph(rng, 60, 500);
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z"}, {{"R", {0, 1}}, {"S", {1, 2}}, {"T", {2, 0}}});
  Cluster cluster(kServers, kSeed);
  std::vector<DistRelation> atoms(3, DistRelation::Scatter(edges, kServers));
  HyperCubeJoin(cluster, q, atoms);
  ExpectMatchesGolden("HyperCubeTriangle", cluster.cost_report(),
                      kHyperCubeTriangle);
}

// ---------- GYM on a path query ----------

const GoldenRound kGym[] = {
    {"gym: upward semijoin", 66, 300, 0x4aebeb0d4d26bebbULL},
    {"gym: upward semijoin", 54, 300, 0x5527dc826924ff73ULL},
    {"gym: upward semijoin", 85, 300, 0xf7786fafa0e3a099ULL},
    {"gym: downward semijoin", 66, 300, 0x3b23d93fb2fa6fc3ULL},
    {"gym: downward semijoin", 93, 300, 0xbe0e6cbf5595ab0fULL},
    {"gym: downward semijoin", 78, 300, 0x43e5f73abd6d8783ULL},
    {"gym: join step", 88, 300, 0x920b6c9e37742bc3ULL},
    {"gym: join step", 316, 1369, 0xeb8e18f55f7f7bc1ULL},
    {"gym: join step", 2691, 10356, 0x5a252682c99c5f9bULL},
};

TEST(CostGoldenTest, Gym) {
  const ConjunctiveQuery q = ConjunctiveQuery::Path(4);
  Rng data_rng(21);
  Rng rng(22);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(DistRelation::Scatter(
        GenerateUniform(data_rng, 150, 2, 18), kServers));
  }
  Cluster cluster(kServers, kSeed);
  GymJoin(cluster, q, ChainGhd(q), atoms, rng);
  ExpectMatchesGolden("Gym", cluster.cost_report(), kGym);
}

// ---------- PSRS ----------

const GoldenRound kPsrs[] = {
    {"psrs: sample broadcast", 56, 448, 0x25742bb6200495a5ULL},
    {"psrs: range partition", 141, 800, 0xa2e7e15395d40645ULL},
};

TEST(CostGoldenTest, Psrs) {
  Rng rng(31);
  const Relation input = GenerateUniform(rng, 800, 2, 1000);
  Cluster cluster(kServers, kSeed);
  PsrsOptions options;
  options.key_cols = {0, 1};
  PsrsSort(cluster, DistRelation::Scatter(input, kServers), options);
  ExpectMatchesGolden("Psrs", cluster.cost_report(), kPsrs);
}

// ---------- Multi-round distribution sort ----------

const GoldenRound kMultiRoundSort[] = {
    {"multi-round sort: split level 1", 246, 1824, 0x0200f3f86c4e9cfdULL},
    {"multi-round sort: split level 2", 190, 1312, 0x813e7da5722d0625ULL},
    {"multi-round sort: split level 3", 188, 1056, 0x735f75de1913405bULL},
};

TEST(CostGoldenTest, MultiRoundSort) {
  Rng rng(31);
  const Relation input = GenerateUniform(rng, 800, 2, 1000);
  Cluster cluster(kServers, kSeed);
  Rng sort_rng(33);
  MultiRoundSort(cluster, DistRelation::Scatter(input, kServers), /*col=*/0,
                 /*fan_out=*/2, sort_rng);
  ExpectMatchesGolden("MultiRoundSort", cluster.cost_report(),
                      kMultiRoundSort);
}

// ---------- Distributed heavy-hitter detection ----------

const GoldenRound kHeavyHitters[] = {
    {"stats: count shuffle", 61, 330, 0x100c29561e7a02e9ULL},
    {"stats: hitter broadcast", 10, 80, 0x5d0a0abd294599e5ULL},
};

TEST(CostGoldenTest, DistributedHeavyHitters) {
  Rng rng(7);
  const Relation input = GenerateZipf(rng, 2000, 2, 60, 0, 1.3);
  Cluster cluster(kServers, kSeed);
  DetectHeavyHittersDistributed(cluster,
                                DistRelation::Scatter(input, kServers),
                                /*col=*/0, /*threshold=*/40);
  ExpectMatchesGolden("HeavyHitters", cluster.cost_report(), kHeavyHitters);
}

// ---------- Optimized GYM on a star query (intersect path) ----------

const GoldenRound kGymStarOptimized[] = {
    {"gym: upward semijoin level", 288, 1200, 0xbbfdc9ac20c58935ULL},
    {"gym: upward semijoin intersect", 87, 600, 0xf6311042248c0221ULL},
    {"gym: downward semijoin level", 254, 1200, 0xa1baeeaf845d4489ULL},
    {"skew-hc: multicast residual classes", 281, 800, 0x0d665ea38711ad11ULL},
};

TEST(CostGoldenTest, GymStarOptimized) {
  const ConjunctiveQuery q = ConjunctiveQuery::Star(4);
  Rng data_rng(25);
  Rng rng(26);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(DistRelation::Scatter(
        GenerateUniform(data_rng, 200, 2, 12), kServers));
  }
  Cluster cluster(kServers, kSeed);
  GymOptions options;
  options.optimized = true;
  GymJoin(cluster, q, StarGhd(q), atoms, rng, options);
  ExpectMatchesGolden("GymStarOptimized", cluster.cost_report(),
                      kGymStarOptimized);
}

// ---------- GYM with a two-variable parent/child key ----------

// R(x,y) and S(y,x,z) share the key (x,y), so the co-partition hashes two
// columns in bag order. S's distinct variables are not ascending and T
// repeats w, so bag materialization filters and reorders its atoms.
const GoldenRound kGymTwoVariableKey[] = {
    {"gym: upward semijoin", 71, 262, 0xd8e7bcb1d617f64bULL},
    {"gym: upward semijoin", 53, 325, 0xc968bbdc88c225ebULL},
    {"gym: downward semijoin", 49, 306, 0x7b1e76c498d74f41ULL},
    {"gym: downward semijoin", 69, 178, 0x1bc52e0cd2e543f7ULL},
    {"gym: join step", 89, 178, 0xf779d377b6f68907ULL},
    {"gym: join step", 312, 1687, 0x8d6b566779250361ULL},
};

const GoldenRound kGymTwoVariableKeyOptimized[] = {
    {"gym: upward semijoin level", 71, 262, 0x77cc1a57edb31e5fULL},
    {"gym: upward semijoin level", 53, 325, 0x610d5187e6f54055ULL},
    {"gym: downward semijoin level", 49, 306, 0x7b1e76c498d74f41ULL},
    {"gym: downward semijoin level", 69, 178, 0x1bc52e0cd2e543f7ULL},
    {"skew-hc: multicast residual classes", 156, 726, 0x6be250b712b250c7ULL},
};

void RunGymTwoVariableKey(bool optimized, CostReport* report) {
  const auto q = ConjunctiveQuery::Parse("R(x,y), S(y,x,z), T(z,w,w)");
  ASSERT_TRUE(q.ok());
  Rng data_rng(27);
  Rng rng(28);
  std::vector<DistRelation> atoms;
  atoms.push_back(DistRelation::Scatter(
      GenerateUniform(data_rng, 200, 2, 8), kServers));
  atoms.push_back(DistRelation::Scatter(
      GenerateUniform(data_rng, 200, 3, 8), kServers));
  atoms.push_back(DistRelation::Scatter(
      GenerateUniform(data_rng, 300, 3, 5), kServers));
  Cluster cluster(kServers, kSeed);
  GymOptions options;
  options.optimized = optimized;
  GymJoin(cluster, *q, ChainGhd(*q), atoms, rng, options);
  *report = cluster.cost_report();
}

TEST(CostGoldenTest, GymTwoVariableKey) {
  CostReport report;
  RunGymTwoVariableKey(/*optimized=*/false, &report);
  ExpectMatchesGolden("GymTwoVariableKey", report, kGymTwoVariableKey);
}

TEST(CostGoldenTest, GymTwoVariableKeyOptimized) {
  CostReport report;
  RunGymTwoVariableKey(/*optimized=*/true, &report);
  ExpectMatchesGolden("GymTwoVariableKeyOptimized", report,
                      kGymTwoVariableKeyOptimized);
}

// ---------- Iterative binary join: skew-aware, multi-key and product steps ----------

const GoldenRound kIterativeBinaryJoin[] = {
    {"skew-aware join: shuffle", 197, 951, 0x5b086189f17d9455ULL},
    {"parallel hash join: shuffle", 1833, 12380, 0xd296e255ee1c6ca5ULL},
    {"cartesian product scatter", 560, 4202, 0x18f02756f60eccfdULL},
};

TEST(CostGoldenTest, IterativeBinaryJoin) {
  // A ⋈ B joins on the single key y (skew-aware step), then C on (z, x)
  // (multi-key hash step), then D shares no variable (Cartesian product).
  const auto q = ConjunctiveQuery::Parse("A(x,y), B(y,z), C(z,x), D(w)");
  ASSERT_TRUE(q.ok());
  Rng data_rng(61);
  const std::vector<DistRelation> atoms = {
      DistRelation::Scatter(GenerateZipf(data_rng, 300, 2, 30, 1, 1.2),
                            kServers),
      DistRelation::Scatter(GenerateZipf(data_rng, 300, 2, 30, 0, 1.2),
                            kServers),
      DistRelation::Scatter(GenerateUniform(data_rng, 300, 2, 30), kServers),
      DistRelation::Scatter(GenerateUniform(data_rng, 6, 1, 100), kServers),
  };
  Cluster cluster(kServers, kSeed);
  Rng rng(62);
  BinaryPlanOptions options;
  options.skew_aware = true;
  const BinaryPlanResult result =
      IterativeBinaryJoin(cluster, *q, atoms, rng, options);
  EXPECT_EQ(result.intermediate_sizes,
            (std::vector<int64_t>{12080, 4154, 24924}));
  ExpectMatchesGolden("IterativeBinaryJoin", cluster.cost_report(),
                      kIterativeBinaryJoin);
}

// ---------- Heavy-light triangle (HyperCube + binary heavy part) ----------

const GoldenRound kTriangleHeavyLight[] = {
    {"hypercube: multicast", 344, 1714, 0x3541108db90449d1ULL},
    {"parallel hash join: shuffle", 116, 576, 0x0032c324c4d41c55ULL},
    {"parallel hash join: shuffle", 587, 2537, 0x2ca8d3e6fcc49f67ULL},
};

TEST(CostGoldenTest, TriangleHeavyLight) {
  Rng data_rng(71);
  const Relation r = GenerateUniform(data_rng, 400, 2, 30);
  const Relation s = GenerateZipf(data_rng, 400, 2, 30, 1, 1.5);
  const Relation t = GenerateZipf(data_rng, 400, 2, 30, 0, 1.5);
  Cluster cluster(kServers, kSeed);
  Rng rng(72);
  TriangleHlOptions options;
  options.threshold_factor = 0.25;
  const TriangleHlResult result = TriangleHeavyLightJoin(
      cluster, DistRelation::Scatter(r, kServers),
      DistRelation::Scatter(s, kServers), DistRelation::Scatter(t, kServers),
      rng, options);
  EXPECT_EQ(result.heavy_values, 1);
  EXPECT_EQ(result.output.TotalSize(), 16232);
  ExpectMatchesGolden("TriangleHeavyLight", cluster.cost_report(),
                      kTriangleHeavyLight);
}

// ---------- Square-block matrix multiplication ----------

const GoldenRound kBlockMm[] = {
    {"square-block MM: compute round 1", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 2", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 3", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 4", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 5", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 6", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 7", 32, 256, 0x68b9c8dd6f90d5a5ULL},
    {"square-block MM: compute round 8", 32, 256, 0x68b9c8dd6f90d5a5ULL},
};

TEST(CostGoldenTest, BlockMm) {
  Rng rng(7);
  const Matrix a = RandomMatrix(rng, 16, 16, 20);
  const Matrix b = RandomMatrix(rng, 16, 16, 20);
  Cluster cluster(kServers, kSeed);
  SquareBlockMm(cluster, a, b, /*block_dim=*/4);
  ExpectMatchesGolden("BlockMm", cluster.cost_report(), kBlockMm);
}

// ---------- Distributed group-by ----------

// Four group-by rounds on one cluster: SUM and COUNT over a two-column
// Zipf key, each with combiners on and then off.
const GoldenRound kDistributedGroupByAggregate[] = {
    {"group-by shuffle", 233, 1723, 0x1d37af241d164299ULL},
    {"group-by shuffle", 473, 3000, 0x0394035beda7e58dULL},
    {"group-by shuffle", 252, 1723, 0xa5199a131b9e993dULL},
    {"group-by shuffle", 508, 3000, 0x29210904409339abULL},
};

TEST(CostGoldenTest, DistributedGroupByAggregate) {
  Rng rng(41);
  const Relation input = GenerateZipf(rng, 3000, 3, 30, 0, 1.2);
  const DistRelation dist = DistRelation::Scatter(input, kServers);
  Cluster cluster(kServers, kSeed);
  for (const AggregateOp op : {AggregateOp::kSum, AggregateOp::kCount}) {
    for (const bool combiners : {true, false}) {
      GroupByOptions options;
      options.use_combiners = combiners;
      ASSERT_TRUE(DistributedGroupByAggregate(cluster, dist, {0, 1}, 2, op,
                                              options)
                      .ok());
    }
  }
  ExpectMatchesGolden("DistributedGroupByAggregate", cluster.cost_report(),
                      kDistributedGroupByAggregate);
}

// ---------- Distributed scalar SUM (aggregation tree) ----------

const GoldenRound kDistributedSum[] = {
    {"sum tree round 1", 1, 4, 0x7eed3f60743d7025ULL},
    {"sum tree round 2", 1, 2, 0x541016daff477865ULL},
    {"sum tree round 3", 1, 1, 0xd8882f3563662365ULL},
};

TEST(CostGoldenTest, DistributedSum) {
  Rng rng(43);
  const Relation input = GenerateUniform(rng, 1000, 2, 500);
  Cluster cluster(kServers, kSeed);
  ASSERT_TRUE(DistributedSum(cluster, DistRelation::Scatter(input, kServers),
                             /*value_col=*/1, /*fan_in=*/2)
                  .ok());
  ExpectMatchesGolden("DistributedSum", cluster.cost_report(),
                      kDistributedSum);
}

}  // namespace
}  // namespace mpcqp
