#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "common/status.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

TEST(GeneratorTest, UniformShape) {
  Rng rng(1);
  const Relation r = GenerateUniform(rng, 1000, 3, 50);
  EXPECT_EQ(r.size(), 1000);
  EXPECT_EQ(r.arity(), 3);
  for (int64_t i = 0; i < r.size(); ++i) {
    for (int c = 0; c < 3; ++c) EXPECT_LT(r.at(i, c), 50u);
  }
}

TEST(GeneratorTest, MatchingDegreeExact) {
  Rng rng(2);
  const Relation r = GenerateMatchingDegree(rng, 1000, 10);
  EXPECT_EQ(r.size(), 1000);
  const Relation degrees = DegreeCount(r, 1);
  EXPECT_EQ(degrees.size(), 100);
  for (int64_t i = 0; i < degrees.size(); ++i) {
    EXPECT_EQ(degrees.at(i, 1), 10u);
  }
  // x-values unique.
  EXPECT_EQ(Dedup(Project(r, {0})).size(), 1000);
}

TEST(GeneratorTest, ZipfSkewsTowardsSmallValues) {
  Rng rng(3);
  const Relation r = GenerateZipf(rng, 20000, 2, 1000, 1, 1.2);
  std::map<Value, int64_t> counts;
  for (int64_t i = 0; i < r.size(); ++i) ++counts[r.at(i, 1)];
  // Value 0 (rank 1) should dominate any mid-range value.
  EXPECT_GT(counts[0], 50 * std::max<int64_t>(1, counts[500]));
  // And the non-zipf column stays roughly uniform.
  std::map<Value, int64_t> other;
  for (int64_t i = 0; i < r.size(); ++i) ++other[r.at(i, 0)];
  EXPECT_LT(other.begin()->second, 200);
}

TEST(GeneratorTest, ZipfZeroSkewIsUniform) {
  Rng rng(4);
  const ZipfDistribution zipf(100, 0.0);
  std::map<uint64_t, int64_t> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Sample(rng)];
  for (const auto& [value, count] : counts) {
    EXPECT_GT(count, 250);
    EXPECT_LT(count, 1000);
  }
}

TEST(GeneratorTest, ConstantColumnExtremeSkew) {
  const Relation r = GenerateConstantColumn(100, 1, 42);
  EXPECT_EQ(r.size(), 100);
  for (int64_t i = 0; i < r.size(); ++i) EXPECT_EQ(r.at(i, 1), 42u);
  EXPECT_EQ(Dedup(Project(r, {0})).size(), 100);
}

TEST(GeneratorTest, RandomGraphDistinctEdgesNoSelfLoops) {
  Rng rng(5);
  const Relation g = GenerateRandomGraph(rng, 50, 300);
  EXPECT_EQ(g.size(), 300);
  std::set<std::pair<Value, Value>> seen;
  for (int64_t i = 0; i < g.size(); ++i) {
    EXPECT_NE(g.at(i, 0), g.at(i, 1));
    EXPECT_TRUE(seen.insert({g.at(i, 0), g.at(i, 1)}).second);
  }
}

TEST(GeneratorTest, AddCliqueAddsAllPairs) {
  Relation g(2);
  const Relation with_clique = AddClique(g, 100, 4);
  EXPECT_EQ(with_clique.size(), 12);  // 4 * 3 ordered pairs.
}

TEST(GeneratorTest, ChainAndStarShapes) {
  Rng rng(6);
  const std::vector<Relation> chain = GenerateChain(rng, 4, 100, 20);
  EXPECT_EQ(chain.size(), 4u);
  for (const Relation& r : chain) {
    EXPECT_EQ(r.size(), 100);
    EXPECT_EQ(r.arity(), 2);
  }
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  Rng a(77);
  Rng b(77);
  EXPECT_TRUE(GenerateUniform(a, 50, 2, 10) == GenerateUniform(b, 50, 2, 10));
}

// --- GenerateFromSpec: the command-line spec grammar ---

TEST(GenerateFromSpecTest, SpecsMatchTheGenerators) {
  Rng a(7);
  Rng b(7);
  auto uniform = GenerateFromSpec("uniform:40:9", 3, a);
  ASSERT_TRUE(uniform.ok()) << uniform.status().ToString();
  EXPECT_EQ(*uniform, GenerateUniform(b, 40, 3, 9));
  auto zipf = GenerateFromSpec("zipf:40:9:1.5", 2, a);
  ASSERT_TRUE(zipf.ok()) << zipf.status().ToString();
  EXPECT_EQ(*zipf, GenerateZipf(b, 40, 2, 9, /*zipf_col=*/0, 1.5));
  auto degree = GenerateFromSpec("degree:40:4", 2, a);
  ASSERT_TRUE(degree.ok()) << degree.status().ToString();
  EXPECT_EQ(*degree, GenerateMatchingDegree(b, 40, 4));
  auto graph = GenerateFromSpec("graph:3:6", 2, a);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(*graph, GenerateRandomGraph(b, 3, 6));
  // NODES * (NODES - 1) overflows 64 bits past 2^32 nodes; such a graph
  // has room for any edge count.
  auto sparse = GenerateFromSpec("graph:4294967297:10", 2, a);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();
  EXPECT_EQ(*sparse, GenerateRandomGraph(b, 4294967297, 10));
}

struct BadSpec {
  const char* name;  // gtest parameter name.
  const char* spec;
  int arity;
  StatusCode code;
};

void PrintTo(const BadSpec& bad, std::ostream* os) { *os << bad.spec; }

class GenerateFromSpecRejects : public ::testing::TestWithParam<BadSpec> {};

// Every spec a generator would CHECK on, and every malformed one, is a
// typed error rather than an abort.
TEST_P(GenerateFromSpecRejects, WithATypedError) {
  Rng rng(9);
  const auto generated =
      GenerateFromSpec(GetParam().spec, GetParam().arity, rng);
  EXPECT_EQ(generated.status().code(), GetParam().code)
      << GetParam().spec << ": " << generated.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Specs, GenerateFromSpecRejects,
    ::testing::Values(
        BadSpec{"UniformZeroDomain", "uniform:10:0", 2,
                StatusCode::kInvalidArgument},
        BadSpec{"ZipfNegativeSkew", "zipf:10:5:-1", 2,
                StatusCode::kInvalidArgument},
        BadSpec{"DegreeZero", "degree:10:0", 2, StatusCode::kInvalidArgument},
        BadSpec{"DegreeNotDividingRows", "degree:10:3", 2,
                StatusCode::kInvalidArgument},
        BadSpec{"GraphNoNodes", "graph:0:10", 2, StatusCode::kInvalidArgument},
        BadSpec{"GraphOneNode", "graph:1:10", 2, StatusCode::kInvalidArgument},
        BadSpec{"GraphTooManyEdges", "graph:3:100", 2,
                StatusCode::kInvalidArgument},
        BadSpec{"DegreeWrongArity", "degree:10:2", 3,
                StatusCode::kInvalidArgument},
        BadSpec{"UnknownKind", "normal:10:5", 2, StatusCode::kInvalidArgument},
        BadSpec{"NotANumber", "uniform:20k:5", 2,
                StatusCode::kInvalidArgument},
        // rows * arity past INT64_MAX would wrap the reservation.
        BadSpec{"RowsTimesArityOverflow", "uniform:4611686018427387904:5", 4,
                StatusCode::kInvalidArgument}),
    [](const ::testing::TestParamInfo<BadSpec>& info) {
      return std::string(info.param.name);
    });

// Sanitizer allocators abort on an impossible request instead of throwing
// std::bad_alloc, so the RESOURCE_EXHAUSTED path only runs without them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kAllocatorThrows = false;
#else
constexpr bool kAllocatorThrows = true;
#endif

TEST(GenerateFromSpecTest, UniformTooLargeIsResourceExhausted) {
  if (!kAllocatorThrows) GTEST_SKIP() << "sanitizer allocator aborts";
  Rng rng(10);
  EXPECT_EQ(GenerateFromSpec("uniform:99999999999999:5", 2, rng)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(GenerateFromSpecTest, ZipfDomainTooLargeIsResourceExhausted) {
  if (!kAllocatorThrows) GTEST_SKIP() << "sanitizer allocator aborts";
  Rng rng(11);
  EXPECT_EQ(GenerateFromSpec("zipf:10:9999999999999:1", 2, rng)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace mpcqp
