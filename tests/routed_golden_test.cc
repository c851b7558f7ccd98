// Routed-bytes goldens: every exchange an algorithm runs is folded, server
// by server, into one FNV-1a checksum over the routed fragment bytes (the
// row count, then the payload), and the per-exchange list is pinned to
// in-source goldens. Cost goldens pin how many tuples each server
// receives; these pin which tuples, in which order. A change to how the
// routers compute destinations (batched, per-row, grid offsets) must keep
// every destination's rows src-major and row-ascending, so it passes them
// unregenerated.
//
// Each instance runs twice, single-threaded at the default morsel size
// and with 2 threads at a small morsel size, against the same golden.
// On a mismatch the test prints a paste-ready initializer of the actuals.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_counter.h"
#include "common/random.h"
#include "join/cartesian.h"
#include "join/skew_join.h"
#include "join/sort_join.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "multiway/hypercube.h"
#include "multiway/skew_hc.h"
#include "query/query.h"
#include "relation/relation.h"
#include "sort/band_join.h"
#include "sort/psrs.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

constexpr uint64_t kSeed = 42;

struct ExchangeGolden {
  int64_t rows;
  uint64_t checksum;
};

ExchangeGolden FoldRouted(const DistRelation& routed) {
  ExchangeGolden golden{0, 0xcbf29ce484222325ULL};
  auto fold = [&](const void* data, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      golden.checksum = (golden.checksum ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  for (int s = 0; s < routed.num_servers(); ++s) {
    const Relation& frag = routed.fragment(s);
    const int64_t rows = frag.size();
    golden.rows += rows;
    fold(&rows, sizeof(rows));
    fold(frag.data().data(), frag.data().size() * sizeof(Value));
  }
  return golden;
}

// Runs `body` on a fresh p-server cluster and returns one golden per
// exchange, in call order.
std::vector<ExchangeGolden> RoutedBytes(
    int p, int threads, int64_t morsel_rows,
    const std::function<void(Cluster&)>& body) {
  ClusterOptions options;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;
  Cluster cluster(p, kSeed, options);
  std::vector<ExchangeGolden> exchanges;
  cluster.set_exchange_observer([&exchanges](const DistRelation& routed) {
    exchanges.push_back(FoldRouted(routed));
  });
  body(cluster);
  return exchanges;
}

template <size_t N>
void ExpectRoutedGolden(const char* name, int p,
                        const std::function<void(Cluster&)>& body,
                        const ExchangeGolden (&golden)[N]) {
  struct Config {
    int threads;
    int64_t morsel_rows;
  };
  for (const Config& config :
       {Config{1, ClusterOptions{}.morsel_rows}, Config{2, 97}}) {
    const std::vector<ExchangeGolden> actual =
        RoutedBytes(p, config.threads, config.morsel_rows, body);
    bool same = actual.size() == N;
    EXPECT_EQ(actual.size(), N) << name;
    for (size_t e = 0; same && e < N; ++e) {
      EXPECT_EQ(actual[e].rows, golden[e].rows) << name << " exchange " << e;
      EXPECT_EQ(actual[e].checksum, golden[e].checksum)
          << name << " exchange " << e << " at threads=" << config.threads
          << " morsel_rows=" << config.morsel_rows;
      same = actual[e].rows == golden[e].rows &&
             actual[e].checksum == golden[e].checksum;
    }
    if (!same) {
      std::fprintf(stderr, "const ExchangeGolden k%s[] = {\n", name);
      for (const ExchangeGolden& g : actual) {
        std::fprintf(stderr, "    {%" PRId64 ", 0x%016" PRIx64 "ULL},\n",
                     g.rows, g.checksum);
      }
      std::fprintf(stderr, "};\n");
      return;
    }
  }
}

// ---------- HyperCube ----------

// The perfbench triangle_cold shape: 3 x 60K uniform rows over a 3K
// domain, p = 64 (shares 4x4x4, one free dimension per atom).
const ExchangeGolden kHyperCubeTriangle[] = {
    {240000, 0x60ab35ef8d09242dULL},
    {240000, 0xef80918ec08821b5ULL},
    {240000, 0x76c68967d1a3f6adULL},
};

TEST(RoutedGoldenTest, HyperCubeTriangle) {
  Rng rng(1);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 60'000, 2, 3'000));
  }
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  ExpectRoutedGolden(
      "HyperCubeTriangle", 64,
      [&](Cluster& cluster) {
        std::vector<DistRelation> dist;
        for (const Relation& a : atoms) {
          dist.push_back(DistRelation::Scatter(a, 64));
        }
        HyperCubeJoin(cluster, q, dist);
      },
      kHyperCubeTriangle);
}

// A 4-cycle on a 2x4x2x4 grid: every atom has two free dimensions.
const ExchangeGolden kHyperCubeFourCycle[] = {
    {64000, 0x2c762df5aac2e265ULL},
    {64000, 0x8626a5c7850f9a65ULL},
    {64000, 0xc538170127e946f5ULL},
    {64000, 0x2471a150d7d34c15ULL},
};

TEST(RoutedGoldenTest, HyperCubeFourCycle) {
  Rng rng(2);
  std::vector<Relation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(GenerateUniform(rng, 8'000, 2, 1'000));
  }
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z", "w"},
      {{"A", {0, 1}}, {"B", {1, 2}}, {"C", {2, 3}}, {"D", {3, 0}}});
  HyperCubeOptions options;
  options.forced_shares = {2, 4, 2, 4};
  ExpectRoutedGolden(
      "HyperCubeFourCycle", 64,
      [&](Cluster& cluster) {
        std::vector<DistRelation> dist;
        for (const Relation& a : atoms) {
          dist.push_back(DistRelation::Scatter(a, 64));
        }
        HyperCubeJoin(cluster, q, dist, options);
      },
      kHyperCubeFourCycle);
}

// ---------- HyperCube per-server output ----------

// Runs HyperCube on a fresh p-server cluster, at both configurations the
// routed goldens use, and checks its output, folded server by server like
// a routed exchange, against one golden. Returns the shares of the last
// run.
std::vector<int> ExpectHyperCubeOutputGolden(
    const char* name, int p, const ConjunctiveQuery& q,
    const std::vector<Relation>& atoms, const HyperCubeOptions& options,
    const ExchangeGolden& golden) {
  std::vector<int> shares;
  for (const auto& [threads, morsel_rows] :
       {std::pair<int, int64_t>{1, ClusterOptions{}.morsel_rows},
        std::pair<int, int64_t>{2, 97}}) {
    ClusterOptions cluster_options;
    cluster_options.num_threads = threads;
    cluster_options.morsel_rows = morsel_rows;
    Cluster cluster(p, kSeed, cluster_options);
    std::vector<DistRelation> dist;
    for (const Relation& a : atoms) {
      dist.push_back(DistRelation::Scatter(a, p));
    }
    HyperCubeResult result = HyperCubeJoin(cluster, q, dist, options);
    const ExchangeGolden actual = FoldRouted(result.output);
    EXPECT_EQ(actual.rows, golden.rows) << name;
    EXPECT_EQ(actual.checksum, golden.checksum)
        << name << " at threads=" << threads << " morsel_rows=" << morsel_rows;
    if (actual.rows != golden.rows || actual.checksum != golden.checksum) {
      std::fprintf(stderr, "const ExchangeGolden k%s = {%" PRId64
                           ", 0x%016" PRIx64 "ULL};\n",
                   name, actual.rows, actual.checksum);
    }
    shares = std::move(result.shares);
  }
  return shares;
}

// triangle_cold's shape: 3 x 60K uniform rows over a 3K domain, p = 64.
const ExchangeGolden kHyperCubeTriangleOutput = {7913, 0x3302e048eb8d5384ULL};

TEST(HyperCubeOutputGoldenTest, Triangle) {
  Rng rng(1);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 60'000, 2, 3'000));
  }
  const std::vector<int> shares = ExpectHyperCubeOutputGolden(
      "HyperCubeTriangleOutput", 64, ConjunctiveQuery::Triangle(), atoms, {},
      kHyperCubeTriangleOutput);
  EXPECT_EQ(shares, (std::vector<int>{4, 4, 4}));
}

// A 4-cycle on a forced 4x2x4x2 grid: every atom has two free dimensions.
const ExchangeGolden kHyperCubeFourCycleOutput = {4095, 0x4a2adc1eff34cc8bULL};

TEST(HyperCubeOutputGoldenTest, FourCycle) {
  Rng rng(2);
  std::vector<Relation> atoms;
  for (int j = 0; j < 4; ++j) {
    atoms.push_back(GenerateUniform(rng, 8'000, 2, 1'000));
  }
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z", "w"},
      {{"A", {0, 1}}, {"B", {1, 2}}, {"C", {2, 3}}, {"D", {3, 0}}});
  HyperCubeOptions options;
  options.forced_shares = {4, 2, 4, 2};
  ExpectHyperCubeOutputGolden("HyperCubeFourCycleOutput", 64, q, atoms,
                              options, kHyperCubeFourCycleOutput);
}

// A triangle at p = 30: the shares' product is below p, so the last
// servers receive nothing and output nothing.
const ExchangeGolden kHyperCubeUnusedServersOutput = {2415, 0x71d1a58123d3ede3ULL};

TEST(HyperCubeOutputGoldenTest, TriangleWithUnusedServers) {
  Rng rng(3);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 20'000, 2, 1'500));
  }
  const std::vector<int> shares = ExpectHyperCubeOutputGolden(
      "HyperCubeUnusedServersOutput", 30, ConjunctiveQuery::Triangle(), atoms,
      {}, kHyperCubeUnusedServersOutput);
  int product = 1;
  for (int s : shares) product *= s;
  EXPECT_LT(product, 30);
}

// ---------- Skew-aware join ----------

// Left join column Zipf(1.3), right uniform, p = 32: the three hitters
// are heavy on the left only. The left's top value is removed from the
// right, so that hitter has no partner and its rows are dropped; the other
// two get grids whose right side is replicated.
const ExchangeGolden kSkewJoin[] = {
    {4266, 0x4071d0a5e6895492ULL},
    {6424, 0x1bdb756a6c9efbd5ULL},
};

TEST(RoutedGoldenTest, SkewJoinOneSidedHitters) {
  Rng rng(3);
  const Relation left = GenerateZipf(rng, 6'000, 2, 500, 0, 1.3);
  const Relation uniform = GenerateUniform(rng, 6'000, 2, 500);
  FlatCounter counts;
  for (int64_t i = 0; i < left.size(); ++i) counts.Add(left.at(i, 0));
  Value top = 0;
  int64_t top_count = 0;
  for (const auto& [value, count] : counts.SortedEntries()) {
    if (count > top_count) {
      top = value;
      top_count = count;
    }
  }
  Relation right(2);
  for (int64_t i = 0; i < uniform.size(); ++i) {
    if (uniform.at(i, 0) != top) right.AppendRowFrom(uniform, i);
  }
  ExpectRoutedGolden(
      "SkewJoin", 32,
      [&](Cluster& cluster) {
        Rng join_rng(11);
        SkewAwareJoin(cluster, DistRelation::Scatter(left, 32),
                      DistRelation::Scatter(right, 32), 0, 0, join_rng);
      },
      kSkewJoin);
}

// ---------- Cartesian product ----------

const ExchangeGolden kCartesian[] = {
    {1800, 0x67646538dcaa84ddULL},
    {1400, 0x3b3acf94dc3a7fe5ULL},
};

TEST(RoutedGoldenTest, CartesianProduct) {
  Rng rng(4);
  const Relation left = GenerateUniform(rng, 300, 2, 1'000);
  const Relation right = GenerateUniform(rng, 700, 1, 1'000);
  ExpectRoutedGolden(
      "Cartesian", 12,
      [&](Cluster& cluster) {
        Rng product_rng(5);
        CartesianProduct(cluster, DistRelation::Scatter(left, 12),
                         DistRelation::Scatter(right, 12), product_rng);
      },
      kCartesian);
}

// ---------- Band join ----------

const ExchangeGolden kBandJoin[] = {
    {3840, 0x1a12ac10758a4285ULL},
    {3000, 0x53acd348406c7d62ULL},
    {7015, 0x0b03e69048b4aabeULL},
};

TEST(RoutedGoldenTest, BandJoin) {
  Rng rng(6);
  const Relation left = GenerateUniform(rng, 3'000, 2, 20'000);
  const Relation right = GenerateUniform(rng, 3'000, 2, 20'000);
  ExpectRoutedGolden(
      "BandJoin", 16,
      [&](Cluster& cluster) {
        BandJoin(cluster, DistRelation::Scatter(left, 16),
                 DistRelation::Scatter(right, 16), 0, 0, /*epsilon=*/900);
      },
      kBandJoin);
}

// ---------- Sort join (PSRS + crossing-key grids) ----------

const ExchangeGolden kSortJoin[] = {
    {3840, 0x9fa3e91f9f3c8965ULL},
    {6000, 0x9da9f94f19c7a01cULL},
    {5682, 0x351481a9cf994c14ULL},
};

TEST(RoutedGoldenTest, SortJoinCrossingKeys) {
  Rng rng(7);
  const Relation left = GenerateZipf(rng, 3'000, 2, 200, 0, 1.1);
  const Relation right = GenerateZipf(rng, 3'000, 2, 200, 0, 1.1);
  ExpectRoutedGolden(
      "SortJoin", 16,
      [&](Cluster& cluster) {
        Rng join_rng(8);
        ParallelSortJoin(cluster, DistRelation::Scatter(left, 16),
                         DistRelation::Scatter(right, 16), 0, 0, join_rng);
      },
      kSortJoin);
}

// ---------- PSRS on a composite key ----------

const ExchangeGolden kPsrs[] = {
    {3840, 0xcee45993f894cc25ULL},
    {5000, 0xbdf4f7a42f31664cULL},
};

TEST(RoutedGoldenTest, PsrsCompositeKey) {
  Rng rng(9);
  const Relation input = GenerateUniform(rng, 5'000, 3, 300);
  PsrsOptions options;
  options.key_cols = {1, 0};
  ExpectRoutedGolden(
      "Psrs", 16,
      [&](Cluster& cluster) {
        PsrsSort(cluster, DistRelation::Scatter(input, 16), options);
      },
      kPsrs);
}

// ---------- SkewHC ----------

// A Zipf triangle: heavy x and y values split the atoms into residual
// classes, each multicast on its own rotated grid.
const ExchangeGolden kSkewHc[] = {
    {8979, 0x92d116b7f3b1e9eeULL},
    {7539, 0x6f4bef772640bed5ULL},
    {8958, 0xc5d00f17546b1c28ULL},
    {1982, 0xd9ca450385495d1dULL},
    {2513, 0xe86b60c11634718aULL},
    {117, 0x047c37ec8283bb05ULL},
    {169, 0x7b48efa32df04e68ULL},
    {2954, 0xf03b6c3748f78af1ULL},
    {2986, 0xbf909e6a420c7064ULL},
    {81, 0xbd076f7c6689e107ULL},
    {1477, 0xb8943593f3c70b8fULL},
    {9, 0x76905f6d284d367dULL},
    {2993, 0x69639f4162fedb51ULL},
    {72, 0xa0be42a991a9c584ULL},
    {3015, 0xbb397c2a39027016ULL},
    {13, 0xa426a3a8e088e5c4ULL},
    {54, 0x0c83d39a753ea066ULL},
    {1005, 0x90919b6e4674a55eULL},
};

TEST(RoutedGoldenTest, SkewHcTriangle) {
  Rng rng(10);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateZipf(rng, 4'000, 2, 400, 0, 1.2));
  }
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  ExpectRoutedGolden(
      "SkewHc", 27,
      [&](Cluster& cluster) {
        std::vector<DistRelation> dist;
        for (const Relation& a : atoms) {
          dist.push_back(DistRelation::Scatter(a, 27));
        }
        SkewHcJoin(cluster, q, dist);
      },
      kSkewHc);
}

}  // namespace
}  // namespace mpcqp
