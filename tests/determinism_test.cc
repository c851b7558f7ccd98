// Thread-count invariance: every algorithm in the library must produce
// bit-identical outputs AND a bit-identical CostReport no matter how many
// OS threads execute the rounds. This is the lock on the determinism
// contract of ClusterOptions::num_threads (DESIGN.md, "Execution model"):
// per-fragment row order, per-round per-server tuple/value counts, and
// round labels are all compared exactly against the single-threaded run.
//
// The morsel-driven exchange adds a second axis to the contract: results
// must also be invariant under ClusterOptions::morsel_rows, the grain of
// the (source, row-range) tiles both exchange phases are scheduled in.
// The MorselBoundary tests sweep thread counts x morsel sizes over the
// tiling edge cases (empty fragments, fragments smaller than one morsel,
// p = 1, more threads than rows, all rows on one source).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "acyclic/gym.h"
#include "common/simd.h"
#include "agg/aggregate.h"
#include "agg/groupby_engine.h"
#include "join/broadcast_join.h"
#include "join/cartesian.h"
#include "join/hash_join.h"
#include "join/semi_join.h"
#include "join/skew_join.h"
#include "join/sort_join.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/stats.h"
#include "multiway/bigjoin.h"
#include "multiway/hypercube.h"
#include "multiway/skew_hc.h"
#include "query/ghd.h"
#include "query/query.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"
#include "sort/multi_round_sort.h"
#include "sort/psrs.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// Force real helper threads before the first cluster runs: on a small CI
// machine the spare-core cap would fold every parallel loop down to one
// participant, and the multi-threaded runs below would exercise nothing
// the t=1 baseline doesn't. Scheduling-only — results must be (and are)
// identical either way; that is what this file proves.
[[maybe_unused]] const bool kForceHelpers = [] {
  ::setenv("MPCQP_LOOP_HELPERS", "7", /*overwrite=*/0);
  return true;
}();

constexpr int kServers = 8;
constexpr uint64_t kSeed = 42;
const int kThreadCounts[] = {1, 2, 8};
// Tiny (splits even small fragments into many morsels) vs. default.
const int64_t kMorselSizes[] = {3, ClusterOptions{}.morsel_rows};

struct RunResult {
  std::vector<Relation> fragments;
  CostReport report;
};

// Runs `body` on a fresh cluster with the given thread count (and
// optionally morsel size / server count) and captures the output fragments
// plus the full cost report.
RunResult RunWith(int threads,
                  const std::function<DistRelation(Cluster&)>& body,
                  int64_t morsel_rows = ClusterOptions{}.morsel_rows,
                  int servers = kServers) {
  ClusterOptions options;
  options.num_threads = threads;
  options.morsel_rows = morsel_rows;
  Cluster cluster(servers, kSeed, options);
  const DistRelation out = body(cluster);
  RunResult result;
  for (int s = 0; s < out.num_servers(); ++s) {
    result.fragments.push_back(out.fragment(s));
  }
  result.report = cluster.cost_report();
  return result;
}

void ExpectSameReport(const CostReport& base, const CostReport& got,
                      int threads) {
  ASSERT_EQ(base.num_rounds(), got.num_rounds()) << "threads=" << threads;
  for (int r = 0; r < base.num_rounds(); ++r) {
    const RoundCost& b = base.rounds()[r];
    const RoundCost& g = got.rounds()[r];
    EXPECT_EQ(b.label, g.label) << "round " << r << " threads=" << threads;
    EXPECT_EQ(b.tuples_received, g.tuples_received)
        << "round " << r << " threads=" << threads;
    EXPECT_EQ(b.values_received, g.values_received)
        << "round " << r << " threads=" << threads;
    EXPECT_EQ(b.tuples_sent, g.tuples_sent)
        << "round " << r << " threads=" << threads;
    EXPECT_EQ(b.values_sent, g.values_sent)
        << "round " << r << " threads=" << threads;
  }
}

// Runs `body` once per thread count and checks outputs and costs against
// the single-threaded baseline, fragment by fragment and round by round.
void ExpectThreadCountInvariant(
    const std::function<DistRelation(Cluster&)>& body) {
  const RunResult base = RunWith(1, body);
  EXPECT_GT(base.report.num_rounds(), 0) << "algorithm metered nothing";
  for (const int threads : kThreadCounts) {
    const RunResult got = RunWith(threads, body);
    ASSERT_EQ(base.fragments.size(), got.fragments.size());
    for (size_t s = 0; s < base.fragments.size(); ++s) {
      EXPECT_EQ(base.fragments[s], got.fragments[s])
          << "fragment " << s << " differs at threads=" << threads;
    }
    ExpectSameReport(base.report, got.report, threads);
  }
}

// Runs `body` across thread counts x morsel sizes and checks outputs and
// costs against the single-threaded default-morsel baseline.
void ExpectMorselInvariant(const std::function<DistRelation(Cluster&)>& body,
                           int servers = kServers) {
  const RunResult base =
      RunWith(1, body, ClusterOptions{}.morsel_rows, servers);
  EXPECT_GT(base.report.num_rounds(), 0) << "body metered nothing";
  for (const int threads : kThreadCounts) {
    for (const int64_t morsel_rows : kMorselSizes) {
      const RunResult got = RunWith(threads, body, morsel_rows, servers);
      ASSERT_EQ(base.fragments.size(), got.fragments.size());
      for (size_t s = 0; s < base.fragments.size(); ++s) {
        EXPECT_EQ(base.fragments[s], got.fragments[s])
            << "fragment " << s << " differs at threads=" << threads
            << " morsel_rows=" << morsel_rows;
      }
      ExpectSameReport(base.report, got.report, threads);
    }
  }
}

// Chains every exchange router over `in` so one morsel sweep covers the
// single-destination path (hash/range), the shared-payload path
// (broadcast), the multicast path (0..2 copies per tuple, one of them
// context-derived), and the gather path.
DistRelation ExerciseAllRouters(Cluster& cluster, const DistRelation& in) {
  const int p = cluster.num_servers();
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation hashed =
      HashPartition(cluster, in, {0}, hash, "morsel: hash");
  const DistRelation wide = Broadcast(cluster, hashed, "morsel: broadcast");
  std::vector<Value> splitters;
  for (int i = 1; i < p; ++i) splitters.push_back(i * 8);
  const DistRelation ranged =
      RangePartition(cluster, wide, 0, splitters, "morsel: range");
  const DistRelation multi = RouteWithContext(
      cluster, ranged,
      [p](const RouteContext& ctx, const Value* row, std::vector<int>& dests) {
        if (row[0] % 3 == 0) return;  // Dropped tuples.
        dests.push_back(static_cast<int>(row[0] % p));
        if (row[0] % 3 == 1) {  // A second, context-derived copy.
          dests.push_back(static_cast<int>((ctx.src + ctx.row) % p));
        }
      },
      "morsel: multicast");
  const Relation gathered =
      GatherToServer(cluster, multi, /*dst=*/p / 2, "morsel: gather");
  std::vector<Relation> frags(p, Relation(gathered.arity()));
  frags[p / 2] = gathered;
  return DistRelation::FromFragments(std::move(frags));
}

// Two binary inputs with a mild Zipf skew on the join column: exercises
// both the light (hash) and heavy (grid) paths of the skew-aware join.
void MakeJoinInputs(Relation* left, Relation* right) {
  Rng rng(7);
  *left = GenerateZipf(rng, 600, 2, 40, /*zipf_col=*/0, /*skew=*/1.2);
  *right = GenerateZipf(rng, 600, 2, 40, /*zipf_col=*/0, /*skew=*/1.2);
}

TEST(DeterminismTest, HashJoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    return ParallelHashJoin(cluster, DistRelation::Scatter(left, kServers),
                            DistRelation::Scatter(right, kServers), {0},
                            {0});
  });
}

TEST(DeterminismTest, SkewAwareJoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng rng(11);
    return SkewAwareJoin(cluster, DistRelation::Scatter(left, kServers),
                         DistRelation::Scatter(right, kServers), 0, 0, rng);
  });
}

TEST(DeterminismTest, SkewAwareJoinMeteredStats) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  SkewJoinOptions options;
  options.metered_statistics = true;
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng rng(11);
    return SkewAwareJoin(cluster, DistRelation::Scatter(left, kServers),
                         DistRelation::Scatter(right, kServers), 0, 0, rng,
                         options);
  });
}

TEST(DeterminismTest, SortJoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng rng(13);
    return ParallelSortJoin(cluster, DistRelation::Scatter(left, kServers),
                            DistRelation::Scatter(right, kServers), 0, 0,
                            rng);
  });
}

TEST(DeterminismTest, CartesianProduct) {
  Rng rng(17);
  const Relation left = GenerateUniform(rng, 120, 2, 50);
  const Relation right = GenerateUniform(rng, 90, 2, 50);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng product_rng(19);
    return CartesianProduct(cluster, DistRelation::Scatter(left, kServers),
                            DistRelation::Scatter(right, kServers),
                            product_rng);
  });
}

TEST(DeterminismTest, Semijoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    return DistributedSemijoin(cluster,
                               DistRelation::Scatter(left, kServers),
                               DistRelation::Scatter(right, kServers), {0},
                               {0});
  });
}

TEST(DeterminismTest, BroadcastSemijoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    return BroadcastSemijoin(cluster,
                             DistRelation::Scatter(left, kServers),
                             DistRelation::Scatter(right, kServers), {0},
                             {0});
  });
}

// Broadcast-heavy: the replicated side is p copy-on-write handles to one
// shared payload, probed concurrently by the local joins.
TEST(DeterminismTest, BroadcastJoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    return BroadcastJoin(cluster, DistRelation::Scatter(left, kServers),
                         DistRelation::Scatter(right, kServers), {0}, {0});
  });
}

// A receiver that mutates its broadcast copy must detach from the shared
// payload without perturbing the other receivers — at every thread count.
TEST(DeterminismTest, WriteAfterBroadcastDetaches) {
  Rng rng(43);
  const Relation input = GenerateUniform(rng, 300, 2, 100);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    DistRelation everywhere =
        Broadcast(cluster, DistRelation::Scatter(input, kServers),
                  "detach test: broadcast");
    // All receivers share one payload before any write.
    for (int s = 1; s < kServers; ++s) {
      EXPECT_TRUE(
          everywhere.fragment(s).SharesPayloadWith(everywhere.fragment(0)));
    }
    // Concurrent writers: even servers sort their copy in place, odd
    // servers append a sentinel row. Each write detaches its handle.
    cluster.pool().ParallelFor(kServers, [&](int64_t s) {
      if (s % 2 == 0) {
        everywhere.fragment(static_cast<int>(s)).SortRowsBy({1});
      } else {
        everywhere.fragment(static_cast<int>(s))
            .AppendRow({static_cast<Value>(s), 7777});
      }
    });
    for (int s = 1; s < kServers; ++s) {
      EXPECT_FALSE(
          everywhere.fragment(s).SharesPayloadWith(everywhere.fragment(0)));
    }
    return everywhere;
  });
}

TEST(DeterminismTest, HyperCubeTriangle) {
  Rng rng(23);
  const Relation edges = GenerateRandomGraph(rng, 60, 500);
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z"},
      {{"R", {0, 1}}, {"S", {1, 2}}, {"T", {2, 0}}});
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    std::vector<DistRelation> atoms(3, DistRelation::Scatter(edges, kServers));
    return HyperCubeJoin(cluster, q, atoms).output;
  });
}

// SkewHC joins its residual queries one pool task per server, each
// appending its combos in order. A heavy z gives several residuals whose
// outputs land on the same servers.
TEST(DeterminismTest, SkewHcSkewedTriangle) {
  Rng rng(31);
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Relation s = GenerateUniform(rng, 300, 2, 30);
  s.Append(GenerateConstantColumn(300, 1, 7));
  Relation t = GenerateUniform(rng, 300, 2, 30);
  t.Append(GenerateConstantColumn(300, 0, 7));
  const std::vector<Relation> atoms = {GenerateUniform(rng, 600, 2, 30), s,
                                       t};
  size_t residuals = 0;
  int64_t rows = 0;
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    std::vector<DistRelation> scattered;
    for (const Relation& atom : atoms) {
      scattered.push_back(DistRelation::Scatter(atom, kServers));
    }
    const SkewHcResult result = SkewHcJoin(cluster, q, scattered);
    int64_t residual_rows = 0;
    for (const ResidualInfo& info : result.residuals) {
      residual_rows += info.output_size;
    }
    EXPECT_EQ(residual_rows, result.output.TotalSize());
    residuals = result.residuals.size();
    rows = residual_rows;
    return result.output;
  });
  EXPECT_GE(residuals, 2u);
  EXPECT_GT(rows, 0);
}

TEST(DeterminismTest, BigJoinTriangle) {
  Rng rng(29);
  const Relation edges = Dedup(GenerateRandomGraph(rng, 50, 400));
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z"},
      {{"R", {0, 1}}, {"S", {1, 2}}, {"T", {2, 0}}});
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    std::vector<DistRelation> atoms(3, DistRelation::Scatter(edges, kServers));
    return BigJoin(cluster, q, atoms).output;
  });
}

TEST(DeterminismTest, PsrsRegularSampling) {
  Rng rng(31);
  const Relation input = GenerateUniform(rng, 800, 2, 1000);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    PsrsOptions options;
    options.key_cols = {0, 1};
    return PsrsSort(cluster, DistRelation::Scatter(input, kServers), options)
        .sorted;
  });
}

TEST(DeterminismTest, PsrsRandomSampling) {
  Rng rng(37);
  const Relation input = GenerateZipf(rng, 800, 2, 200, 0, 1.1);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    PsrsOptions options;
    options.key_cols = {0};
    options.use_sampling = true;
    options.samples_per_server = 12;
    Rng sample_rng(41);
    return PsrsSort(cluster, DistRelation::Scatter(input, kServers), options,
                    &sample_rng)
        .sorted;
  });
}

// Sort-heavy: the final per-server sorts run through the parallel sort
// kernel, whose output must not depend on the thread count.
TEST(DeterminismTest, MultiRoundSort) {
  Rng rng(47);
  const Relation input = GenerateUniform(rng, 900, 2, 500);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng sort_rng(53);
    return MultiRoundSort(cluster, DistRelation::Scatter(input, kServers),
                          /*col=*/0, /*fan_out=*/2, sort_rng)
        .sorted;
  });
}

// Counter-heavy: the per-fragment pre-aggregation and the final sorted
// hitter list exercise the flat counting pass end to end.
TEST(DeterminismTest, DistributedHeavyHitters) {
  Rng rng(59);
  const Relation input = GenerateZipf(rng, 1500, 2, 50, 0, 1.3);
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    const std::vector<DistributedHeavyHitter> hitters =
        DetectHeavyHittersDistributed(
            cluster, DistRelation::Scatter(input, kServers), /*col=*/0,
            /*threshold=*/30);
    // Re-encode the (sorted) hitters as a relation so the harness can
    // compare them bit-for-bit across thread counts.
    std::vector<Relation> frags(kServers, Relation(2));
    for (const DistributedHeavyHitter& h : hitters) {
      frags[0].AppendRow({h.value, static_cast<Value>(h.count)});
    }
    return DistRelation::FromFragments(std::move(frags));
  });
}

// The optimized GYM upward phase intersects semijoin copies via per-id
// counting; the intersect survivors must be thread-count invariant.
TEST(DeterminismTest, GymStarOptimized) {
  const ConjunctiveQuery q = ConjunctiveQuery::Star(4);
  Rng data_rng(61);
  std::vector<Relation> inputs;
  for (int j = 0; j < 4; ++j) {
    inputs.push_back(GenerateUniform(data_rng, 200, 2, 12));
  }
  ExpectThreadCountInvariant([&](Cluster& cluster) {
    Rng rng(67);
    std::vector<DistRelation> atoms;
    for (const Relation& r : inputs) {
      atoms.push_back(DistRelation::Scatter(r, kServers));
    }
    GymOptions options;
    options.optimized = true;
    return GymJoin(cluster, q, StarGhd(q), atoms, rng, options).output;
  });
}

// The invariance also holds for thread counts exceeding the server count
// (idle workers must not perturb anything).
TEST(DeterminismTest, MoreThreadsThanServers) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  auto body = [&](Cluster& cluster) {
    return ParallelHashJoin(cluster, DistRelation::Scatter(left, kServers),
                            DistRelation::Scatter(right, kServers), {0}, {0});
  };
  const RunResult base = RunWith(1, body);
  const RunResult wide = RunWith(kServers * 2 + 3, body);
  ASSERT_EQ(base.fragments.size(), wide.fragments.size());
  for (size_t s = 0; s < base.fragments.size(); ++s) {
    EXPECT_EQ(base.fragments[s], wide.fragments[s]) << "fragment " << s;
  }
  ExpectSameReport(base.report, wide.report, kServers * 2 + 3);
}

// Mid-sized skewed input through every router: the core morsel-size
// invariance lock (tiny morsels split each fragment ~200 ways).
TEST(DeterminismTest, MorselSizeInvarianceAllRouters) {
  Rng rng(71);
  const Relation input = GenerateZipf(rng, 700, 2, 64, 0, 1.1);
  ExpectMorselInvariant([&](Cluster& cluster) {
    return ExerciseAllRouters(cluster,
                              DistRelation::Scatter(input, kServers));
  });
}

// Half the source fragments are empty: the tiling must skip them without
// perturbing the src-major output order of the survivors.
TEST(DeterminismTest, MorselBoundaryEmptyFragments) {
  Rng rng(73);
  std::vector<Relation> frags(kServers, Relation(2));
  for (int s = 1; s < kServers; s += 2) {
    frags[s] = GenerateUniform(rng, 40 + 13 * s, 2, 30);
  }
  const DistRelation in = DistRelation::FromFragments(std::move(frags));
  ExpectMorselInvariant(
      [&](Cluster& cluster) { return ExerciseAllRouters(cluster, in); });
}

// Every fragment is far smaller than the default morsel: one morsel per
// fragment, and with the tiny size still only a handful.
TEST(DeterminismTest, MorselBoundaryFragmentsSmallerThanOneMorsel) {
  Rng rng(79);
  const Relation input = GenerateUniform(rng, 10, 2, 20);
  ExpectMorselInvariant([&](Cluster& cluster) {
    return ExerciseAllRouters(cluster,
                              DistRelation::Scatter(input, kServers));
  });
}

// p = 1: every router degenerates to a self-copy, which must still be
// metered and tiled identically.
TEST(DeterminismTest, MorselBoundarySingleServer) {
  Rng rng(83);
  const Relation input = GenerateUniform(rng, 200, 2, 20);
  ExpectMorselInvariant(
      [&](Cluster& cluster) {
        return ExerciseAllRouters(cluster, DistRelation::Scatter(input, 1));
      },
      /*servers=*/1);
}

// More threads than input rows: most participants find their deques empty
// immediately and must idle (or steal nothing) without perturbing results.
TEST(DeterminismTest, MorselBoundaryThreadsExceedRows) {
  Rng rng(89);
  const Relation input = GenerateUniform(rng, 5, 2, 20);
  ExpectMorselInvariant([&](Cluster& cluster) {
    return ExerciseAllRouters(cluster,
                              DistRelation::Scatter(input, kServers));
  });
}

// All rows on one source: without morsels this serializes phase 1 and
// phase 2 behind a single per-source task; with them the single fragment
// tiles into ~1000 stealable ranges. Results must not change either way.
TEST(DeterminismTest, MorselBoundarySkewedSingleSource) {
  Rng rng(97);
  std::vector<Relation> frags(kServers, Relation(2));
  frags[0] = GenerateZipf(rng, 3000, 2, 40, 0, 1.4);
  const DistRelation in = DistRelation::FromFragments(std::move(frags));
  ExpectMorselInvariant(
      [&](Cluster& cluster) { return ExerciseAllRouters(cluster, in); });
}

// The distributed aggregate runs one serial per-server kernel on each
// side of its shuffle (combine, merge); the combine emits partials in
// insertion order and the merge sorts by key, so output AND cost report
// must hold across thread counts x morsel sizes.
TEST(DeterminismTest, DistributedGroupByAggregate) {
  Rng rng(131);
  const Relation input = GenerateZipf(rng, 4000, 3, 300, 0, 1.2);
  for (const AggregateOp op :
       {AggregateOp::kSum, AggregateOp::kCount, AggregateOp::kMax}) {
    ExpectMorselInvariant([&](Cluster& cluster) {
      return DistributedGroupByAggregate(
                 cluster, DistRelation::Scatter(input, kServers), {0, 1}, 2,
                 op)
          .value();
    });
  }
  // The no-combiner shuffle path routes raw rows through HashPartition.
  ExpectMorselInvariant([&](Cluster& cluster) {
    GroupByOptions options;
    options.use_combiners = false;
    return DistributedGroupByAggregate(cluster,
                                       DistRelation::Scatter(input, kServers),
                                       {0}, 1, AggregateOp::kSum, options)
        .value();
  });
}

// --- Concurrent serving determinism ---
//
// The third axis of the contract (DESIGN.md, "Serving runtime"): with
// several logical clusters ATTACHED TO ONE SHARED POOL, each in-flight
// query's output and CostReport must be bit-identical to its solo run.
// Everything per-query lives in the Cluster (cost shards, the hash-seed
// sequence, metrics), so interleaving morsels from K queries on the same
// workers must be invisible to each of them.

// A mixed bag of per-query workloads — different algorithms, different
// data — so concurrent clusters stress different code paths at once.
std::vector<std::function<DistRelation(Cluster&)>> ConcurrentBodies() {
  std::vector<std::function<DistRelation(Cluster&)>> bodies;
  {
    Rng rng(103);
    const Relation edges = GenerateRandomGraph(rng, 50, 400);
    const ConjunctiveQuery q = ConjunctiveQuery::Make(
        {"x", "y", "z"}, {{"R", {0, 1}}, {"S", {1, 2}}, {"T", {2, 0}}});
    bodies.push_back([edges, q](Cluster& cluster) {
      std::vector<DistRelation> atoms(
          3, DistRelation::Scatter(edges, cluster.num_servers()));
      return HyperCubeJoin(cluster, q, atoms).output;
    });
  }
  {
    Rng rng(107);
    const Relation left = GenerateZipf(rng, 500, 2, 40, 0, 1.2);
    const Relation right = GenerateZipf(rng, 500, 2, 40, 0, 1.2);
    bodies.push_back([left, right](Cluster& cluster) {
      return ParallelHashJoin(
          cluster, DistRelation::Scatter(left, cluster.num_servers()),
          DistRelation::Scatter(right, cluster.num_servers()), {0}, {0});
    });
  }
  {
    Rng rng(109);
    const Relation left = GenerateZipf(rng, 500, 2, 30, 0, 1.3);
    const Relation right = GenerateZipf(rng, 500, 2, 30, 0, 1.3);
    bodies.push_back([left, right](Cluster& cluster) {
      Rng join_rng(11);
      return SkewAwareJoin(cluster,
                           DistRelation::Scatter(left, cluster.num_servers()),
                           DistRelation::Scatter(right, cluster.num_servers()),
                           0, 0, join_rng);
    });
  }
  {
    Rng rng(113);
    const Relation input = GenerateUniform(rng, 600, 2, 800);
    bodies.push_back([input](Cluster& cluster) {
      PsrsOptions options;
      options.key_cols = {0, 1};
      return PsrsSort(cluster,
                      DistRelation::Scatter(input, cluster.num_servers()),
                      options)
          .sorted;
    });
  }
  {
    Rng rng(115);
    const Relation input = GenerateZipf(rng, 1200, 3, 200, 0, 1.3);
    bodies.push_back([input](Cluster& cluster) {
      return DistributedGroupByAggregate(
                 cluster,
                 DistRelation::Scatter(input, cluster.num_servers()), {0}, 2,
                 AggregateOp::kSum)
          .value();
    });
  }
  return bodies;
}

// Runs each body on its own Cluster attached to `pool` from its own OS
// thread, all truly in flight at once, and returns the per-query results.
std::vector<RunResult> RunConcurrently(
    const std::vector<std::function<DistRelation(Cluster&)>>& bodies,
    const std::shared_ptr<ThreadPool>& pool) {
  std::vector<RunResult> results(bodies.size());
  std::vector<std::thread> clients;
  clients.reserve(bodies.size());
  for (size_t i = 0; i < bodies.size(); ++i) {
    clients.emplace_back([&, i] {
      ClusterOptions options;
      options.shared_pool = pool;
      Cluster cluster(kServers, kSeed, options);
      Cluster::ScopedExecution scope(cluster);
      const DistRelation out = bodies[i](cluster);
      for (int s = 0; s < out.num_servers(); ++s) {
        results[i].fragments.push_back(out.fragment(s));
      }
      results[i].report = cluster.cost_report();
    });
  }
  for (std::thread& t : clients) t.join();
  return results;
}

// K distinct queries on one shared pool, checked fragment-by-fragment and
// round-by-round against their solo runs, at every thread count.
TEST(ConcurrentDeterminismTest, SharedPoolQueriesMatchSoloRuns) {
  const auto bodies = ConcurrentBodies();
  // Solo baselines: each query on its own single-threaded cluster.
  std::vector<RunResult> solo;
  for (const auto& body : bodies) solo.push_back(RunWith(1, body));

  for (const int threads : kThreadCounts) {
    const auto pool = std::make_shared<ThreadPool>(threads);
    const std::vector<RunResult> served = RunConcurrently(bodies, pool);
    ASSERT_EQ(solo.size(), served.size());
    for (size_t i = 0; i < solo.size(); ++i) {
      ASSERT_EQ(solo[i].fragments.size(), served[i].fragments.size())
          << "query " << i << " threads=" << threads;
      for (size_t s = 0; s < solo[i].fragments.size(); ++s) {
        EXPECT_EQ(solo[i].fragments[s], served[i].fragments[s])
            << "query " << i << " fragment " << s
            << " differs at threads=" << threads;
      }
      ExpectSameReport(solo[i].report, served[i].report, threads);
    }
  }
}

// Several clusters running the SAME query concurrently (the stampede
// shape the serving layer coalesces) must also all match the solo run —
// even without coalescing, sharing the pool may not leak state between
// identical queries.
TEST(ConcurrentDeterminismTest, IdenticalQueriesDoNotInterfere) {
  Rng rng(127);
  const Relation left = GenerateZipf(rng, 400, 2, 30, 0, 1.2);
  const Relation right = GenerateZipf(rng, 400, 2, 30, 0, 1.2);
  const auto body = [left, right](Cluster& cluster) {
    Rng join_rng(11);
    return SkewAwareJoin(cluster,
                         DistRelation::Scatter(left, cluster.num_servers()),
                         DistRelation::Scatter(right, cluster.num_servers()),
                         0, 0, join_rng);
  };
  const RunResult solo = RunWith(1, body);

  constexpr int kCopies = 6;
  for (const int threads : kThreadCounts) {
    const auto pool = std::make_shared<ThreadPool>(threads);
    const std::vector<RunResult> served = RunConcurrently(
        std::vector<std::function<DistRelation(Cluster&)>>(kCopies, body),
        pool);
    for (int i = 0; i < kCopies; ++i) {
      ASSERT_EQ(solo.fragments.size(), served[i].fragments.size());
      for (size_t s = 0; s < solo.fragments.size(); ++s) {
        EXPECT_EQ(solo.fragments[s], served[i].fragments[s])
            << "copy " << i << " fragment " << s << " threads=" << threads;
      }
      ExpectSameReport(solo.report, served[i].report, threads);
    }
  }
}

// p large enough to engage the write-combining copy path (p >= 256), for
// both the single-destination and the multicast router. Every run here
// stages (the path is chosen by p alone), so the oracle is the
// single-threaded default-morsel run: staged + flushed rows must land in
// the same positions across thread counts x morsel sizes, and morsel
// boundaries must not split or reorder a flush.
TEST(DeterminismTest, MorselBoundaryWriteCombiningCopy) {
  static constexpr int kWideServers = 256;
  Rng rng(101);
  const Relation input = GenerateUniform(rng, 6000, 2, 5000);
  ExpectMorselInvariant(
      [&](Cluster& cluster) {
        const HashFunction hash = cluster.NewHashFunction();
        const DistRelation in =
            DistRelation::Scatter(input, kWideServers);
        const DistRelation hashed =
            HashPartition(cluster, in, {0}, hash, "wc: hash");
        return Route(
            cluster, hashed,
            [](const Value* row, std::vector<int>& dests) {
              dests.push_back(static_cast<int>(row[0] % kWideServers));
              dests.push_back(static_cast<int>(row[1] % kWideServers));
            },
            "wc: multicast");
      },
      /*servers=*/kWideServers);
}

// --- Columnar scan invariance ---
//
// A group-by reading 2 of 6 columns crosses UseColumnarScan's input rule,
// so the engine's tree-merge and radix strategies scan compacted columns.
// The body shuffles the wide relation by its group column (one metered
// round) and runs the engine on every received fragment with the
// cluster's pool and morsel grain. Both strategies must reproduce the
// serial sorted-map strategy, which never compacts, bit for bit across
// thread counts x morsel sizes — outputs and CostReports.
std::function<DistRelation(Cluster&)> WideEngineGroupBy(
    const Relation& wide, GroupByStrategy strategy) {
  return [&wide, strategy](Cluster& cluster) {
    const DistRelation routed =
        HashPartition(cluster, DistRelation::Scatter(wide, kServers), {1},
                      cluster.NewHashFunction(), "wide group-by: shuffle");
    GroupByEngineOptions engine;
    engine.strategy = strategy;
    engine.pool = &cluster.pool();
    engine.morsel_rows = cluster.morsel_rows();
    DistRelation out(2, kServers);
    for (int s = 0; s < kServers; ++s) {
      out.fragment(s) = GroupByAggregateParallel(routed.fragment(s), {1}, 3,
                                                 AggregateOp::kSum, engine)
                            .value();
    }
    return out;
  };
}

TEST(ColumnarScanInvariance, WideGroupByMatchesSortedMap) {
  Rng rng(kSeed + 1);
  const Relation wide = GenerateZipf(rng, 12000, 6, 200, 1, 1.1);
  ASSERT_TRUE(UseColumnarScan(wide.arity(), 2));
  const RunResult reference =
      RunWith(1, WideEngineGroupBy(wide, GroupByStrategy::kSortedMap));
  EXPECT_GT(reference.report.num_rounds(), 0) << "body metered nothing";
  for (const GroupByStrategy strategy :
       {GroupByStrategy::kTreeMerge, GroupByStrategy::kRadix}) {
    for (const int threads : kThreadCounts) {
      for (const int64_t morsel : kMorselSizes) {
        const RunResult got =
            RunWith(threads, WideEngineGroupBy(wide, strategy), morsel);
        ASSERT_EQ(reference.fragments.size(), got.fragments.size());
        for (size_t s = 0; s < reference.fragments.size(); ++s) {
          EXPECT_EQ(reference.fragments[s], got.fragments[s])
              << "fragment " << s << " differs at strategy="
              << GroupByStrategyName(strategy) << " threads=" << threads
              << " morsel=" << morsel;
        }
        ExpectSameReport(reference.report, got.report, threads);
      }
    }
  }
}

// --- SIMD ISA invariance ---
//
// The fourth axis of the contract: the dispatched SIMD level (scalar vs
// the best this hardware offers) selects the instruction sequence of the
// hot kernels — route hashing, bucket routing, group hashes — and every
// kernel is bit-identical to its scalar reference by construction. These
// sweeps prove it end to end: outputs and CostReports from forced-scalar
// runs must match the best-ISA runs across exchange, group-by, and
// semijoin paths x thread counts x morsel sizes.

// Both interesting levels: the scalar reference and whatever the box
// actually dispatches (deduped — on a scalar-only box the sweep still
// runs, trivially).
std::vector<simd::IsaLevel> IsaAxis() {
  std::vector<simd::IsaLevel> axis = {simd::IsaLevel::kScalar};
  const simd::IsaLevel best = [] {
    simd::ScopedIsaOverride best_over(simd::DetectedIsa());
    return simd::DispatchedIsa();
  }();
  if (best != simd::IsaLevel::kScalar) axis.push_back(best);
  return axis;
}

void ExpectSimdInvariant(const std::function<DistRelation(Cluster&)>& body) {
  const RunResult base = [&] {
    simd::ScopedIsaOverride over(simd::IsaLevel::kScalar);
    return RunWith(1, body);
  }();
  EXPECT_GT(base.report.num_rounds(), 0) << "body metered nothing";
  for (const simd::IsaLevel level : IsaAxis()) {
    simd::ScopedIsaOverride over(level);
    for (const int threads : kThreadCounts) {
      for (const int64_t morsel : kMorselSizes) {
        const RunResult got = RunWith(threads, body, morsel);
        ASSERT_EQ(base.fragments.size(), got.fragments.size());
        for (size_t s = 0; s < base.fragments.size(); ++s) {
          EXPECT_EQ(base.fragments[s], got.fragments[s])
              << "fragment " << s << " differs at isa="
              << simd::IsaLevelName(level) << " threads=" << threads
              << " morsel=" << morsel;
        }
        ExpectSameReport(base.report, got.report, threads);
      }
    }
  }
}

// Every exchange router over a wide relation: HashMany/BucketMany run
// under the single-destination, broadcast, multicast, and gather paths,
// and the shuffled bytes (hence destinations) must agree exactly.
TEST(SimdInvariance, ExchangeAllRouters) {
  Rng rng(kSeed + 10);
  const Relation wide = GenerateUniform(rng, 20000, 5, 500);
  ExpectSimdInvariant([&](Cluster& cluster) {
    return ExerciseAllRouters(cluster,
                              DistRelation::Scatter(wide, kServers));
  });
}

// Semijoin probes: batched KeyIndex hashing (HashMany) sits under
// DistributedSemijoin.
TEST(SimdInvariance, Semijoin) {
  Relation left, right;
  MakeJoinInputs(&left, &right);
  ExpectSimdInvariant([&](Cluster& cluster) {
    return DistributedSemijoin(cluster, DistRelation::Scatter(left, kServers),
                               DistRelation::Scatter(right, kServers), {0},
                               {0});
  });
}

// Group-by reading 2 of 6 columns, so the input rule compacts the
// engine's scans: they batch their hashes through GroupHashMany; both
// pinned strategies plus the distributed group-by must reproduce the
// scalar run bit for bit.
TEST(SimdInvariance, GroupByColumnarScans) {
  Rng rng(kSeed + 11);
  const Relation wide = GenerateZipf(rng, 12000, 6, 200, 1, 1.1);
  for (const GroupByStrategy strategy :
       {GroupByStrategy::kTreeMerge, GroupByStrategy::kRadix}) {
    ExpectSimdInvariant(WideEngineGroupBy(wide, strategy));
  }
  ExpectSimdInvariant([&](Cluster& cluster) {
    return DistributedGroupByAggregate(cluster,
                                       DistRelation::Scatter(wide, kServers),
                                       {1}, 3, AggregateOp::kSum)
        .value();
  });
}

}  // namespace
}  // namespace mpcqp
