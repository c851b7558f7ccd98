#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/cost.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// ---------- DistRelation ----------

TEST(DistRelationTest, ScatterSplitsEvenly) {
  Rng rng(1);
  const Relation input = GenerateUniform(rng, 100, 2, 1000);
  const DistRelation dist = DistRelation::Scatter(input, 8);
  EXPECT_EQ(dist.TotalSize(), 100);
  for (int s = 0; s < 8; ++s) {
    EXPECT_GE(dist.fragment(s).size(), 100 / 8);
    EXPECT_LE(dist.fragment(s).size(), 100 / 8 + 1);
  }
  EXPECT_TRUE(MultisetEqual(dist.Collect(), input));
}

TEST(DistRelationTest, ScatterMoreServersThanRows) {
  const Relation input = Relation::FromRows({{1, 2}, {3, 4}});
  const DistRelation dist = DistRelation::Scatter(input, 16);
  EXPECT_EQ(dist.TotalSize(), 2);
  EXPECT_EQ(dist.MaxFragmentSize(), 1);
}

TEST(DistRelationTest, FromFragmentsChecksArity) {
  std::vector<Relation> frags;
  frags.push_back(Relation::FromRows({{1, 2}}));
  frags.push_back(Relation(2));
  const DistRelation dist = DistRelation::FromFragments(std::move(frags));
  EXPECT_EQ(dist.num_servers(), 2);
  EXPECT_EQ(dist.arity(), 2);
}

TEST(DistRelationTest, AppendRowIdsNumbersRowsInServerOrder) {
  const DistRelation rel = DistRelation::FromFragments(
      {Relation::FromRows({{5, 6}, {7, 8}}), Relation(2),
       Relation::FromRows({{9, 9}})});
  const DistRelation with_ids = AppendRowIds(rel);
  ASSERT_EQ(with_ids.arity(), 3);
  EXPECT_EQ(with_ids.fragment(0), Relation::FromRows({{5, 6, 0}, {7, 8, 1}}));
  EXPECT_TRUE(with_ids.fragment(1).empty());
  EXPECT_EQ(with_ids.fragment(2), Relation::FromRows({{9, 9, 2}}));
}

// ---------- Cluster metering ----------

TEST(ClusterTest, RoundBookkeeping) {
  Cluster cluster(4, 1);
  EXPECT_EQ(cluster.cost_report().num_rounds(), 0);
  cluster.BeginRound("r1");
  cluster.RecordMessage(0, 1, 10, 20);
  cluster.RecordMessage(2, 1, 5, 10);
  cluster.EndRound();
  ASSERT_EQ(cluster.cost_report().num_rounds(), 1);
  const RoundCost& round = cluster.cost_report().rounds()[0];
  EXPECT_EQ(round.label, "r1");
  EXPECT_EQ(round.tuples_received[1], 15);
  EXPECT_EQ(round.values_received[1], 30);
  EXPECT_EQ(round.tuples_sent[0], 10);
  EXPECT_EQ(round.MaxTuplesReceived(), 15);
  EXPECT_EQ(round.TotalTuplesReceived(), 15);
}

TEST(ClusterTest, ReportAggregates) {
  Cluster cluster(2, 1);
  cluster.BeginRound("a");
  cluster.RecordMessage(0, 1, 7, 7);
  cluster.EndRound();
  cluster.BeginRound("b");
  cluster.RecordMessage(1, 0, 3, 3);
  cluster.EndRound();
  EXPECT_EQ(cluster.cost_report().num_rounds(), 2);
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 7);
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 10);
  cluster.ResetCosts();
  EXPECT_EQ(cluster.cost_report().num_rounds(), 0);
}

TEST(CostReportTest, ToStringMentionsEveryRound) {
  Cluster cluster(2, 1);
  cluster.BeginRound("alpha");
  cluster.RecordMessage(0, 1, 3, 3);
  cluster.EndRound();
  cluster.BeginRound("beta");
  cluster.EndRound();
  const std::string text = cluster.cost_report().ToString();
  EXPECT_NE(text.find("rounds=2"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
  EXPECT_NE(text.find("L(tuples)=3"), std::string::npos);
}

TEST(ClusterTest, NewHashFunctionsDiffer) {
  Cluster cluster(2, 42);
  const HashFunction a = cluster.NewHashFunction();
  const HashFunction b = cluster.NewHashFunction();
  int same = 0;
  for (uint64_t v = 0; v < 100; ++v) {
    if (a.Hash(v) == b.Hash(v)) ++same;
  }
  EXPECT_EQ(same, 0);
}

// ---------- Exchange primitives ----------

TEST(ExchangeTest, HashPartitionDeliversEveryTupleOnce) {
  Rng rng(7);
  Cluster cluster(8, 3);
  const Relation input = GenerateUniform(rng, 500, 2, 100);
  const DistRelation dist = DistRelation::Scatter(input, 8);
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation parts = HashPartition(cluster, dist, {0}, hash, "test");
  EXPECT_TRUE(MultisetEqual(parts.Collect(), input));
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
  // Every tuple moved once -> total received = 500.
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 500);
}

TEST(ExchangeTest, HashPartitionColocatesKeys) {
  Rng rng(7);
  Cluster cluster(4, 3);
  const Relation input = GenerateUniform(rng, 200, 2, 10);
  const DistRelation dist = DistRelation::Scatter(input, 4);
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation parts = HashPartition(cluster, dist, {1}, hash, "test");
  // Every key appears on exactly one server.
  for (uint64_t key = 0; key < 10; ++key) {
    int servers_with_key = 0;
    for (int s = 0; s < 4; ++s) {
      const Relation& frag = parts.fragment(s);
      for (int64_t i = 0; i < frag.size(); ++i) {
        if (frag.at(i, 1) == key) {
          ++servers_with_key;
          break;
        }
      }
    }
    EXPECT_LE(servers_with_key, 1) << "key " << key;
  }
}

// HashPartition's single-key plan buckets the key column in place at
// arity 1 and gathers it per morsel otherwise; multi-column keys take the
// per-row HashSpan loop. Every row must land on the server the per-row
// hash names, on a pool and with morsels that split every fragment.
TEST(ExchangeTest, HashPartitionRoutesToPerRowBucketAtEveryArity) {
  constexpr int kServers = 16;
  struct Shape {
    int arity;
    std::vector<int> key_cols;
  };
  for (const Shape& shape : {Shape{1, {0}}, Shape{5, {3}}, Shape{5, {1, 4}}}) {
    Rng rng(11);
    ClusterOptions options;
    options.num_threads = 4;
    options.morsel_rows = 7;
    Cluster cluster(kServers, 5, options);
    const Relation input = GenerateUniform(rng, 600, shape.arity, 1000);
    const HashFunction hash = cluster.NewHashFunction();
    const DistRelation parts =
        HashPartition(cluster, DistRelation::Scatter(input, kServers),
                      shape.key_cols, hash, "route");
    EXPECT_TRUE(MultisetEqual(parts.Collect(), input));
    std::vector<Value> key(shape.key_cols.size());
    for (int s = 0; s < kServers; ++s) {
      const Relation& frag = parts.fragment(s);
      for (int64_t i = 0; i < frag.size(); ++i) {
        for (size_t k = 0; k < key.size(); ++k) {
          key[k] = frag.at(i, shape.key_cols[k]);
        }
        const uint64_t h =
            hash.HashSpan(key.data(), static_cast<int>(key.size()));
        const int expected = static_cast<int>(
            (static_cast<unsigned __int128>(h) * kServers) >> 64);
        ASSERT_EQ(expected, s) << "arity " << shape.arity << " keys "
                               << shape.key_cols.size() << " row " << i;
        if (key.size() == 1) {
          ASSERT_EQ(hash.Bucket(key[0], kServers), s);
        }
      }
    }
  }
}

TEST(ExchangeTest, BroadcastReplicatesEverywhere) {
  Rng rng(9);
  Cluster cluster(5, 3);
  const Relation input = GenerateUniform(rng, 40, 2, 100);
  const DistRelation dist = DistRelation::Scatter(input, 5);
  const DistRelation replicated = Broadcast(cluster, dist, "test");
  for (int s = 0; s < 5; ++s) {
    EXPECT_TRUE(MultisetEqual(replicated.fragment(s), input));
  }
  // Load: every server received the whole input.
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 40);
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 200);
}

TEST(ExchangeTest, RangePartitionRespectsSplitters) {
  Cluster cluster(3, 3);
  const Relation input =
      Relation::FromRows({{1}, {5}, {10}, {15}, {20}, {10}});
  const DistRelation dist = DistRelation::Scatter(input, 3);
  const DistRelation parts =
      RangePartition(cluster, dist, 0, {10, 20}, "test");
  // splitters {10, 20}: server 0 gets v < 10; 10 goes to server 1
  // (upper_bound), 20 to server 2.
  for (int64_t i = 0; i < parts.fragment(0).size(); ++i) {
    EXPECT_LT(parts.fragment(0).at(i, 0), 10u);
  }
  for (int64_t i = 0; i < parts.fragment(1).size(); ++i) {
    EXPECT_GE(parts.fragment(1).at(i, 0), 10u);
    EXPECT_LT(parts.fragment(1).at(i, 0), 20u);
  }
  EXPECT_TRUE(MultisetEqual(parts.Collect(), input));
}

TEST(ExchangeTest, RouteMulticastCountsEveryCopy) {
  Cluster cluster(4, 3);
  const Relation input = Relation::FromRows({{1}, {2}});
  const DistRelation dist = DistRelation::Scatter(input, 4);
  const DistRelation routed = Route(
      cluster, dist,
      [](int, const Relation&, int64_t begin, int64_t end, RouteSink& sink) {
        for (int64_t i = begin; i < end; ++i) {
          sink.Add(0);
          sink.Add(2);
          sink.EndRow();
        }
      },
      "multicast");
  EXPECT_EQ(routed.fragment(0).size(), 2);
  EXPECT_EQ(routed.fragment(2).size(), 2);
  EXPECT_EQ(routed.fragment(1).size(), 0);
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 4);
}

TEST(ExchangeTest, RouteCanDropTuples) {
  Cluster cluster(2, 3);
  const Relation input = Relation::FromRows({{1}, {2}, {3}});
  const DistRelation dist = DistRelation::Scatter(input, 2);
  const DistRelation routed = Route(
      cluster, dist,
      [](int, const Relation& frag, int64_t begin, int64_t end,
         RouteSink& sink) {
        for (int64_t i = begin; i < end; ++i) {
          if (frag.row(i)[0] != 2) sink.Add(0);
          sink.EndRow();
        }
      },
      "filter");
  EXPECT_EQ(routed.TotalSize(), 2);
}

// ---------- RouteGrid and the batched Route against serial references ----

// The per-row destinations of a route, as a serial reference sees them.
using RowDests =
    std::function<std::vector<int>(int src, int64_t row, const Value* data)>;

// Routes `rel` one row at a time: sources in order, rows ascending, each
// row appended to every destination it lists, in list order. Returns the
// fragments and the round's metered cost.
std::pair<std::vector<Relation>, RoundCost> SerialRoute(
    const DistRelation& rel, const RowDests& dests_of) {
  const int p = rel.num_servers();
  const int arity = rel.arity();
  std::vector<Relation> out(p, Relation(arity));
  RoundCost cost(p);
  for (int src = 0; src < p; ++src) {
    const Relation& frag = rel.fragment(src);
    for (int64_t i = 0; i < frag.size(); ++i) {
      for (const int dst : dests_of(src, i, frag.row(i))) {
        out[dst].AppendRowFrom(frag, i);
        cost.tuples_sent[src] += 1;
        cost.values_sent[src] += arity;
        cost.tuples_received[dst] += 1;
        cost.values_received[dst] += arity;
      }
    }
  }
  return {std::move(out), std::move(cost)};
}

void ExpectMatchesSerial(const DistRelation& routed, const RoundCost& got,
                         const std::pair<std::vector<Relation>, RoundCost>&
                             expected,
                         const std::string& where) {
  ASSERT_EQ(routed.num_servers(),
            static_cast<int>(expected.first.size()));
  for (int s = 0; s < routed.num_servers(); ++s) {
    EXPECT_TRUE(routed.fragment(s) == expected.first[s])
        << where << ": fragment " << s;
  }
  EXPECT_EQ(got.tuples_received, expected.second.tuples_received) << where;
  EXPECT_EQ(got.values_received, expected.second.values_received) << where;
  EXPECT_EQ(got.tuples_sent, expected.second.tuples_sent) << where;
  EXPECT_EQ(got.values_sent, expected.second.values_sent) << where;
}

// Input with empty fragments: servers 1 and 5 hold nothing, server 3 holds
// most rows (so morsels of 7 split it many times).
DistRelation UnevenInput(int p) {
  Rng rng(17);
  std::vector<Relation> frags(p, Relation(3));
  for (int s = 0; s < p; ++s) {
    if (s == 1 || s == 5) continue;
    frags[s] = GenerateUniform(rng, s == 3 ? 500 : 40, 3, 1000);
  }
  return DistRelation::FromFragments(std::move(frags));
}

struct RouterConfig {
  int threads;
  int64_t morsel_rows;
};

std::vector<RouterConfig> RouterConfigs() {
  std::vector<RouterConfig> configs;
  for (const int threads : {1, 2, 8}) {
    for (const int64_t morsel_rows : {int64_t{1}, int64_t{7}, int64_t{8192}}) {
      configs.push_back({threads, morsel_rows});
    }
  }
  return configs;
}

Cluster MakeCluster(int p, const RouterConfig& config) {
  ClusterOptions options;
  options.num_threads = config.threads;
  options.morsel_rows = config.morsel_rows;
  return Cluster(p, 5, options);
}

// A 2 x 2 x 2 grid over 8 servers: the base fixes coordinate 0 from
// column 1, and the row is multicast over coordinates 1 and 2 (strides 2
// and 4).
const std::vector<int> kGridOffsets = {0, 2, 4, 6};

int32_t GridBaseOfRow(const Value* row) {
  return static_cast<int32_t>(row[1] % 2);
}

DistRelation RouteTestGrid(Cluster& cluster, const DistRelation& in) {
  return RouteGrid(
      cluster, in,
      [](const Relation& frag, int64_t begin, int64_t end, int32_t* base) {
        for (int64_t i = begin; i < end; ++i) {
          base[i - begin] = GridBaseOfRow(frag.row(i));
        }
      },
      kGridOffsets, "grid");
}

std::pair<std::vector<Relation>, RoundCost> SerialTestGrid(
    const DistRelation& in) {
  return SerialRoute(in, [](int, int64_t, const Value* row) {
    std::vector<int> dests;
    for (const int off : kGridOffsets) {
      dests.push_back(GridBaseOfRow(row) + off);
    }
    return dests;
  });
}

std::string Where(const RouterConfig& config) {
  return "threads=" + std::to_string(config.threads) +
         " morsel_rows=" + std::to_string(config.morsel_rows);
}

TEST(RouteGridTest, MatchesSerialReference) {
  constexpr int kP = 8;
  const DistRelation in = UnevenInput(kP);
  const auto expected = SerialTestGrid(in);
  for (const RouterConfig& config : RouterConfigs()) {
    Cluster cluster = MakeCluster(kP, config);
    const DistRelation routed = RouteTestGrid(cluster, in);
    ExpectMatchesSerial(routed, cluster.cost_report().rounds().at(0),
                        expected, Where(config));
  }
}

// The grid routes each slab once: every server past the two bases holds a
// handle to its base's fragment, and the bytes and the metered round
// still equal the serial per-copy route.
TEST(RouteGridTest, SlabMatesSharePayload) {
  constexpr int kP = 8;
  const DistRelation in = UnevenInput(kP);
  const auto expected = SerialTestGrid(in);
  for (const RouterConfig& config : RouterConfigs()) {
    Cluster cluster = MakeCluster(kP, config);
    const DistRelation routed = RouteTestGrid(cluster, in);
    for (int s = 2; s < kP; ++s) {
      EXPECT_TRUE(routed.fragment(s).SharesPayloadWith(routed.fragment(s % 2)))
          << Where(config) << ": server " << s;
    }
    EXPECT_FALSE(routed.fragment(0).SharesPayloadWith(routed.fragment(1)))
        << Where(config);
    ExpectMatchesSerial(routed, cluster.cost_report().rounds().at(0),
                        expected, Where(config));
  }
}

TEST(RouteGridTest, AllEmptyInput) {
  Cluster cluster(4, 5);
  const DistRelation in(2, 4);
  const DistRelation routed = RouteGrid(
      cluster, in,
      [](const Relation&, int64_t, int64_t, int32_t*) {
        ADD_FAILURE() << "no morsel to route";
      },
      {0, 1}, "empty");
  EXPECT_EQ(routed.TotalSize(), 0);
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 0);
}

// Offsets {0} with the hash bucket as base is HashPartition, fragment for
// fragment and cost for cost.
TEST(RouteGridTest, SingleZeroOffsetReproducesHashPartition) {
  constexpr int kP = 8;
  const DistRelation in = UnevenInput(kP);
  for (const RouterConfig& config : RouterConfigs()) {
    Cluster hashed_cluster = MakeCluster(kP, config);
    Cluster grid_cluster = MakeCluster(kP, config);
    const HashFunction hash(0xabcULL);
    const DistRelation hashed =
        HashPartition(hashed_cluster, in, {2}, hash, "hash");
    const DistRelation grid = RouteGrid(
        grid_cluster, in,
        [&](const Relation& frag, int64_t begin, int64_t end,
            int32_t* base) {
          for (int64_t i = begin; i < end; ++i) {
            base[i - begin] = hash.Bucket(frag.row(i)[2], kP);
          }
        },
        {0}, "hash");
    for (int s = 0; s < kP; ++s) {
      EXPECT_TRUE(hashed.fragment(s) == grid.fragment(s)) << "fragment " << s;
    }
    const RoundCost& a = hashed_cluster.cost_report().rounds().at(0);
    const RoundCost& b = grid_cluster.cost_report().rounds().at(0);
    EXPECT_EQ(a.tuples_received, b.tuples_received);
    EXPECT_EQ(a.values_received, b.values_received);
    EXPECT_EQ(a.tuples_sent, b.tuples_sent);
    EXPECT_EQ(a.values_sent, b.values_sent);
  }
}

// The batched Route with rows that list no destination (dropped), one, and
// many (every server, then a repeated one), each row's list depending on
// its coordinates.
TEST(RouteTest, MatchesSerialReferenceWithZeroAndManyDestinations) {
  constexpr int kP = 8;
  const DistRelation in = UnevenInput(kP);
  const auto dests_of = [](int src, int64_t row, const Value* data) {
    std::vector<int> dests;
    switch ((data[0] + row) % 4) {
      case 0:
        break;  // Dropped.
      case 1:
        dests.push_back(static_cast<int>((src + row) % kP));
        break;
      case 2:
        for (int d = kP - 1; d >= 0; --d) dests.push_back(d);
        break;
      default:
        dests.push_back(static_cast<int>(data[1] % kP));
        dests.push_back(static_cast<int>(data[1] % kP));
        dests.push_back(static_cast<int>(data[2] % kP));
    }
    return dests;
  };
  const auto expected = SerialRoute(in, dests_of);
  for (const RouterConfig& config : RouterConfigs()) {
    Cluster cluster = MakeCluster(kP, config);
    const DistRelation routed = Route(
        cluster, in,
        [&](int src, const Relation& frag, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            for (const int d : dests_of(src, i, frag.row(i))) sink.Add(d);
            sink.EndRow();
          }
        },
        "multicast");
    ExpectMatchesSerial(routed, cluster.cost_report().rounds().at(0),
                        expected,
                        "threads=" + std::to_string(config.threads) +
                            " morsel_rows=" +
                            std::to_string(config.morsel_rows));
  }
}

TEST(ExchangeTest, GatherToServer) {
  Rng rng(5);
  Cluster cluster(4, 3);
  const Relation input = GenerateUniform(rng, 30, 1, 7);
  const DistRelation dist = DistRelation::Scatter(input, 4);
  const Relation gathered = GatherToServer(cluster, dist, 2, "gather");
  EXPECT_TRUE(MultisetEqual(gathered, input));
  const RoundCost& round = cluster.cost_report().rounds()[0];
  EXPECT_EQ(round.tuples_received[2], 30);
  EXPECT_EQ(round.tuples_received[0], 0);
}

TEST(ExchangeTest, MergedRoundViaScope) {
  Rng rng(5);
  Cluster cluster(4, 3);
  const Relation input = GenerateUniform(rng, 16, 2, 50);
  const DistRelation dist = DistRelation::Scatter(input, 4);
  const HashFunction hash = cluster.NewHashFunction();
  cluster.BeginRound("merged");
  HashPartition(cluster, dist, {0}, hash, "");
  HashPartition(cluster, dist, {1}, hash, "");
  cluster.EndRound();
  EXPECT_EQ(cluster.cost_report().num_rounds(), 1);
  EXPECT_EQ(cluster.cost_report().TotalCommTuples(), 32);
}

TEST(ExchangeTest, SentEqualsReceivedEveryRound) {
  Rng rng(8);
  Cluster cluster(6, 3);
  const Relation input = GenerateUniform(rng, 300, 2, 40);
  const DistRelation dist = DistRelation::Scatter(input, 6);
  const HashFunction hash = cluster.NewHashFunction();
  HashPartition(cluster, dist, {0}, hash, "a");
  Broadcast(cluster, dist, "b");
  for (const RoundCost& round : cluster.cost_report().rounds()) {
    int64_t sent = 0;
    int64_t received = 0;
    int64_t sent_values = 0;
    int64_t received_values = 0;
    for (int s = 0; s < 6; ++s) {
      sent += round.tuples_sent[s];
      received += round.tuples_received[s];
      sent_values += round.values_sent[s];
      received_values += round.values_received[s];
    }
    EXPECT_EQ(sent, received) << round.label;
    EXPECT_EQ(sent_values, received_values) << round.label;
  }
}

TEST(ExchangeTest, DeterministicGivenSeeds) {
  // Same (p, cluster seed, data seed) -> bit-identical fragments and
  // meter readings: the property every bench relies on.
  auto run = [](int64_t* load) {
    Rng rng(9);
    Cluster cluster(8, 77);
    const Relation input = GenerateUniform(rng, 500, 2, 90);
    const HashFunction hash = cluster.NewHashFunction();
    const DistRelation parts = HashPartition(
        cluster, DistRelation::Scatter(input, 8), {1}, hash, "d");
    *load = cluster.cost_report().MaxLoadTuples();
    return parts.Collect();
  };
  int64_t load_a = 0;
  int64_t load_b = 0;
  const Relation a = run(&load_a);
  const Relation b = run(&load_b);
  EXPECT_TRUE(a == b);
  EXPECT_EQ(load_a, load_b);
}

TEST(ExchangeTest, SingleServerClusterWorks) {
  Rng rng(5);
  Cluster cluster(1, 3);
  const Relation input = GenerateUniform(rng, 10, 2, 5);
  const DistRelation dist = DistRelation::Scatter(input, 1);
  const HashFunction hash = cluster.NewHashFunction();
  const DistRelation parts = HashPartition(cluster, dist, {0}, hash, "p1");
  EXPECT_TRUE(MultisetEqual(parts.Collect(), input));
  EXPECT_EQ(cluster.cost_report().MaxLoadTuples(), 10);
}

}  // namespace
}  // namespace mpcqp
