// The serving runtime: catalog fingerprints, result cache, in-flight
// coalescing, admission control, memory budgets — and the end-to-end
// guarantee that a served answer is exactly the solo answer.

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "query/local_eval.h"
#include "query/query.h"
#include "relation/relation_ops.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/load_driver.h"
#include "serve/query_server.h"
#include "serve/result_cache.h"
#include "test_data.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

Relation SmallRelation(uint64_t seed, int64_t rows = 300) {
  Rng rng(seed);
  return GenerateUniform(rng, rows, 2, 60);
}

// --- Catalog ---

TEST(CatalogTest, FingerprintTracksContent) {
  Catalog catalog;
  const Relation a = SmallRelation(1);
  const Relation b = SmallRelation(2);
  EXPECT_EQ(catalog.Register("R", a), 1);
  Catalog::Entry entry;
  ASSERT_TRUE(catalog.Find("R", &entry));
  const uint64_t first = entry.fingerprint;
  EXPECT_EQ(first, FingerprintRelation(a));

  // Same content re-registered: version bumps, fingerprint stays.
  EXPECT_EQ(catalog.Register("R", a), 2);
  ASSERT_TRUE(catalog.Find("R", &entry));
  EXPECT_EQ(entry.fingerprint, first);

  // New content: fingerprint changes.
  EXPECT_EQ(catalog.Register("R", b), 3);
  ASSERT_TRUE(catalog.Find("R", &entry));
  EXPECT_NE(entry.fingerprint, first);

  EXPECT_FALSE(catalog.Find("missing", &entry));
}

// --- Result cache ---

TEST(ResultCacheTest, LruEvictsOldest) {
  ResultCache cache(/*max_entries=*/2);
  Relation r1(1);
  r1.AppendRow({1});
  Relation r2(1);
  r2.AppendRow({2});
  Relation r3(1);
  r3.AppendRow({3});
  cache.Insert("a", r1);
  cache.Insert("b", r2);
  Relation out;
  ASSERT_TRUE(cache.Lookup("a", &out));  // Refreshes "a".
  EXPECT_EQ(out, r1);
  cache.Insert("c", r3);                 // Evicts "b", not "a".
  EXPECT_FALSE(cache.Lookup("b", &out));
  EXPECT_TRUE(cache.Lookup("a", &out));
  EXPECT_TRUE(cache.Lookup("c", &out));
  EXPECT_EQ(cache.counters().evictions, 1);
}

// --- Admission control ---

TEST(AdmissionTest, BoundsInflightAndRejectsOverflow) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queued=*/0);
  ASSERT_TRUE(admission.Admit(100).ok());
  // Slot taken, queue empty: the next request is rejected immediately.
  const Status rejected = admission.Admit(100);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  admission.Release(100);
  EXPECT_TRUE(admission.Admit(100).ok());
  admission.Release(100);
  const AdmissionController::Counters counters = admission.counters();
  EXPECT_EQ(counters.admitted, 2);
  EXPECT_EQ(counters.rejected_overload, 1);
  EXPECT_EQ(counters.inflight, 0);
  EXPECT_EQ(counters.peak_inflight, 1);
}

TEST(AdmissionTest, QueuedRequestProceedsAfterRelease) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queued=*/4);
  ASSERT_TRUE(admission.Admit(1).ok());
  std::atomic<bool> second_admitted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(admission.Admit(1).ok());
    second_admitted = true;
    admission.Release(1);
  });
  // The waiter must be blocked, not rejected.
  EXPECT_FALSE(second_admitted.load());
  admission.Release(1);
  waiter.join();
  EXPECT_TRUE(second_admitted.load());
  EXPECT_EQ(admission.counters().rejected_overload, 0);
}

// --- QueryServer ---

ServeOptions TestOptions() {
  ServeOptions options;
  options.num_servers = 8;
  options.max_inflight = 2;
  options.max_queued = 1 << 10;
  return options;
}

TEST(QueryServerTest, AnswersMatchSerialEvaluation) {
  Catalog catalog;
  const Relation r = SmallRelation(11);
  const Relation s = SmallRelation(13);
  catalog.Register("R", r);
  catalog.Register("S", s);
  QueryServer server(&catalog, TestOptions());

  const auto result = server.Execute("R(x,y), S(y,z)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->result_cache_hit);
  EXPECT_GT(result->stats.num_rounds, 0);

  const auto query = ConjunctiveQuery::Parse("R(x,y), S(y,z)");
  const Relation expected = EvalJoinLocal(*query, {r, s});
  EXPECT_TRUE(MultisetEqual(result->output, expected));
}

TEST(QueryServerTest, ErrorsAreTyped) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(11));
  QueryServer server(&catalog, TestOptions());

  EXPECT_EQ(server.Execute("not a query").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Execute("R(x,y), Missing(y,z)").status().code(),
            StatusCode::kNotFound);
  // Arity mismatch between the query and the registered relation.
  EXPECT_EQ(server.Execute("R(x,y,z), R(z,w,v)").status().code(),
            StatusCode::kInvalidArgument);

  // An unknown algorithm name, and GYM forced on a cyclic query, fail
  // before admission: nothing is admitted and nothing stays in flight.
  ServeOptions bogus = TestOptions();
  bogus.algorithm = "bogus";
  QueryServer bogus_server(&catalog, bogus);
  EXPECT_EQ(bogus_server.Execute("R(x,y), R(y,z)").status().code(),
            StatusCode::kInvalidArgument);
  ServeOptions gym = TestOptions();
  gym.algorithm = "gym";
  QueryServer gym_server(&catalog, gym);
  EXPECT_EQ(gym_server.Execute("R(x,y), R(y,z), R(z,x)").status().code(),
            StatusCode::kInvalidArgument);
  // So does an aggregate naming an unknown variable, or a SUM without one.
  QueryServer agg_server(&catalog, TestOptions());
  for (const AggregateSpec& spec :
       {AggregateSpec{{"bogus"}, AggregateOp::kCount, ""},
        AggregateSpec{{"x"}, AggregateOp::kSum, "nonexistent"},
        AggregateSpec{{"x"}, AggregateOp::kSum, ""}}) {
    EXPECT_EQ(agg_server.Execute("R(x,y), R(y,z)", spec).status().code(),
              StatusCode::kInvalidArgument);
  }
  for (const QueryServer* rejecting :
       {&bogus_server, &gym_server, &agg_server}) {
    EXPECT_EQ(rejecting->admission().counters().admitted, 0);
    EXPECT_EQ(rejecting->admission().counters().inflight, 0);
  }
}

TEST(QueryServerTest, ResultCacheHitsAndInvalidatesOnRegister) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(11));
  catalog.Register("S", SmallRelation(13));
  QueryServer server(&catalog, TestOptions());

  const auto cold = server.Execute("R(x,y), S(y,z)");
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->result_cache_hit);

  const auto warm = server.Execute("R(x,y), S(y,z)");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cache_hit);
  EXPECT_EQ(warm->output, cold->output);
  EXPECT_EQ(server.counters().executed, 1);

  // New data under the same name: the fingerprint changes, so the key
  // changes and the query re-executes.
  catalog.Register("S", SmallRelation(17));
  const auto after = server.Execute("R(x,y), S(y,z)");
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cache_hit);
  EXPECT_EQ(server.counters().executed, 2);

  // Different spelling of the same shape is a different result key (the
  // result cache is exact-text; the plan cache is what handles isomorphs).
  const auto respelled = server.Execute("R(a,b), S(b,c)");
  ASSERT_TRUE(respelled.ok());
  EXPECT_FALSE(respelled->result_cache_hit);
  EXPECT_TRUE(MultisetEqual(respelled->output, after->output));
}

TEST(QueryServerTest, ConcurrentIdenticalQueriesExecuteOnce) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(19, /*rows=*/1500));
  catalog.Register("S", SmallRelation(23, /*rows=*/1500));
  QueryServer server(&catalog, TestOptions());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<StatusOr<QueryResult>> results(kClients,
                                             InvalidArgumentError("unset"));
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [&, i] { results[i] = server.Execute("R(x,y), S(y,z)"); });
  }
  for (std::thread& t : clients) t.join();

  int64_t answered = 0;
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ++answered;
    EXPECT_EQ(result->output, results[0]->output);
  }
  EXPECT_EQ(answered, kClients);
  // One execution; everyone else coalesced onto it or hit the cache.
  EXPECT_EQ(server.counters().executed, 1);
  EXPECT_EQ(server.counters().coalesced +
                server.result_cache().counters().hits,
            kClients - 1);
}

// Every round, all clients send one text nobody has sent before, released
// together by a barrier, so late arrivals race the leader's finish: a
// request that misses the cache just before the leader inserts its result
// and takes the in-flight lock just after the leader leaves must still not
// execute a second time. Exactly one execution per round.
TEST(QueryServerTest, FreshTextPerRoundExecutesOncePerRound) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(37, /*rows=*/40));
  catalog.Register("S", SmallRelation(41, /*rows=*/40));
  QueryServer server(&catalog, TestOptions());

  constexpr int kClients = 8;
  constexpr int kRounds = 200;
  std::barrier round_start(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const std::string v = std::to_string(round);
        const std::string text =
            "R(x" + v + ",y" + v + "), S(y" + v + ",z" + v + ")";
        round_start.arrive_and_wait();
        const auto result = server.Execute(text);
        if (!result.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.counters().executed, kRounds);
  EXPECT_EQ(server.counters().executed + server.counters().coalesced +
                server.result_cache().counters().hits,
            kClients * kRounds);
}

TEST(QueryServerTest, ServedAnswerIsBitIdenticalToSoloRun) {
  const Relation r = SmallRelation(29);
  const Relation s = SmallRelation(31);

  // Solo: a fresh server with caching off, executing alone.
  ExecutorRegistry::ResetForTesting();
  Catalog solo_catalog;
  solo_catalog.Register("R", r);
  solo_catalog.Register("S", s);
  ServeOptions solo_options = TestOptions();
  solo_options.enable_result_cache = false;
  QueryServer solo(&solo_catalog, solo_options);
  const auto solo_result = solo.Execute("R(x,y), S(y,z)");
  ASSERT_TRUE(solo_result.ok());

  // Concurrent: the same query alongside 7 other in-flight queries on a
  // shared pool. Caching off so every request truly executes.
  ExecutorRegistry::ResetForTesting();
  Catalog catalog;
  catalog.Register("R", r);
  catalog.Register("S", s);
  for (int i = 0; i < 4; ++i) {
    catalog.Register("N" + std::to_string(i), SmallRelation(100 + i));
  }
  ServeOptions options = TestOptions();
  options.enable_result_cache = false;
  options.max_inflight = 8;
  QueryServer server(&catalog, options);

  std::vector<std::thread> noise;
  for (int i = 0; i < 4; ++i) {
    noise.emplace_back([&, i] {
      const std::string name = "N" + std::to_string(i);
      const auto result =
          server.Execute(name + "(x,y), " + name + "(y,z)");
      EXPECT_TRUE(result.ok());
    });
  }
  const auto served = server.Execute("R(x,y), S(y,z)");
  for (std::thread& t : noise) t.join();
  ASSERT_TRUE(served.ok());

  // Bit-identical: same fragments in the same order, not just multiset
  // equality — and the metered cost is identical too.
  EXPECT_EQ(served->output, solo_result->output);
  EXPECT_EQ(served->stats.num_rounds, solo_result->stats.num_rounds);
  EXPECT_EQ(served->stats.max_load_tuples, solo_result->stats.max_load_tuples);
  EXPECT_EQ(served->stats.total_comm_tuples,
            solo_result->stats.total_comm_tuples);
}

// Same-size data with one duplicate, re-registered under the same names:
// the plan cache must not hand the duplicate-free epoch's BigJoin plan to
// the new data.
TEST(QueryServerTest, SameSizeDuplicateAfterBigJoinMatchesSerial) {
  const TriangleDuplicateData data = MakeTriangleDuplicateData();
  Catalog catalog;
  catalog.Register("R", data.atoms[0]);
  catalog.Register("S", data.atoms[1]);
  catalog.Register("T", data.atoms[2]);
  ServeOptions options = TestOptions();
  options.num_servers = 64;
  QueryServer server(&catalog, options);
  const std::string text = "R(x,y), S(y,z), T(z,x)";
  const auto clean = server.Execute(text);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->algorithm, "bigjoin");

  catalog.Register("R", data.r_with_duplicate);
  const auto served = server.Execute(text);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_FALSE(served->result_cache_hit);
  const auto q = ConjunctiveQuery::Parse(text);
  EXPECT_TRUE(MultisetEqual(
      served->output,
      EvalJoinLocal(*q, {data.r_with_duplicate, data.atoms[1],
                         data.atoms[2]})));
}

// The join round feeds a group-by round on the same Cluster: the answer is
// the serial GROUP BY of the serial join, the CostReport ends in the
// group-by round, and the aggregate is part of the result-cache key.
TEST(QueryServerTest, AggregateRunsAsAGroupByRound) {
  Catalog catalog;
  const Relation a = SmallRelation(61);
  const Relation b = SmallRelation(67);
  catalog.Register("A", a);
  catalog.Register("B", b);
  QueryServer server(&catalog, TestOptions());
  const std::string text = "A(x,y), B(y,z)";
  const AggregateSpec sum_z_by_x{{"x"}, AggregateOp::kSum, "z"};

  const auto plain = server.Execute(text);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const auto grouped = server.Execute(text, sum_z_by_x);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_FALSE(grouped->result_cache_hit);
  const auto q = ConjunctiveQuery::Parse(text);
  const auto expected =
      GroupByAggregate(EvalJoinLocal(*q, {a, b}), {0}, 2, AggregateOp::kSum);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(MultisetEqual(grouped->output, *expected));
  EXPECT_EQ(grouped->stats.num_rounds, plain->stats.num_rounds + 1);
  ASSERT_FALSE(grouped->cost.rounds().empty());
  EXPECT_EQ(grouped->cost.rounds().back().label, "group-by shuffle");
  EXPECT_EQ(grouped->cost.num_rounds(), grouped->stats.num_rounds);

  // Same aggregate: a hit. Another aggregate, or none: not this entry.
  const auto again = server.Execute(text, sum_z_by_x);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->result_cache_hit);
  EXPECT_EQ(again->output, grouped->output);
  const auto count = server.Execute(text, AggregateSpec{{"x"}, AggregateOp::kCount, ""});
  ASSERT_TRUE(count.ok());
  EXPECT_FALSE(count->result_cache_hit);
  const auto unaggregated = server.Execute(text);
  ASSERT_TRUE(unaggregated.ok());
  EXPECT_EQ(unaggregated->output, plain->output);
  EXPECT_EQ(server.counters().executed, 3);
}

// A group-by that overflows fails after its join ran: the error reaches
// the caller, the slot is released, and nothing is cached.
TEST(QueryServerTest, FailedAggregateReleasesItsSlot) {
  constexpr Value kHalf = Value{1} << 63;
  Catalog catalog;
  catalog.Register("A", Relation::FromRows({{1, kHalf}}));
  catalog.Register("B", Relation::FromRows({{kHalf, 1}, {kHalf, 2}}));
  QueryServer server(&catalog, TestOptions());
  const AggregateSpec sum_y{{}, AggregateOp::kSum, "y"};
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_EQ(server.Execute("A(x,y), B(y,z)", sum_y).status().code(),
              StatusCode::kOutOfRange);
  }
  EXPECT_EQ(server.admission().counters().admitted, 2);
  EXPECT_EQ(server.admission().counters().inflight, 0);
  EXPECT_EQ(server.result_cache().counters().insertions, 0);
}

TEST(QueryServerTest, MemoryBudgetRejectsBigQueries) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(37, /*rows=*/2000));
  catalog.Register("S", SmallRelation(41, /*rows=*/2000));
  ServeOptions options = TestOptions();
  options.mem_budget_bytes = 1024;  // Absurdly small: everything rejected.
  QueryServer server(&catalog, options);

  const auto result = server.Execute("R(x,y), S(y,z)");
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.counters().rejected_memory, 1);
  EXPECT_EQ(server.counters().executed, 0);
}

TEST(QueryServerTest, EstimateCountsInputsAndOutput) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(43));
  catalog.Register("S", SmallRelation(47));
  const int64_t estimate =
      QueryServer::EstimateQueryBytes("R(x,y), S(y,z)", catalog);
  // At least the inputs twice: 2 relations x 300 rows x 2 cols x 8 bytes.
  EXPECT_GE(estimate, 2 * 2 * 300 * 2 * 8);
}

// --- Load driver ---

TEST(LoadDriverTest, DrivesExactRequestCounts) {
  Catalog catalog;
  catalog.Register("R", SmallRelation(53));
  catalog.Register("S", SmallRelation(59));
  QueryServer server(&catalog, TestOptions());

  LoadOptions load;
  load.clients = 4;
  load.requests = 37;  // Not divisible by clients or queries.
  const LoadReport report = RunLoad(
      server, {"R(x,y), S(y,z)", "S(x,y), R(y,z)"}, load);
  EXPECT_EQ(report.completed, 37);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.executed, 2);  // One per distinct query.
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GE(report.p99_ms, report.p50_ms);
  // The JSON sink contains the headline numbers.
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"completed\": 37"), std::string::npos);
  EXPECT_NE(json.find("\"clients\": 4"), std::string::npos);
}

}  // namespace
}  // namespace mpcqp
