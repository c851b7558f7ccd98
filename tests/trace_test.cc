// Locks the observability layer's contracts:
//   * metrics/tracing never perturb results — CostReports are identical
//     with tracing on or off, and the deterministic StatsReport columns
//     (rounds, labels, tuple/value/byte counts, fragment peaks) agree
//     across thread counts;
//   * MpcMetrics rounds align 1:1 with CostReport rounds;
//   * both JSON sinks (Chrome trace, StatsReport) emit syntactically
//     valid JSON;
//   * a disabled Tracer records nothing;
//   * COW payload detaches bump the process-wide TraceCounters.
//
// Wall times and COW detach counts are intentionally NOT compared across
// thread counts: they are real measurements, not simulated quantities.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "join/skew_join.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/metrics.h"
#include "multiway/hypercube.h"
#include "multiway/skew_hc.h"
#include "query/query.h"
#include "query/trie_join.h"
#include "relation/relation.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// Minimal recursive-descent JSON syntax checker, enough to reject the
// classic emission bugs (trailing commas, unescaped quotes, bare NaN).
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // Raw control.
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // Unterminated.
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(
                               text_[pos_ - 1]));
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Shared fixture: every test starts with tracing off and an empty buffer
// (the Tracer is process-global).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
};

StatsReport RunTriangle(int threads, bool tracing) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(7);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(
        DistRelation::Scatter(GenerateUniform(rng, 600, 2, 300), 8));
  }
  if (tracing) Tracer::Get().Enable();
  ClusterOptions options;
  options.num_threads = threads;
  Cluster cluster(8, 42, options);
  HyperCubeJoin(cluster, q, atoms);
  if (tracing) Tracer::Get().Disable();
  return BuildStatsReport(cluster);
}

TEST_F(TraceTest, StatsDeterministicColumnsAgreeAcrossThreadCounts) {
  const StatsReport a = RunTriangle(/*threads=*/1, /*tracing=*/false);
  const StatsReport b = RunTriangle(/*threads=*/8, /*tracing=*/false);
  ASSERT_EQ(a.num_rounds, b.num_rounds);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.max_load_tuples, b.max_load_tuples);
  EXPECT_EQ(a.max_load_values, b.max_load_values);
  EXPECT_EQ(a.total_comm_tuples, b.total_comm_tuples);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.peak_fragment_rows, b.peak_fragment_rows);
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].label, b.rounds[i].label);
    EXPECT_EQ(a.rounds[i].max_tuples_received, b.rounds[i].max_tuples_received);
    EXPECT_EQ(a.rounds[i].total_tuples_received,
              b.rounds[i].total_tuples_received);
    EXPECT_EQ(a.rounds[i].max_values_received, b.rounds[i].max_values_received);
    EXPECT_EQ(a.rounds[i].total_values_received,
              b.rounds[i].total_values_received);
    EXPECT_EQ(a.rounds[i].bytes_received, b.rounds[i].bytes_received);
    EXPECT_EQ(a.rounds[i].peak_fragment_rows, b.rounds[i].peak_fragment_rows);
  }
}

TEST_F(TraceTest, BytesAreValuesTimesValueWidth) {
  const StatsReport stats = RunTriangle(/*threads=*/1, /*tracing=*/false);
  ASSERT_FALSE(stats.rounds.empty());
  for (const StatsReport::Round& round : stats.rounds) {
    EXPECT_EQ(round.bytes_received,
              round.total_values_received *
                  static_cast<int64_t>(sizeof(Value)));
  }
}

TEST_F(TraceTest, TracingDoesNotPerturbTheCostReport) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(9);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(
        DistRelation::Scatter(GenerateUniform(rng, 400, 2, 200), 8));
  }
  auto run = [&](bool tracing) {
    if (tracing) Tracer::Get().Enable();
    Cluster cluster(8, 42);
    HyperCubeJoin(cluster, q, atoms);
    if (tracing) Tracer::Get().Disable();
    return cluster.cost_report().ToString();
  };
  const std::string off = run(false);
  const std::string on = run(true);
  EXPECT_EQ(off, on);
  EXPECT_GT(Tracer::Get().event_count(), 0);
}

// TrieJoin records a build span per atom and one search span; tracing it
// leaves its output byte-identical.
TEST_F(TraceTest, TrieJoinSpansDoNotPerturbItsOutput) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(13);
  std::vector<Relation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(GenerateUniform(rng, 2000, 2, 100));
  }
  const Relation off = TrieJoin(q, atoms);
  Tracer::Get().Enable();
  const Relation on = TrieJoin(q, atoms);
  Tracer::Get().Disable();
  EXPECT_FALSE(off.empty());
  EXPECT_TRUE(off == on);
  const std::string json = Tracer::Get().ToChromeJson();
  EXPECT_NE(json.find("\"trie build\""), std::string::npos);
  EXPECT_NE(json.find("\"trie search\""), std::string::npos);
}

// How many events named `name` a Chrome-trace JSON holds.
int CountSpans(const std::string& json, const std::string& name) {
  const std::string quoted = "\"" + name + "\"";
  int count = 0;
  for (size_t at = json.find(quoted); at != std::string::npos;
       at = json.find(quoted, at + quoted.size())) {
    ++count;
  }
  return count;
}

// Traces a cyclic HyperCube join at p = 64 with 4 threads and returns its
// (trie build, trie search) span counts.
std::pair<int, int> TrieSpans(const ConjunctiveQuery& q, int64_t rows,
                              uint64_t domain,
                              const HyperCubeOptions& options,
                              std::vector<int>* shares) {
  Rng rng(19);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < q.num_atoms(); ++j) {
    atoms.push_back(
        DistRelation::Scatter(GenerateUniform(rng, rows, 2, domain), 64));
  }
  ClusterOptions cluster_options;
  cluster_options.num_threads = 4;
  Cluster cluster(64, 42, cluster_options);
  Tracer::Get().Enable();
  HyperCubeResult result = HyperCubeJoin(cluster, q, atoms, options);
  Tracer::Get().Disable();
  *shares = std::move(result.shares);
  const std::string json = Tracer::Get().ToChromeJson();
  return {CountSpans(json, "trie build"), CountSpans(json, "trie search")};
}

// HyperCube builds one trie per (atom, slab), not per (atom, server): on
// the 4x4x4 triangle grid each atom has 16 slabs of 4 servers, so 48
// builds serve 64 searches.
TEST_F(TraceTest, HyperCubeBuildsOneTriePerSlab) {
  std::vector<int> shares;
  const auto [builds, searches] = TrieSpans(ConjunctiveQuery::Triangle(),
                                            6000, 600, {}, &shares);
  EXPECT_EQ(shares, (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(builds, 48);
  EXPECT_EQ(searches, 64);
}

// The forced-share 4-cycle: atom j has p / Π(its free shares) slabs.
TEST_F(TraceTest, HyperCubeFourCycleBuildsOneTriePerSlab) {
  const ConjunctiveQuery q = ConjunctiveQuery::Make(
      {"x", "y", "z", "w"},
      {{"A", {0, 1}}, {"B", {1, 2}}, {"C", {2, 3}}, {"D", {3, 0}}});
  HyperCubeOptions options;
  options.forced_shares = {4, 2, 4, 2};
  std::vector<int> shares;
  const auto [builds, searches] = TrieSpans(q, 4000, 200, options, &shares);
  int expected_builds = 0;
  for (const Atom& atom : q.atoms()) {
    int free_product = 1;
    for (int v = 0; v < q.num_vars(); ++v) {
      if (!atom.ContainsVar(v)) free_product *= shares[v];
    }
    expected_builds += 64 / free_product;
  }
  EXPECT_EQ(expected_builds, 32);
  EXPECT_EQ(builds, expected_builds);
  EXPECT_EQ(searches, 64);
}

// The heavy-hitter counts of SkewHC and the skew-aware join each record a
// span; tracing them leaves outputs and CostReports identical.
TEST_F(TraceTest, HeavyHitterSpansDoNotPerturbSkewJoins) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(17);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(DistRelation::Scatter(
        GenerateZipf(rng, 2000, 2, 200, /*zipf_col=*/0, 1.3), 8));
  }
  struct Run {
    Relation skew_hc;
    Relation skew_join;
    std::string cost;
  };
  auto run = [&](bool tracing) {
    if (tracing) Tracer::Get().Enable();
    Cluster cluster(8, 42);
    Rng join_rng(5);
    Run r{SkewHcJoin(cluster, q, atoms).output.Collect(),
          SkewAwareJoin(cluster, atoms[0], atoms[1], 1, 0, join_rng)
              .Collect(),
          ""};
    if (tracing) Tracer::Get().Disable();
    r.cost = cluster.cost_report().ToString();
    return r;
  };
  const Run off = run(false);
  const Run on = run(true);
  EXPECT_FALSE(off.skew_hc.empty());
  EXPECT_FALSE(off.skew_join.empty());
  EXPECT_TRUE(off.skew_hc == on.skew_hc);
  EXPECT_TRUE(off.skew_join == on.skew_join);
  EXPECT_EQ(off.cost, on.cost);
  const std::string json = Tracer::Get().ToChromeJson();
  EXPECT_NE(json.find("\"skew_hc heavy hitters\""), std::string::npos);
  EXPECT_NE(json.find("\"skew_join degrees\""), std::string::npos);
}

TEST_F(TraceTest, MetricsRoundsAlignWithCostReportRounds) {
  const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
  Rng rng(11);
  std::vector<DistRelation> atoms;
  for (int j = 0; j < 3; ++j) {
    atoms.push_back(
        DistRelation::Scatter(GenerateUniform(rng, 300, 2, 150), 8));
  }
  Cluster cluster(8, 42);
  HyperCubeJoin(cluster, q, atoms);
  const CostReport& costs = cluster.cost_report();
  const MpcMetrics& metrics = cluster.metrics();
  ASSERT_EQ(metrics.rounds().size(), costs.rounds().size());
  for (size_t i = 0; i < metrics.rounds().size(); ++i) {
    EXPECT_EQ(metrics.rounds()[i].label, costs.rounds()[i].label);
    EXPECT_GE(metrics.rounds()[i].wall_ms, 0.0);
  }
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(Tracer::Get().enabled());
  {
    MPCQP_TRACE_SCOPE("should not appear", "test");
    MPCQP_TRACE_SCOPE_ARG("nor this", "test", 3);
    MPCQP_TRACE_COUNTER("nor this counter", 5);
  }
  Tracer::Get().RecordComplete("direct", "test", 0, 10);
  Tracer::Get().RecordCounter("direct counter", 1);
  EXPECT_EQ(Tracer::Get().event_count(), 0);
  // And the empty buffer still renders as valid JSON.
  EXPECT_TRUE(JsonChecker(Tracer::Get().ToChromeJson()).Valid());
}

TEST_F(TraceTest, ChromeJsonIsStructurallyValid) {
  Tracer::Get().Enable();
  {
    MPCQP_TRACE_SCOPE("outer \"quoted\" name", "test");
    MPCQP_TRACE_SCOPE_ARG("inner", "test", 4);
    MPCQP_TRACE_COUNTER("tuples", 123);
  }
  Tracer::Get().Disable();
  EXPECT_GE(Tracer::Get().event_count(), 3);
  const std::string json = Tracer::Get().ToChromeJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST_F(TraceTest, StatsJsonIsStructurallyValid) {
  const StatsReport stats = RunTriangle(/*threads=*/1, /*tracing=*/false);
  const std::string json = stats.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\""), std::string::npos);
}

TEST_F(TraceTest, JsonCheckerRejectsBrokenJson) {
  EXPECT_TRUE(JsonChecker("{\"a\": [1, 2.5, -3e2, \"x\\n\"]}").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\": 1,}").Valid());   // Trailing comma.
  EXPECT_FALSE(JsonChecker("{\"a\": nan}").Valid());  // Bare NaN.
  EXPECT_FALSE(JsonChecker("{\"a\" 1}").Valid());     // Missing colon.
  EXPECT_FALSE(JsonChecker("\"unterminated").Valid());
  EXPECT_FALSE(JsonChecker("{} extra").Valid());
}

TEST_F(TraceTest, CowDetachBumpsTheProcessCounters) {
  const int64_t detaches_before =
      TraceCounters::cow_detaches.load(std::memory_order_relaxed);
  const int64_t bytes_before =
      TraceCounters::cow_detach_bytes.load(std::memory_order_relaxed);

  Relation original(2);
  original.AppendRow({1, 2});
  original.AppendRow({3, 4});
  Relation copy = original;        // Shared payload (COW handle).
  copy.AppendRow({5, 6});          // Forces the detach clone.

  const int64_t detaches =
      TraceCounters::cow_detaches.load(std::memory_order_relaxed) -
      detaches_before;
  const int64_t bytes =
      TraceCounters::cow_detach_bytes.load(std::memory_order_relaxed) -
      bytes_before;
  EXPECT_EQ(detaches, 1);
  EXPECT_EQ(bytes, static_cast<int64_t>(4 * sizeof(Value)));
}

}  // namespace
}  // namespace mpcqp
