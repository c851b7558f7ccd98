// End-to-end benchmark of mpcqp's public API: three closed-loop workloads
// (a cold one-shot triangle, a warm skewed join + group-by, and a
// QueryServer under same-size deploys), every answer checked against the
// serial evaluator. See perfbench/README.md for the workloads, the metrics
// and the layer -> end-to-end map.
//
// Usage:
//   mpcqp_e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out PATH]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. End-to-end numbers come only from untraced runs; a traced run
// alternates traced and untraced queries so it can report its own
// overhead.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/metrics.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/local_eval.h"
#include "query/query.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "serve/catalog.h"
#include "serve/query_server.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

// Engine pool width for every workload. Pool plus busy client threads stay
// at or below four cores (see README.md, "Pool width").
constexpr int kPoolWidth = 2;
// Set-ups per run; setup_s is their median (README.md, "Set-up time").
constexpr int kSetupReps = 7;
// Engine seed (hash functions, algorithm Rng), the same for every workload
// seed: --seed varies only the data, so L moves only with the data.
// ServeOptions' default; one-shot clusters derive seed + 1 and seed + 2
// from it as QueryServer does.
constexpr uint64_t kEngineSeed = ServeOptions{}.seed;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Cores this process actually gets: four threads spin for a fixed wall
// interval and their summed thread CPU time is divided by that interval.
double ProbeEffectiveCores() {
  constexpr int kThreads = 4;
  constexpr int64_t kSpinNs = 100'000'000;
  std::vector<double> cpu_ns(kThreads, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cpu_ns] {
      timespec begin{};
      timespec end{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &begin);
      const int64_t stop = NowNs() + kSpinNs;
      volatile uint64_t sink = 0;
      while (NowNs() < stop) sink = sink + 1;
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
      cpu_ns[t] = static_cast<double>(end.tv_sec - begin.tv_sec) * 1e9 +
                  static_cast<double>(end.tv_nsec - begin.tv_nsec);
    });
  }
  for (std::thread& thread : threads) thread.join();
  double total = 0.0;
  for (double ns : cpu_ns) total += ns;
  return total / static_cast<double>(kSpinNs);
}

// --------------------------------------------------------------------------
// Spans. The benchmark records one span around each call it makes into a
// layer; spans of one query share its id. Kept in memory, written at exit.

enum Layer {
  kBench,
  kWorkload,
  kServe,
  kQuery,
  kPlanner,
  kMpc,
  kDrivers,  // join / multiway / acyclic algorithm drivers.
  kAgg,
  kRelation,
  kCommon,
  kNumLayers,
};

const char* const kLayerNames[kNumLayers] = {
    "bench", "workload", "serve",    "query",   "planner",
    "mpc",   "drivers",  "agg",      "relation", "common"};

struct Span {
  const char* name;
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
  int parent;        // Index into the span list, -1 for a root.
  int64_t query_id;  // -1 outside queries (set-up, deploys).
  bool derived;      // Duration read from a StatsReport, not a clock.
};

class SpanLog {
 public:
  void set_on(bool on) { on_ = on; }

  int Begin(Layer layer, const char* name, int64_t query_id) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, NowNs(), 0, parent, query_id, false});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }

  // A span whose interval the caller measured itself.
  int Add(Layer layer, const char* name, int64_t start_ns, int64_t end_ns,
          int parent, int64_t query_id) {
    spans_.push_back({name, layer, start_ns, end_ns, parent, query_id, false});
    return static_cast<int>(spans_.size()) - 1;
  }

  // A child of `parent` whose duration the engine reported (e.g. the MPC
  // rounds inside a driver call); laid out at the parent's start.
  void AddDerived(int parent, Layer layer, const char* name, double ms) {
    if (parent < 0 || ms <= 0) return;
    const Span& p = spans_[parent];
    spans_.push_back({name, layer, p.start_ns,
                      p.start_ns + static_cast<int64_t>(ms * 1e6), parent,
                      p.query_id, true});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer over the spans with index >= first: duration minus
  // the time covered by direct children.
  std::vector<double> SelfMs(size_t first) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (size_t i = first; i < spans_.size(); ++i) {
      if (spans_[i].parent >= static_cast<int>(first)) {
        child_ms[spans_[i].parent] +=
            MsBetween(spans_[i].start_ns, spans_[i].end_ns);
      }
    }
    std::vector<double> self(kNumLayers, 0.0);
    for (size_t i = first; i < spans_.size(); ++i) {
      self[spans_[i].layer] +=
          MsBetween(spans_[i].start_ns, spans_[i].end_ns) - child_ms[i];
    }
    return self;
  }

  // Summed duration of spans named `name` with index >= first.
  double TotalMs(size_t first, const char* name) const {
    double total = 0.0;
    for (size_t i = first; i < spans_.size(); ++i) {
      if (std::strcmp(spans_[i].name, name) == 0) {
        total += MsBetween(spans_[i].start_ns, spans_[i].end_ns);
      }
    }
    return total;
  }

  // Mean duration of all spans named `name`.
  double MeanMs(const char* name) const {
    int64_t count = 0;
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) == 0) ++count;
    }
    return Ratio(TotalMs(0, name), static_cast<double>(count));
  }

  // Chrome trace-event JSON (load in chrome://tracing or Perfetto).
  bool Write(const std::string& path) const {
    FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %zu, \"parent\": %d, \"query\": %lld, "
                   "\"derived\": %s}}\n",
                   i == 0 ? "" : ",", s.name, kLayerNames[s.layer],
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.query_id),
                   s.derived ? "true" : "false");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, const char* name, int64_t query_id)
      : log_(log), index_(log.Begin(layer, name, query_id)) {}
  ~ScopedSpan() { log_.End(index_); }
  int index() const { return index_; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

// --------------------------------------------------------------------------
// Run-wide accounting shared by the workloads.

// MPC quantities and phase sums of one executed query, from StatsReport.
struct QueryStats {
  int rounds = 0;
  int64_t max_load = 0;    // L
  int64_t comm = 0;        // C
  double phase_ms[kNumPhases] = {};  // In-round plus outside-round.
  double round_wall_ms = 0;
  double load_imbalance = 0;  // Max over rounds of max / mean receive.
  int64_t peak_fragment_rows = 0;
  int64_t cow_detaches = 0;
};

QueryStats Summarize(const StatsReport& report, int num_servers) {
  QueryStats s;
  s.rounds = report.num_rounds;
  s.max_load = report.max_load_tuples;
  s.comm = report.total_comm_tuples;
  for (const StatsReport::Round& round : report.rounds) {
    s.round_wall_ms += round.wall_ms;
    for (int k = 0; k < kNumPhases; ++k) s.phase_ms[k] += round.phase_ms[k];
    if (round.total_tuples_received > 0) {
      const double mean = static_cast<double>(round.total_tuples_received) /
                          num_servers;
      s.load_imbalance = std::max(
          s.load_imbalance,
          static_cast<double>(round.max_tuples_received) / mean);
    }
  }
  for (int k = 0; k < kNumPhases; ++k) {
    s.phase_ms[k] += report.outside_phase_ms[k];
  }
  s.peak_fragment_rows = report.peak_fragment_rows;
  s.cow_detaches = report.cow_detaches;
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Every per-layer metric in print order, with its unit. A workload that
// does not exercise a layer reports 0 for its metrics.
constexpr const char* kPerLayerMetrics[][2] = {
    {"workload.generate_ms", "ms"},
    {"serve.register_ms", "ms"},
    {"serve.deploy_ms", "ms"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.coalesced_ms_p50", "ms"},
    {"serve.executed_ms_p50", "ms"},
    {"serve.result_cache_hit_ratio", "ratio"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.plan_cache_hit_ratio", "ratio"},
    {"serve.executed_ratio", "ratio"},
    {"query.parse_ms", "ms"},
    {"planner.plan_ms", "ms"},
    {"planner.cache_hit_ratio", "ratio"},
    {"planner.dp_states", "states"},
    {"mpc.scatter_ms", "ms"},
    {"mpc.route_ms", "ms"},
    {"mpc.count_ms", "ms"},
    {"mpc.copy_ms", "ms"},
    {"mpc.transpose_ms", "ms"},
    {"mpc.round_wall_ms", "ms"},
    {"mpc.local_compute_ms", "ms"},
    {"mpc.columnar_scan_ms", "ms"},
    {"mpc.load_imbalance", "ratio"},
    {"mpc.peak_fragment_rows", "rows"},
    {"mpc.cow_detaches", "count"},
    {"agg.groupby_ms", "ms"},
    {"relation.collect_ms", "ms"},
    {"mem.minor_faults", "faults"},
    {"mem.setup_minor_faults", "faults"},
    {"setup.cold_s", "s"},
    {"serve.self_ms", "ms"},
    {"query.self_ms", "ms"},
    {"planner.self_ms", "ms"},
    {"mpc.self_ms", "ms"},
    {"drivers.self_ms", "ms"},
    {"agg.self_ms", "ms"},
    {"relation.self_ms", "ms"},
    {"common.self_ms", "ms"},
    {"bench.unaccounted_ms", "ms"},
    {"bench.trace_overhead_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.traced_queries", "count"},
    {"box.effective_cores", "cores"},
};

class LayerMetrics {
 public:
  void Set(const std::string& name, double value) {
    for (const auto& [known, unit] : kPerLayerMetrics) {
      if (name == known) {
        values_[name] = value;
        return;
      }
    }
    std::fprintf(stderr, "unlisted per-layer metric %s\n", name.c_str());
    std::abort();
  }

  std::vector<Metric> Ordered() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kPerLayerMetrics) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

// Aggregates over the executed queries of a timed window.
struct StatsAccumulator {
  int64_t executed = 0;
  int max_rounds = 0;
  int64_t max_load = 0;
  double comm_sum = 0;
  double phase_sum[kNumPhases] = {};
  double round_wall_sum = 0;
  double imbalance_sum = 0;
  int64_t peak_fragment_rows = 0;
  double cow_sum = 0;

  void Add(const QueryStats& s) {
    ++executed;
    max_rounds = std::max(max_rounds, s.rounds);
    max_load = std::max(max_load, s.max_load);
    comm_sum += static_cast<double>(s.comm);
    for (int k = 0; k < kNumPhases; ++k) phase_sum[k] += s.phase_ms[k];
    round_wall_sum += s.round_wall_ms;
    imbalance_sum += s.load_imbalance;
    peak_fragment_rows = std::max(peak_fragment_rows, s.peak_fragment_rows);
    cow_sum += static_cast<double>(s.cow_detaches);
  }
};

// The end-to-end block every workload prints (same names everywhere).
void AddEndToEnd(RunResult* run, double setup_s,
                 const std::vector<double>& latencies_ms, double timed_ms,
                 const StatsAccumulator& acc) {
  run->end_to_end = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Quantile(latencies_ms, 0.50), "ms"},
      {"latency_p90_ms", Quantile(latencies_ms, 0.90), "ms"},
      {"throughput_qps",
       Ratio(static_cast<double>(latencies_ms.size()), timed_ms / 1e3),
       "queries/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"max_load_tuples", static_cast<double>(acc.max_load), "tuples"},
      {"comm_tuples", Ratio(acc.comm_sum, static_cast<double>(acc.executed)),
       "tuples"},
      {"rounds", static_cast<double>(acc.max_rounds), "rounds"},
  };
}

// Per-layer metrics derived from the engine's StatsReports, per executed
// query.
void AddMpcLayer(LayerMetrics* out, const StatsAccumulator& acc) {
  const double n = static_cast<double>(acc.executed);
  auto phase = [&](Phase p) {
    return Ratio(acc.phase_sum[static_cast<int>(p)], n);
  };
  out->Set("mpc.route_ms", phase(Phase::kRoute));
  out->Set("mpc.count_ms", phase(Phase::kCount));
  out->Set("mpc.copy_ms", phase(Phase::kCopy));
  out->Set("mpc.transpose_ms", phase(Phase::kTranspose));
  out->Set("mpc.round_wall_ms", Ratio(acc.round_wall_sum, n));
  out->Set("mpc.local_compute_ms", phase(Phase::kLocalCompute));
  out->Set("mpc.columnar_scan_ms", phase(Phase::kColumnarScan));
  out->Set("mpc.load_imbalance", Ratio(acc.imbalance_sum, n));
  out->Set("mpc.peak_fragment_rows",
           static_cast<double>(acc.peak_fragment_rows));
  out->Set("mpc.cow_detaches", Ratio(acc.cow_sum, n));
}

// Self time per layer per traced query, plus bench.unaccounted_ms (time in
// the query window outside every layer call) and the tracing overhead.
void AddSelfTimes(LayerMetrics* out, const std::vector<double>& self,
                  double traced_queries) {
  for (int layer = kServe; layer < kNumLayers; ++layer) {
    out->Set(std::string(kLayerNames[layer]) + ".self_ms",
             Ratio(self[layer], traced_queries));
  }
  out->Set("bench.unaccounted_ms", Ratio(self[kBench], traced_queries));
}

void AddTraceOverhead(LayerMetrics* out,
                      const std::vector<double>& traced_ms,
                      const std::vector<double>& untraced_ms) {
  const double traced = Quantile(traced_ms, 0.5);
  const double untraced = Quantile(untraced_ms, 0.5);
  out->Set("bench.trace_overhead_ms", traced - untraced);
  out->Set("bench.trace_overhead_pct",
           100.0 * Ratio(traced - untraced, untraced));
  out->Set("bench.traced_queries", static_cast<double>(traced_ms.size()));
}

// Set-up repeated kSetupReps times; setup_s is the median. The first
// repetition pays the process's first-touch page faults and is reported
// apart as setup.cold_s.
struct SetupTiming {
  std::vector<double> seconds;
  std::vector<double> faults;

  double median_s() const { return Quantile(seconds, 0.5); }
  void AddLayerMetrics(LayerMetrics* out) const {
    out->Set("setup.cold_s", seconds.front());
    out->Set("mem.setup_minor_faults", Quantile(faults, 0.5));
  }
};

template <typename SetupFn>
SetupTiming TimeSetups(SetupFn&& setup) {
  SetupTiming timing;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t faults = MinorFaults();
    const int64_t start = NowNs();
    setup();
    timing.seconds.push_back(MsBetween(start, NowNs()) / 1e3);
    timing.faults.push_back(static_cast<double>(MinorFaults() - faults));
  }
  return timing;
}

// --------------------------------------------------------------------------
// One-shot workloads: triangle_cold and skew_agg_warm. Each query builds a
// fresh pool and Cluster, scatters its dataset, plans (with or without a
// warm PlanCache), executes, optionally aggregates, and collects.

struct OneShotSpec {
  const char* name;
  const char* query_text;
  int num_servers;
  int num_datasets;
  // Relations of one dataset, in atom order of `query_text`.
  std::vector<Relation> (*generate)(Rng& rng);
  bool warm_plan_cache;
  bool group_by;  // SUM(last variable) GROUP BY first variable.
  // The plan every seed must get (README.md, "Plan stability").
  const char* expect_family;
  int expect_join_rounds;
};

constexpr int64_t kTriangleRows = 60'000;
constexpr uint64_t kTriangleDomain = 3'000;

std::vector<Relation> GenerateTriangle(Rng& rng) {
  std::vector<Relation> rels;
  for (int j = 0; j < 3; ++j) {
    rels.push_back(GenerateUniform(rng, kTriangleRows, 2, kTriangleDomain));
  }
  return rels;
}

constexpr int64_t kSkewRows = 120'000;
constexpr uint64_t kSkewDomain = 12'000;
constexpr double kZipfSkew = 1.2;

std::vector<Relation> GenerateSkewJoin(Rng& rng) {
  std::vector<Relation> rels;
  rels.push_back(GenerateZipf(rng, kSkewRows, 2, kSkewDomain, /*zipf_col=*/1,
                              kZipfSkew));
  rels.push_back(GenerateUniform(rng, kSkewRows, 2, kSkewDomain));
  return rels;
}

const OneShotSpec kTriangleCold = {
    "triangle_cold", "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", 64, 3,
    GenerateTriangle, false, false, "hypercube", 1};

const OneShotSpec kSkewAggWarm = {
    "skew_agg_warm", "Q(x,y,z) :- R(x,y), S(y,z)", 64, 3,
    GenerateSkewJoin, true, true, "binary-plan", 1};

class OneShotWorkload {
 public:
  OneShotWorkload(const OneShotSpec& spec, const Options& options)
      : spec_(spec), options_(options) {}

  RunResult Run() {
    RunResult run;
    const double cores_start = ProbeEffectiveCores();
    const SetupTiming setup = TimeSetups([&] { Setup(); });
    const size_t first_timed_span = log_.spans().size();
    ComputeOracles();

    std::vector<double> latencies;        // Untraced queries.
    std::vector<double> traced_latencies;
    StatsAccumulator acc;
    double timed_ms = 0;
    int64_t faults = 0;
    std::map<std::string, int64_t> plan_seen;  // "family/r" -> count.
    const int64_t budget_ns = static_cast<int64_t>(options_.seconds * 1e9);
    for (int64_t i = 0; timed_ms * 1e6 < static_cast<double>(budget_ns);
         ++i) {
      const int d = static_cast<int>(i % spec_.num_datasets);
      // A traced run alternates traced and untraced queries.
      const bool traced = options_.trace && (i % 2 == 1);
      log_.set_on(traced);
      const int64_t faults_before = MinorFaults();
      const int64_t seg_start = NowNs();
      Answer answer = RunQuery(d, i, plan_cache_.get());
      const int64_t seg_end = NowNs();
      faults += MinorFaults() - faults_before;
      log_.set_on(false);
      timed_ms += MsBetween(seg_start, seg_end);
      (traced ? traced_latencies : latencies).push_back(answer.latency_ms);
      ++run.attempted;

      const QueryStats stats = Summarize(answer.stats, spec_.num_servers);
      acc.Add(stats);
      ++plan_seen[answer.family + "/r=" + std::to_string(answer.join_rounds)];
      if (!Check(d, answer, stats)) ++run.failed;
    }
    const double cores_end = ProbeEffectiveCores();
    run.correct = run.failed == 0;

    AddEndToEnd(&run, setup.median_s(), latencies, timed_ms, acc);

    std::printf("%s: %zu untraced + %zu traced timed queries over %.0f ms "
                "(p90 has %zu samples beyond it); plans:",
                spec_.name, latencies.size(), traced_latencies.size(),
                timed_ms,
                latencies.size() -
                    static_cast<size_t>(std::ceil(0.9 * latencies.size())));
    for (const auto& [plan, count] : plan_seen) {
      std::printf(" %s x%lld", plan.c_str(), static_cast<long long>(count));
    }
    std::printf("\n");

    if (options_.trace) {
      const double tq = static_cast<double>(traced_latencies.size());
      LayerMetrics m;
      auto per_query = [&](const char* span) {
        return Ratio(log_.TotalMs(first_timed_span, span), tq);
      };
      m.Set("workload.generate_ms", log_.MeanMs("workload.generate"));
      m.Set("serve.register_ms", log_.MeanMs("serve.register"));
      m.Set("query.parse_ms", per_query("query.parse"));
      m.Set("planner.plan_ms", per_query("planner.plan"));
      m.Set("planner.cache_hit_ratio",
            Ratio(static_cast<double>(plan_hits_),
                  static_cast<double>(plan_calls_)));
      m.Set("planner.dp_states", Ratio(static_cast<double>(dp_states_),
                                       static_cast<double>(plan_calls_)));
      m.Set("mpc.scatter_ms", per_query("mpc.scatter"));
      AddMpcLayer(&m, acc);
      m.Set("agg.groupby_ms", per_query("agg.groupby"));
      m.Set("relation.collect_ms", per_query("relation.collect"));
      m.Set("mem.minor_faults", Ratio(static_cast<double>(faults),
                                      static_cast<double>(run.attempted)));
      setup.AddLayerMetrics(&m);
      AddSelfTimes(&m, log_.SelfMs(first_timed_span), tq);
      AddTraceOverhead(&m, traced_latencies, latencies);
      m.Set("box.effective_cores", (cores_start + cores_end) / 2);
      run.per_layer = m.Ordered();
    } else {
      std::printf("box.effective_cores %.2f (start) %.2f (end)\n",
                  cores_start, cores_end);
    }
    return run;
  }

  SpanLog& log() { return log_; }

 private:
  struct Answer {
    double latency_ms = 0;
    Relation output;
    int64_t join_rows = 0;
    StatsReport stats;
    std::string family;
    int join_rounds = 0;
  };

  struct Dataset {
    std::unique_ptr<Catalog> catalog;
    Relation expected;
    int64_t expected_join_rows = 0;
    // (L, r, C) of the first query on this dataset; repeats must match.
    bool seen = false;
    int rounds = 0;
    int64_t max_load = 0;
    int64_t comm = 0;
  };

  // Generation, registration and one warm-up query per dataset (on the
  // warm workload the first fills the PlanCache the timed queries hit).
  void Setup() {
    log_.set_on(options_.trace);
    datasets_.clear();
    plan_cache_ =
        spec_.warm_plan_cache ? std::make_unique<PlanCache>() : nullptr;
    const auto query = ConjunctiveQuery::Parse(spec_.query_text);
    Rng rng(options_.seed);
    for (int d = 0; d < spec_.num_datasets; ++d) {
      Dataset dataset;
      dataset.catalog = std::make_unique<Catalog>();
      std::vector<Relation> rels;
      {
        ScopedSpan span(log_, kWorkload, "workload.generate", -1);
        rels = spec_.generate(rng);
      }
      for (int j = 0; j < query->num_atoms(); ++j) {
        ScopedSpan span(log_, kServe, "serve.register", -1);
        dataset.catalog->Register(query->atom(j).name, std::move(rels[j]));
      }
      datasets_.push_back(std::move(dataset));
    }
    for (int d = 0; d < spec_.num_datasets; ++d) {
      RunQuery(d, -1, plan_cache_.get());
    }
    log_.set_on(false);
  }

  void ComputeOracles() {
    const auto query = ConjunctiveQuery::Parse(spec_.query_text);
    for (Dataset& dataset : datasets_) {
      std::vector<Relation> atoms;
      for (const Atom& atom : query->atoms()) {
        Catalog::Entry entry;
        dataset.catalog->Find(atom.name, &entry);
        atoms.push_back(entry.relation);
      }
      Relation joined = EvalJoinLocal(*query, atoms);
      dataset.expected_join_rows = joined.size();
      if (spec_.group_by) {
        auto grouped = GroupByAggregate(joined, {0}, query->num_vars() - 1,
                                        AggregateOp::kSum);
        dataset.expected = grouped.ok() ? std::move(grouped).value()
                                        : Relation(2);
      } else {
        dataset.expected = std::move(joined);
      }
    }
  }

  // The measured query: from parsing the text to the collected answer.
  Answer RunQuery(int d, int64_t query_id, PlanCache* cache) {
    Answer answer;
    const int64_t start = NowNs();
    {
      ScopedSpan root(log_, kBench, "bench.query", query_id);
      std::optional<StatusOr<ConjunctiveQuery>> parsed;
      {
        ScopedSpan span(log_, kQuery, "query.parse", query_id);
        parsed.emplace(ConjunctiveQuery::Parse(spec_.query_text));
      }
      const ConjunctiveQuery& q = **parsed;
      std::vector<Relation> inputs;
      {
        ScopedSpan span(log_, kServe, "serve.find", query_id);
        for (const Atom& atom : q.atoms()) {
          Catalog::Entry entry;
          datasets_[d].catalog->Find(atom.name, &entry);
          inputs.push_back(std::move(entry.relation));
        }
      }
      std::shared_ptr<ThreadPool> pool;
      {
        ScopedSpan span(log_, kCommon, "common.pool", query_id);
        pool = std::make_shared<ThreadPool>(kPoolWidth);
      }
      std::optional<Cluster> cluster;
      {
        ScopedSpan span(log_, kMpc, "mpc.cluster", query_id);
        ClusterOptions cluster_options;
        cluster_options.shared_pool = pool;
        cluster.emplace(spec_.num_servers, kEngineSeed + 1,
                        cluster_options);
      }
      std::vector<DistRelation> dist;
      {
        ScopedSpan span(log_, kMpc, "mpc.scatter", query_id);
        for (const Relation& rel : inputs) {
          dist.push_back(
              DistRelation::Scatter(rel, spec_.num_servers, &cluster->pool()));
        }
      }
      PlannedQuery planned;
      {
        ScopedSpan span(log_, kPlanner, "planner.plan", query_id);
        planned = PlanQuery(q, dist, spec_.num_servers, PlannerOptions{},
                            cache);
      }
      if (query_id >= 0) {
        ++plan_calls_;
        plan_hits_ += planned.cache_hit ? 1 : 0;
        dp_states_ += planned.dp_states;
      }
      DistRelation output(q.num_vars(), spec_.num_servers);
      {
        ScopedSpan span(log_, kDrivers, "drivers.execute", query_id);
        Rng algo_rng(kEngineSeed + 2);
        output = ExecutePlannedQuery(*cluster, q, dist, planned, algo_rng);
        log_.AddDerived(span.index(), kMpc, "mpc.rounds",
                        RoundWallMs(*cluster, 0));
      }
      answer.join_rounds =
          static_cast<int>(cluster->metrics().rounds().size());
      answer.join_rows = output.TotalSize();
      if (spec_.group_by) {
        ScopedSpan span(log_, kAgg, "agg.groupby", query_id);
        auto grouped = DistributedGroupByAggregate(
            *cluster, output, {0}, q.num_vars() - 1, AggregateOp::kSum);
        output = grouped.ok() ? std::move(grouped).value()
                              : DistRelation(2, spec_.num_servers);
        log_.AddDerived(span.index(), kMpc, "mpc.rounds",
                        RoundWallMs(*cluster, answer.join_rounds));
      }
      {
        ScopedSpan span(log_, kRelation, "relation.collect", query_id);
        answer.output = output.Collect(&cluster->pool());
      }
      answer.latency_ms = MsBetween(start, NowNs());
      answer.stats = BuildStatsReport(*cluster);
      answer.family = PlanAlgorithmName(planned.plan.family);
    }
    return answer;
  }

  static double RoundWallMs(const Cluster& cluster, size_t first_round) {
    double ms = 0;
    const auto& rounds = cluster.metrics().rounds();
    for (size_t r = first_round; r < rounds.size(); ++r) {
      ms += rounds[r].wall_ms;
    }
    return ms;
  }

  bool Check(int d, const Answer& answer, const QueryStats& stats) {
    Dataset& dataset = datasets_[d];
    bool ok = true;
    if (answer.join_rows != dataset.expected_join_rows ||
        !MultisetEqual(answer.output, dataset.expected)) {
      std::fprintf(stderr, "%s: wrong answer on dataset %d\n", spec_.name, d);
      ok = false;
    }
    if (answer.family != spec_.expect_family ||
        answer.join_rounds != spec_.expect_join_rounds) {
      std::fprintf(stderr, "%s: plan %s r=%d, expected %s r=%d\n", spec_.name,
                   answer.family.c_str(), answer.join_rounds,
                   spec_.expect_family, spec_.expect_join_rounds);
      ok = false;
    }
    if (!dataset.seen) {
      dataset.seen = true;
      dataset.rounds = stats.rounds;
      dataset.max_load = stats.max_load;
      dataset.comm = stats.comm;
    } else if (dataset.rounds != stats.rounds ||
               dataset.max_load != stats.max_load ||
               dataset.comm != stats.comm) {
      std::fprintf(stderr, "%s: (L, r, C) moved on dataset %d\n", spec_.name,
                   d);
      ok = false;
    }
    return ok;
  }

  const OneShotSpec& spec_;
  const Options& options_;
  SpanLog log_;
  std::vector<Dataset> datasets_;
  std::unique_ptr<PlanCache> plan_cache_;
  int64_t plan_calls_ = 0;
  int64_t plan_hits_ = 0;
  int64_t dp_states_ = 0;
};

// --------------------------------------------------------------------------
// serve_deploy: a QueryServer driven by four closed-loop clients in two
// pairs. Each epoch a deploy registers same-size fresh R, S, T; then every
// client runs its pair's list once. The list is kRoundsPerEpoch rounds of
// the three answers (join R-S, triangle, join S-T), each round and pair
// spelling them isomorphically anew: variables renamed, and pair 1 lists
// the atoms in another order. A new spelling is its own result key but
// shares the shape's plan. Both clients of a pair send the same text at
// the same step, so one executes and its partner coalesces; the list ends
// by repeating its first text, a result-cache hit. Per epoch that is 72
// executed, 72 coalesced and 4 hit requests out of 148, so p50 and p90
// fall on executed or coalesced requests.

constexpr int kServeServers = 64;
constexpr int64_t kServeRows = 200'000;
constexpr uint64_t kServeDomain = 32'000'000;
constexpr int kClients = 4;
constexpr int kPairs = kClients / 2;
constexpr int kRoundsPerEpoch = 12;
constexpr int kAnswers = 3;
constexpr int kStepsPerEpoch = kRoundsPerEpoch * kAnswers + 1;
constexpr int kDistinctTextsPerEpoch = kPairs * kRoundsPerEpoch * kAnswers;

// Per pair, the spelling of each answer; variables x, y, z get a
// per-round suffix. Pair 0's spellings compute the expected answers.
const char* const kSpellings[kPairs][kAnswers] = {
    {"Q(x,y,z) :- R(x,y), S(y,z)", "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
     "Q(x,y,z) :- S(x,y), T(y,z)"},
    {"Q(x,y,z) :- S(y,z), R(x,y)", "Q(x,y,z) :- S(y,z), T(z,x), R(x,y)",
     "Q(x,y,z) :- T(y,z), S(x,y)"},
};
const char* const kServeRelations[] = {"R", "S", "T"};
// Plan family and rounds each answer's shape must get.
const char* const kServeFamily[kAnswers] = {"hypercube", "binary-plan",
                                            "hypercube"};
const int kServeRounds[kAnswers] = {1, 2, 1};

struct ServeQuery {
  std::string text;
  int answer;  // Index of the expected answer.
};

std::string Spell(int pair, int answer, int round) {
  const std::string suffix =
      "p" + std::to_string(pair) + "r" + std::to_string(round);
  std::string text;
  for (const char* c = kSpellings[pair][answer]; *c != '\0'; ++c) {
    text += *c;
    if (*c == 'x' || *c == 'y' || *c == 'z') text += suffix;
  }
  return text;
}

std::vector<ServeQuery> PairList(int pair) {
  std::vector<ServeQuery> list;
  for (int round = 0; round < kRoundsPerEpoch; ++round) {
    for (int answer = 0; answer < kAnswers; ++answer) {
      list.push_back({Spell(pair, answer, round), answer});
    }
  }
  list.push_back(list.front());
  return list;
}

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& options)
      : options_(options), rng_(options.seed) {
    for (int pair = 0; pair < kPairs; ++pair) lists_.push_back(PairList(pair));
  }

  RunResult Run() {
    RunResult run;
    const double cores_start = ProbeEffectiveCores();
    const SetupTiming setup = TimeSetups([&] { Setup(); });
    const size_t first_timed_span = log_.spans().size();

    std::vector<double> latencies;
    std::vector<double> traced_latencies;
    std::vector<double> hit_ms, coalesced_ms, executed_ms;
    std::vector<double> deploy_ms;
    StatsAccumulator acc;
    int64_t hits = 0, coalesced = 0, executed = 0, plan_hits = 0;
    int64_t planner_hits = 0, planner_calls = 0;
    double parse_ms = 0;
    double timed_ms = 0;
    int64_t faults = 0;
    int64_t epochs = 0;
    std::map<std::string, int64_t> plan_seen;
    const int64_t budget_ns = static_cast<int64_t>(options_.seconds * 1e9);
    while (timed_ms * 1e6 < static_cast<double>(budget_ns)) {
      // A traced run alternates traced and untraced epochs.
      const bool traced = options_.trace && (epochs % 2 == 1);
      std::vector<Relation> fresh = Generate();
      const int64_t faults_before = MinorFaults();
      const int64_t deploy_start = NowNs();
      log_.set_on(traced);
      Deploy(fresh);
      log_.set_on(false);
      const int64_t deploy_end = NowNs();
      deploy_ms.push_back(MsBetween(deploy_start, deploy_end));
      faults += MinorFaults() - faults_before;
      timed_ms += MsBetween(deploy_start, deploy_end);

      const std::vector<Relation> expected = Oracles(fresh);
      // (L, r, C) of the first execution per (pair, answer) this epoch;
      // every later execution of the same spelling family must match.
      std::map<std::pair<int, int>, QueryStats> first_stats;
      const int64_t epoch_faults = MinorFaults();
      const int64_t phase_start = NowNs();
      std::vector<Response> responses = RunEpoch(traced, epochs);
      const int64_t phase_end = NowNs();
      faults += MinorFaults() - epoch_faults;
      timed_ms += MsBetween(phase_start, phase_end);
      ++epochs;

      for (Response& r : responses) {
        ++run.attempted;
        (traced ? traced_latencies : latencies).push_back(r.latency_ms);
        parse_ms += r.parse_ms;
        if (!r.status.ok()) {
          ++run.failed;
          std::fprintf(stderr, "serve_deploy: %s\n",
                       r.status.ToString().c_str());
          continue;
        }
        const QueryResult& result = r.result;
        if (result.result_cache_hit) {
          ++hits;
          hit_ms.push_back(r.latency_ms);
        } else if (result.coalesced) {
          ++coalesced;
          coalesced_ms.push_back(r.latency_ms);
        } else {
          ++executed;
          plan_hits += result.plan_cache_hit ? 1 : 0;
          planner_hits += result.stats.plan_cache_hits;
          planner_calls +=
              result.stats.plan_cache_hits + result.stats.plan_cache_misses;
          executed_ms.push_back(r.latency_ms);
          const QueryStats stats = Summarize(result.stats, kServeServers);
          acc.Add(stats);
          ++plan_seen[std::to_string(r.answer) + ":" + result.algorithm +
                      "/r=" + std::to_string(stats.rounds)];
          if (result.algorithm != kServeFamily[r.answer] ||
              stats.rounds != kServeRounds[r.answer]) {
            std::fprintf(stderr, "serve_deploy: answer %d planned %s r=%d\n",
                         r.answer, result.algorithm.c_str(), stats.rounds);
            ++run.failed;
            continue;
          }
          const auto [first, inserted] =
              first_stats.try_emplace({r.pair, r.answer}, stats);
          if (!inserted && (first->second.rounds != stats.rounds ||
                            first->second.max_load != stats.max_load ||
                            first->second.comm != stats.comm)) {
            std::fprintf(stderr, "serve_deploy: (L, r, C) moved for %s\n",
                         r.text->c_str());
            ++run.failed;
            continue;
          }
        }
        if (!MultisetEqual(result.output, expected[r.answer])) {
          std::fprintf(stderr, "serve_deploy: wrong answer for %s\n",
                       r.text->c_str());
          ++run.failed;
        }
      }
    }
    const double cores_end = ProbeEffectiveCores();
    run.correct = run.failed == 0;

    AddEndToEnd(&run, setup.median_s(), latencies, timed_ms, acc);
    const double requests = static_cast<double>(run.attempted);
    std::printf("serve_deploy: %lld epochs, %zu untraced + %zu traced timed "
                "requests over %.0f ms (p90 has %zu samples beyond it); "
                "executed %lld, coalesced %lld, hits %lld; plans:",
                static_cast<long long>(epochs), latencies.size(),
                traced_latencies.size(), timed_ms,
                latencies.size() -
                    static_cast<size_t>(std::ceil(0.9 * latencies.size())),
                static_cast<long long>(executed),
                static_cast<long long>(coalesced),
                static_cast<long long>(hits));
    for (const auto& [plan, count] : plan_seen) {
      std::printf(" %s x%lld", plan.c_str(), static_cast<long long>(count));
    }
    std::printf("\n");

    if (options_.trace) {
      const double tq = static_cast<double>(traced_latencies.size());
      LayerMetrics m;
      auto share = [&](int64_t count) {
        return Ratio(static_cast<double>(count), requests);
      };
      m.Set("workload.generate_ms", log_.MeanMs("workload.generate"));
      m.Set("serve.register_ms", log_.MeanMs("serve.register"));
      m.Set("serve.deploy_ms", Quantile(deploy_ms, 0.5));
      m.Set("serve.hit_ms_p50", Quantile(hit_ms, 0.5));
      m.Set("serve.coalesced_ms_p50", Quantile(coalesced_ms, 0.5));
      m.Set("serve.executed_ms_p50", Quantile(executed_ms, 0.5));
      m.Set("serve.result_cache_hit_ratio", share(hits));
      m.Set("serve.coalesced_ratio", share(coalesced));
      m.Set("serve.plan_cache_hit_ratio",
            Ratio(static_cast<double>(plan_hits),
                  static_cast<double>(executed)));
      m.Set("serve.executed_ratio",
            Ratio(static_cast<double>(executed),
                  static_cast<double>(kDistinctTextsPerEpoch * epochs)));
      m.Set("query.parse_ms", Ratio(parse_ms, tq));
      m.Set("planner.plan_ms",
            Ratio(log_.TotalMs(first_timed_span, "planner.plan"), tq));
      m.Set("planner.cache_hit_ratio",
            Ratio(static_cast<double>(planner_hits),
                  static_cast<double>(planner_calls)));
      // planner.dp_states stays 0: QueryResult does not report it.
      AddMpcLayer(&m, acc);
      m.Set("mem.minor_faults", Ratio(static_cast<double>(faults), requests));
      setup.AddLayerMetrics(&m);
      AddSelfTimes(&m, log_.SelfMs(first_timed_span), tq);
      AddTraceOverhead(&m, traced_latencies, latencies);
      m.Set("box.effective_cores", (cores_start + cores_end) / 2);
      run.per_layer = m.Ordered();
    } else {
      std::printf("box.effective_cores %.2f (start) %.2f (end)\n",
                  cores_start, cores_end);
    }
    return run;
  }

  SpanLog& log() { return log_; }

 private:
  struct Response {
    int64_t id = 0;  // Request id shared by the request's spans.
    int pair = 0;
    const std::string* text = nullptr;
    int answer = 0;
    int64_t start_ns = 0;
    double latency_ms = 0;
    double parse_ms = 0;
    Status status = OkStatus();
    QueryResult result;
  };

  std::vector<Relation> Generate() {
    std::vector<Relation> rels;
    for (int j = 0; j < 3; ++j) {
      ScopedSpan span(log_, kWorkload, "workload.generate", -1);
      rels.push_back(GenerateUniform(rng_, kServeRows, 2, kServeDomain));
    }
    return rels;
  }

  void Deploy(const std::vector<Relation>& rels) {
    ScopedSpan deploy(log_, kServe, "serve.deploy", -1);
    for (int j = 0; j < 3; ++j) {
      ScopedSpan span(log_, kServe, "serve.register", -1);
      catalog_->Register(kServeRelations[j], rels[j]);
    }
  }

  std::vector<Relation> Oracles(const std::vector<Relation>& rels) {
    std::vector<Relation> expected;
    for (const char* text : kSpellings[0]) {
      const auto q = ConjunctiveQuery::Parse(text);
      std::vector<Relation> atoms;
      for (const Atom& atom : q->atoms()) {
        atoms.push_back(rels[atom.name[0] - 'R']);
      }
      expected.push_back(EvalJoinLocal(*q, atoms));
    }
    return expected;
  }

  // Generation, registration, a fresh server and one untimed epoch that
  // warms its PlanCache.
  void Setup() {
    server_.reset();
    catalog_ = std::make_unique<Catalog>();
    rng_ = Rng(options_.seed);
    log_.set_on(options_.trace);
    Deploy(Generate());
    log_.set_on(false);
    ServeOptions serve_options;
    serve_options.num_servers = kServeServers;
    serve_options.num_threads = kPoolWidth;
    server_ = std::make_unique<QueryServer>(catalog_.get(), serve_options);
    RunEpoch(false, -1, kAnswers);
  }

  // Every client runs the first `steps` entries of its pair's list;
  // returns all responses.
  std::vector<Response> RunEpoch(bool traced, int64_t epoch,
                                 int steps = kStepsPerEpoch) {
    std::vector<std::vector<Response>> per_client(kClients);
    std::barrier start(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const std::vector<ServeQuery>& list = lists_[c / 2];
        start.arrive_and_wait();
        for (int step = 0; step < steps; ++step) {
          Response r;
          r.id = (epoch * kClients + c) * kStepsPerEpoch + step;
          r.pair = c / 2;
          r.text = &list[step].text;
          r.answer = list[step].answer;
          if (traced) {
            // Parsing happens inside Execute; a side parse of the same
            // text measures its cost without entering the latency window.
            const int64_t p0 = NowNs();
            const auto q = ConjunctiveQuery::Parse(*r.text);
            r.parse_ms = MsBetween(p0, NowNs());
          }
          r.start_ns = NowNs();
          auto result = server_->Execute(*r.text);
          r.latency_ms = MsBetween(r.start_ns, NowNs());
          if (result.ok()) {
            r.result = std::move(result).value();
          } else {
            r.status = result.status();
          }
          per_client[c].push_back(std::move(r));
        }
      });
    }
    for (std::thread& client : clients) client.join();
    std::vector<Response> all;
    for (std::vector<Response>& responses : per_client) {
      for (Response& r : responses) {
        if (traced) RecordServeSpans(r);
        all.push_back(std::move(r));
      }
    }
    return all;
  }

  // Execute is one opaque call. Its executed requests report planning,
  // round and outside-round local time, which become derived children;
  // parsing is timed on a side call of the same text.
  void RecordServeSpans(const Response& r) {
    const int64_t end = r.start_ns + static_cast<int64_t>(r.latency_ms * 1e6);
    const int root =
        log_.Add(kBench, "bench.query", r.start_ns, end, -1, r.id);
    const int execute =
        log_.Add(kServe, "serve.execute", r.start_ns, end, root, r.id);
    log_.AddDerived(execute, kQuery, "query.parse", r.parse_ms);
    if (!r.status.ok() || r.result.result_cache_hit || r.result.coalesced) {
      return;
    }
    const StatsReport& stats = r.result.stats;
    double rounds_ms = 0;
    for (const StatsReport::Round& round : stats.rounds) {
      rounds_ms += round.wall_ms;
    }
    double outside_ms = 0;
    for (double ms : stats.outside_phase_ms) outside_ms += ms;
    log_.AddDerived(execute, kPlanner, "planner.plan", stats.planning_ms);
    log_.AddDerived(execute, kMpc, "mpc.rounds", rounds_ms);
    log_.AddDerived(execute, kDrivers, "drivers.local", outside_ms);
  }

  const Options& options_;
  Rng rng_;
  SpanLog log_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<QueryServer> server_;
  std::vector<std::vector<ServeQuery>> lists_;  // Per pair.
};

// --------------------------------------------------------------------------

void PrintResult(const RunResult& run, bool trace) {
  const std::vector<Metric>& metrics = trace ? run.per_layer : run.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("%-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += run.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty() && options->seconds > 0;
}

}  // namespace
}  // namespace mpcqp

int main(int argc, char** argv) {
  mpcqp::Options options;
  if (!mpcqp::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload triangle_cold|skew_agg_warm|"
                 "serve_deploy --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  mpcqp::RunResult run;
  const mpcqp::SpanLog* log = nullptr;
  std::unique_ptr<mpcqp::OneShotWorkload> one_shot;
  std::unique_ptr<mpcqp::ServeWorkload> serve;
  if (options.workload == "triangle_cold" ||
      options.workload == "skew_agg_warm") {
    one_shot = std::make_unique<mpcqp::OneShotWorkload>(
        options.workload == "triangle_cold" ? mpcqp::kTriangleCold
                                            : mpcqp::kSkewAggWarm,
        options);
    run = one_shot->Run();
    log = &one_shot->log();
  } else if (options.workload == "serve_deploy") {
    serve = std::make_unique<mpcqp::ServeWorkload>(options);
    run = serve->Run();
    log = &serve->log();
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  if (options.trace && !options.trace_out.empty() &&
      !log->Write(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
  mpcqp::PrintResult(run, options.trace);
  return 0;
}
