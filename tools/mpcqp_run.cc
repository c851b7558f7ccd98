// mpcqp_run — command-line driver for the library: parse a conjunctive
// query, generate or load data, analyze the query (τ*, ρ*, AGM, shares),
// run a chosen parallel algorithm on the simulator, and print the cost
// report.
//
// Examples:
//   mpcqp_run --query "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)"
//             --gen "R=uniform:20000:10000" --gen "S=uniform:20000:10000"
//             --gen "T=uniform:20000:10000" --servers 64 --algorithm hypercube
//
//   mpcqp_run --query "R(x,y), S(y,z)" --input R=r.csv --input S=s.csv
//             --algorithm skewhc --servers 16 --output out.csv
//
//   mpcqp_run --query "..." --gen ... --analyze   # plan only, no execution
//
// --algorithm auto|planner runs the cost-based planner and prints its
// candidate table; hypercube|skewhc|binary|gym forces that family (an
// unknown name, or gym on a cyclic query, exits 2 before any data is
// made). Every run prints the plan tree it executes. --analyze prints the
// planner's candidate table and plan tree and stops there, or right after
// the query analysis when no data is given.
//
// Generator specs: uniform:rows:domain | zipf:rows:domain:skew |
//                  degree:rows:deg (binary, exact-degree column 1) |
//                  graph:nodes:edges (binary edge list)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "common/flags.h"
#include "common/parse.h"
#include "common/simd.h"
#include "common/trace.h"
#include "mpc/cluster.h"
#include "mpc/metrics.h"
#include "multiway/shares.h"
#include "planner/calibration.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/ghd.h"
#include "query/hypergraph_lp.h"
#include "query/local_eval.h"
#include "query/lower_bounds.h"
#include "query/query.h"
#include "relation/csv.h"
#include "relation/relation_ops.h"
#include "serve/catalog.h"
#include "serve/load_driver.h"
#include "serve/query_server.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

struct Options {
  std::string query_text;
  int servers = 16;
  int threads = 1;
  int64_t morsel_rows = ClusterOptions{}.morsel_rows;
  std::string algorithm = "hypercube";
  std::map<std::string, std::string> generators;  // atom name -> spec.
  std::map<std::string, std::string> inputs;      // atom name -> csv path.
  std::string output_path;
  std::string group_by;  // Comma-separated output variables to group on.
  std::string agg;       // sum:var | count | count:var | min:var | max:var.
  std::string trace_path;  // Chrome-trace JSON sink (empty = tracing off).
  std::string stats_path;  // StatsReport JSON sink.
  bool analyze_only = false;
  bool verify = false;
  uint64_t seed = 42;
  // Planner controls (--algorithm auto/planner).
  double round_cost = 0.0;   // λ: tuples-equivalent charge per round.
  bool plan_cache = true;    // --plan-cache on|off.
  bool calibrate = false;    // Measure per-tuple costs before planning.
  // Serving mode (--serve batch:FILE).
  std::string serve_spec;    // Empty = one-shot mode.
  int clients = 1;
  int64_t requests = 0;      // 0 = 25 per client.
  int max_inflight = 4;
  int max_queued = 64;
  int64_t mem_budget_mb = 0;  // Per-query estimate cap; 0 = unlimited.
  bool result_cache = true;
  std::string serve_stats_path;  // LoadReport JSON sink.
};

// Registers every flag against `options`. One table: Parse() and the
// usage text both come from it, so they cannot drift.
FlagSet BuildFlags(Options* options) {
  FlagSet flags;
  flags.String("query", &options->query_text,
               "conjunctive query, e.g. \"Q(x,z) :- R(x,y), S(y,z)\"");
  flags.Int("servers", &options->servers, 1, 1 << 20,
            "simulated MPC cluster size p", "-p");
  flags.Int("threads", &options->threads, 1, 1 << 20,
            "OS threads executing a round (never changes results)");
  flags.Int64("morsel-rows", &options->morsel_rows, 1, INT64_MAX,
              "rows per exchange morsel (never changes results)");
  flags.String("algorithm", &options->algorithm,
               "hypercube|skewhc|binary|gym|auto|planner");
  flags.KeyValue("gen", &options->generators,
                 "generator spec per atom, NAME=uniform:rows:domain | "
                 "zipf:rows:domain:skew | degree:rows:deg | "
                 "graph:nodes:edges");
  flags.KeyValue("input", &options->inputs, "CSV input per atom, NAME=FILE");
  flags.String("output", &options->output_path, "write the result as CSV");
  flags.String("group-by", &options->group_by,
               "aggregate: comma-separated output variables to group on "
               "(empty with --agg = one scalar group)");
  flags.String("agg", &options->agg,
               "aggregate the join output: sum:VAR | count | count:VAR | "
               "min:VAR | max:VAR");
  flags.String("trace", &options->trace_path,
               "write a Chrome-trace (Perfetto) timeline");
  flags.String("stats", &options->stats_path,
               "write a machine-readable per-round stats report");
  flags.Uint64("seed", &options->seed, "RNG seed (data + hash functions)");
  flags.Double("round-cost", &options->round_cost, 0.0,
               "planner lambda: tuples-equivalent charge per round");
  flags.Bool("plan-cache", &options->plan_cache,
             "toggle the shape+stats plan cache");
  flags.Switch("calibrate", &options->calibrate,
               "measure per-tuple phase costs first, plan in microseconds");
  flags.Switch("analyze", &options->analyze_only,
               "plan and print analysis only, no execution");
  flags.Switch("verify", &options->verify,
               "check the output against serial evaluation");
  flags.String("serve", &options->serve_spec,
               "serving mode: batch:FILE with one query per line");
  flags.Int("clients", &options->clients, 1, 4096,
            "serve: concurrent client threads");
  flags.Int64("requests", &options->requests, 0, INT64_MAX,
              "serve: total requests (0 = 25 per client)");
  flags.Int("max-inflight", &options->max_inflight, 1, 4096,
            "serve: queries executing at once");
  flags.Int("max-queued", &options->max_queued, 0, 1 << 20,
            "serve: admission queue depth beyond max-inflight");
  flags.Int64("mem-budget", &options->mem_budget_mb, 0, INT64_MAX,
              "serve: per-query estimated-memory cap in MiB (0 = off)");
  flags.Bool("result-cache", &options->result_cache,
             "serve: toggle the fingerprint-keyed result cache");
  flags.String("serve-stats", &options->serve_stats_path,
               "serve: write the load report as JSON");
  return flags;
}

[[noreturn]] void Usage(const char* argv0, const FlagSet& flags) {
  std::fprintf(stderr, "usage: %s --query Q [flags]\n%s", argv0,
               flags.Help().c_str());
  std::exit(2);
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return parts;
}

std::vector<std::string> SplitColons(const std::string& s) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (true) {
    const size_t colon = s.find(':', pos);
    if (colon == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, colon - pos));
    pos = colon + 1;
  }
  return parts;
}

StatusOr<Relation> Generate(const std::string& spec, int arity, Rng& rng) {
  const std::vector<std::string> parts = SplitColons(spec);
  const std::string& kind = parts[0];
  auto need = [&](size_t n) { return parts.size() == n; };
  // Every numeric field goes through the checked parsers: "20k" or a
  // wrapped 2^64 row count is a spec error, not a silent zero.
  auto count = [&](const std::string& text) -> StatusOr<int64_t> {
    auto parsed = ParseInt64InRange(text, 0, INT64_MAX);
    if (!parsed.ok()) {
      return InvalidArgumentError("bad generator spec '" + spec +
                                  "': " + parsed.status().message());
    }
    return parsed;
  };
  auto domain = [&](const std::string& text) -> StatusOr<uint64_t> {
    auto parsed = ParseUint64(text);
    if (!parsed.ok()) {
      return InvalidArgumentError("bad generator spec '" + spec +
                                  "': " + parsed.status().message());
    }
    return parsed;
  };
  if (kind == "uniform" && need(3)) {
    auto rows = count(parts[1]);
    if (!rows.ok()) return rows.status();
    auto dom = domain(parts[2]);
    if (!dom.ok()) return dom.status();
    return GenerateUniform(rng, *rows, arity, *dom);
  }
  if (kind == "zipf" && need(4)) {
    if (arity < 1) return InvalidArgumentError("zipf needs arity >= 1");
    auto rows = count(parts[1]);
    if (!rows.ok()) return rows.status();
    auto dom = domain(parts[2]);
    if (!dom.ok()) return dom.status();
    auto skew = ParseDouble(parts[3]);
    if (!skew.ok()) {
      return InvalidArgumentError("bad generator spec '" + spec +
                                  "': " + skew.status().message());
    }
    return GenerateZipf(rng, *rows, arity, *dom, /*zipf_col=*/0, *skew);
  }
  if (kind == "degree" && need(3)) {
    if (arity != 2) return InvalidArgumentError("degree needs arity 2");
    auto rows = count(parts[1]);
    if (!rows.ok()) return rows.status();
    auto deg = count(parts[2]);
    if (!deg.ok()) return deg.status();
    return GenerateMatchingDegree(rng, *rows, *deg);
  }
  if (kind == "graph" && need(3)) {
    if (arity != 2) return InvalidArgumentError("graph needs arity 2");
    auto nodes = domain(parts[1]);
    if (!nodes.ok()) return nodes.status();
    auto edges = count(parts[2]);
    if (!edges.ok()) return edges.status();
    return GenerateRandomGraph(rng, *nodes, *edges);
  }
  return InvalidArgumentError("bad generator spec: " + spec);
}

// EXPLAIN: the planner's candidate table and choice (a forced family has
// neither), then the plan tree that runs.
void PrintPlan(const ConjunctiveQuery& q, const PlannedQuery& planned) {
  if (!planned.forced) {
    std::printf("planner candidates:\n");
    for (const CandidatePlan& plan : planned.candidates) {
      std::printf("  %-12s %s est L=%.0f r=%d cost=%.0f  (%s)\n",
                  PlanAlgorithmName(plan.algorithm),
                  plan.feasible ? "ok " : "n/a", plan.estimated_load,
                  plan.estimated_rounds, plan.total_cost,
                  plan.rationale.c_str());
    }
    std::printf("planner chose: %s (%s, %lld dp states)\n",
                PlanAlgorithmName(planned.plan.family),
                planned.cache_hit ? "plan cache hit" : "planned",
                static_cast<long long>(planned.dp_states));
  }
  std::printf("plan tree:\n%s", planned.plan.tree.ToString(q).c_str());
}

// `family` is the parsed --algorithm: a forced family, or nullopt for the
// cost-based planner.
int Run(const Options& options, std::optional<PlanAlgorithm> family) {
  const auto query = ConjunctiveQuery::Parse(options.query_text);
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }
  const ConjunctiveQuery& q = *query;
  std::printf("query: %s\n", q.ToString().c_str());

  // A forced family that cannot run this query fails before any data is
  // generated.
  std::optional<PlannedQuery> forced;
  if (family) {
    auto plan = ForcedPlan(q, *family);
    if (!plan.ok()) {
      std::fprintf(stderr, "--algorithm: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
    forced = std::move(plan).value();
  }

  // --- Analysis ---
  const auto packing = FractionalEdgePacking(q);
  const auto cover = FractionalEdgeCover(q);
  if (packing.ok() && cover.ok()) {
    std::printf("tau* (edge packing) = %.3f   rho* (edge cover) = %.3f   "
                "acyclic: %s\n",
                packing->value, cover->value,
                IsAcyclic(q) ? "yes" : "no");
  }

  // --- Data ---
  Rng rng(options.seed);
  std::vector<Relation> atoms;
  std::vector<int64_t> sizes;
  for (int j = 0; j < q.num_atoms(); ++j) {
    const Atom& atom = q.atom(j);
    Relation rel(atom.arity());
    if (const auto it = options.inputs.find(atom.name);
        it != options.inputs.end()) {
      auto loaded = ReadCsvFile(it->second, atom.arity());
      if (!loaded.ok()) {
        std::fprintf(stderr, "input %s: %s\n", atom.name.c_str(),
                     loaded.status().ToString().c_str());
        return 1;
      }
      rel = std::move(loaded).value();
    } else if (const auto git = options.generators.find(atom.name);
               git != options.generators.end()) {
      auto generated = Generate(git->second, atom.arity(), rng);
      if (!generated.ok()) {
        std::fprintf(stderr, "gen %s: %s\n", atom.name.c_str(),
                     generated.status().ToString().c_str());
        return 1;
      }
      rel = std::move(generated).value();
    } else if (!options.analyze_only) {
      std::fprintf(stderr,
                   "no data for atom %s (use --gen or --input)\n",
                   atom.name.c_str());
      return 1;
    }
    std::printf("  %s: %lld tuples\n", atom.name.c_str(),
                static_cast<long long>(rel.size()));
    sizes.push_back(rel.size());
    atoms.push_back(std::move(rel));
  }

  const auto agm = AgmBound(q, sizes);
  if (agm.ok()) std::printf("AGM output bound: %.0f\n", *agm);
  const IntegerShares shares = ComputeShares(q, sizes, options.servers);
  std::printf("HyperCube shares for p=%d: ", options.servers);
  for (int v = 0; v < q.num_vars(); ++v) {
    std::printf("%s=%d ", q.var_name(v).c_str(), shares.shares[v]);
  }
  std::printf(" (predicted load %.0f tuples)\n", shares.predicted_load);
  const auto lb = OneRoundLoadLowerBound(q, sizes, options.servers);
  if (lb.ok()) std::printf("one-round load lower bound: %.0f tuples\n", *lb);

  if (IsAcyclic(q)) {
    const auto tree = BuildJoinTree(q);
    if (tree.ok()) {
      std::printf("join tree: %s\n", tree->ToString(q).c_str());
    }
  }
  bool have_data = true;
  for (const Relation& rel : atoms) {
    if (rel.empty()) have_data = false;
  }
  if (options.analyze_only && !have_data) return 0;

  // --- Plan (--analyze stops after printing it) ---
  if (!options.trace_path.empty()) Tracer::Get().Enable();
  ClusterOptions cluster_options;
  cluster_options.num_threads = options.threads;
  cluster_options.morsel_rows = options.morsel_rows;
  Cluster cluster(options.servers, options.seed + 1, cluster_options);
  std::vector<DistRelation> dist;
  for (const Relation& r : atoms) {
    dist.push_back(
        DistRelation::Scatter(r, options.servers, &cluster.pool()));
  }
  Rng algo_rng(options.seed + 2);

  // --analyze explains the cost-based planner's choice, whatever
  // --algorithm forces.
  PlannedQuery planned;
  if (forced && !options.analyze_only) {
    planned = std::move(*forced);
  } else {
    PlannerOptions planner_options;
    planner_options.round_cost_tuples = options.round_cost;
    if (options.calibrate) {
      planner_options.cost =
          CalibrateCostModel(options.servers, options.threads);
      std::printf("calibrated cost model: %s\n",
                  planner_options.cost.ToString().c_str());
    }
    PlanCache cache;
    planned = PlanQuery(q, dist, options.servers, planner_options,
                        options.plan_cache ? &cache : nullptr);
  }
  PrintPlan(q, planned);
  if (options.analyze_only) return 0;

  // --- Execution ---
  DistRelation output =
      ExecutePlannedQuery(cluster, q, dist, planned, algo_rng);

  // --agg runs the distributed group-by engine over the join output (with
  // per-fragment combiners and a hash shuffle), so its rounds show up in
  // the cost report below.
  bool aggregated = false;
  std::vector<int> group_cols;
  int agg_value_col = -1;
  AggregateOp agg_op = AggregateOp::kCount;
  if (!options.agg.empty()) {
    auto var_index = [&](const std::string& name) {
      for (int v = 0; v < q.num_vars(); ++v) {
        if (q.var_name(v) == name) return v;
      }
      return -1;
    };
    for (const std::string& name : SplitCommas(options.group_by)) {
      const int v = var_index(name);
      if (v < 0) {
        std::fprintf(stderr, "--group-by: unknown variable '%s'\n",
                     name.c_str());
        return 1;
      }
      group_cols.push_back(v);
    }
    const std::vector<std::string> parts = SplitColons(options.agg);
    if (parts[0] == "sum") {
      agg_op = AggregateOp::kSum;
    } else if (parts[0] == "count") {
      agg_op = AggregateOp::kCount;
    } else if (parts[0] == "min") {
      agg_op = AggregateOp::kMin;
    } else if (parts[0] == "max") {
      agg_op = AggregateOp::kMax;
    } else {
      std::fprintf(stderr, "--agg: unknown op '%s'\n", parts[0].c_str());
      return 1;
    }
    if (parts.size() == 2) {
      agg_value_col = var_index(parts[1]);
      if (agg_value_col < 0) {
        std::fprintf(stderr, "--agg: unknown variable '%s'\n",
                     parts[1].c_str());
        return 1;
      }
    } else if (parts.size() != 1 || agg_op != AggregateOp::kCount) {
      std::fprintf(stderr,
                   "--agg: expected OP:VAR (only bare 'count' may omit the "
                   "value variable)\n");
      return 1;
    }
    auto agg_result = DistributedGroupByAggregate(cluster, output, group_cols,
                                                  agg_value_col, agg_op);
    if (!agg_result.ok()) {
      std::fprintf(stderr, "aggregate: %s\n",
                   agg_result.status().ToString().c_str());
      return 1;
    }
    output = std::move(agg_result).value();
    aggregated = true;
    std::printf("aggregate: %s over %zu group column(s) -> %lld groups\n",
                options.agg.c_str(), group_cols.size(),
                static_cast<long long>(output.TotalSize()));
  }

  std::printf("\nalgorithm: %s\noutput: %lld tuples\n%s\n",
              PlanAlgorithmName(planned.plan.family),
              static_cast<long long>(output.TotalSize()),
              cluster.cost_report().ToString().c_str());

  if (!options.trace_path.empty()) {
    const Status written = Tracer::Get().WriteChromeTrace(options.trace_path);
    if (!written.ok()) {
      std::fprintf(stderr, "trace: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace %s (%lld events)\n", options.trace_path.c_str(),
                static_cast<long long>(Tracer::Get().event_count()));
  }
  if (!options.stats_path.empty()) {
    const Status written =
        WriteStatsJson(BuildStatsReport(cluster), options.stats_path);
    if (!written.ok()) {
      std::fprintf(stderr, "stats: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote stats %s (simd: %s)\n", options.stats_path.c_str(),
                simd::IsaLevelName(simd::DispatchedIsa()));
  }

  if (options.verify) {
    Relation expected = EvalJoinLocal(q, atoms);
    if (aggregated) {
      auto agg_expected =
          GroupByAggregate(expected, group_cols, agg_value_col, agg_op);
      if (!agg_expected.ok()) {
        std::fprintf(stderr, "verify aggregate: %s\n",
                     agg_expected.status().ToString().c_str());
        return 1;
      }
      expected = std::move(agg_expected).value();
    }
    const bool ok = MultisetEqual(output.Collect(&cluster.pool()), expected,
                                  &cluster.pool());
    std::printf("verify against serial evaluation: %s\n",
                ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  if (!options.output_path.empty()) {
    const Status written =
        WriteCsvFile(output.Collect(&cluster.pool()), options.output_path);
    if (!written.ok()) {
      std::fprintf(stderr, "output: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", options.output_path.c_str());
  }
  return 0;
}

// --serve batch:FILE — the multi-query serving front-end. Loads the
// workload (one query per line, '#' comments), registers every referenced
// atom's data in a Catalog, then drives a QueryServer with --clients
// closed-loop threads on the process-wide shared pool.
int RunServe(const Options& options) {
  const std::string kPrefix = "batch:";
  if (options.serve_spec.compare(0, kPrefix.size(), kPrefix) != 0) {
    std::fprintf(stderr, "--serve: expected batch:FILE, got '%s'\n",
                 options.serve_spec.c_str());
    return 2;
  }
  const std::string path = options.serve_spec.substr(kPrefix.size());
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "--serve: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> queries;
  for (std::string line; std::getline(file, line);) {
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    queries.push_back(line);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "--serve: no queries in %s\n", path.c_str());
    return 1;
  }

  // Register data for every atom the workload mentions, in first-use
  // order (which makes generated data reproducible from --seed alone).
  Catalog catalog;
  Rng rng(options.seed);
  for (const std::string& text : queries) {
    const auto query = ConjunctiveQuery::Parse(text);
    if (!query.ok()) {
      std::fprintf(stderr, "query '%s': %s\n", text.c_str(),
                   query.status().ToString().c_str());
      return 1;
    }
    for (int j = 0; j < query->num_atoms(); ++j) {
      const Atom& atom = query->atom(j);
      Catalog::Entry existing;
      if (catalog.Find(atom.name, &existing)) continue;
      Relation rel(atom.arity());
      if (const auto it = options.inputs.find(atom.name);
          it != options.inputs.end()) {
        auto loaded = ReadCsvFile(it->second, atom.arity());
        if (!loaded.ok()) {
          std::fprintf(stderr, "input %s: %s\n", atom.name.c_str(),
                       loaded.status().ToString().c_str());
          return 1;
        }
        rel = std::move(loaded).value();
      } else if (const auto git = options.generators.find(atom.name);
                 git != options.generators.end()) {
        auto generated = Generate(git->second, atom.arity(), rng);
        if (!generated.ok()) {
          std::fprintf(stderr, "gen %s: %s\n", atom.name.c_str(),
                       generated.status().ToString().c_str());
          return 1;
        }
        rel = std::move(generated).value();
      } else {
        std::fprintf(stderr, "no data for atom %s (use --gen or --input)\n",
                     atom.name.c_str());
        return 1;
      }
      std::printf("  %s: %lld tuples\n", atom.name.c_str(),
                  static_cast<long long>(rel.size()));
      catalog.Register(atom.name, std::move(rel));
    }
  }

  ServeOptions serve;
  serve.num_servers = options.servers;
  serve.num_threads = options.threads;
  serve.morsel_rows = options.morsel_rows;
  serve.algorithm = options.algorithm;
  serve.seed = options.seed;
  serve.round_cost = options.round_cost;
  serve.max_inflight = options.max_inflight;
  serve.max_queued = options.max_queued;
  serve.mem_budget_bytes = options.mem_budget_mb * (int64_t{1} << 20);
  serve.enable_result_cache = options.result_cache;
  serve.enable_plan_cache = options.plan_cache;
  QueryServer server(&catalog, serve);

  LoadOptions load;
  load.clients = options.clients;
  load.requests = options.requests > 0
                      ? options.requests
                      : int64_t{25} * options.clients;
  std::printf("serving %zu queries: %lld requests, %d clients, "
              "%d servers, %d threads, algorithm %s\n",
              queries.size(), static_cast<long long>(load.requests),
              load.clients, options.servers, options.threads,
              options.algorithm.c_str());
  const LoadReport report = RunLoad(server, queries, load);

  std::printf(
      "completed %lld (%lld errors) in %.1f ms: %.1f qps\n"
      "latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n"
      "executed %lld  result-cache hits %lld  coalesced %lld  "
      "rejected: overload %lld, memory %lld\n",
      static_cast<long long>(report.completed),
      static_cast<long long>(report.errors), report.wall_ms, report.qps,
      report.mean_ms, report.p50_ms, report.p95_ms, report.p99_ms,
      report.max_ms, static_cast<long long>(report.executed),
      static_cast<long long>(report.result_cache_hits),
      static_cast<long long>(report.coalesced),
      static_cast<long long>(report.rejected_overload),
      static_cast<long long>(report.rejected_memory));

  if (!options.serve_stats_path.empty()) {
    std::ofstream out(options.serve_stats_path);
    if (!out) {
      std::fprintf(stderr, "serve-stats: cannot write %s\n",
                   options.serve_stats_path.c_str());
      return 1;
    }
    out << report.ToJson() << "\n";
    std::printf("wrote %s\n", options.serve_stats_path.c_str());
  }
  return report.errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mpcqp

int main(int argc, char** argv) {
  mpcqp::Options options;
  const mpcqp::FlagSet flags = mpcqp::BuildFlags(&options);
  if (const mpcqp::Status parsed = flags.Parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    mpcqp::Usage(argv[0], flags);
  }
  const auto family = mpcqp::ParseAlgorithmName(options.algorithm);
  if (!family.ok()) {
    std::fprintf(stderr, "--algorithm: %s\n",
                 family.status().ToString().c_str());
    mpcqp::Usage(argv[0], flags);
  }
  if (!options.serve_spec.empty()) {
    return mpcqp::RunServe(options);
  }
  if (options.query_text.empty()) {
    mpcqp::Usage(argv[0], flags);
  }
  return mpcqp::Run(options, *family);
}
