// mpcqp_run — command-line driver for the library: parse a conjunctive
// query, generate or load data, analyze the query (τ*, ρ*, AGM, shares),
// run it on the simulator, and print the cost report.
//
// Both modes run queries the same way: the data goes into a Catalog and
// each query is one QueryServer::Execute request. The one-shot mode
// (--query) is a single Execute on a fresh server; --serve batch:FILE
// drives one server from --clients threads.
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
// candidate table; hypercube (the default)|skewhc|binary|gym forces that
// family (an unknown name, or gym on a cyclic query, exits 2 before any
// data is made). Every run prints the plan tree it executes. --analyze
// prints the planner's candidate table and plan tree and stops there, or
// right after the query analysis when no data is given. A bad --agg or
// --group-by variable exits 1 before any round runs.
//
// Engine flags apply in both modes; a flag the chosen mode has no use for
// exits 2 (README.md, "Command-line driver").
//
// Generator specs (workload/generator.h, GenerateFromSpec):
//   uniform:rows:domain | zipf:rows:domain:skew |
//   degree:rows:deg (binary, exact-degree column 1) |
//   graph:nodes:edges (binary edge list)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mpc/dist_relation.h"
#include "mpc/metrics.h"
#include "multiway/shares.h"
#include "planner/calibration.h"
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
  Options() { serve.algorithm = "hypercube"; }

  // Engine flags, shared by both modes.
  ServeOptions serve;
  int64_t mem_budget_mb = 0;  // Sets serve.mem_budget_bytes; 0 = off.
  bool calibrate = false;     // Measure per-tuple costs into serve.cost.
  std::map<std::string, std::string> generators;  // atom name -> spec.
  std::map<std::string, std::string> inputs;      // atom name -> csv path.
  // One-shot mode (--query).
  std::string query_text;
  std::string output_path;
  std::string group_by;  // Comma-separated output variables to group on.
  std::string agg;       // sum:var | count | count:var | min:var | max:var.
  std::string trace_path;  // Chrome-trace JSON sink (empty = tracing off).
  std::string stats_path;  // StatsReport JSON sink.
  bool analyze_only = false;
  bool verify = false;
  // Serving mode (--serve batch:FILE).
  std::string serve_spec;
  int clients = 1;
  int64_t requests = 0;      // 0 = 25 per client.
  std::string serve_stats_path;  // LoadReport JSON sink.
};

// Registers every flag against `options`. One table: Parse() and the
// usage text both come from it, so they cannot drift.
FlagSet BuildFlags(Options* options) {
  ServeOptions& serve = options->serve;
  FlagSet flags;
  flags.String("query", &options->query_text,
               "conjunctive query, e.g. \"Q(x,z) :- R(x,y), S(y,z)\"");
  flags.Int("servers", &serve.num_servers, 1, 1 << 20,
            "simulated MPC cluster size p", "-p");
  flags.Int("threads", &serve.num_threads, 1, ThreadPool::kMaxThreads,
            "OS threads executing a round (never changes results)");
  flags.Int64("morsel-rows", &serve.morsel_rows, 1, INT64_MAX,
              "rows per exchange morsel (never changes results)");
  flags.String("algorithm", &serve.algorithm,
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
  flags.Uint64("seed", &serve.seed, "RNG seed (data + hash functions)");
  flags.Double("round-cost", &serve.round_cost, 0.0,
               "planner lambda: tuples-equivalent charge per round");
  flags.Bool("plan-cache", &serve.enable_plan_cache,
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
  flags.Int("max-inflight", &serve.max_inflight, 1, 4096,
            "queries executing at once");
  flags.Int("max-queued", &serve.max_queued, 0, 1 << 20,
            "admission queue depth beyond max-inflight");
  flags.Int64("mem-budget", &options->mem_budget_mb, 0, INT64_MAX >> 20,
              "per-query estimated-memory cap in MiB (0 = off)");
  flags.Bool("result-cache", &serve.enable_result_cache,
             "toggle the fingerprint-keyed result cache");
  flags.String("serve-stats", &options->serve_stats_path,
               "serve: write the load report as JSON");
  return flags;
}

[[noreturn]] void Usage(const char* argv0, const FlagSet& flags) {
  std::fprintf(stderr, "usage: %s --query Q [flags]\n%s", argv0,
               flags.Help().c_str());
  std::exit(2);
}

// A flag the chosen mode has no use for is an error, not a silent no-op.
bool CheckModeFlags(const Options& options,
                    const std::set<std::string>& given) {
  const bool serving = !options.serve_spec.empty();
  const std::vector<std::string> unused =
      serving ? std::vector<std::string>{"query", "agg", "group-by",
                                         "verify", "output", "analyze",
                                         "trace", "stats"}
              : std::vector<std::string>{"clients", "requests",
                                         "serve-stats"};
  for (const std::string& name : unused) {
    if (given.count(name) > 0) {
      std::fprintf(stderr, "--%s does not apply %s --serve\n", name.c_str(),
                   serving ? "with" : "without");
      return false;
    }
  }
  if (given.count("group-by") > 0 && options.agg.empty()) {
    std::fprintf(stderr, "--group-by needs --agg\n");
    return false;
  }
  return true;
}

// --agg OP[:VAR] and --group-by VAR,... as an AggregateSpec; the server
// resolves the names against the query.
StatusOr<AggregateSpec> ParseAggregate(const std::string& agg,
                                       const std::string& group_by) {
  static const std::map<std::string, AggregateOp> kOps = {
      {"sum", AggregateOp::kSum}, {"count", AggregateOp::kCount},
      {"min", AggregateOp::kMin}, {"max", AggregateOp::kMax}};
  const size_t colon = agg.find(':');
  const auto op = kOps.find(agg.substr(0, colon));
  if (op == kOps.end()) return InvalidArgumentError("unknown op in " + agg);
  AggregateSpec spec;
  spec.op = op->second;
  if (colon != std::string::npos) spec.value_var = agg.substr(colon + 1);
  std::istringstream vars(group_by);
  for (std::string var; std::getline(vars, var, ',');) {
    spec.group_vars.push_back(var);
  }
  return spec;
}

// The relation for `atom` from --input or --gen; with neither, an error,
// or an empty relation when `allow_missing`.
StatusOr<Relation> LoadAtom(const Atom& atom, const Options& options,
                            bool allow_missing, Rng& rng) {
  if (const auto it = options.inputs.find(atom.name);
      it != options.inputs.end()) {
    return ReadCsvFile(it->second, atom.arity());
  }
  if (const auto it = options.generators.find(atom.name);
      it != options.generators.end()) {
    return GenerateFromSpec(it->second, atom.arity(), rng);
  }
  if (allow_missing) return Relation(atom.arity());
  return NotFoundError("no data (use --gen or --input)");
}

// Registers data for every atom `queries` mention, in first-use order
// (which makes generated data reproducible from --seed alone), and prints
// each size.
bool LoadAtoms(const std::vector<ConjunctiveQuery>& queries,
               const Options& options, bool allow_missing,
               Catalog* catalog) {
  Rng rng(options.serve.seed);
  for (const ConjunctiveQuery& q : queries) {
    for (const Atom& atom : q.atoms()) {
      Catalog::Entry existing;
      if (catalog->Find(atom.name, &existing)) {
        if (existing.relation.arity() == atom.arity()) continue;
        std::fprintf(stderr, "atom %s: arity differs from an earlier use\n",
                     atom.name.c_str());
        return false;
      }
      auto rel = LoadAtom(atom, options, allow_missing, rng);
      if (!rel.ok()) {
        std::fprintf(stderr, "atom %s: %s\n", atom.name.c_str(),
                     rel.status().ToString().c_str());
        return false;
      }
      std::printf("  %s: %lld tuples\n", atom.name.c_str(),
                  static_cast<long long>(rel->size()));
      catalog->Register(atom.name, std::move(rel).value());
    }
  }
  return true;
}

// --calibrate: measures the cost model the planner prices plans with.
void Calibrate(ServeOptions* serve) {
  serve->cost = CalibrateCostModel(serve->num_servers, serve->num_threads);
  std::printf("calibrated cost model: %s\n", serve->cost.ToString().c_str());
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

// One query: analysis, data, then a single Execute on a fresh server.
// `family` is the parsed --algorithm: a forced family, or nullopt for the
// cost-based planner.
int Run(Options& options, std::optional<PlanAlgorithm> family) {
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
  if (family) {
    if (auto plan = ForcedPlan(q, *family); !plan.ok()) {
      std::fprintf(stderr, "--algorithm: %s\n",
                   plan.status().ToString().c_str());
      return 2;
    }
  }
  std::optional<AggregateSpec> aggregate;
  if (!options.agg.empty()) {
    auto spec = ParseAggregate(options.agg, options.group_by);
    if (!spec.ok()) {
      std::fprintf(stderr, "--agg: %s\n", spec.status().ToString().c_str());
      return 1;
    }
    aggregate = std::move(spec).value();
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
  Catalog catalog;
  if (!LoadAtoms({q}, options, options.analyze_only, &catalog)) return 1;
  std::vector<Relation> atoms;
  std::vector<int64_t> sizes;
  bool have_data = true;
  for (const Atom& atom : q.atoms()) {
    Catalog::Entry entry;
    catalog.Find(atom.name, &entry);
    sizes.push_back(entry.relation.size());
    if (entry.relation.empty()) have_data = false;
    atoms.push_back(std::move(entry.relation));
  }

  const int p = options.serve.num_servers;
  const auto agm = AgmBound(q, sizes);
  if (agm.ok()) std::printf("AGM output bound: %.0f\n", *agm);
  const IntegerShares shares = ComputeShares(q, sizes, p);
  std::printf("HyperCube shares for p=%d: ", p);
  for (int v = 0; v < q.num_vars(); ++v) {
    std::printf("%s=%d ", q.var_name(v).c_str(), shares.shares[v]);
  }
  std::printf(" (predicted load %.0f tuples)\n", shares.predicted_load);
  const auto lb = OneRoundLoadLowerBound(q, sizes, p);
  if (lb.ok()) std::printf("one-round load lower bound: %.0f tuples\n", *lb);

  if (IsAcyclic(q)) {
    const auto tree = BuildJoinTree(q);
    if (tree.ok()) {
      std::printf("join tree: %s\n", tree->ToString(q).c_str());
    }
  }
  if (options.analyze_only && !have_data) return 0;
  if (options.calibrate) Calibrate(&options.serve);

  // --analyze explains the cost-based planner's choice, whatever
  // --algorithm forces, and executes nothing.
  if (options.analyze_only) {
    std::vector<DistRelation> dist;
    for (const Relation& r : atoms) dist.push_back(DistRelation::Scatter(r, p));
    PlannerOptions planner_options;
    planner_options.round_cost_tuples = options.serve.round_cost;
    planner_options.cost = options.serve.cost;
    PrintPlan(q, PlanQuery(q, dist, p, planner_options));
    return 0;
  }

  // --- Execution ---
  if (!options.trace_path.empty()) Tracer::Get().Enable();
  QueryServer server(&catalog, options.serve);
  const auto result = server.Execute(options.query_text, aggregate);
  if (!result.ok()) {
    std::fprintf(stderr, "query: %s\n", result.status().ToString().c_str());
    return 1;
  }
  PrintPlan(q, result->plan);
  if (aggregate) {
    std::printf("aggregate: %s over %zu group column(s) -> %lld groups\n",
                options.agg.c_str(), aggregate->group_vars.size(),
                static_cast<long long>(result->output.size()));
  }
  std::printf("\nalgorithm: %s\noutput: %lld tuples\n%s\n",
              result->algorithm.c_str(),
              static_cast<long long>(result->output.size()),
              result->cost.ToString().c_str());

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
    const Status written = WriteStatsJson(result->stats, options.stats_path);
    if (!written.ok()) {
      std::fprintf(stderr, "stats: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote stats %s (simd: %s)\n", options.stats_path.c_str(),
                simd::IsaLevelName(simd::DispatchedIsa()));
  }

  if (options.verify) {
    Relation expected = EvalJoinLocal(q, atoms);
    if (aggregate) {
      // Execute accepted the spec, so it resolves.
      const auto columns = ResolveAggregate(q, *aggregate);
      auto grouped = GroupByAggregate(expected, columns->group_cols,
                                      columns->value_col, columns->op);
      if (!grouped.ok()) {
        std::fprintf(stderr, "verify aggregate: %s\n",
                     grouped.status().ToString().c_str());
        return 1;
      }
      expected = std::move(grouped).value();
    }
    const bool ok = MultisetEqual(result->output, expected, &server.pool());
    std::printf("verify against serial evaluation: %s\n",
                ok ? "PASS" : "FAIL");
    if (!ok) return 1;
  }
  if (!options.output_path.empty()) {
    const Status written = WriteCsvFile(result->output, options.output_path);
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
int RunServe(Options& options) {
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
  std::vector<ConjunctiveQuery> parsed;
  for (std::string line; std::getline(file, line);) {
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    auto query = ConjunctiveQuery::Parse(line);
    if (!query.ok()) {
      std::fprintf(stderr, "query '%s': %s\n", line.c_str(),
                   query.status().ToString().c_str());
      return 1;
    }
    queries.push_back(line);
    parsed.push_back(std::move(query).value());
  }
  if (queries.empty()) {
    std::fprintf(stderr, "--serve: no queries in %s\n", path.c_str());
    return 1;
  }

  Catalog catalog;
  if (!LoadAtoms(parsed, options, /*allow_missing=*/false, &catalog)) {
    return 1;
  }
  if (options.calibrate) Calibrate(&options.serve);
  QueryServer server(&catalog, options.serve);

  LoadOptions load;
  load.clients = options.clients;
  load.requests = options.requests > 0
                      ? options.requests
                      : int64_t{25} * options.clients;
  std::printf("serving %zu queries: %lld requests, %d clients, "
              "%d servers, %d threads, algorithm %s\n",
              queries.size(), static_cast<long long>(load.requests),
              load.clients, options.serve.num_servers,
              options.serve.num_threads, options.serve.algorithm.c_str());
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
  std::set<std::string> given;
  if (const mpcqp::Status parsed = flags.Parse(argc, argv, &given);
      !parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    mpcqp::Usage(argv[0], flags);
  }
  const auto family = mpcqp::ParseAlgorithmName(options.serve.algorithm);
  if (!family.ok()) {
    std::fprintf(stderr, "--algorithm: %s\n",
                 family.status().ToString().c_str());
    mpcqp::Usage(argv[0], flags);
  }
  if (!mpcqp::CheckModeFlags(options, given)) return 2;
  options.serve.mem_budget_bytes = options.mem_budget_mb << 20;
  if (!options.serve_spec.empty()) {
    return mpcqp::RunServe(options);
  }
  if (options.query_text.empty()) {
    mpcqp::Usage(argv[0], flags);
  }
  return mpcqp::Run(options, *family);
}
