#ifndef MPCQP_SERVE_QUERY_SERVER_H_
#define MPCQP_SERVE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "mpc/cost.h"
#include "mpc/metrics.h"
#include "planner/calibration.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "query/query.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/result_cache.h"

namespace mpcqp {

// Configuration of one serving endpoint; mpcqp_run binds its engine
// flags to one of these in both modes. Its defaults are the library's:
// `algorithm` is "auto" here, while mpcqp_run defaults to "hypercube".
struct ServeOptions {
  int num_servers = 16;       // Simulated MPC cluster size p per query.
  int num_threads = 1;        // Shared pool width (first creator sizes it).
  int64_t morsel_rows = 8192;
  std::string algorithm = "auto";  // auto|planner|hypercube|skewhc|binary|gym.
  uint64_t seed = 42;
  double round_cost = 0.0;    // Planner λ (tuples per round).
  // Planner cost model (CalibrateCostModel fills it); used when
  // `cost.calibrated`.
  CostCoefficients cost;
  // Admission control: at most max_inflight queries execute, at most
  // max_queued more wait; beyond that Execute returns UNAVAILABLE.
  int max_inflight = 4;
  int max_queued = 64;
  // Per-query memory budget (estimated input + output footprint); 0 =
  // unlimited. Queries whose estimate exceeds it get RESOURCE_EXHAUSTED
  // without taking an admission slot.
  int64_t mem_budget_bytes = 0;
  bool enable_result_cache = true;
  bool enable_plan_cache = true;
};

// SELECT group_vars..., OP(value_var) GROUP BY group_vars over a query's
// join output: the tutorial's join round feeding a group-by round.
struct AggregateSpec {
  std::vector<std::string> group_vars;  // Empty = one scalar group.
  AggregateOp op = AggregateOp::kCount;
  std::string value_var;                // Empty only for a bare COUNT.
};

// The spec in output columns (column v = query variable v).
struct AggregateColumns {
  std::vector<int> group_cols;
  int value_col = -1;
  AggregateOp op = AggregateOp::kCount;
};

// INVALID_ARGUMENT for a name that is not a variable of `q`, or a missing
// value variable on an op other than COUNT.
StatusOr<AggregateColumns> ResolveAggregate(const ConjunctiveQuery& q,
                                            const AggregateSpec& spec);

// What one served query returns: the collected output relation plus the
// per-query stats the runtime is required to keep isolated per Cluster.
struct QueryResult {
  Relation output;
  StatsReport stats;          // Empty rounds on a result-cache hit.
  CostReport cost;            // The metered rounds; empty on a cache hit.
  PlannedQuery plan;          // What ran; empty unless this request ran.
  std::string algorithm;      // What actually ran (planner resolves "auto").
  bool result_cache_hit = false;
  bool coalesced = false;     // Waited on an identical in-flight execution.
  bool plan_cache_hit = false;
  double latency_ms = 0.0;    // End-to-end, including queueing.
};

// The multi-query serving runtime (DESIGN.md, "Serving runtime"). One
// QueryServer owns:
//
//  - a handle to the process-wide shared ThreadPool (ExecutorRegistry);
//    every in-flight query attaches a logical Cluster to it, so N queries
//    interleave morsels on one set of OS threads;
//  - a thread-safe PlanCache shared across queries (isomorphic query
//    shapes skip join-order enumeration);
//  - a ResultCache keyed by (normalized query text, per-atom relation
//    fingerprints, p, algorithm, seed, λ, calibrated cost model,
//    aggregate) — a hit skips execution entirely and is sound because
//    registering new data under an atom's name changes its fingerprint;
//  - in-flight coalescing: concurrent Executes with the same result key
//    run once; followers block and share the leader's answer (the
//    thundering-herd / cache-stampede defense);
//  - an AdmissionController bounding concurrent executions and queue
//    depth, with per-query memory budget checks before a slot is taken.
//
// Execute() is thread-safe and blocking: call it from as many client
// threads as you like (serve/load_driver.h does exactly that).
//
// Execute() is the one query path: mpcqp_run's one-shot mode is a single
// Execute on a fresh server, and --serve drives many.
//
// Determinism: every execution builds its Cluster with seed + 1 and its
// algorithm Rng with seed + 2, so a query's output and CostReport are
// bit-identical to a solo run, no matter how many queries are in flight
// around it.
class QueryServer {
 public:
  struct Counters {
    int64_t executed = 0;      // Ran the algorithm (not cache/coalesced).
    int64_t coalesced = 0;
    int64_t rejected_memory = 0;
  };

  // `catalog` must outlive the server; relations resolve at Execute time,
  // so Register()ing new data between queries is the live-update path.
  QueryServer(Catalog* catalog, ServeOptions options);

  // Parses, resolves, admits, executes (or serves from cache), collects.
  // With an `aggregate`, the join output runs through
  // DistributedGroupByAggregate on the same Cluster, so its group-by round
  // is part of the CostReport. Errors: INVALID_ARGUMENT (bad query,
  // unknown algorithm name, a forced family that cannot run the query, or
  // an aggregate naming an unknown variable; all before admission),
  // NOT_FOUND (unknown atom name), RESOURCE_EXHAUSTED (over memory
  // budget), UNAVAILABLE (admission queue full), and OUT_OF_RANGE (an
  // aggregate overflowed).
  StatusOr<QueryResult> Execute(
      const std::string& query_text,
      const std::optional<AggregateSpec>& aggregate = std::nullopt);

  // Estimated bytes a query against `q`-shaped atoms of the given sizes
  // will pin: inputs twice (base + routed copies) plus the AGM-capped
  // output. Exposed for tests.
  static int64_t EstimateQueryBytes(const std::string& query_text,
                                    const Catalog& catalog);

  ThreadPool& pool() { return *pool_; }
  ResultCache& result_cache() { return result_cache_; }
  PlanCache& plan_cache() { return plan_cache_; }
  const AdmissionController& admission() const { return admission_; }
  Counters counters() const;

 private:
  struct Inflight {
    std::condition_variable done_cv;
    bool done = false;
    Status status = OkStatus();
    Relation output;           // COW handle; valid when done && status ok.
    std::string algorithm;
    bool plan_cache_hit = false;
  };

  Catalog* catalog_;
  ServeOptions options_;
  std::shared_ptr<ThreadPool> pool_;
  PlanCache plan_cache_;
  ResultCache result_cache_;
  AdmissionController admission_;

  mutable std::mutex mutex_;  // Guards inflight_ and counters_.
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;
  Counters counters_;
};

}  // namespace mpcqp

#endif  // MPCQP_SERVE_QUERY_SERVER_H_
