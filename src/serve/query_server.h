#ifndef MPCQP_SERVE_QUERY_SERVER_H_
#define MPCQP_SERVE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_pool.h"
#include "mpc/metrics.h"
#include "planner/plan_cache.h"
#include "relation/relation.h"
#include "serve/admission.h"
#include "serve/catalog.h"
#include "serve/result_cache.h"

namespace mpcqp {

// Configuration of one serving endpoint. Defaults match mpcqp_run's
// single-query defaults so `--serve` answers exactly what the one-shot
// CLI would.
struct ServeOptions {
  int num_servers = 16;       // Simulated MPC cluster size p per query.
  int num_threads = 1;        // Shared pool width (first creator sizes it).
  int64_t morsel_rows = 8192;
  std::string algorithm = "auto";  // auto|planner|hypercube|skewhc|binary|gym.
  uint64_t seed = 42;
  double round_cost = 0.0;    // Planner λ (tuples per round).
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

// What one served query returns: the collected output relation plus the
// per-query stats the runtime is required to keep isolated per Cluster.
struct QueryResult {
  Relation output;
  StatsReport stats;          // Empty rounds on a result-cache hit.
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
//    fingerprints, p, algorithm, seed) — a hit skips execution entirely
//    and is sound because registering new data under an atom's name
//    changes its fingerprint;
//  - in-flight coalescing: concurrent Executes with the same result key
//    run once; followers block and share the leader's answer (the
//    thundering-herd / cache-stampede defense);
//  - an AdmissionController bounding concurrent executions and queue
//    depth, with per-query memory budget checks before a slot is taken.
//
// Execute() is thread-safe and blocking: call it from as many client
// threads as you like (serve/load_driver.h does exactly that).
//
// Determinism: every execution builds its Cluster with seed + 1 and its
// algorithm Rng with seed + 2 — the same derivation mpcqp_run uses — so a
// query's output and CostReport are bit-identical to a solo run of the
// one-shot CLI, no matter how many queries are in flight around it.
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
  // Errors: INVALID_ARGUMENT (bad query, unknown algorithm name, or a
  // forced family that cannot run the query), NOT_FOUND (unknown atom name),
  // RESOURCE_EXHAUSTED (over memory budget), UNAVAILABLE (admission queue
  // full).
  StatusOr<QueryResult> Execute(const std::string& query_text);

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
