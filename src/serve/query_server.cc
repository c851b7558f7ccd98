#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "planner/planner.h"
#include "query/hypergraph_lp.h"
#include "query/query.h"

namespace mpcqp {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Resolved inputs of one query: catalog snapshots in atom order.
struct ResolvedAtoms {
  std::vector<Catalog::Entry> entries;
};

StatusOr<ResolvedAtoms> Resolve(const ConjunctiveQuery& q,
                                const Catalog& catalog) {
  ResolvedAtoms resolved;
  resolved.entries.reserve(q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) {
    const Atom& atom = q.atom(j);
    Catalog::Entry entry;
    if (!catalog.Find(atom.name, &entry)) {
      return NotFoundError("no relation named '" + atom.name +
                           "' in the catalog");
    }
    if (entry.relation.arity() != atom.arity()) {
      return InvalidArgumentError(
          "atom " + atom.name + " has arity " + std::to_string(atom.arity()) +
          " but catalog relation has arity " +
          std::to_string(entry.relation.arity()));
    }
    resolved.entries.push_back(std::move(entry));
  }
  return resolved;
}

// Inputs are pinned twice during execution (the base fragments plus the
// routed copies a one-round exchange materializes), and the output can be
// as large as the AGM bound allows.
int64_t EstimateBytes(const ConjunctiveQuery& q, const ResolvedAtoms& atoms) {
  int64_t input_bytes = 0;
  std::vector<int64_t> sizes;
  sizes.reserve(atoms.entries.size());
  for (const Catalog::Entry& entry : atoms.entries) {
    input_bytes += entry.relation.size() * entry.relation.arity() *
                   static_cast<int64_t>(sizeof(Value));
    sizes.push_back(entry.relation.size());
  }
  int64_t output_bytes = 0;
  if (const auto agm = AgmBound(q, sizes); agm.ok()) {
    // Clamp before the cast: the AGM bound of even modest cyclic queries
    // overflows int64 as a double.
    const double capped = std::min(*agm, 1e15);
    output_bytes = static_cast<int64_t>(capped) * q.num_vars() *
                   static_cast<int64_t>(sizeof(Value));
  }
  return 2 * input_bytes + output_bytes;
}

// The result-cache key: everything that can change the answer bit for
// bit. Thread count and morsel size are deliberately absent — the
// determinism contract says they never change results.
std::string BuildKey(const ConjunctiveQuery& q, const ResolvedAtoms& atoms,
                     const ServeOptions& options) {
  std::string key = q.ToString();
  for (const Catalog::Entry& entry : atoms.entries) {
    key += "|fp=" + std::to_string(entry.fingerprint);
  }
  key += "|p=" + std::to_string(options.num_servers);
  key += "|alg=" + options.algorithm;
  key += "|seed=" + std::to_string(options.seed);
  key += "|rc=" + std::to_string(options.round_cost);
  return key;
}

}  // namespace

QueryServer::QueryServer(Catalog* catalog, ServeOptions options)
    : catalog_(catalog),
      options_(options),
      pool_(ExecutorRegistry::Shared(options.num_threads)),
      admission_(options.max_inflight, options.max_queued) {
  MPCQP_CHECK(catalog != nullptr);
  MPCQP_CHECK_GE(options.num_servers, 1);
}

int64_t QueryServer::EstimateQueryBytes(const std::string& query_text,
                                        const Catalog& catalog) {
  const auto query = ConjunctiveQuery::Parse(query_text);
  if (!query.ok()) return 0;
  const auto resolved = Resolve(*query, catalog);
  if (!resolved.ok()) return 0;
  return EstimateBytes(*query, *resolved);
}

QueryServer::Counters QueryServer::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

StatusOr<QueryResult> QueryServer::Execute(const std::string& query_text) {
  const double start_ms = NowMs();
  const auto query = ConjunctiveQuery::Parse(query_text);
  if (!query.ok()) return query.status();
  const ConjunctiveQuery& q = *query;

  // A forced family is checked before any data is touched: a bad name or
  // an infeasible family fails here, never holding an admission slot.
  const auto family = ParseAlgorithmName(options_.algorithm);
  if (!family.ok()) return family.status();
  std::optional<PlannedQuery> forced;
  if (family->has_value()) {
    auto plan = ForcedPlan(q, **family);
    if (!plan.ok()) return plan.status();
    forced = std::move(plan).value();
  }

  auto resolved = Resolve(q, *catalog_);
  if (!resolved.ok()) return resolved.status();

  const int64_t estimated_bytes = EstimateBytes(q, *resolved);
  if (options_.mem_budget_bytes > 0 &&
      estimated_bytes > options_.mem_budget_bytes) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.rejected_memory;
    }
    return ResourceExhaustedError(
        "query estimated at " + std::to_string(estimated_bytes) +
        " bytes exceeds the per-query budget of " +
        std::to_string(options_.mem_budget_bytes));
  }

  const std::string key = BuildKey(q, *resolved, options_);

  // A previous execution against the same data already answered this.
  const auto cache_hit = [&]() -> std::optional<QueryResult> {
    Relation cached;
    if (!options_.enable_result_cache || !result_cache_.Lookup(key, &cached)) {
      return std::nullopt;
    }
    QueryResult result;
    result.output = std::move(cached);
    result.algorithm = forced ? PlanAlgorithmName(forced->plan.family)
                              : options_.algorithm;
    result.result_cache_hit = true;
    result.latency_ms = NowMs() - start_ms;
    return result;
  };
  // Fast path, outside the in-flight lock.
  if (auto hit = cache_hit()) return std::move(*hit);

  // Coalesce with an identical in-flight execution, or become the leader.
  std::shared_ptr<Inflight> flight;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
      ++counters_.coalesced;
      flight->done_cv.wait(lock, [&] { return flight->done; });
      if (!flight->status.ok()) return flight->status;
      QueryResult result;
      result.output = flight->output;  // COW handle, O(1).
      result.algorithm = flight->algorithm;
      result.plan_cache_hit = flight->plan_cache_hit;
      result.coalesced = true;
      result.latency_ms = NowMs() - start_ms;
      return result;
    }
    // No flight in progress, but one may have finished since the fast
    // path missed: a leader inserts its result before it erases its
    // flight under this lock, so this re-check sees every finished
    // execution and a late request never runs the query again.
    if (auto hit = cache_hit()) return std::move(*hit);
    flight = std::make_shared<Inflight>();
    inflight_[key] = flight;
  }

  // Leader path. Whatever happens, we must publish to followers and
  // remove the in-flight entry.
  auto publish = [&](Status status) {
    std::lock_guard<std::mutex> lock(mutex_);
    flight->status = std::move(status);
    flight->done = true;
    inflight_.erase(key);
    flight->done_cv.notify_all();
  };

  if (Status admitted = admission_.Admit(estimated_bytes); !admitted.ok()) {
    publish(admitted);
    return admitted;
  }

  ClusterOptions cluster_options;
  cluster_options.morsel_rows = options_.morsel_rows;
  cluster_options.shared_pool = pool_;
  // seed + 1 for the cluster, seed + 2 for the algorithm Rng: the exact
  // derivation mpcqp_run uses, so served answers are bit-identical to the
  // one-shot CLI.
  Cluster cluster(options_.num_servers, options_.seed + 1, cluster_options);
  Cluster::ScopedExecution exec_scope(cluster);

  std::vector<DistRelation> dist;
  dist.reserve(resolved->entries.size());
  for (const Catalog::Entry& entry : resolved->entries) {
    dist.push_back(DistRelation::Scatter(entry.relation, options_.num_servers,
                                         &cluster.pool()));
  }
  Rng algo_rng(options_.seed + 2);

  PlannedQuery planned;
  if (forced) {
    planned = std::move(*forced);
  } else {
    PlannerOptions planner_options;
    planner_options.round_cost_tuples = options_.round_cost;
    planned = PlanQuery(q, dist, options_.num_servers, planner_options,
                        options_.enable_plan_cache ? &plan_cache_ : nullptr);
  }
  const DistRelation output =
      ExecutePlannedQuery(cluster, q, dist, planned, algo_rng);

  QueryResult result;
  result.output = output.Collect(&cluster.pool());
  result.stats = BuildStatsReport(cluster);
  result.algorithm = PlanAlgorithmName(planned.plan.family);
  result.plan_cache_hit = planned.cache_hit;

  if (options_.enable_result_cache) {
    result_cache_.Insert(key, result.output);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.executed;
    flight->output = result.output;
    flight->algorithm = result.algorithm;
    flight->plan_cache_hit = result.plan_cache_hit;
    flight->done = true;
    inflight_.erase(key);
    flight->done_cv.notify_all();
  }
  admission_.Release(estimated_bytes);

  result.latency_ms = NowMs() - start_ms;
  return result;
}

}  // namespace mpcqp
