#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "agg/aggregate.h"
#include "common/check.h"
#include "common/random.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "query/hypergraph_lp.h"

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
                     const ServeOptions& options,
                     const std::optional<AggregateColumns>& aggregate) {
  std::string key = q.ToString();
  for (const Catalog::Entry& entry : atoms.entries) {
    key += "|fp=" + std::to_string(entry.fingerprint);
  }
  key += "|p=" + std::to_string(options.num_servers);
  key += "|alg=" + options.algorithm;
  key += "|seed=" + std::to_string(options.seed);
  key += "|rc=" + std::to_string(options.round_cost);
  if (options.cost.calibrated) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "|c=%.9g,%.9g,%.9g,%.9g",
                  options.cost.route_us_per_tuple,
                  options.cost.copy_us_per_value,
                  options.cost.local_us_per_tuple,
                  options.cost.round_overhead_us);
    key += buf;
  }
  if (aggregate) {
    key += "|agg=" + std::to_string(static_cast<int>(aggregate->op)) + ":" +
           std::to_string(aggregate->value_col) + "|by=";
    for (const int col : aggregate->group_cols) {
      key += std::to_string(col) + ",";
    }
  }
  return key;
}

}  // namespace

StatusOr<AggregateColumns> ResolveAggregate(const ConjunctiveQuery& q,
                                            const AggregateSpec& spec) {
  const std::vector<std::string>& vars = q.var_names();
  auto column = [&](const std::string& name) -> StatusOr<int> {
    const auto it = std::find(vars.begin(), vars.end(), name);
    if (it == vars.end()) {
      return InvalidArgumentError("aggregate names '" + name +
                                  "', which is not a query variable");
    }
    return static_cast<int>(it - vars.begin());
  };
  AggregateColumns columns;
  columns.op = spec.op;
  for (const std::string& name : spec.group_vars) {
    MPCQP_ASSIGN_OR_RETURN(const int col, column(name));
    columns.group_cols.push_back(col);
  }
  if (!spec.value_var.empty()) {
    MPCQP_ASSIGN_OR_RETURN(columns.value_col, column(spec.value_var));
  } else if (spec.op != AggregateOp::kCount) {
    return InvalidArgumentError("only COUNT may omit the value variable");
  }
  return columns;
}

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

StatusOr<QueryResult> QueryServer::Execute(
    const std::string& query_text,
    const std::optional<AggregateSpec>& aggregate) {
  const double start_ms = NowMs();
  MPCQP_ASSIGN_OR_RETURN(const ConjunctiveQuery q,
                         ConjunctiveQuery::Parse(query_text));

  // A forced family and the aggregate are checked before any data is
  // touched: a bad name, an infeasible family or an unknown variable fails
  // here, never holding an admission slot.
  const auto family = ParseAlgorithmName(options_.algorithm);
  if (!family.ok()) return family.status();
  std::optional<PlannedQuery> forced;
  if (family->has_value()) {
    MPCQP_ASSIGN_OR_RETURN(forced, ForcedPlan(q, **family));
  }
  std::optional<AggregateColumns> agg;
  if (aggregate) {
    MPCQP_ASSIGN_OR_RETURN(agg, ResolveAggregate(q, *aggregate));
  }
  MPCQP_ASSIGN_OR_RETURN(const ResolvedAtoms resolved, Resolve(q, *catalog_));

  const int64_t estimated_bytes = EstimateBytes(q, resolved);
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

  const std::string key = BuildKey(q, resolved, options_, agg);

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
  // Gives the slot back on every path out of here, error or not.
  struct Slot {
    AdmissionController& admission;
    int64_t bytes;
    ~Slot() { admission.Release(bytes); }
  } slot{admission_, estimated_bytes};

  ClusterOptions cluster_options;
  cluster_options.morsel_rows = options_.morsel_rows;
  cluster_options.shared_pool = pool_;
  Cluster cluster(options_.num_servers, options_.seed + 1, cluster_options);
  Cluster::ScopedExecution exec_scope(cluster);

  std::vector<DistRelation> dist;
  dist.reserve(resolved.entries.size());
  for (const Catalog::Entry& entry : resolved.entries) {
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
    planner_options.cost = options_.cost;
    planned = PlanQuery(q, dist, options_.num_servers, planner_options,
                        options_.enable_plan_cache ? &plan_cache_ : nullptr);
  }
  DistRelation output =
      ExecutePlannedQuery(cluster, q, dist, planned, algo_rng);
  if (agg) {
    auto grouped = DistributedGroupByAggregate(
        cluster, output, agg->group_cols, agg->value_col, agg->op);
    if (!grouped.ok()) {
      publish(grouped.status());
      return grouped.status();
    }
    output = std::move(grouped).value();
  }

  QueryResult result;
  result.output = output.Collect(&cluster.pool());
  result.stats = BuildStatsReport(cluster);
  result.cost = cluster.cost_report();
  result.algorithm = PlanAlgorithmName(planned.plan.family);
  result.plan_cache_hit = planned.cache_hit;
  result.plan = std::move(planned);

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

  result.latency_ms = NowMs() - start_ms;
  return result;
}

}  // namespace mpcqp
