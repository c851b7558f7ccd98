#include "planner/plan_cache.h"

#include <cstdio>
#include <functional>

#include "common/check.h"
#include "multiway/plan_tree.h"

namespace mpcqp {

namespace {

// The cache key: canonical shape, cluster size, and every option that can
// change the winning plan. Two planner configurations never share entries.
std::string CacheKey(const CanonicalQueryShape& shape, int p,
                     const PlannerOptions& options) {
  std::string key = shape.shape;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "|p=%d|l=%.9g", p,
                options.round_cost_tuples);
  key += buf;
  key += "|a=";
  for (const PlanAlgorithm a : options.allowed) {
    key += std::to_string(static_cast<int>(a));
    key += ",";
  }
  if (options.cost.calibrated) {
    std::snprintf(buf, sizeof(buf), "|c=%.9g,%.9g,%.9g,%.9g",
                  options.cost.route_us_per_tuple,
                  options.cost.copy_us_per_value,
                  options.cost.local_us_per_tuple,
                  options.cost.round_overhead_us);
    key += buf;
  }
  return key;
}

std::vector<int64_t> CanonicalSizes(const CanonicalQueryShape& shape,
                                    const std::vector<int64_t>& sizes) {
  std::vector<int64_t> out(sizes.size());
  for (size_t k = 0; k < shape.atom_order.size(); ++k) {
    out[k] = sizes[shape.atom_order[k]];
  }
  return out;
}

}  // namespace

PlanCache::Shard& PlanCache::ShardFor(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

bool PlanCache::Lookup(const ConjunctiveQuery& q,
                       const CanonicalQueryShape& shape,
                       const std::vector<int64_t>& sizes, int p,
                       const PlannerOptions& options, EnumeratedPlan* plan) {
  MPCQP_CHECK(plan != nullptr);
  const std::string key = CacheKey(shape, p, options);
  const std::vector<int64_t> fingerprint = CanonicalSizes(shape, sizes);

  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.counters.misses;
    return false;
  }
  if (it->second.size_fingerprint != fingerprint) {
    // Statistics changed under the same shape: the cached order may now
    // be arbitrarily bad. Drop it and replan.
    shard.entries.erase(it);
    ++shard.counters.invalidations;
    ++shard.counters.misses;
    return false;
  }
  const Entry& entry = it->second;
  plan->family = entry.family;
  plan->skew_aware = entry.skew_aware;
  plan->estimated_load = entry.estimated_load;
  plan->estimated_rounds = entry.estimated_rounds;
  plan->total_cost = entry.total_cost;
  plan->rationale = entry.rationale;
  plan->step_est_rows = entry.step_est_rows;
  plan->join_order.clear();
  if (entry.family == PlanAlgorithm::kBinaryPlan) {
    // canonical atom k of the shape is original atom atom_order[k].
    for (const int k : entry.canonical_order) {
      plan->join_order.push_back(shape.atom_order[k]);
    }
    plan->tree = BuildJoinOrderTree(q, plan->join_order, plan->skew_aware,
                                    plan->step_est_rows);
  } else {
    plan->tree = BuildAlgorithmTree(q, PlanAlgorithmName(entry.family));
  }
  ++shard.counters.hits;
  return true;
}

void PlanCache::Insert(const ConjunctiveQuery& q,
                       const CanonicalQueryShape& shape,
                       const std::vector<int64_t>& sizes, int p,
                       const PlannerOptions& options,
                       const EnumeratedPlan& plan) {
  // BigJoin is the one family that is correct only on duplicate-free
  // inputs, and a size-only key cannot see duplicates: a same-size hit
  // could run it on data with duplicates. It is never cached.
  if (plan.family == PlanAlgorithm::kBigJoin) return;
  Entry entry;
  entry.size_fingerprint = CanonicalSizes(shape, sizes);
  entry.family = plan.family;
  entry.skew_aware = plan.skew_aware;
  entry.estimated_load = plan.estimated_load;
  entry.estimated_rounds = plan.estimated_rounds;
  entry.total_cost = plan.total_cost;
  entry.rationale = plan.rationale;
  entry.step_est_rows = plan.step_est_rows;
  if (plan.family == PlanAlgorithm::kBinaryPlan) {
    // Invert atom_order: original atom j sits at canonical position inv[j].
    std::vector<int> inverse(shape.atom_order.size(), 0);
    for (size_t k = 0; k < shape.atom_order.size(); ++k) {
      inverse[shape.atom_order[k]] = static_cast<int>(k);
    }
    for (const int j : plan.join_order) {
      entry.canonical_order.push_back(inverse[j]);
    }
  }
  (void)q;

  const std::string key = CacheKey(shape, p, options);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.entries[key] = std::move(entry);
}

PlanCache::Counters PlanCache::counters() const {
  Counters total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.counters.hits;
    total.misses += shard.counters.misses;
    total.invalidations += shard.counters.invalidations;
  }
  return total;
}

int64_t PlanCache::size() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += static_cast<int64_t>(shard.entries.size());
  }
  return total;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    shard.counters = Counters();
  }
}

}  // namespace mpcqp
