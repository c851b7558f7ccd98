#include "planner/planner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "acyclic/gym.h"
#include "common/check.h"
#include "common/flat_counter.h"
#include "common/hash.h"
#include "join/heavy_hitters.h"
#include "multiway/bigjoin.h"
#include "multiway/hypercube.h"
#include "multiway/shares.h"
#include "multiway/skew_hc.h"
#include "planner/enumerator.h"
#include "planner/plan_cache.h"
#include "query/ghd.h"
#include "query/hypergraph_lp.h"

namespace mpcqp {

const char* PlanAlgorithmName(PlanAlgorithm algorithm) {
  switch (algorithm) {
    case PlanAlgorithm::kHyperCube:
      return "hypercube";
    case PlanAlgorithm::kSkewHc:
      return "skew-hc";
    case PlanAlgorithm::kBinaryPlan:
      return "binary-plan";
    case PlanAlgorithm::kGym:
      return "gym";
    case PlanAlgorithm::kBigJoin:
      return "bigjoin";
  }
  return "unknown";
}

StatusOr<std::optional<PlanAlgorithm>> ParseAlgorithmName(
    const std::string& name) {
  static const std::pair<const char*, std::optional<PlanAlgorithm>>
      kSpellings[] = {
          {"auto", std::nullopt},
          {"planner", std::nullopt},
          {"hypercube", PlanAlgorithm::kHyperCube},
          {"skewhc", PlanAlgorithm::kSkewHc},
          {"binary", PlanAlgorithm::kBinaryPlan},
          {"gym", PlanAlgorithm::kGym},
      };
  for (const auto& [spelling, family] : kSpellings) {
    if (name == spelling) return family;
  }
  return InvalidArgumentError(
      "unknown algorithm '" + name +
      "' (expected auto|planner|hypercube|skewhc|binary|gym)");
}

namespace {

// True when some row of `rel` occurs twice, whether both copies sit on one
// server or on two. Exact: an open-addressing set of (row hash, row
// pointer) slots over all fragments compares the full row on every hash
// match, and the scan stops at the first duplicate.
bool HasDuplicateRow(const DistRelation& rel) {
  const int arity = rel.arity();
  MPCQP_CHECK_GT(arity, 0);
  struct Slot {
    uint64_t hash = 0;
    const Value* row = nullptr;
  };
  int64_t cap = 16;
  while (cap < 2 * rel.TotalSize()) cap <<= 1;
  std::vector<Slot> slots(static_cast<size_t>(cap));
  const uint64_t mask = static_cast<uint64_t>(cap) - 1;
  for (int s = 0; s < rel.num_servers(); ++s) {
    const Relation& fragment = rel.fragment(s);
    for (int64_t i = 0; i < fragment.size(); ++i) {
      const Value* row = fragment.row(i);
      uint64_t hash = 0;
      for (int c = 0; c < arity; ++c) hash = SplitMix64(hash ^ row[c]);
      for (uint64_t k = hash & mask;; k = (k + 1) & mask) {
        Slot& slot = slots[k];
        if (slot.row == nullptr) {
          slot = {hash, row};
          break;
        }
        if (slot.hash == hash && std::equal(row, row + arity, slot.row)) {
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace

PlannerStats GatherPlannerStats(const ConjunctiveQuery& q,
                                const std::vector<DistRelation>& atoms,
                                int64_t heavy_threshold) {
  PlannerStats stats;
  stats.distinct.assign(q.num_atoms(),
                        std::vector<int64_t>(q.num_vars(), 0));
  stats.var_is_heavy.assign(q.num_vars(), false);
  for (int j = 0; j < q.num_atoms(); ++j) {
    const DistRelation& rel = atoms[j];
    const int64_t size = rel.TotalSize();
    stats.sizes.push_back(size);
    stats.total_in += size;
    // One column at a time: a fused row loop over all counters thrashes
    // the cache and measured about 2x slower.
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      const FlatCounter counts = CountColumn(rel, c);
      stats.distinct[j][v] = counts.num_keys();
      if (counts.MaxCount() > heavy_threshold) stats.var_is_heavy[v] = true;
    }
    stats.atom_has_duplicates.push_back(HasDuplicateRow(rel));
  }
  return stats;
}

namespace {

// Estimated tuples a server receives under HyperCube with given shares:
// Σ_j size_j / Π_{v ∈ vars(j)} shares_v.
double HyperCubeLoadForShares(const ConjunctiveQuery& q,
                              const std::vector<int64_t>& sizes,
                              const std::vector<int>& shares) {
  double total = 0.0;
  for (int j = 0; j < q.num_atoms(); ++j) {
    double denom = 1.0;
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) denom *= shares[v];
    total += static_cast<double>(sizes[j]) / denom;
  }
  return total;
}

CandidatePlan EstimateHyperCube(const ConjunctiveQuery& q,
                                const PlannerStats& stats, int p) {
  CandidatePlan plan;
  plan.algorithm = PlanAlgorithm::kHyperCube;
  plan.estimated_rounds = 1;
  const IntegerShares shares = ComputeShares(q, stats.sizes, p);
  plan.estimated_load = HyperCubeLoadForShares(q, stats.sizes, shares.shares);
  plan.rationale = "1 round at ~IN/p^{1/tau*} replication";
  // Skew penalty: a heavy value's tuples collapse their dimension.
  for (int v = 0; v < q.num_vars(); ++v) {
    if (stats.var_is_heavy[v] && shares.shares[v] > 1) {
      plan.estimated_load *= shares.shares[v];
      plan.rationale += "; skewed " + q.var_name(v) +
                        " collapses a grid dimension";
      break;
    }
  }
  return plan;
}

CandidatePlan EstimateSkewHc(const ConjunctiveQuery& q,
                             const PlannerStats& stats, int p) {
  CandidatePlan plan;
  plan.algorithm = PlanAlgorithm::kSkewHc;
  plan.estimated_rounds = 1;
  // ψ*: the worst residual's load over heavy/light combos of the heavy-
  // capable variables (class sizes approximated by the full sizes).
  uint32_t heavy_mask = 0;
  for (int v = 0; v < q.num_vars(); ++v) {
    if (stats.var_is_heavy[v]) heavy_mask |= (1u << v);
  }
  double worst = 0.0;
  for (uint32_t combo = heavy_mask;; combo = (combo - 1) & heavy_mask) {
    // A combo with every variable heavy has no residual grid to price;
    // the others account every atom, filters broadcast.
    if (std::popcount(combo) < q.num_vars()) {
      worst = std::max(
          worst, HyperCubeLoadForShares(
                     q, stats.sizes, ResidualShares(q, combo, stats.sizes, p)));
    }
    if (combo == 0) break;
  }
  plan.estimated_load = worst;
  plan.rationale = "1 round, residual decomposition (worst combo bound)";
  return plan;
}

// Expected number of matches in atom j for one binding of `var`.
double AvgCandidates(const PlannerStats& stats, int j, int v) {
  const int64_t d = std::max<int64_t>(1, stats.distinct[j][v]);
  return static_cast<double>(stats.sizes[j]) / static_cast<double>(d);
}

CandidatePlan EstimateBinaryPlan(const ConjunctiveQuery& q,
                                 const PlannerStats& stats, int p) {
  CandidatePlan plan;
  plan.algorithm = PlanAlgorithm::kBinaryPlan;
  plan.estimated_rounds = q.num_atoms() - 1;
  // Cascade with independence assumptions: joining the next atom on its
  // shared vars multiplies by size_j / Π_v distinct_j(v).
  std::set<int> bound(q.atom(0).vars.begin(), q.atom(0).vars.end());
  double acc = static_cast<double>(stats.sizes[0]);
  double worst_shuffle = acc;
  for (int j = 1; j < q.num_atoms(); ++j) {
    double factor = static_cast<double>(stats.sizes[j]);
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      if (bound.count(v) > 0) {
        factor /= std::max<int64_t>(1, stats.distinct[j][v]);
      }
      bound.insert(v);
    }
    worst_shuffle = std::max(
        worst_shuffle, acc + static_cast<double>(stats.sizes[j]));
    acc *= factor;
    worst_shuffle = std::max(worst_shuffle, acc);
  }
  plan.estimated_load = worst_shuffle / p;
  plan.rationale = std::to_string(q.num_atoms() - 1) +
                   " rounds; max estimated intermediate " +
                   std::to_string(static_cast<int64_t>(worst_shuffle));
  return plan;
}

CandidatePlan EstimateGym(const ConjunctiveQuery& q,
                          const PlannerStats& stats, int p) {
  CandidatePlan plan;
  plan.algorithm = PlanAlgorithm::kGym;
  if (!IsAcyclic(q)) {
    plan.feasible = false;
    plan.rationale = "query is cyclic";
    return plan;
  }
  const auto tree = BuildJoinTree(q);
  MPCQP_CHECK(tree.ok());
  // Optimized GYM: <= 2 rounds per level up + 1 per level down + 1 join.
  plan.estimated_rounds = 3 * tree->depth() + 1;
  // OUT estimate via the binary cascade (post-reduction intermediates are
  // bounded by OUT, so load ~ (IN + OUT)/p).
  const CandidatePlan cascade = EstimateBinaryPlan(q, stats, p);
  plan.estimated_load =
      static_cast<double>(stats.total_in) / p + cascade.estimated_load;
  plan.rationale = "acyclic; (IN+OUT)/p with OUT estimate";
  return plan;
}

CandidatePlan EstimateBigJoin(const ConjunctiveQuery& q,
                              const PlannerStats& stats, int p) {
  CandidatePlan plan;
  plan.algorithm = PlanAlgorithm::kBigJoin;
  for (int j = 0; j < q.num_atoms(); ++j) {
    if (stats.atom_has_duplicates[j]) {
      plan.feasible = false;
      plan.rationale = "set semantics; atom " + q.atom(j).name +
                       " has duplicate tuples";
      return plan;
    }
  }
  // Prefix cascade with the min-count proposer: each variable multiplies
  // the prefix count by the smallest average candidate count among its
  // atoms (capped below at 1 per the pruning filters).
  double prefixes = 1.0;
  double worst = 0.0;
  std::set<int> bound;
  int rounds = 0;
  for (int v = 0; v < q.num_vars(); ++v) {
    double best_factor = -1.0;
    int involved = 0;
    for (int j = 0; j < q.num_atoms(); ++j) {
      if (!q.atom(j).ContainsVar(v)) continue;
      ++involved;
      const double factor = AvgCandidates(stats, j, v);
      if (best_factor < 0 || factor < best_factor) best_factor = factor;
    }
    MPCQP_CHECK_GT(involved, 0);
    prefixes *= std::max(1.0, best_factor);
    worst = std::max(worst, prefixes);
    rounds += bound.empty() ? 1 + (involved - 1)
                            : 3 + involved;  // count+argmin+extend+filters.
    bound.insert(v);
  }
  plan.estimated_rounds = rounds;
  plan.estimated_load =
      (static_cast<double>(stats.total_in) + worst) / p;
  plan.rationale = "var-at-a-time; min-count proposer bounds prefixes";
  return plan;
}

// A value is heavy when its degree exceeds IN/p, the skew probe's
// threshold.
int64_t HeavyThreshold(const std::vector<int64_t>& sizes, int p) {
  const int64_t total_in =
      std::accumulate(sizes.begin(), sizes.end(), int64_t{0});
  return std::max<int64_t>(
      1, static_cast<int64_t>(static_cast<double>(total_in) / p));
}

}  // namespace

CandidatePlan EstimateCandidate(PlanAlgorithm algorithm,
                                const ConjunctiveQuery& q,
                                const PlannerStats& stats, int p) {
  switch (algorithm) {
    case PlanAlgorithm::kHyperCube:
      return EstimateHyperCube(q, stats, p);
    case PlanAlgorithm::kSkewHc:
      return EstimateSkewHc(q, stats, p);
    case PlanAlgorithm::kBinaryPlan:
      return EstimateBinaryPlan(q, stats, p);
    case PlanAlgorithm::kGym:
      return EstimateGym(q, stats, p);
    case PlanAlgorithm::kBigJoin:
      return EstimateBigJoin(q, stats, p);
  }
  MPCQP_CHECK(false) << "unknown algorithm";
  return CandidatePlan();
}

PlannedQuery PlanQuery(const ConjunctiveQuery& q,
                       const std::vector<DistRelation>& atoms,
                       int cluster_size, const PlannerOptions& options,
                       PlanCache* cache) {
  MPCQP_CHECK_EQ(static_cast<int>(atoms.size()), q.num_atoms());
  MPCQP_CHECK_GE(cluster_size, 1);
  const auto start = std::chrono::steady_clock::now();
  const int p = cluster_size;

  PlannedQuery out;
  std::vector<int64_t> sizes;
  for (const DistRelation& a : atoms) sizes.push_back(a.TotalSize());

  CanonicalQueryShape shape;
  if (cache != nullptr) {
    // Shape + sizes are the cheap part of planning; a hit skips the stats
    // pass (per-column counts + duplicate check) and the enumeration.
    shape = CanonicalizeShape(q);
    if (cache->Lookup(q, shape, sizes, p, options, &out.plan)) {
      out.cache_hit = true;
      out.planning_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      return out;
    }
  }

  const int64_t threshold = HeavyThreshold(sizes, p);
  const PlannerStats stats = GatherPlannerStats(q, atoms, threshold);
  EnumerationResult enumerated = EnumeratePlans(q, stats, p, options);
  out.plan = std::move(enumerated.best);
  out.candidates = std::move(enumerated.candidates);
  out.input_is_skewed = enumerated.input_is_skewed;
  out.dp_states = enumerated.dp_states;

  if (cache != nullptr) {
    cache->Insert(q, shape, sizes, p, options, out.plan);
  }
  out.planning_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  return out;
}

StatusOr<PlannedQuery> ForcedPlan(const ConjunctiveQuery& q,
                                  PlanAlgorithm family) {
  if (family == PlanAlgorithm::kGym && !IsAcyclic(q)) {
    return InvalidArgumentError("algorithm gym needs an acyclic query, but " +
                                q.ToString() + " is cyclic");
  }
  PlannedQuery out;
  out.forced = true;
  out.plan.family = family;
  out.plan.rationale = "forced";
  if (family == PlanAlgorithm::kBinaryPlan) {
    out.plan.join_order.resize(q.num_atoms());
    std::iota(out.plan.join_order.begin(), out.plan.join_order.end(), 0);
    out.plan.skew_aware = true;
    out.plan.tree = BuildJoinOrderTree(q, out.plan.join_order,
                                       /*skew_aware=*/true, /*est_rows=*/{});
  } else {
    out.plan.tree = BuildAlgorithmTree(q, PlanAlgorithmName(family));
  }
  return out;
}

DistRelation ExecutePlannedQuery(Cluster& cluster, const ConjunctiveQuery& q,
                                 const std::vector<DistRelation>& atoms,
                                 const PlannedQuery& planned, Rng& rng) {
  if (!planned.forced) {
    cluster.metrics().RecordPlanning(planned.planning_ms, planned.cache_hit);
  }
  switch (planned.plan.family) {
    case PlanAlgorithm::kHyperCube:
      return HyperCubeJoin(cluster, q, atoms).output;
    case PlanAlgorithm::kSkewHc:
      return SkewHcJoin(cluster, q, atoms).output;
    case PlanAlgorithm::kBinaryPlan:
      return ExecuteJoinOrderTree(cluster, q, atoms, planned.plan.tree, rng);
    case PlanAlgorithm::kGym: {
      const auto tree = BuildJoinTree(q);
      MPCQP_CHECK(tree.ok());
      GymOptions options;
      options.optimized = true;
      return GymJoin(cluster, q, *tree, atoms, rng, options).output;
    }
    case PlanAlgorithm::kBigJoin:
      return BigJoin(cluster, q, atoms).output;
  }
  MPCQP_CHECK(false) << "unknown algorithm";
  return DistRelation(q.num_vars(), cluster.num_servers());
}

}  // namespace mpcqp
