#include "planner/enumerator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "multiway/plan_tree.h"

namespace mpcqp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// DP state-space guard: queries with more atoms than this skip the subset
// DP and fall back to the greedy order.
constexpr int kMaxDpAtoms = 12;

}  // namespace

double PriceCandidate(double load, int rounds, const ConjunctiveQuery& q,
                      const PlannerOptions& options) {
  if (!options.cost.calibrated) {
    return load + options.round_cost_tuples * rounds;
  }
  double avg_width = 0.0;
  for (int j = 0; j < q.num_atoms(); ++j) {
    avg_width += q.atom(j).arity();
  }
  avg_width /= std::max(1, q.num_atoms());
  const CostCoefficients& c = options.cost;
  // Every tuple of the load is routed once, copied once (width values)
  // and touched by the local build/probe.
  return load * (c.route_us_per_tuple + c.copy_us_per_value * avg_width +
                 c.local_us_per_tuple) +
         c.round_overhead_us * rounds;
}

double EstimateMaskRows(const ConjunctiveQuery& q, const PlannerStats& stats,
                        uint32_t mask) {
  double rows = 0.0;
  bool first = true;
  // Join selectivity on v divides by max(d_left(v), d_right(v)) — the
  // containment-of-value-sets estimate. seen[v] carries the running max
  // distinct count of v over the atoms already folded in; atoms are always
  // folded in ascending index order so the result depends only on `mask`.
  std::vector<int64_t> seen(q.num_vars(), 0);
  for (int j = 0; j < q.num_atoms(); ++j) {
    if ((mask >> j & 1u) == 0) continue;
    if (first) {
      rows = static_cast<double>(stats.sizes[j]);
      first = false;
      for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
        seen[v] = std::max<int64_t>(1, stats.distinct[j][v]);
      }
      continue;
    }
    double factor = static_cast<double>(stats.sizes[j]);
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      const int64_t mine = std::max<int64_t>(1, stats.distinct[j][v]);
      if (seen[v] > 0) {
        factor /= static_cast<double>(std::max(seen[v], mine));
      }
      seen[v] = std::max(seen[v], mine);
    }
    rows *= factor;
  }
  return rows;
}

namespace {

// Per-step cost of extending the accumulated join (rows_before tuples,
// variables var_mask) with atom j. Returns the step's bottleneck in
// tuple-equivalents: the larger of the tuples moved by the shuffle and the
// intermediate produced. Products pay the Cartesian grid's replication,
// ~2·sqrt(|L|·|R|·p) tuples moved at the optimal grid shape.
double StepBottleneck(double rows_before, double rows_after, int64_t atom_size,
                      bool shares_var, int p) {
  const double moved =
      shares_var
          ? rows_before + static_cast<double>(atom_size)
          : 2.0 * std::sqrt(rows_before * static_cast<double>(atom_size) *
                            static_cast<double>(p));
  return std::max(moved, rows_after);
}

struct OrderSearch {
  std::vector<int> order;
  double bottleneck = 0.0;     // Max tuples touched by any step.
  std::vector<double> step_rows;  // Estimated rows after each join step.
  int64_t states = 0;
};

// Exact subset DP over left-deep orders (Selinger over atoms): state =
// set of joined atoms, value = (bottleneck, Σ intermediate rows) minimized
// lexicographically. Both combine monotonically (max / +), so extending a
// dominated state never beats extending the kept one.
OrderSearch DpOrder(const ConjunctiveQuery& q, const PlannerStats& stats,
                    int p) {
  const int n = q.num_atoms();
  const uint32_t full = (1u << n) - 1u;

  std::vector<uint64_t> atom_vars(n, 0);
  for (int j = 0; j < n; ++j) {
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      atom_vars[j] |= 1ull << v;
    }
  }

  std::vector<double> mask_rows(full + 1, 0.0);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    mask_rows[mask] = EstimateMaskRows(q, stats, mask);
  }

  struct State {
    double bottleneck = kInf;
    double sum_rows = kInf;
    std::vector<int> order;
  };
  std::vector<State> dp(full + 1);
  OrderSearch out;
  for (int j = 0; j < n; ++j) {
    State& s = dp[1u << j];
    s.bottleneck = static_cast<double>(stats.sizes[j]);
    s.sum_rows = static_cast<double>(stats.sizes[j]);
    s.order = {j};
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & (mask - 1)) == 0) continue;  // Singletons are seeded.
    State& cur = dp[mask];
    for (int j = 0; j < n; ++j) {
      if ((mask >> j & 1u) == 0) continue;
      const uint32_t prev = mask ^ (1u << j);
      const State& from = dp[prev];
      ++out.states;
      uint64_t prev_vars = 0;
      for (int k = 0; k < n; ++k) {
        if (prev >> k & 1u) prev_vars |= atom_vars[k];
      }
      const double step = StepBottleneck(
          mask_rows[prev], mask_rows[mask], stats.sizes[j],
          (prev_vars & atom_vars[j]) != 0, p);
      const double bottleneck = std::max(from.bottleneck, step);
      const double sum_rows = from.sum_rows + mask_rows[mask];
      if (bottleneck < cur.bottleneck ||
          (bottleneck == cur.bottleneck && sum_rows < cur.sum_rows)) {
        cur.bottleneck = bottleneck;
        cur.sum_rows = sum_rows;
        cur.order = from.order;
        cur.order.push_back(j);
      }
    }
  }

  out.order = dp[full].order;
  out.bottleneck = dp[full].bottleneck;
  uint32_t prefix = 1u << out.order[0];
  for (size_t k = 1; k < out.order.size(); ++k) {
    prefix |= 1u << out.order[k];
    out.step_rows.push_back(mask_rows[prefix]);
  }
  return out;
}

// Greedy fallback past the DP's state budget: start from the smallest
// atom, repeatedly add the connected atom minimizing the next
// intermediate (unconnected atoms only when nothing connects).
OrderSearch GreedyOrder(const ConjunctiveQuery& q, const PlannerStats& stats,
                        int p) {
  const int n = q.num_atoms();
  OrderSearch out;
  std::vector<bool> used(n, false);
  std::vector<int64_t> seen(q.num_vars(), 0);

  int first = 0;
  for (int j = 1; j < n; ++j) {
    if (stats.sizes[j] < stats.sizes[first]) first = j;
  }
  used[first] = true;
  out.order.push_back(first);
  for (const auto& [v, c] : DistinctVarCols(q.atom(first))) {
    seen[v] = std::max<int64_t>(1, stats.distinct[first][v]);
  }
  double rows = static_cast<double>(stats.sizes[first]);
  out.bottleneck = rows;

  for (int step = 1; step < n; ++step) {
    int best = -1;
    bool best_shared = false;
    double best_rows = kInf;
    for (int j = 0; j < n; ++j) {
      if (used[j]) continue;
      ++out.states;
      double factor = static_cast<double>(stats.sizes[j]);
      bool shared = false;
      for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
        if (seen[v] > 0) {
          shared = true;
          factor /= static_cast<double>(std::max(
              seen[v], std::max<int64_t>(1, stats.distinct[j][v])));
        }
      }
      const double next_rows = rows * factor;
      if (best < 0 || (shared && !best_shared) ||
          (shared == best_shared && next_rows < best_rows)) {
        best = j;
        best_shared = shared;
        best_rows = next_rows;
      }
    }
    MPCQP_CHECK_GE(best, 0);
    used[best] = true;
    out.order.push_back(best);
    out.bottleneck = std::max(
        out.bottleneck,
        StepBottleneck(rows, best_rows, stats.sizes[best], best_shared, p));
    rows = best_rows;
    out.step_rows.push_back(rows);
    for (const auto& [v, c] : DistinctVarCols(q.atom(best))) {
      seen[v] = std::max(seen[v],
                         std::max<int64_t>(1, stats.distinct[best][v]));
    }
  }
  return out;
}

std::string OrderNames(const ConjunctiveQuery& q,
                       const std::vector<int>& order) {
  std::string out;
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0) out += ",";
    out += q.atom(order[k]).name;
  }
  return out;
}

}  // namespace

EnumerationResult EnumeratePlans(const ConjunctiveQuery& q,
                                 const PlannerStats& stats, int p,
                                 const PlannerOptions& options) {
  EnumerationResult result;
  for (bool heavy : stats.var_is_heavy) {
    if (heavy) result.input_is_skewed = true;
  }

  std::vector<PlanAlgorithm> allowed = options.allowed;
  if (allowed.empty()) {
    allowed = {PlanAlgorithm::kHyperCube, PlanAlgorithm::kSkewHc,
               PlanAlgorithm::kBinaryPlan, PlanAlgorithm::kGym,
               PlanAlgorithm::kBigJoin};
  }
  int binary_index = -1;
  for (const PlanAlgorithm algorithm : allowed) {
    CandidatePlan plan = EstimateCandidate(algorithm, q, stats, p);
    plan.total_cost = PriceCandidate(plan.estimated_load,
                                     plan.estimated_rounds, q, options);
    if (algorithm == PlanAlgorithm::kBinaryPlan) {
      binary_index = static_cast<int>(result.candidates.size());
    }
    result.candidates.push_back(std::move(plan));
  }
  CandidatePlan* binary =
      binary_index >= 0 ? &result.candidates[binary_index] : nullptr;

  // Join-order enumeration upgrades the binary candidate from the
  // identity cascade to the best (or greedily best) left-deep order.
  std::vector<int> order(q.num_atoms());
  for (int j = 0; j < q.num_atoms(); ++j) order[j] = j;
  std::vector<double> step_rows;
  if (binary != nullptr && q.num_atoms() >= 2) {
    const bool exact = q.num_atoms() <= kMaxDpAtoms && q.num_vars() <= 63;
    const OrderSearch search =
        exact ? DpOrder(q, stats, p) : GreedyOrder(q, stats, p);
    order = search.order;
    step_rows = search.step_rows;
    result.dp_states = search.states;
    binary->estimated_load = search.bottleneck / p;
    binary->total_cost = PriceCandidate(binary->estimated_load,
                                        binary->estimated_rounds, q, options);
    binary->rationale = std::string(exact ? "dp" : "greedy") +
                        " join order " + OrderNames(q, order) +
                        "; max estimated intermediate " +
                        std::to_string(
                            static_cast<int64_t>(search.bottleneck));
  }

  const CandidatePlan* best = nullptr;
  for (const CandidatePlan& plan : result.candidates) {
    if (!plan.feasible) continue;
    if (best == nullptr || plan.total_cost < best->total_cost ||
        (plan.total_cost == best->total_cost &&
         plan.estimated_rounds < best->estimated_rounds)) {
      best = &plan;
    }
  }
  MPCQP_CHECK(best != nullptr);

  result.best.family = best->algorithm;
  result.best.estimated_load = best->estimated_load;
  result.best.estimated_rounds = best->estimated_rounds;
  result.best.total_cost = best->total_cost;
  result.best.rationale = best->rationale;
  if (best->algorithm == PlanAlgorithm::kBinaryPlan) {
    result.best.join_order = order;
    result.best.skew_aware = result.input_is_skewed;
    result.best.step_est_rows = step_rows;
    result.best.tree = BuildJoinOrderTree(q, order, result.best.skew_aware,
                                          step_rows);
  } else {
    result.best.tree = BuildAlgorithmTree(q, PlanAlgorithmName(best->algorithm));
  }
  return result;
}

}  // namespace mpcqp
