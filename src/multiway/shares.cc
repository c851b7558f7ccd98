#include "multiway/shares.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "query/hypergraph_lp.h"

namespace mpcqp {

double PredictedLoad(const ConjunctiveQuery& q,
                     const std::vector<int64_t>& sizes,
                     const std::vector<int>& shares) {
  MPCQP_CHECK_EQ(static_cast<int>(sizes.size()), q.num_atoms());
  MPCQP_CHECK_EQ(static_cast<int>(shares.size()), q.num_vars());
  double worst = 0.0;
  for (int j = 0; j < q.num_atoms(); ++j) {
    double denom = 1.0;
    // Each distinct variable of the atom contributes its share once.
    std::vector<int> seen;
    for (int v : q.atom(j).vars) {
      if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
        seen.push_back(v);
        denom *= shares[v];
      }
    }
    worst = std::max(worst, static_cast<double>(sizes[j]) / denom);
  }
  return worst;
}

namespace {

int64_t ShareProduct(const std::vector<int>& shares) {
  int64_t product = 1;
  for (int s : shares) product *= s;
  return product;
}

IntegerShares FloorGreedy(const ConjunctiveQuery& q,
                          const std::vector<int64_t>& raw_sizes, int p) {
  // The share LP needs positive sizes; an empty atom contributes nothing
  // to the load either way.
  std::vector<int64_t> sizes = raw_sizes;
  for (int64_t& s : sizes) s = std::max<int64_t>(1, s);
  StatusOr<ShareExponents> exponents = OptimalShareExponents(q, sizes, p);
  MPCQP_CHECK(exponents.ok()) << exponents.status();

  const int k = q.num_vars();
  std::vector<int> shares(k, 1);
  for (int v = 0; v < k; ++v) {
    const double ideal =
        std::pow(static_cast<double>(p), exponents->exponents[v]);
    shares[v] = std::max(1, static_cast<int>(ideal + 1e-9));
  }
  MPCQP_CHECK_LE(ShareProduct(shares), p);

  // Greedy repair: bump the single share whose increment helps the most.
  while (true) {
    double best_load = PredictedLoad(q, sizes, shares);
    int best_var = -1;
    for (int v = 0; v < k; ++v) {
      if (ShareProduct(shares) / shares[v] * (shares[v] + 1) > p) continue;
      ++shares[v];
      const double load = PredictedLoad(q, sizes, shares);
      --shares[v];
      if (load < best_load - 1e-12) {
        best_load = load;
        best_var = v;
      }
    }
    if (best_var < 0) break;
    ++shares[best_var];
  }
  return IntegerShares{shares, PredictedLoad(q, sizes, shares)};
}

void ExhaustiveSearch(const ConjunctiveQuery& q,
                      const std::vector<int64_t>& sizes, int p, int var,
                      std::vector<int>& shares, IntegerShares& best) {
  if (var == q.num_vars()) {
    const double load = PredictedLoad(q, sizes, shares);
    if (best.shares.empty() || load < best.predicted_load) {
      best.shares = shares;
      best.predicted_load = load;
    }
    return;
  }
  const int64_t used = ShareProduct(shares);
  for (int s = 1; used * s <= p; ++s) {
    shares[var] = s;
    ExhaustiveSearch(q, sizes, p, var + 1, shares, best);
  }
  shares[var] = 1;
}

}  // namespace

IntegerShares ComputeShares(const ConjunctiveQuery& q,
                            const std::vector<int64_t>& sizes, int p,
                            ShareRounding rounding) {
  MPCQP_CHECK_GE(p, 1);
  MPCQP_CHECK_EQ(static_cast<int>(sizes.size()), q.num_atoms());
  switch (rounding) {
    case ShareRounding::kFloorGreedy:
      return FloorGreedy(q, sizes, p);
    case ShareRounding::kExhaustive: {
      IntegerShares best;
      std::vector<int> shares(q.num_vars(), 1);
      ExhaustiveSearch(q, sizes, p, 0, shares, best);
      return best;
    }
  }
  MPCQP_CHECK(false) << "unknown rounding";
  return {};
}

std::vector<int> ResidualShares(const ConjunctiveQuery& q, uint32_t heavy_vars,
                                const std::vector<int64_t>& sizes, int p) {
  std::vector<int> light;
  std::vector<int> index(q.num_vars(), -1);
  std::vector<std::string> names;
  for (int v = 0; v < q.num_vars(); ++v) {
    if ((heavy_vars & (1u << v)) != 0) continue;
    index[v] = static_cast<int>(light.size());
    light.push_back(v);
    names.push_back(q.var_name(v));
  }
  std::vector<Atom> residual_atoms;
  std::vector<int64_t> residual_sizes;
  for (int j = 0; j < q.num_atoms(); ++j) {
    Atom atom;
    atom.name = q.atom(j).name;
    for (const auto& [v, c] : DistinctVarCols(q.atom(j))) {
      if (index[v] >= 0) atom.vars.push_back(index[v]);
    }
    if (!atom.vars.empty()) {
      residual_atoms.push_back(std::move(atom));
      residual_sizes.push_back(sizes[j]);
    }
  }
  std::vector<int> shares(q.num_vars(), 1);
  if (residual_atoms.empty()) return shares;
  const IntegerShares residual = ComputeShares(
      ConjunctiveQuery::Make(names, residual_atoms), residual_sizes, p);
  for (size_t i = 0; i < light.size(); ++i) {
    shares[light[i]] = residual.shares[i];
  }
  return shares;
}

}  // namespace mpcqp
