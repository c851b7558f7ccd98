#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>
#include <unordered_set>

#include "common/check.h"
#include "common/parse.h"

namespace mpcqp {

Relation GenerateUniform(Rng& rng, int64_t rows, int arity, uint64_t domain) {
  MPCQP_CHECK_GT(arity, 0);
  MPCQP_CHECK_GT(domain, 0u);
  Relation out(arity);
  out.Reserve(rows);
  std::vector<Value> row(arity);
  for (int64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < arity; ++c) row[c] = rng.Uniform(domain);
    out.AppendRow(row.data());
  }
  return out;
}

Relation GenerateMatchingDegree(Rng& rng, int64_t rows, int64_t degree) {
  MPCQP_CHECK_GE(degree, 1);
  MPCQP_CHECK_EQ(rows % degree, 0);
  const int64_t distinct = rows / degree;
  Relation out(2);
  out.Reserve(rows);
  // Shuffle the y-values so that value identity is uncorrelated with
  // insertion order.
  std::vector<Value> ys(distinct);
  for (int64_t i = 0; i < distinct; ++i) ys[i] = static_cast<Value>(i);
  for (int64_t i = distinct - 1; i > 0; --i) {
    std::swap(ys[i], ys[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  Value x = 0;
  for (int64_t d = 0; d < distinct; ++d) {
    for (int64_t k = 0; k < degree; ++k) {
      out.AppendRow({x++, ys[d]});
    }
  }
  return out;
}

ZipfDistribution::ZipfDistribution(uint64_t domain, double skew)
    : domain_(domain), skew_(skew) {
  MPCQP_CHECK_GT(domain, 0u);
  MPCQP_CHECK_GE(skew, 0.0);
  cdf_.resize(domain);
  double total = 0.0;
  for (uint64_t r = 0; r < domain; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[r] = total;
  }
  for (double& v : cdf_) v /= total;
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin());
}

Relation GenerateZipf(Rng& rng, int64_t rows, int arity, uint64_t domain,
                      int zipf_col, double skew) {
  MPCQP_CHECK_GE(zipf_col, 0);
  MPCQP_CHECK_LT(zipf_col, arity);
  const ZipfDistribution zipf(domain, skew);
  Relation out(arity);
  out.Reserve(rows);
  std::vector<Value> row(arity);
  for (int64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < arity; ++c) {
      row[c] = (c == zipf_col) ? zipf.Sample(rng) : rng.Uniform(domain);
    }
    out.AppendRow(row.data());
  }
  return out;
}

Relation GenerateConstantColumn(int64_t rows, int col, Value value) {
  MPCQP_CHECK(col == 0 || col == 1);
  Relation out(2);
  out.Reserve(rows);
  for (int64_t i = 0; i < rows; ++i) {
    const Value unique = static_cast<Value>(i);
    if (col == 0) {
      out.AppendRow({value, unique});
    } else {
      out.AppendRow({unique, value});
    }
  }
  return out;
}

Relation GenerateRandomGraph(Rng& rng, uint64_t nodes, int64_t edges) {
  MPCQP_CHECK_GE(nodes, 2u);
  MPCQP_CHECK_LE(static_cast<uint64_t>(edges), nodes * (nodes - 1));
  std::unordered_set<uint64_t> seen;
  Relation out(2);
  out.Reserve(edges);
  while (static_cast<int64_t>(seen.size()) < edges) {
    const uint64_t src = rng.Uniform(nodes);
    const uint64_t dst = rng.Uniform(nodes);
    if (src == dst) continue;
    const uint64_t code = src * nodes + dst;
    if (seen.insert(code).second) {
      out.AppendRow({src, dst});
    }
  }
  return out;
}

Relation AddClique(const Relation& graph, uint64_t first_node,
                   uint64_t clique_nodes) {
  MPCQP_CHECK_EQ(graph.arity(), 2);
  Relation out = graph;
  for (uint64_t a = 0; a < clique_nodes; ++a) {
    for (uint64_t b = 0; b < clique_nodes; ++b) {
      if (a == b) continue;
      out.AppendRow({first_node + a, first_node + b});
    }
  }
  return out;
}

std::vector<Relation> GenerateChain(Rng& rng, int num_atoms, int64_t rows,
                                    uint64_t domain) {
  MPCQP_CHECK_GE(num_atoms, 1);
  std::vector<Relation> atoms;
  atoms.reserve(num_atoms);
  for (int i = 0; i < num_atoms; ++i) {
    atoms.push_back(GenerateUniform(rng, rows, 2, domain));
  }
  return atoms;
}

std::vector<Relation> GenerateStar(Rng& rng, int num_atoms, int64_t rows,
                                   uint64_t domain) {
  return GenerateChain(rng, num_atoms, rows, domain);
}

namespace {

// The spec's fields, each through the checked parsers ("20k" or a wrapped
// 2^64 is an error, not a silent zero), plus every precondition the
// generators above CHECK.
StatusOr<Relation> ParseAndGenerate(const std::string& spec, int arity,
                                    Rng& rng) {
  std::vector<std::string> parts;
  size_t pos = 0;
  for (size_t colon; (colon = spec.find(':', pos)) != std::string::npos;
       pos = colon + 1) {
    parts.push_back(spec.substr(pos, colon - pos));
  }
  parts.push_back(spec.substr(pos));
  const std::string& kind = parts[0];
  auto bad = [&](const std::string& why) {
    return InvalidArgumentError("bad generator spec '" + spec + "': " + why);
  };
  // Field i as an integer in [min, max].
  auto field = [&](size_t i, uint64_t min,
                   uint64_t max) -> StatusOr<uint64_t> {
    auto parsed = ParseUint64(parts[i]);
    if (!parsed.ok()) return bad(parsed.status().message());
    if (*parsed < min || *parsed > max) {
      return bad(parts[i] + " is outside [" + std::to_string(min) + ", " +
                 std::to_string(max) + "]");
    }
    return parsed;
  };
  if (arity < 1) return bad("the atom has no columns");
  const uint64_t max_rows = INT64_MAX / arity;

  if ((kind == "uniform" && parts.size() == 3) ||
      (kind == "zipf" && parts.size() == 4)) {
    MPCQP_ASSIGN_OR_RETURN(const uint64_t rows, field(1, 0, max_rows));
    MPCQP_ASSIGN_OR_RETURN(const uint64_t domain, field(2, 1, UINT64_MAX));
    if (kind == "uniform") return GenerateUniform(rng, rows, arity, domain);
    const auto skew = ParseDouble(parts[3]);
    if (!skew.ok()) return bad(skew.status().message());
    if (*skew < 0.0) return bad("skew must be >= 0");
    return GenerateZipf(rng, rows, arity, domain, /*zipf_col=*/0, *skew);
  }
  if ((kind == "degree" || kind == "graph") && parts.size() == 3 &&
      arity != 2) {
    return bad(kind + " needs arity 2");
  }
  if (kind == "degree" && parts.size() == 3) {
    MPCQP_ASSIGN_OR_RETURN(const uint64_t rows, field(1, 0, max_rows));
    MPCQP_ASSIGN_OR_RETURN(const uint64_t degree, field(2, 1, INT64_MAX));
    if (rows % degree != 0) return bad("rows must be a multiple of degree");
    return GenerateMatchingDegree(rng, rows, degree);
  }
  if (kind == "graph" && parts.size() == 3) {
    MPCQP_ASSIGN_OR_RETURN(const uint64_t nodes, field(1, 2, UINT64_MAX));
    // NODES * (NODES - 1) distinct edges exist; past 2^64, any count fits.
    uint64_t pairs = 0;
    const bool huge = __builtin_mul_overflow(nodes, nodes - 1, &pairs);
    MPCQP_ASSIGN_OR_RETURN(
        const uint64_t edges,
        field(2, 0, huge ? max_rows : std::min(pairs, max_rows)));
    return GenerateRandomGraph(rng, nodes, edges);
  }
  return bad("expected uniform:ROWS:DOMAIN | zipf:ROWS:DOMAIN:SKEW | "
             "degree:ROWS:DEGREE | graph:NODES:EDGES");
}

}  // namespace

StatusOr<Relation> GenerateFromSpec(const std::string& spec, int arity,
                                    Rng& rng) {
  try {
    return ParseAndGenerate(spec, arity, rng);
  } catch (const std::bad_alloc&) {
  } catch (const std::length_error&) {
  }
  return ResourceExhaustedError("generator spec '" + spec +
                                "' does not fit in memory");
}

}  // namespace mpcqp
