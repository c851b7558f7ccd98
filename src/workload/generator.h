#ifndef MPCQP_WORKLOAD_GENERATOR_H_
#define MPCQP_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "relation/relation.h"

namespace mpcqp {

// Synthetic data generators for the experiments. Every generator takes an
// explicit Rng so workloads are reproducible.

// `rows` tuples of the given arity; each value uniform in [0, domain).
Relation GenerateUniform(Rng& rng, int64_t rows, int arity, uint64_t domain);

// Binary relation (x, y) with `rows` tuples in which every present y-value
// occurs exactly `degree` times (the "every value appears exactly d times"
// model of slide 25). x-values are unique. Requires degree >= 1 and
// degree | rows.
Relation GenerateMatchingDegree(Rng& rng, int64_t rows, int64_t degree);

// Samples from a Zipf(s) distribution over {0, ..., domain-1}: rank-r value
// has probability proportional to 1/(r+1)^s. Ranks are identity-mapped to
// values (value 0 is the most frequent), which keeps degree inspection easy.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t domain, double skew);

  uint64_t Sample(Rng& rng) const;
  uint64_t domain() const { return domain_; }
  double skew() const { return skew_; }

 private:
  uint64_t domain_;
  double skew_;
  std::vector<double> cdf_;
};

// `rows` tuples of the given arity; column `zipf_col` is Zipf(s) over
// [0, domain), other columns uniform over [0, domain).
Relation GenerateZipf(Rng& rng, int64_t rows, int arity, uint64_t domain,
                      int zipf_col, double skew);

// Binary relation where ALL rows share one join value (column `col` is the
// constant `value`), the other column taking unique values: the extreme
// skew of slide 27.
Relation GenerateConstantColumn(int64_t rows, int col, Value value);

// A simple random directed graph as an edge relation (src, dst) with
// `edges` distinct edges, no self-loops. nodes >= 2.
Relation GenerateRandomGraph(Rng& rng, uint64_t nodes, int64_t edges);

// Adds `clique_nodes` fully connected nodes to `graph` (both directions),
// guaranteeing a rich triangle count; returns the combined edge relation.
Relation AddClique(const Relation& graph, uint64_t first_node,
                   uint64_t clique_nodes);

// Data for a path (chain) query R1(x0,x1), R2(x1,x2), ..., Rk(x_{k-1},x_k):
// one binary relation per atom, `rows` tuples each, values uniform in
// [0, domain). Small domains make joins dense, large domains sparse.
std::vector<Relation> GenerateChain(Rng& rng, int num_atoms, int64_t rows,
                                    uint64_t domain);

// Data for a star query R1(x0,x1), R2(x0,x2), ..., Rk(x0,xk): the center
// variable x0 is drawn uniform in [0, domain) in every relation.
std::vector<Relation> GenerateStar(Rng& rng, int num_atoms, int64_t rows,
                                   uint64_t domain);

// One relation of the given arity from a command-line generator spec:
//   uniform:ROWS:DOMAIN | zipf:ROWS:DOMAIN:SKEW (column 0 skewed) |
//   degree:ROWS:DEGREE (arity 2) | graph:NODES:EDGES (arity 2).
// Every spec the generators above would CHECK on (a zero domain or
// degree, a negative skew, ROWS not a multiple of DEGREE, fewer than two
// nodes, more edges than NODES*(NODES-1)), and every malformed one, is
// INVALID_ARGUMENT; a size whose allocation fails is RESOURCE_EXHAUSTED.
StatusOr<Relation> GenerateFromSpec(const std::string& spec, int arity,
                                    Rng& rng);

}  // namespace mpcqp

#endif  // MPCQP_WORKLOAD_GENERATOR_H_
