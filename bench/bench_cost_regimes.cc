// E1 — deck slides 13-18: the MPC cost-regime table for a two-way join.
//
// Regimes: ideal (L = IN/p, 1 round), practical (L = IN/p^{1-ε}, O(1)
// rounds), naive 1 (broadcast everything: L = IN, 1 round), naive 2
// (ring relay: L = IN/p per round, p rounds). Measured by executing each
// strategy on the simulator and reading the communication meter.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "join/hash_join.h"
#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

// Naive 2: each round every server forwards the block it currently holds
// to its ring successor; after p-1 rounds everyone has seen every block
// and all joins can be emitted. One round of load IN/p, repeated.
void RingRelay(Cluster& cluster, const DistRelation& input) {
  const int p = cluster.num_servers();
  DistRelation current = input;
  for (int round = 0; round < p - 1; ++round) {
    cluster.BeginRound("relay round " + std::to_string(round + 1));
    std::vector<Relation> next(p, Relation(input.arity()));
    for (int s = 0; s < p; ++s) {
      const int dst = (s + 1) % p;
      const Relation& frag = current.fragment(s);
      if (!frag.empty()) {
        cluster.RecordMessage(s, dst, frag.size(),
                              frag.size() * frag.arity());
      }
      next[dst] = frag;
    }
    cluster.EndRound();
    current = DistRelation::FromFragments(std::move(next));
  }
}

void Run() {
  const int p = 16;
  const int64_t n = 40000;
  Rng rng(1);
  const Relation left = GenerateMatchingDegree(rng, n / 2, 1);
  const Relation right = GenerateMatchingDegree(rng, n / 2, 1);
  const int64_t in = n;

  Table table({"strategy", "rounds r", "measured L (tuples)", "L / (IN/p)",
               "theory"});

  // Ideal: one-round parallel hash join on skew-free data.
  {
    Cluster cluster(p, 7);
    ParallelHashJoin(cluster, DistRelation::Scatter(left, p),
                     DistRelation::Scatter(right, p), {1}, {1});
    const int64_t load = cluster.cost_report().MaxLoadTuples();
    table.AddRow({"ideal (hash join)",
                  FmtInt(cluster.cost_report().num_rounds()), FmtInt(load),
                  Fmt(static_cast<double>(load) / (in / p)), "IN/p"});
  }

  // Practical: ε-replication on a sqrt(p) x sqrt(p) grid (ε = 1/2), the
  // Cartesian-style one-round pattern every 1-round multiway join uses.
  {
    Cluster cluster(p, 7);
    const int rows = 4;
    const int cols = p / rows;
    Rng grid_rng(3);
    cluster.BeginRound("eps-replicated join");
    Route(
        cluster, DistRelation::Scatter(left, p),
        [&](int, const Relation&, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            const int r = static_cast<int>(grid_rng.Uniform(rows));
            for (int c = 0; c < cols; ++c) sink.Add(r * cols + c);
            sink.EndRow();
          }
        },
        "");
    Route(
        cluster, DistRelation::Scatter(right, p),
        [&](int, const Relation&, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            const int c = static_cast<int>(grid_rng.Uniform(cols));
            for (int r = 0; r < rows; ++r) sink.Add(r * cols + c);
            sink.EndRow();
          }
        },
        "");
    cluster.EndRound();
    const int64_t load = cluster.cost_report().MaxLoadTuples();
    table.AddRow({"practical (eps=1/2 grid)",
                  FmtInt(cluster.cost_report().num_rounds()), FmtInt(load),
                  Fmt(static_cast<double>(load) / (in / p)),
                  "IN/p^{1-eps}"});
  }

  // Naive 1: broadcast both inputs to every server.
  {
    Cluster cluster(p, 7);
    cluster.BeginRound("naive broadcast");
    Broadcast(cluster, DistRelation::Scatter(left, p), "");
    Broadcast(cluster, DistRelation::Scatter(right, p), "");
    cluster.EndRound();
    const int64_t load = cluster.cost_report().MaxLoadTuples();
    table.AddRow({"naive 1 (broadcast all)",
                  FmtInt(cluster.cost_report().num_rounds()), FmtInt(load),
                  Fmt(static_cast<double>(load) / (in / p)), "IN"});
  }

  // Naive 2: ring relay of the whole input, p-1 rounds.
  {
    Cluster cluster(p, 7);
    cluster.BeginRound("relay setup (both inputs interleaved)");
    cluster.EndRound();
    cluster.ResetCosts();
    const Relation both = UnionAll(left, right);
    RingRelay(cluster, DistRelation::Scatter(both, p));
    table.AddRow({"naive 2 (ring relay)",
                  FmtInt(cluster.cost_report().num_rounds()),
                  FmtInt(cluster.cost_report().MaxLoadTuples()),
                  Fmt(static_cast<double>(
                          cluster.cost_report().MaxLoadTuples()) /
                      (in / p)),
                  "IN/p per round, p rounds"});
  }

  bench::Banner(
      "E1 (slides 13-18): cost regimes of a two-way join, p=16, IN=" +
      std::to_string(in));
  table.Print();
}

}  // namespace
}  // namespace mpcqp

int main() {
  mpcqp::Run();
  return 0;
}
