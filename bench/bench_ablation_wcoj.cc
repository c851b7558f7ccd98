// A3 — ablation: the local evaluator inside each server.
//
// The binary-join local evaluator (EvalJoinLocal) can materialize an
// intermediate of size ~N²/D even when the output is empty (deck slide 63
// / the AGM discussion of slides 55-56); the worst-case-optimal trie join
// (TrieJoin, the kernel HyperCube/SkewHC servers run on cyclic queries)
// never exceeds IN^{ρ*}. We time both on the same instances, each
// followed by the same Dedup (set semantics). The last instance is the
// per-server work of the end-to-end triangle_cold workload: its 64 routed
// fragments, joined one after another. Exits 1 if the two evaluators
// disagree on any instance.

#include <chrono>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "query/trie_join.h"
#include "query/local_eval.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

// Times `fn`, which returns the number of output rows it produced.
double MillisOf(const std::function<int64_t()>& fn, int64_t* out_size) {
  const auto start = std::chrono::steady_clock::now();
  *out_size = fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Routes the triangle's atoms to a 4x4x4 grid the way HyperCube's one
// round does: variable v's coordinate is SplitMix64(value + v) mod 4, and
// each row goes to the four servers that agree with its two variables.
std::vector<std::vector<Relation>> RouteTriangleToGrid(
    const ConjunctiveQuery& q, const std::vector<Relation>& atoms) {
  constexpr int kShare = 4;
  const int strides[3] = {1, kShare, kShare * kShare};
  std::vector<std::vector<Relation>> servers(
      kShare * kShare * kShare, std::vector<Relation>(3, Relation(2)));
  for (int j = 0; j < 3; ++j) {
    const int u = q.atom(j).vars[0];
    const int v = q.atom(j).vars[1];
    const int free = 3 - u - v;
    for (int64_t r = 0; r < atoms[j].size(); ++r) {
      const int base =
          static_cast<int>(SplitMix64(atoms[j].at(r, 0) + u) % kShare) *
              strides[u] +
          static_cast<int>(SplitMix64(atoms[j].at(r, 1) + v) % kShare) *
              strides[v];
      for (int c = 0; c < kShare; ++c) {
        servers[base + c * strides[free]][j].AppendRowFrom(atoms[j], r);
      }
    }
  }
  return servers;
}

bool Run() {
  bool ok = true;
  bench::Banner(
      "A3: local evaluator — binary join plan vs trie join (WCOJ), "
      "set semantics");
  Table table({"instance", "|OUT|", "binary ms", "trie ms",
               "binary intermediate"});

  // Instance 1: benign uniform triangle.
  {
    Rng rng(1);
    const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(Dedup(GenerateUniform(rng, 3000, 2, 1200)));
    }
    int64_t out_binary = 0;
    int64_t out_trie = 0;
    const double binary_ms = MillisOf(
        [&] { return Dedup(EvalJoinLocal(q, atoms)).size(); }, &out_binary);
    const double trie_ms = MillisOf(
        [&] { return Dedup(TrieJoin(q, atoms)).size(); }, &out_trie);
    const Relation i1 = HashJoinLocal(atoms[0], atoms[1], {1}, {0});
    table.AddRow({"uniform triangle N=3000", FmtInt(out_trie),
                  Fmt(binary_ms, 1), Fmt(trie_ms, 1), FmtInt(i1.size())});
    ok &= out_binary == out_trie;
  }

  // Instance 2: slide-63 adversarial path-3 — R1 ⋈ R2 is ~N²/D ≈ 2.4M
  // tuples while the final output is empty (R3 lives on a disjoint
  // domain).
  {
    Rng rng(2);
    const ConjunctiveQuery q = ConjunctiveQuery::Path(3);
    const Relation r1 = Dedup(GenerateUniform(rng, 12000, 2, 60));
    const Relation r2 = Dedup(GenerateUniform(rng, 12000, 2, 60));
    Relation r3(2);
    for (int i = 0; i < 12000; ++i) {
      r3.AppendRow({1000000 + static_cast<Value>(i), 0});
    }
    std::vector<Relation> atoms = {r1, r2, r3};
    int64_t out_binary = 0;
    int64_t out_trie = 0;
    const double binary_ms = MillisOf(
        [&] { return Dedup(EvalJoinLocal(q, atoms)).size(); }, &out_binary);
    const double trie_ms = MillisOf(
        [&] { return Dedup(TrieJoin(q, atoms)).size(); }, &out_trie);
    const Relation i1 = HashJoinLocal(r1, r2, {1}, {0});
    table.AddRow({"adversarial path-3 (empty OUT)", FmtInt(out_trie),
                  Fmt(binary_ms, 1), Fmt(trie_ms, 1), FmtInt(i1.size())});
    ok &= out_binary == out_trie;
  }

  // Instance 3: skewed triangle (one hub vertex).
  {
    Rng rng(3);
    const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
    Relation edges = GenerateRandomGraph(rng, 1500, 20000);
    // A hub connected to everyone.
    for (Value v = 0; v < 1500; ++v) {
      edges.AppendRow({999999, v});
      edges.AppendRow({v, 999999});
    }
    std::vector<Relation> atoms = {edges, edges, edges};
    int64_t out_binary = 0;
    int64_t out_trie = 0;
    const double binary_ms = MillisOf(
        [&] { return Dedup(EvalJoinLocal(q, atoms)).size(); }, &out_binary);
    const double trie_ms = MillisOf(
        [&] { return Dedup(TrieJoin(q, atoms)).size(); }, &out_trie);
    const Relation i1 = HashJoinLocal(edges, edges, {1}, {0});
    table.AddRow({"hub triangle", FmtInt(out_trie), Fmt(binary_ms, 1),
                  Fmt(trie_ms, 1), FmtInt(i1.size())});
    ok &= out_binary == out_trie;
  }

  // Instance 4: triangle_cold's per-server joins — 3 x 60K uniform rows
  // over a 3K domain routed to p = 64, every fragment joined serially.
  {
    Rng rng(4);
    const ConjunctiveQuery q = ConjunctiveQuery::Triangle();
    std::vector<Relation> atoms;
    for (int j = 0; j < 3; ++j) {
      atoms.push_back(Dedup(GenerateUniform(rng, 60'000, 2, 3'000)));
    }
    const std::vector<std::vector<Relation>> servers =
        RouteTriangleToGrid(q, atoms);
    std::vector<Relation> binary(servers.size());
    std::vector<Relation> trie(servers.size());
    int64_t out_binary = 0;
    int64_t out_trie = 0;
    const double binary_ms = MillisOf(
        [&] {
          int64_t rows = 0;
          for (size_t s = 0; s < servers.size(); ++s) {
            binary[s] = Dedup(EvalJoinLocal(q, servers[s]));
            rows += binary[s].size();
          }
          return rows;
        },
        &out_binary);
    const double trie_ms = MillisOf(
        [&] {
          int64_t rows = 0;
          for (size_t s = 0; s < servers.size(); ++s) {
            trie[s] = Dedup(TrieJoin(q, servers[s]));
            rows += trie[s].size();
          }
          return rows;
        },
        &out_trie);
    int64_t intermediate = 0;
    for (size_t s = 0; s < servers.size(); ++s) {
      intermediate +=
          HashJoinLocal(servers[s][0], servers[s][1], {1}, {0}).size();
      ok &= MultisetEqual(binary[s], trie[s]);
    }
    table.AddRow({"triangle_cold fragments (64 servers)", FmtInt(out_trie),
                  Fmt(binary_ms, 1), Fmt(trie_ms, 1), FmtInt(intermediate)});
  }

  table.Print();
  if (!ok) std::printf("\nMISMATCH: binary and trie outputs differ\n");
  std::printf(
      "\nTakeaway: the binary plan's cost follows its intermediate column "
      "(~N^2/D on the adversarial instance, hub-squared paths on the "
      "skewed graph) while the trie join's work is bounded by IN^{rho*} "
      "and it skips dead branches outright. With radix-built flat tries "
      "it also beats the hash pipeline on the benign triangle, which is "
      "why LocalJoin runs it on every cyclic per-server join; acyclic "
      "queries keep the hash plan, where one build and probe per atom "
      "costs less than sorting every atom.\n");
  return ok;
}

}  // namespace
}  // namespace mpcqp

int main() { return mpcqp::Run() ? 0 : 1; }
