#include "join/sort_join.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "common/check.h"
#include "join/cartesian.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"
#include "sort/psrs.h"

namespace mpcqp {

namespace {

// Union-tuple layout: [key, side, tie, payload (original tuple, padded)].
constexpr int kKeyCol = 0;
constexpr int kSideCol = 1;
constexpr int kTieCol = 2;
constexpr int kPayloadCol = 3;
constexpr Value kSideLeft = 0;
constexpr Value kSideRight = 1;

// Extracts the side's original tuples from a union fragment, optionally
// restricted by a key predicate.
Relation ExtractSide(const Relation& frag, Value side, int arity,
                     const std::set<Value>* only_keys,
                     bool exclude_instead = false) {
  Relation out(arity);
  for (int64_t i = 0; i < frag.size(); ++i) {
    const Value* row = frag.row(i);
    if (row[kSideCol] != side) continue;
    if (only_keys != nullptr) {
      const bool present = only_keys->count(row[kKeyCol]) > 0;
      if (present == exclude_instead) continue;
    }
    out.AppendRow(row + kPayloadCol);
  }
  return out;
}

}  // namespace

DistRelation ParallelSortJoin(Cluster& cluster, const DistRelation& left,
                              const DistRelation& right, int left_key,
                              int right_key, Rng& rng) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_GE(left_key, 0);
  MPCQP_CHECK_LT(left_key, left.arity());
  MPCQP_CHECK_GE(right_key, 0);
  MPCQP_CHECK_LT(right_key, right.arity());

  const int pad_arity = std::max(left.arity(), right.arity());
  const int union_arity = kPayloadCol + pad_arity;

  // Local compute: tag + union the inputs (no communication; the tuples
  // stay on their servers). One pool task per server; the tie counter is
  // derived from (server, position), so it is identical for any thread
  // count.
  DistRelation tagged(union_arity, p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    std::vector<Value> row(union_arity, 0);
    Value tie = (static_cast<Value>(s) << 40);
    const Relation& lf = left.fragment(s);
    for (int64_t i = 0; i < lf.size(); ++i) {
      std::fill(row.begin(), row.end(), 0);
      row[kKeyCol] = lf.at(i, left_key);
      row[kSideCol] = kSideLeft;
      row[kTieCol] = tie++;
      std::copy(lf.row(i), lf.row(i) + left.arity(),
                row.begin() + kPayloadCol);
      tagged.fragment(s).AppendRow(row.data());
    }
    const Relation& rf = right.fragment(s);
    for (int64_t i = 0; i < rf.size(); ++i) {
      std::fill(row.begin(), row.end(), 0);
      row[kKeyCol] = rf.at(i, right_key);
      row[kSideCol] = kSideRight;
      row[kTieCol] = tie++;
      std::copy(rf.row(i), rf.row(i) + right.arity(),
                row.begin() + kPayloadCol);
      tagged.fragment(s).AppendRow(row.data());
    }
  });

  // Rounds 1-2: PSRS by (key, tie) — the tiebreaker lets one key's run
  // split across servers instead of melting one server under skew.
  PsrsOptions options;
  options.key_cols = {kKeyCol, kTieCol};
  PsrsResult sorted = PsrsSort(cluster, tagged, options);

  // Keys crossing a fragment boundary: last key of fragment s == first key
  // of fragment s' (next non-empty). In a deployment each server announces
  // its boundary keys (O(p) values); negligible and not metered.
  std::set<Value> crossing;
  Value prev_last = 0;
  bool have_prev = false;
  for (int s = 0; s < p; ++s) {
    const Relation& frag = sorted.sorted.fragment(s);
    if (frag.empty()) continue;
    const Value first = frag.at(0, kKeyCol);
    const Value last = frag.at(frag.size() - 1, kKeyCol);
    if (have_prev && prev_last == first) crossing.insert(first);
    prev_last = last;
    have_prev = true;
  }

  // Local join of non-crossing keys (one pool task per server).
  std::vector<Relation> outputs(p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    const Relation& frag = sorted.sorted.fragment(s);
    const Relation lf = ExtractSide(frag, kSideLeft, left.arity(), &crossing,
                                    /*exclude_instead=*/true);
    const Relation rf = ExtractSide(frag, kSideRight, right.arity(),
                                    &crossing, /*exclude_instead=*/true);
    outputs[s] = SortMergeJoinLocal(lf, rf, {left_key}, {right_key});
  });

  // Round 3: crossing keys via per-key Cartesian grids, sized by their
  // output share (as in the skew-aware join).
  if (!crossing.empty()) {
    std::unordered_map<Value, std::pair<int64_t, int64_t>> degrees;
    for (int s = 0; s < p; ++s) {
      const Relation& frag = sorted.sorted.fragment(s);
      for (int64_t i = 0; i < frag.size(); ++i) {
        const Value key = frag.at(i, kKeyCol);
        if (crossing.count(key) == 0) continue;
        auto& d = degrees[key];
        (frag.at(i, kSideCol) == kSideLeft ? d.first : d.second)++;
      }
    }
    double total_weight = 0.0;
    for (const auto& [key, d] : degrees) {
      total_weight += std::sqrt(static_cast<double>(d.first) *
                                static_cast<double>(d.second));
    }
    struct Grid {
      int start;
      int rows;
      int cols;
    };
    std::unordered_map<Value, Grid> grids;
    int cursor = 0;
    for (const auto& [key, d] : degrees) {
      if (d.first == 0 || d.second == 0) continue;
      const double weight = std::sqrt(static_cast<double>(d.first) *
                                      static_cast<double>(d.second));
      int budget =
          total_weight > 0 ? static_cast<int>(p * weight / total_weight) : 1;
      budget = std::max(1, std::min(budget, p));
      const auto [rows, cols] = OptimalGridShape(d.first, d.second, budget);
      grids[key] = {cursor, rows, cols};
      cursor = (cursor + rows * cols) % p;
    }

    // Grid placement hashes the tuple's unique tie value (seeded by `rng`)
    // instead of drawing sequentially: routing runs concurrently across
    // source fragments, and placement must not depend on visit order.
    const HashFunction place(rng.Next());
    DistRelation routed = Route(
        cluster, sorted.sorted,
        [&](int /*src*/, const Relation& frag, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            const Value* urow = frag.row(i);
            const auto it = grids.find(urow[kKeyCol]);
            if (it != grids.end()) {
              const Grid& g = it->second;
              if (urow[kSideCol] == kSideLeft) {
                const int r = place.Bucket(urow[kTieCol], g.rows);
                for (int c = 0; c < g.cols; ++c) {
                  sink.Add((g.start + r * g.cols + c) % p);
                }
              } else {
                const int c = place.Bucket(urow[kTieCol], g.cols);
                for (int r = 0; r < g.rows; ++r) {
                  sink.Add((g.start + r * g.cols + c) % p);
                }
              }
            }
            sink.EndRow();
          }
        },
        "sort join: crossing keys");
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      const Relation& frag = routed.fragment(s);
      const Relation lf =
          ExtractSide(frag, kSideLeft, left.arity(), nullptr);
      const Relation rf =
          ExtractSide(frag, kSideRight, right.arity(), nullptr);
      const Relation joined =
          SortMergeJoinLocal(lf, rf, {left_key}, {right_key});
      outputs[s].Append(joined);
    });
  }

  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
