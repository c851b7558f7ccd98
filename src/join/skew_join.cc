#include "join/skew_join.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/trace.h"
#include "join/cartesian.h"
#include "join/heavy_hitters.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "mpc/stats.h"
#include "relation/columnar.h"
#include "relation/relation_ops.h"

namespace mpcqp {

namespace {

// Placement of one heavy value's rows: its exclusive Cartesian grid on
// servers (start + i) mod p for i in [0, rows*cols), or, when rows == 0,
// nowhere — a value heavy on one side with no partner on the other yields
// no output, so its rows are dropped. Values without a grid are light and
// hash-partitioned.
struct HeavyGrid {
  int start = 0;
  int rows = 0;
  int cols = 0;
};

}  // namespace

DistRelation SkewAwareJoin(Cluster& cluster, const DistRelation& left,
                           const DistRelation& right, int left_key,
                           int right_key, Rng& rng,
                           const SkewJoinOptions& options) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_GE(left_key, 0);
  MPCQP_CHECK_LT(left_key, left.arity());
  MPCQP_CHECK_GE(right_key, 0);
  MPCQP_CHECK_LT(right_key, right.arity());

  const int64_t in = left.TotalSize() + right.TotalSize();
  const int64_t threshold = std::max<int64_t>(
      1, static_cast<int64_t>(options.threshold_factor *
                              static_cast<double>(in) / p));

  // One count per side: the hitters come from it (or from the metered
  // protocol, which finds the same ones), and a hitter's partner degree is
  // read from the other side's counter.
  FlatCounter left_counts;
  FlatCounter right_counts;
  {
    ScopedPhaseTimer count_phase(cluster.metrics(), Phase::kLocalCompute);
    MPCQP_TRACE_SCOPE("skew_join degrees", "compute");
    left_counts = CountColumn(left, left_key);
    right_counts = CountColumn(right, right_key);
  }
  std::vector<HeavyHitter> left_heavy;
  std::vector<HeavyHitter> right_heavy;
  if (options.metered_statistics) {
    for (const DistributedHeavyHitter& h :
         DetectHeavyHittersDistributed(cluster, left, left_key, threshold)) {
      left_heavy.push_back({h.value, h.count});
    }
    for (const DistributedHeavyHitter& h : DetectHeavyHittersDistributed(
             cluster, right, right_key, threshold)) {
      right_heavy.push_back({h.value, h.count});
    }
  } else {
    left_heavy = FindHeavyHitters(left_counts, threshold);
    right_heavy = FindHeavyHitters(right_counts, threshold);
  }
  // (left, right) degrees of every value that is heavy on either side.
  std::unordered_map<Value, std::pair<int64_t, int64_t>> heavy_degrees;
  for (const HeavyHitter& h : left_heavy) {
    heavy_degrees[h.value] = {h.count, right_counts.Get(h.value)};
  }
  for (const HeavyHitter& h : right_heavy) {
    heavy_degrees[h.value] = {left_counts.Get(h.value), h.count};
  }

  // Allocate exclusive server slices proportional to each hitter's share
  // of the output, sqrt(dL * dR). Hitters with no partner side produce no
  // output; the degree statistics let us drop their tuples outright.
  // `grid_of` maps a heavy value to its index in `grids` plus one (0 =
  // light); grids are allocated in heavy_degrees' iteration order.
  std::vector<HeavyGrid> grids;
  grids.reserve(heavy_degrees.size());
  FlatCounter grid_of(static_cast<int64_t>(heavy_degrees.size()));
  {
    double total_weight = 0.0;
    for (const auto& [value, degrees] : heavy_degrees) {
      total_weight += std::sqrt(static_cast<double>(degrees.first) *
                                static_cast<double>(degrees.second));
    }
    int cursor = 0;
    for (const auto& [value, degrees] : heavy_degrees) {
      const auto [dl, dr] = degrees;
      HeavyGrid& grid = grids.emplace_back();
      grid_of.Add(value, static_cast<int64_t>(grids.size()));
      if (dl == 0 || dr == 0) continue;  // rows == 0: dropped.
      const double weight =
          std::sqrt(static_cast<double>(dl) * static_cast<double>(dr));
      int budget = total_weight > 0
                       ? static_cast<int>(p * weight / total_weight)
                       : 1;
      budget = std::max(1, std::min(budget, p));
      grid.start = cursor;
      std::tie(grid.rows, grid.cols) = OptimalGridShape(dl, dr, budget);
      cursor = (cursor + grid.rows * grid.cols) % p;
    }
  }

  const HashFunction hash = cluster.NewHashFunction();
  // Heavy tuples spread over their grid by a hash of the tuple's source
  // coordinates rather than a sequential rng draw: routing runs
  // concurrently across source fragments, and a draw-per-visit would make
  // placement (and load) depend on visit order. `rng` seeds the hash, so
  // different rng states still yield different placements.
  const HashFunction left_place(rng.Next());
  const HashFunction right_place(rng.Next());

  // One side's route. Per morsel, every key is bucketed for the light
  // path in one BucketMany pass; a heavy key instead spans its grid: a
  // left row takes one pseudo-random grid row and every column of it, a
  // right row one column and every row of it.
  const auto route_side = [&](int key_col, const HashFunction& place,
                              bool is_left) {
    return [&, key_col, is_left](int src, const Relation& frag,
                                 int64_t begin, int64_t end,
                                 RouteSink& sink) {
      const int64_t rows = end - begin;
      thread_local std::vector<Value> keys;
      thread_local std::vector<int32_t> light;
      keys.resize(static_cast<size_t>(rows));
      light.resize(static_cast<size_t>(rows));
      GatherKeyColumn(frag.data().data(), frag.arity(), key_col, begin, end,
                      keys.data());
      hash.BucketMany(keys.data(), rows, p, light.data());
      for (int64_t i = 0; i < rows; ++i) {
        const int64_t g = grid_of.Get(keys[i]);
        if (g == 0) {
          sink.Add(light[i]);
          sink.EndRow();
          continue;
        }
        const HeavyGrid& grid = grids[g - 1];
        if (grid.rows > 0) {
          const uint64_t place_key = (static_cast<uint64_t>(src) << 42) ^
                                     static_cast<uint64_t>(begin + i);
          if (is_left) {
            const int r = place.Bucket(place_key, grid.rows);
            for (int c = 0; c < grid.cols; ++c) {
              sink.Add((grid.start + r * grid.cols + c) % p);
            }
          } else {
            const int c = place.Bucket(place_key, grid.cols);
            for (int r = 0; r < grid.rows; ++r) {
              sink.Add((grid.start + r * grid.cols + c) % p);
            }
          }
        }
        sink.EndRow();
      }
    };
  };

  cluster.BeginRound("skew-aware join: shuffle");
  DistRelation left_parts =
      Route(cluster, left, route_side(left_key, left_place, true), "");
  DistRelation right_parts =
      Route(cluster, right, route_side(right_key, right_place, false), "");
  cluster.EndRound();

  std::vector<Relation> outputs(p);
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local join", "compute", s);
    outputs[s] = HashJoinLocal(left_parts.fragment(s),
                               right_parts.fragment(s), {left_key},
                               {right_key});
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
