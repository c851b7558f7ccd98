#include "join/cartesian.h"

#include <algorithm>

#include "common/check.h"
#include "mpc/exchange.h"
#include "relation/relation_ops.h"

namespace mpcqp {

std::pair<int, int> OptimalGridShape(int64_t left_size, int64_t right_size,
                                     int p) {
  MPCQP_CHECK_GE(p, 1);
  // Exact search: for each row count, use the largest column count that
  // fits. Loads use ceil-free real division; sizes 0 behave (load 0).
  int best_rows = 1;
  int best_cols = p;
  double best_load = -1.0;
  for (int rows = 1; rows <= p; ++rows) {
    const int cols = p / rows;
    if (cols < 1) break;
    const double load = static_cast<double>(left_size) / rows +
                        static_cast<double>(right_size) / cols;
    if (best_load < 0 || load < best_load) {
      best_load = load;
      best_rows = rows;
      best_cols = cols;
    }
  }
  return {best_rows, best_cols};
}

void ScatterForProduct(Cluster& cluster, const DistRelation& left,
                       const DistRelation& right,
                       const std::vector<int>& servers, int rows, int cols,
                       Rng& rng, DistRelation* left_out,
                       DistRelation* right_out) {
  MPCQP_CHECK_GE(rows, 1);
  MPCQP_CHECK_GE(cols, 1);
  MPCQP_CHECK_LE(static_cast<size_t>(rows) * cols, servers.size());
  MPCQP_CHECK(left_out != nullptr && right_out != nullptr);
  MPCQP_CHECK_EQ(left_out->num_servers(), cluster.num_servers());
  MPCQP_CHECK_EQ(right_out->num_servers(), cluster.num_servers());

  RoundScope scope(cluster, "cartesian product scatter");

  // Grid placement hashes the tuple's source coordinates (seeded by `rng`)
  // instead of drawing sequentially: routing runs concurrently across
  // source fragments, and placement must not depend on visit order.
  const HashFunction left_place(rng.Next());
  const HashFunction right_place(rng.Next());
  auto place_key = [](int src, int64_t row) {
    return (static_cast<uint64_t>(src) << 42) ^ static_cast<uint64_t>(row);
  };

  // Left tuple -> one pseudo-random row slice, replicated across that row.
  {
    DistRelation routed = Route(
        cluster, left,
        [&](int src, const Relation&, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            const int r = left_place.Bucket(place_key(src, i), rows);
            for (int c = 0; c < cols; ++c) sink.Add(servers[r * cols + c]);
            sink.EndRow();
          }
        },
        "");
    for (int s = 0; s < cluster.num_servers(); ++s) {
      left_out->fragment(s).Append(routed.fragment(s));
    }
  }
  // Right tuple -> one pseudo-random column slice, replicated down it.
  {
    DistRelation routed = Route(
        cluster, right,
        [&](int src, const Relation&, int64_t begin, int64_t end,
            RouteSink& sink) {
          for (int64_t i = begin; i < end; ++i) {
            const int c = right_place.Bucket(place_key(src, i), cols);
            for (int r = 0; r < rows; ++r) sink.Add(servers[r * cols + c]);
            sink.EndRow();
          }
        },
        "");
    for (int s = 0; s < cluster.num_servers(); ++s) {
      right_out->fragment(s).Append(routed.fragment(s));
    }
  }
}

DistRelation CartesianProduct(Cluster& cluster, const DistRelation& left,
                              const DistRelation& right, Rng& rng) {
  const int p = cluster.num_servers();
  const auto [rows, cols] =
      OptimalGridShape(left.TotalSize(), right.TotalSize(), p);
  std::vector<int> servers(p);
  for (int s = 0; s < p; ++s) servers[s] = s;

  DistRelation left_parts(left.arity(), p);
  DistRelation right_parts(right.arity(), p);
  ScatterForProduct(cluster, left, right, servers, rows, cols, rng,
                    &left_parts, &right_parts);

  // Empty key list: a pure cross product per server, one pool task each.
  std::vector<Relation> outputs(p);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    outputs[s] =
        HashJoinLocal(left_parts.fragment(s), right_parts.fragment(s),
                      /*left_keys=*/{}, /*right_keys=*/{});
  });
  return DistRelation::FromFragments(std::move(outputs));
}

}  // namespace mpcqp
