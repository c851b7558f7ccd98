#include "planner/calibration.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "join/hash_join.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "workload/generator.h"

namespace mpcqp {

std::string CostCoefficients::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "route %.4f us/tuple, copy %.4f us/value, local %.4f "
                "us/tuple, round overhead %.1f us%s",
                route_us_per_tuple, copy_us_per_value, local_us_per_tuple,
                round_overhead_us, calibrated ? "" : " (uncalibrated)");
  return buf;
}

namespace {

// Accumulates (work, micros) samples and fits micros = coeff * work by
// least squares through the origin.
struct Fit {
  double sum_xy = 0;
  double sum_xx = 0;

  void Add(double work, double micros) {
    sum_xy += work * micros;
    sum_xx += work * work;
  }
  // Clamped below: a sub-timer-resolution phase must not calibrate to a
  // zero coefficient (that would make the planner treat the phase as free).
  double Coefficient(double floor) const {
    return std::max(floor, sum_xx > 0 ? sum_xy / sum_xx : 0.0);
  }
};

}  // namespace

CostCoefficients CalibrateCostModel(int num_servers, int num_threads,
                                    uint64_t seed) {
  MPCQP_CHECK_GE(num_servers, 1);
  MPCQP_CHECK_GE(num_threads, 1);
  ClusterOptions cluster_options;
  cluster_options.num_threads = num_threads;

  Fit route_fit;
  Fit copy_fit;
  Fit local_fit;
  Rng rng(seed);

  // Shuffle + local-join rounds at two sizes so the fit sees a slope, not
  // a single point; two repetitions each to average scheduler noise.
  for (const int64_t rows : {20000, 60000}) {
    const Relation left = GenerateUniform(rng, rows, 2, rows / 2);
    const Relation right = GenerateUniform(rng, rows, 2, rows / 2);
    for (int rep = 0; rep < 2; ++rep) {
      Cluster cluster(num_servers, seed + rep, cluster_options);
      const DistRelation out = ParallelHashJoin(
          cluster, DistRelation::Scatter(left, num_servers),
          DistRelation::Scatter(right, num_servers), {0}, {0});
      const auto& rounds = cluster.cost_report().rounds();
      const auto& timings = cluster.metrics().rounds();
      MPCQP_CHECK_EQ(rounds.size(), timings.size());
      int64_t tuples_moved = 0;
      int64_t values_moved = 0;
      double route_ms = 0;
      double copy_ms = 0;
      double local_ms = 0;
      for (size_t r = 0; r < rounds.size(); ++r) {
        tuples_moved += rounds[r].TotalTuplesReceived();
        values_moved += rounds[r].TotalValuesReceived();
        route_ms += timings[r].phase_ms[static_cast<int>(Phase::kRoute)] +
                    timings[r].phase_ms[static_cast<int>(Phase::kCount)];
        copy_ms += timings[r].phase_ms[static_cast<int>(Phase::kCopy)];
        local_ms +=
            timings[r].phase_ms[static_cast<int>(Phase::kLocalCompute)];
      }
      // The per-server local joins run after the metered round closes.
      local_ms +=
          cluster.metrics().outside_phase_ms(Phase::kLocalCompute);
      route_fit.Add(static_cast<double>(tuples_moved), route_ms * 1e3);
      copy_fit.Add(static_cast<double>(values_moved), copy_ms * 1e3);
      local_fit.Add(
          static_cast<double>(tuples_moved + out.TotalSize()),
          local_ms * 1e3);
    }
  }

  // Round overhead: near-empty exchanges isolate the fixed per-round price
  // (pool fan-out, offset pass, metering) from the per-tuple terms.
  double overhead_ms = 0;
  int overhead_rounds = 0;
  {
    const Relation tiny = GenerateUniform(rng, 8, 2, 8);
    Cluster cluster(num_servers, seed + 7, cluster_options);
    const DistRelation dist = DistRelation::Scatter(tiny, num_servers);
    const HashFunction hash = cluster.NewHashFunction();
    for (int rep = 0; rep < 8; ++rep) {
      HashPartition(cluster, dist, {0}, hash, "calibration: overhead");
    }
    for (const auto& timing : cluster.metrics().rounds()) {
      overhead_ms += timing.wall_ms;
      ++overhead_rounds;
    }
  }

  CostCoefficients coefficients;
  coefficients.route_us_per_tuple = route_fit.Coefficient(1e-4);
  coefficients.copy_us_per_value = copy_fit.Coefficient(1e-4);
  coefficients.local_us_per_tuple = local_fit.Coefficient(1e-4);
  coefficients.round_overhead_us = std::max(
      1.0, overhead_rounds > 0 ? overhead_ms * 1e3 / overhead_rounds : 0.0);
  coefficients.calibrated = true;
  return coefficients;
}

}  // namespace mpcqp
