#ifndef MPCQP_PLANNER_CALIBRATION_H_
#define MPCQP_PLANNER_CALIBRATION_H_

#include <cstdint>
#include <string>

namespace mpcqp {

// Measured per-tuple costs of the simulator's execution phases, the bridge
// between the enumerator's tuple counts and wall-clock. The phases match
// mpc/metrics.h: an exchange routes (destination computation + counting),
// then copies (bulk tuple movement), and each round ends in local compute
// (index build + probe). A plan's time estimate is
//
//   Σ_rounds [ route·tuples_moved + copy·values_moved
//              + local·tuples_touched + round_overhead ].
//
// With `calibrated` false the planner ignores these and falls back to the
// tuple-equivalent cost load + λ·rounds (PlannerOptions::round_cost_tuples).
struct CostCoefficients {
  double route_us_per_tuple = 0.02;
  double copy_us_per_value = 0.01;
  double local_us_per_tuple = 0.05;
  // Fixed synchronization price of one MPC round, microseconds.
  double round_overhead_us = 100.0;
  bool calibrated = false;

  std::string ToString() const;
};

// One-time calibration run: executes parallel hash joins of a few sizes
// (plus a batch of near-empty rounds for the per-round overhead) on a
// scratch Cluster with the given shape, then least-squares-fits each
// coefficient from the measured MpcMetrics phase timings against the
// CostReport tuple counts of the same rounds. Deterministic given the
// arguments up to OS timer jitter; costs well under a second.
CostCoefficients CalibrateCostModel(int num_servers, int num_threads,
                                    uint64_t seed = 0x5ca1ab1e);

}  // namespace mpcqp

#endif  // MPCQP_PLANNER_CALIBRATION_H_
