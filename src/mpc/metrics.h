#ifndef MPCQP_MPC_METRICS_H_
#define MPCQP_MPC_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mpc/cost.h"

namespace mpcqp {

class Cluster;

// Execution phases of one simulated MPC round, as seen by the data plane:
//   kRoute        — phase 1 of an exchange: morsel-parallel per-tuple
//                   destination computation and per-(morsel, dst) tallying
//                   (no bytes move);
//   kCount        — the offset/prefix-sum pass plus destination-fragment
//                   pre-sizing between the two morsel phases (parallel
//                   over destinations, includes per-(src, dst) metering);
//   kCopy         — phase 2: morsel-parallel bulk memcpy of tuples into
//                   their final positions, write-combining at large p
//                   (includes Broadcast payload construction);
//   kLocalCompute — per-server algorithm work (local joins, sorts, block
//                   multiplies), whether inside or after a metered round;
//   kTranspose    — nothing records this phase: no metered path converts
//                   between row and column layouts, so it always reads 0.
//                   The slot is kept so phase indices and the reported
//                   `transpose` field keep their meaning for readers;
//   kColumnarScan — distributed group-by / SUM scans whose input is wide
//                   enough that UseColumnarScan compacts the columns they
//                   read, split out from kLocalCompute so the compaction
//                   shows in --stats.
enum class Phase {
  kRoute = 0,
  kCount = 1,
  kCopy = 2,
  kLocalCompute = 3,
  kTranspose = 4,
  kColumnarScan = 5,
};
inline constexpr int kNumPhases = 6;
const char* PhaseName(Phase phase);

// Always-on aggregate timing/volume metrics for one Cluster, the runtime
// complement of the deterministic CostReport: where CostReport answers
// "how many tuples moved" (and is bit-identical across thread counts),
// MpcMetrics answers "how long did it take and how was the time split
// across phases". Collection cost is a handful of steady-clock reads per
// round — it is never compiled out and never feeds back into results.
//
// Thread-safety: phase times and fragment peaks may be recorded from pool
// workers concurrently (atomics); Begin/EndRound follow Cluster's
// single-threaded round protocol.
class MpcMetrics {
 public:
  // Wall time and per-phase breakdown of one metered round, aligned 1:1
  // with CostReport::rounds().
  struct RoundRecord {
    std::string label;
    double wall_ms = 0;
    double phase_ms[kNumPhases] = {};
    // COW payload clones forced during the round (see TraceCounters).
    int64_t cow_detaches = 0;
    // Largest destination fragment (rows) built by an exchange this round.
    int64_t peak_fragment_rows = 0;
  };

  MpcMetrics();

  void BeginRound(const std::string& label);
  void EndRound();

  // Adds `nanos` to `phase` of the current round, or to the outside-round
  // bucket when no round is open (e.g. post-shuffle local joins).
  void AddPhaseNanos(Phase phase, int64_t nanos);
  // Records a destination-fragment size; kept as a running max.
  void RecordFragmentRows(int64_t rows);

  // Records one planner invocation (ExecutePlannedQuery calls this): time
  // spent planning and whether the plan cache served it. Cache-hit counts
  // are the observable proof that warm queries skip enumeration.
  void RecordPlanning(double planning_ms, bool cache_hit);

  // --- Per-cluster COW attribution (multi-query serving) ---
  // The counters a Cluster's ExecContext points at: while the cluster's
  // ScopedExecution is installed, Relation::Mutable() charges its COW
  // detaches here (as well as to the process-wide TraceCounters).
  std::atomic<int64_t>& attributed_cow_detaches() { return local_detaches_; }
  std::atomic<int64_t>& attributed_cow_detach_bytes() {
    return local_detach_bytes_;
  }
  // Switches per-round and total detach accounting from the legacy
  // process-wide snapshot diff to the attributed counters above. Sticky
  // until Reset(); Cluster::ScopedExecution sets it, so any cluster
  // executed under a scope reports exactly its own detaches even with
  // other queries detaching concurrently.
  void EnableCowAttribution();
  bool cow_attribution_enabled() const { return attributed_; }

  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  double outside_phase_ms(Phase phase) const;
  double planning_ms() const { return planning_ms_; }
  int64_t plan_cache_hits() const { return plan_cache_hits_; }
  int64_t plan_cache_misses() const { return plan_cache_misses_; }
  int64_t peak_fragment_rows() const {
    return peak_fragment_rows_.load(std::memory_order_relaxed);
  }
  // COW detaches since construction/Reset. With cow_attribution_enabled()
  // this is exactly the detaches charged to THIS cluster's queries (the
  // serving runtime's per-query isolation); otherwise it is the legacy
  // process-wide counter delta, where concurrent clusters see each
  // other's detaches (fine for the single-query tools and tests).
  int64_t total_cow_detaches() const;

  // Forgets all records (paired with Cluster::ResetCosts).
  void Reset();

 private:
  // The detach counter rounds and totals diff against: the attributed
  // local counter when attribution is on, TraceCounters otherwise.
  int64_t DetachesNow() const;

  std::vector<RoundRecord> rounds_;
  bool in_round_ = false;
  RoundRecord current_;
  int64_t round_start_ns_ = 0;
  int64_t round_start_detaches_ = 0;
  int64_t baseline_detaches_ = 0;
  bool attributed_ = false;
  std::atomic<int64_t> local_detaches_{0};
  std::atomic<int64_t> local_detach_bytes_{0};
  std::atomic<int64_t> current_phase_ns_[kNumPhases];
  std::atomic<int64_t> outside_phase_ns_[kNumPhases];
  std::atomic<int64_t> peak_fragment_rows_{0};
  std::atomic<int64_t> current_peak_rows_{0};
  double planning_ms_ = 0;
  int64_t plan_cache_hits_ = 0;
  int64_t plan_cache_misses_ = 0;
};

// RAII phase timer; records the scope's wall time into `metrics`.
class ScopedPhaseTimer {
 public:
  ScopedPhaseTimer(MpcMetrics& metrics, Phase phase);
  ~ScopedPhaseTimer();

  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  MpcMetrics& metrics_;
  Phase phase_;
  int64_t start_ns_;
};

// The machine-readable run summary: the CostReport's (L, r) extended with
// wall time, bytes moved, phase breakdowns, peak fragment sizes, and COW
// detach counts. Built by zipping Cluster::cost_report() with
// Cluster::metrics().
struct StatsReport {
  struct Round {
    std::string label;
    int64_t max_tuples_received = 0;
    int64_t total_tuples_received = 0;
    int64_t max_values_received = 0;
    int64_t total_values_received = 0;
    int64_t bytes_received = 0;  // total_values_received * sizeof(Value)
    double wall_ms = 0;
    double phase_ms[kNumPhases] = {};
    int64_t cow_detaches = 0;
    int64_t peak_fragment_rows = 0;
  };

  std::vector<Round> rounds;
  int num_rounds = 0;            // r
  int64_t max_load_tuples = 0;   // L (tuples)
  int64_t max_load_values = 0;   // L (values)
  int64_t total_comm_tuples = 0;
  int64_t total_bytes = 0;
  double total_wall_ms = 0;  // Round walls + outside-round phase time.
  double planning_ms = 0;    // Time inside PlanQuery (not in total_wall_ms).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  double outside_phase_ms[kNumPhases] = {};
  int64_t cow_detaches = 0;
  int64_t peak_fragment_rows = 0;
  // The SIMD level the hot-loop kernels dispatched to (simd::DispatchedIsa
  // at report-build time): "scalar", "neon", or "avx2". Recorded
  // so wall-time trajectories are comparable across boxes — a kernel can
  // only be judged against runs at the same level.
  std::string simd_isa;

  // Pretty-printed JSON object (the --stats sink and the BenchJson field).
  std::string ToJson() const;
};

StatsReport BuildStatsReport(const Cluster& cluster);
Status WriteStatsJson(const StatsReport& report, const std::string& path);

}  // namespace mpcqp

#endif  // MPCQP_MPC_METRICS_H_
