#ifndef MPCQP_MPC_CLUSTER_H_
#define MPCQP_MPC_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "mpc/cost.h"
#include "mpc/metrics.h"

namespace mpcqp {

class DistRelation;

// Execution knobs for a simulated cluster.
struct ClusterOptions {
  // Degree of real parallelism used to execute a round: exchange routing
  // and per-server local compute fan out over this many OS threads via
  // Cluster::pool(). The value never changes results — outputs and the
  // CostReport are bit-identical for every thread count (see DESIGN.md,
  // "Execution model"); 1 reproduces the historic single-threaded run.
  int num_threads = 1;
  // Rows per exchange morsel: the two-phase routers tile their route and
  // copy passes over (source, row-range) morsels of at most this many
  // rows, decoupling the parallelism grain from the server count p. Must
  // be >= 1. Like num_threads, the value never changes results — the
  // morsel decomposition derives from input sizes only, and counts
  // aggregate in fixed morsel order (see DESIGN.md, "Execution model").
  int64_t morsel_rows = 8192;
  // When set, the cluster ATTACHES to this pool instead of spawning its
  // own threads, and num_threads is ignored. Any number of logical
  // clusters may attach to one pool — this is how N in-flight queries
  // interleave their morsels on one process-wide work-stealing pool (the
  // serving runtime; see DESIGN.md, "Serving runtime"). Everything that
  // carries query state — cost shards, the hash-seed sequence, metrics —
  // stays strictly per-Cluster, so concurrent queries produce outputs and
  // CostReports bit-identical to their solo runs.
  std::shared_ptr<ThreadPool> shared_pool;
};

// A simulated shared-nothing MPC cluster of p servers.
//
// The cluster does not own data (DistRelation does); it owns the round
// structure, the communication meter, and a handle to the thread pool
// that algorithms use to execute one round's per-server work on real
// cores — a private pool by default, or a process-wide shared pool when
// ClusterOptions::shared_pool is set (many clusters, one pool: the
// multi-query serving configuration).
//
// Round semantics: by default each exchange primitive opens and closes its
// own round. An algorithm that performs several exchanges in one logical
// MPC round (e.g. repartitioning both join inputs) brackets them with
// BeginRound/EndRound; the costs then accumulate into a single RoundCost.
class Cluster {
 public:
  // `seed` derives all hash functions handed out by NewHashFunction, so a
  // run is reproducible given (p, seed) — and, by the determinism
  // contract, independent of options.num_threads.
  Cluster(int num_servers, uint64_t seed, ClusterOptions options = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_servers() const { return num_servers_; }
  int num_threads() const { return pool_->num_threads(); }
  int64_t morsel_rows() const { return morsel_rows_; }

  // The pool algorithms use for parallel per-server work within a round.
  // With num_threads == 1 every ParallelFor runs inline on the caller.
  ThreadPool& pool() { return *pool_; }

  // A fresh hash function, independent (by seed) from previous ones.
  //
  // Contract: not thread-safe, and deliberately so — the seed sequence is
  // part of the determinism contract, and a draw whose position depended
  // on thread scheduling would change results across runs. Calling this
  // from inside a parallel loop body CHECK-fails (at every thread count,
  // including 1, so the misuse cannot hide in serial test runs). The
  // check is thread-scoped, not pool-scoped: on a shared pool, another
  // cluster's in-flight loops never trip it.
  // Draw hash functions before fanning out and copy them into tasks;
  // HashFunction is a trivially copyable value type.
  HashFunction NewHashFunction();

  // Opens a round. It is an error to open a round while one is open.
  void BeginRound(std::string label);
  // Closes the current round and appends its cost to the report. Shard
  // counters are merged here in fixed shard order; integer sums make the
  // result independent of which thread metered which message.
  void EndRound();
  bool in_round() const { return in_round_; }

  // Meters `tuples` tuples (`values` values total) moving src -> dst in the
  // current round. Self-messages (src == dst) are counted too: MPC load
  // bounds measure data a server must hold for the round, regardless of
  // origin. Requires an open round. Thread-safe: concurrent calls from
  // pool workers accumulate into per-thread shards.
  void RecordMessage(int src, int dst, int64_t tuples, int64_t values);

  // Called with every exchange primitive's routed output, on the calling
  // thread, after the copy and before the primitive returns: the routed
  // fragments of an algorithm's exchanges are otherwise local to it. Tests
  // fold them into byte checksums (tests/routed_golden_test.cc). Unset by
  // default; the routed bytes are the same either way.
  using ExchangeObserver = std::function<void(const DistRelation& routed)>;
  void set_exchange_observer(ExchangeObserver observer) {
    exchange_observer_ = std::move(observer);
  }
  void ObserveExchange(const DistRelation& routed) const {
    if (exchange_observer_) exchange_observer_(routed);
  }

  const CostReport& cost_report() const { return report_; }
  // Forgets all recorded rounds (e.g. between benchmark repetitions); also
  // resets the timing metrics below.
  void ResetCosts();

  // Always-on runtime metrics (wall time per round, per-phase breakdown,
  // peak fragment sizes, COW detaches), aligned 1:1 with cost_report()'s
  // rounds. See mpc/metrics.h; BuildStatsReport(cluster) zips the two.
  MpcMetrics& metrics() { return metrics_; }
  const MpcMetrics& metrics() const { return metrics_; }

  // Marks the calling thread (and, via ThreadPool's ExecContext
  // propagation, every task its parallel loops fan out) as executing on
  // behalf of this cluster, for the scope's lifetime. Required for exact
  // per-query COW-detach metrics when several clusters share one pool;
  // harmless (and a no-op for results) when the cluster owns its pool.
  // The first scope switches the cluster's metrics to attributed detach
  // accounting (see MpcMetrics::EnableCowAttribution).
  class ScopedExecution {
   public:
    explicit ScopedExecution(Cluster& cluster)
        : scope_(&cluster.exec_context_) {
      cluster.metrics_.EnableCowAttribution();
    }

    ScopedExecution(const ScopedExecution&) = delete;
    ScopedExecution& operator=(const ScopedExecution&) = delete;

   private:
    ExecContextScope scope_;
  };

 private:
  struct CostShard;

  int num_servers_;
  int64_t morsel_rows_;
  uint64_t next_seed_;
  bool in_round_ = false;
  RoundCost current_round_{0};
  CostReport report_;
  MpcMetrics metrics_;
  ExecContext exec_context_;
  ExchangeObserver exchange_observer_;
  // Owned or shared with other clusters (ClusterOptions::shared_pool).
  std::shared_ptr<ThreadPool> pool_;
  // One shard per pool slot (worker threads + the caller); RecordMessage
  // picks the calling thread's shard, EndRound folds them into the round.
  std::vector<std::unique_ptr<CostShard>> shards_;
};

// Opens a round on construction (unless one is already open) and closes it
// on destruction if it opened one. Lets exchange primitives run standalone
// or merged into a caller's round with no duplicated logic.
class RoundScope {
 public:
  RoundScope(Cluster& cluster, std::string label);
  ~RoundScope();

  RoundScope(const RoundScope&) = delete;
  RoundScope& operator=(const RoundScope&) = delete;

 private:
  Cluster& cluster_;
  bool owns_round_;
};

}  // namespace mpcqp

#endif  // MPCQP_MPC_CLUSTER_H_
