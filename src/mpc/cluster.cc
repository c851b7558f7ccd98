#include "mpc/cluster.h"

#include <mutex>
#include <utility>

#include "common/check.h"

namespace mpcqp {

// Per-thread accumulator for one round's message counts. Each vector is
// indexed by server id; the mutex makes the shard safe even if a foreign
// thread ever lands on it (the expected callers — one pool worker per
// shard — never contend).
struct Cluster::CostShard {
  std::mutex mu;
  std::vector<int64_t> tuples_sent;
  std::vector<int64_t> values_sent;
  std::vector<int64_t> tuples_received;
  std::vector<int64_t> values_received;

  explicit CostShard(int num_servers)
      : tuples_sent(num_servers, 0),
        values_sent(num_servers, 0),
        tuples_received(num_servers, 0),
        values_received(num_servers, 0) {}
};

Cluster::Cluster(int num_servers, uint64_t seed, ClusterOptions options)
    : num_servers_(num_servers),
      morsel_rows_(options.morsel_rows),
      next_seed_(seed) {
  MPCQP_CHECK_GT(num_servers, 0);
  MPCQP_CHECK_GE(options.morsel_rows, 1)
      << "ClusterOptions::morsel_rows must be >= 1";
  pool_ = options.shared_pool
              ? options.shared_pool
              : std::make_shared<ThreadPool>(options.num_threads);
  exec_context_.cow_detaches = &metrics_.attributed_cow_detaches();
  exec_context_.cow_detach_bytes = &metrics_.attributed_cow_detach_bytes();
  // Shard 0 belongs to non-worker callers (query driver threads); shard
  // w + 1 to pool worker w. The shards are per-cluster even when the pool
  // is shared: a worker metering cluster A's morsel writes into A's shard
  // for its pool-scoped index, so concurrent queries never mix counts.
  shards_.reserve(static_cast<size_t>(pool_->num_threads()));
  for (int i = 0; i < pool_->num_threads(); ++i) {
    shards_.push_back(std::make_unique<CostShard>(num_servers_));
  }
}

Cluster::~Cluster() = default;

HashFunction Cluster::NewHashFunction() {
  // The seed counter is deliberately plain state: handing out hash
  // functions from inside a parallel region would both race and make the
  // sequence depend on scheduling, breaking run-to-run determinism. Fail
  // fast instead of corrupting silently.
  MPCQP_CHECK(!ThreadPool::CallingThreadInParallelRegion())
      << "NewHashFunction called inside a parallel region; draw hash "
         "functions before fanning out (they are cheap to copy into tasks)";
  // Stride the seed space; HashFunction whitens the seed again.
  next_seed_ += 0x9e3779b97f4a7c15ULL;
  return HashFunction(next_seed_);
}

void Cluster::BeginRound(std::string label) {
  MPCQP_CHECK(!in_round_) << "BeginRound while a round is open";
  in_round_ = true;
  metrics_.BeginRound(label);
  current_round_ = RoundCost(num_servers_, std::move(label));
}

void Cluster::EndRound() {
  MPCQP_CHECK(in_round_) << "EndRound without an open round";
  in_round_ = false;
  // Fold the shards into the round in fixed (shard-index) order and reset
  // them for the next round. The entries are exact integer sums, so the
  // merged RoundCost is identical no matter how work was spread over
  // threads — this is the determinism contract of the cost meter.
  for (const std::unique_ptr<CostShard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (int s = 0; s < num_servers_; ++s) {
      current_round_.tuples_sent[s] += shard->tuples_sent[s];
      current_round_.values_sent[s] += shard->values_sent[s];
      current_round_.tuples_received[s] += shard->tuples_received[s];
      current_round_.values_received[s] += shard->values_received[s];
      shard->tuples_sent[s] = 0;
      shard->values_sent[s] = 0;
      shard->tuples_received[s] = 0;
      shard->values_received[s] = 0;
    }
  }
  report_.AddRound(std::move(current_round_));
  current_round_ = RoundCost(0);
  metrics_.EndRound();
}

void Cluster::RecordMessage(int src, int dst, int64_t tuples, int64_t values) {
  MPCQP_CHECK(in_round_) << "RecordMessage outside a round";
  MPCQP_CHECK_GE(src, 0);
  MPCQP_CHECK_LT(src, num_servers_);
  MPCQP_CHECK_GE(dst, 0);
  MPCQP_CHECK_LT(dst, num_servers_);
  int index = ThreadPool::current_worker_index() + 1;
  if (index < 0 || index >= static_cast<int>(shards_.size())) index = 0;
  CostShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.tuples_sent[src] += tuples;
  shard.values_sent[src] += values;
  shard.tuples_received[dst] += tuples;
  shard.values_received[dst] += values;
}

void Cluster::ResetCosts() {
  MPCQP_CHECK(!in_round_) << "ResetCosts during a round";
  report_.Clear();
  metrics_.Reset();
}

RoundScope::RoundScope(Cluster& cluster, std::string label)
    : cluster_(cluster), owns_round_(!cluster.in_round()) {
  if (owns_round_) cluster_.BeginRound(std::move(label));
}

RoundScope::~RoundScope() {
  if (owns_round_) cluster_.EndRound();
}

}  // namespace mpcqp
