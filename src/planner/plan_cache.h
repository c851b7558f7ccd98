#ifndef MPCQP_PLANNER_PLAN_CACHE_H_
#define MPCQP_PLANNER_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "planner/planner.h"
#include "query/query.h"

namespace mpcqp {

// Cache of enumerated plans keyed by canonical query shape + cluster size
// + planner options, guarded by relation statistics: an entry only hits
// while the per-atom sizes match the ones it was planned against; a size
// change invalidates (drops) the entry and replans.
//
// Plans are stored in the *canonical* atom space of the shape, so any
// isomorphic query (same shape under atom reordering / variable renaming)
// hits and gets the join order remapped through its own atom permutation.
// The executable tree is rebuilt from the remapped fields on every hit —
// rebuilding is O(atoms), the savings are the stats scan and the DP.
//
// Thread-safe and sharded: the serving runtime shares one PlanCache
// across all in-flight queries, so the map is split into kNumShards
// independently locked shards (keyed by a hash of the cache key) —
// lookups for different shapes never contend. Counters aggregate across
// shards on read.
class PlanCache {
 public:
  struct Counters {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
  };

  // Returns true and fills `plan` (remapped into q's atom space, tree
  // rebuilt) when a fresh entry matches. A stale entry (sizes changed) is
  // dropped and counted as an invalidation + miss.
  bool Lookup(const ConjunctiveQuery& q, const CanonicalQueryShape& shape,
              const std::vector<int64_t>& sizes, int p,
              const PlannerOptions& options, EnumeratedPlan* plan);

  // Stores a freshly enumerated plan (given in q's atom space) under the
  // shape's canonical space. Overwrites any existing entry for the key.
  // A kBigJoin plan is not stored: it needs duplicate-free inputs, which
  // the size-only key cannot check.
  void Insert(const ConjunctiveQuery& q, const CanonicalQueryShape& shape,
              const std::vector<int64_t>& sizes, int p,
              const PlannerOptions& options, const EnumeratedPlan& plan);

  Counters counters() const;
  int64_t size() const;
  void Clear();

 private:
  struct Entry {
    std::vector<int64_t> size_fingerprint;  // Sizes in canonical order.
    PlanAlgorithm family = PlanAlgorithm::kHyperCube;
    std::vector<int> canonical_order;  // kBinaryPlan: canonical atom ids.
    bool skew_aware = false;
    double estimated_load = 0.0;
    int estimated_rounds = 0;
    double total_cost = 0.0;
    std::string rationale;
    std::vector<double> step_est_rows;
  };

  static constexpr int kNumShards = 8;

  struct Shard {
    mutable std::mutex mutex;
    std::map<std::string, Entry> entries;
    Counters counters;
  };

  Shard& ShardFor(const std::string& key);

  Shard shards_[kNumShards];
};

}  // namespace mpcqp

#endif  // MPCQP_PLANNER_PLAN_CACHE_H_
