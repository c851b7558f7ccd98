#include "sort/psrs.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"

namespace mpcqp {

int CompareRowsOnKey(const Value* a, const Value* b,
                     const std::vector<int>& key_cols) {
  for (int c : key_cols) {
    if (a[c] != b[c]) return a[c] < b[c] ? -1 : 1;
  }
  return 0;
}

namespace {

// Extracts the key columns of `row` as a vector.
std::vector<Value> KeyOf(const Value* row, const std::vector<int>& key_cols) {
  std::vector<Value> key(key_cols.size());
  for (size_t i = 0; i < key_cols.size(); ++i) key[i] = row[key_cols[i]];
  return key;
}

int CompareKeyToRow(const std::vector<Value>& key, const Value* row,
                    const std::vector<int>& key_cols) {
  for (size_t i = 0; i < key_cols.size(); ++i) {
    const Value rv = row[key_cols[i]];
    if (key[i] != rv) return key[i] < rv ? -1 : 1;
  }
  return 0;
}

}  // namespace

PsrsResult PsrsSort(Cluster& cluster, const DistRelation& rel,
                    const PsrsOptions& options, Rng* rng) {
  MPCQP_CHECK(!options.key_cols.empty());
  for (int c : options.key_cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, rel.arity());
  }
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  MPCQP_TRACE_SCOPE("psrs", "algorithm");

  // Local sort (free compute, one pool task per server), then per-server
  // splitter candidates. Candidate selection stays serial: in sampling
  // mode it draws from the shared Rng sequentially, and its cost is O(p).
  DistRelation local = rel;
  {
    ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
    cluster.pool().ParallelFor(p, [&](int64_t s) {
      MPCQP_TRACE_SCOPE_ARG("local sort", "compute", s);
      // Pass the pool through: when fragments outnumber threads the sort
      // kernel stays serial per fragment, but idle workers (p < threads,
      // or straggler fragments) pick up chunk-sort/merge subtasks.
      local.fragment(s).SortRowsBy(options.key_cols, &cluster.pool());
    });
  }

  DistRelation candidates(rel.arity(), p);
  const int per_server = options.use_sampling && options.samples_per_server > 0
                             ? options.samples_per_server
                             : p - 1;
  for (int s = 0; s < p; ++s) {
    const Relation& frag = local.fragment(s);
    if (frag.empty()) continue;
    Relation& out = candidates.fragment(s);
    if (options.use_sampling) {
      MPCQP_CHECK(rng != nullptr) << "sampling mode needs an Rng";
      for (int i = 0; i < per_server; ++i) {
        out.AppendRowFrom(frag,
                          static_cast<int64_t>(rng->Uniform(
                              static_cast<uint64_t>(frag.size()))));
      }
    } else {
      // Regular sample: the (i+1) * n/p -th elements of the sorted run.
      for (int i = 0; i < per_server; ++i) {
        const int64_t pos = std::min<int64_t>(
            frag.size() - 1, (static_cast<int64_t>(i) + 1) * frag.size() / p);
        out.AppendRowFrom(frag, pos);
      }
    }
  }

  // Round 1: every server receives every sample and computes splitters
  // deterministically.
  DistRelation all_samples =
      Broadcast(cluster, candidates, "psrs: sample broadcast");
  Relation sample_pool = all_samples.fragment(0);
  sample_pool.SortRowsBy(options.key_cols, &cluster.pool());

  std::vector<std::vector<Value>> splitters;
  const int64_t m = sample_pool.size();
  for (int i = 1; i < p; ++i) {
    if (m == 0) break;
    const int64_t pos = std::min<int64_t>(m - 1, i * m / p);
    splitters.push_back(KeyOf(sample_pool.row(pos), options.key_cols));
  }
  // Degenerate inputs (fewer samples than servers) can leave splitters
  // short; pad by repeating the last (empty upper servers are fine).
  while (static_cast<int>(splitters.size()) < p - 1) {
    splitters.push_back(splitters.empty()
                            ? std::vector<Value>(options.key_cols.size(), 0)
                            : splitters.back());
  }

  // Round 2: range partition by the composite splitters, then local sort.
  // One destination per row: the single-destination grid route.
  DistRelation sorted = RouteGrid(
      cluster, local,
      [&](const Relation& frag, int64_t begin, int64_t end, int32_t* dests) {
        for (int64_t i = begin; i < end; ++i) {
          const Value* row = frag.row(i);
          // First splitter strictly greater than the row key; ties go left
          // so that runs of equal keys stay on one server.
          int lo = 0;
          int hi = static_cast<int>(splitters.size());
          while (lo < hi) {
            const int mid = (lo + hi) / 2;
            // splitters[mid] > row ?
            if (CompareKeyToRow(splitters[mid], row, options.key_cols) > 0) {
              hi = mid;
            } else {
              lo = mid + 1;
            }
          }
          dests[i - begin] = lo;
        }
      },
      {0},
      "psrs: range partition");
  ScopedPhaseTimer local_phase(cluster.metrics(), Phase::kLocalCompute);
  cluster.pool().ParallelFor(p, [&](int64_t s) {
    MPCQP_TRACE_SCOPE_ARG("local sort", "compute", s);
    sorted.fragment(s).SortRowsBy(options.key_cols, &cluster.pool());
  });

  return PsrsResult{std::move(sorted), std::move(splitters)};
}

bool IsGloballySorted(const DistRelation& rel,
                      const std::vector<int>& key_cols) {
  const Value* prev = nullptr;
  for (int s = 0; s < rel.num_servers(); ++s) {
    const Relation& frag = rel.fragment(s);
    for (int64_t i = 0; i < frag.size(); ++i) {
      const Value* cur = frag.row(i);
      if (prev != nullptr && CompareRowsOnKey(prev, cur, key_cols) > 0) {
        return false;
      }
      prev = cur;
    }
  }
  return true;
}

}  // namespace mpcqp
