// Local-compute kernel throughput: the flat arena KeyIndex and the
// parallel sort kernel against embedded "legacy" baselines — the seed
// node-based unordered_map index and the serial std::sort row sorter.
// Both baselines are kept here verbatim (not in src/) so the speedup of
// the kernel overhaul stays measurable release over release, exactly like
// bench_exchange does for the data plane.
//
// Inputs are p=64-scale: the row counts a single server sees in the
// 64-server experiments after a shuffle. Emits BENCH_local_ops.json with
// <kernel>_t<T>_{new,legacy}_tps and _speedup keys; CI runs this binary
// as a Release smoke test and fails if the flat KeyIndex loses to the
// legacy index at 8 threads.
//
// A second, report-only row (key_index_small, no gate) times the
// per-server builds of a serving join: build plus probe over 64 fragments
// of 3,125 rows each at 1 thread, in microseconds per fragment.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/hash.h"
#include "common/parallel_sort.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "relation/key_index.h"
#include "relation/relation.h"
#include "relation/relation_view.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

// The seed index, verbatim: bucket hash -> list of per-key row-index
// groups, one heap node per bucket and per group.
class LegacyKeyIndex {
 public:
  LegacyKeyIndex(RelationView view, std::vector<int> key_cols)
      : view_(view), key_cols_(std::move(key_cols)) {
    std::vector<Value> key(key_cols_.size());
    for (int64_t r = 0; r < view_.size(); ++r) {
      const Value* row = view_.row(r);
      for (size_t i = 0; i < key_cols_.size(); ++i) key[i] = row[key_cols_[i]];
      const uint64_t h = HashKey(key.data());
      std::vector<std::vector<int64_t>>& groups = buckets_[h];
      bool placed = false;
      for (std::vector<int64_t>& group : groups) {
        const Value* rep = view_.row(group.front());
        bool same = true;
        for (int c : key_cols_) {
          if (rep[c] != row[c]) {
            same = false;
            break;
          }
        }
        if (same) {
          group.push_back(r);
          placed = true;
          break;
        }
      }
      if (!placed) groups.push_back({r});
    }
  }

  const std::vector<int64_t>& Lookup(const Value* key) const {
    const auto it = buckets_.find(HashKey(key));
    if (it == buckets_.end()) return empty_;
    for (const std::vector<int64_t>& group : it->second) {
      const Value* rep = view_.row(group.front());
      bool same = true;
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        if (rep[key_cols_[i]] != key[i]) {
          same = false;
          break;
        }
      }
      if (same) return group;
    }
    return empty_;
  }

  int64_t num_distinct_keys() const {
    int64_t n = 0;
    for (const auto& [h, groups] : buckets_) {
      n += static_cast<int64_t>(groups.size());
    }
    return n;
  }

 private:
  uint64_t HashKey(const Value* key) const {
    static const HashFunction kHash(0x1d8af066u);  // == KeyIndex's seed.
    return kHash.HashSpan(key, static_cast<int>(key_cols_.size()));
  }

  RelationView view_;
  std::vector<int> key_cols_;
  std::unordered_map<uint64_t, std::vector<std::vector<int64_t>>> buckets_;
  std::vector<int64_t> empty_;
};

// The seed row sorter, verbatim: serial index sort + serial gather.
void LegacySortRows(int arity, std::vector<Value>& data,
                    const std::vector<int>& key_cols) {
  const int64_t n = static_cast<int64_t>(data.size()) / arity;
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const Value* ra = data.data() + static_cast<size_t>(a) * arity;
    const Value* rb = data.data() + static_cast<size_t>(b) * arity;
    for (int c : key_cols) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    for (int c = 0; c < arity; ++c) {
      if (ra[c] != rb[c]) return ra[c] < rb[c];
    }
    return false;
  });
  std::vector<Value> sorted;
  sorted.reserve(data.size());
  for (int64_t i : order) {
    const Value* r = data.data() + static_cast<size_t>(i) * arity;
    sorted.insert(sorted.end(), r, r + arity);
  }
  data = std::move(sorted);
}

// Build + full probe pass through the flat index; returns the probe
// checksum (sum of group sizes) so the work cannot be optimized away.
int64_t RunNewKeyIndex(const Relation& build, const Relation& probe,
                       ThreadPool* pool) {
  KeyIndex index(build, {0}, pool);
  int64_t matched = 0;
  for (int64_t i = 0; i < probe.size(); ++i) {
    matched += static_cast<int64_t>(index.Lookup(probe.row(i)).size());
  }
  return matched;
}

int64_t RunLegacyKeyIndex(const Relation& build, const Relation& probe) {
  LegacyKeyIndex index(build, {0});
  int64_t matched = 0;
  for (int64_t i = 0; i < probe.size(); ++i) {
    matched += static_cast<int64_t>(index.Lookup(probe.row(i)).size());
  }
  return matched;
}

// Best-of-`reps` throughput in rows/sec.
template <typename Fn>
double MeasureTps(int64_t rows, int reps, const Fn& run) {
  double best_ms = -1;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    run();
    const double ms = timer.ElapsedMs();
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
  }
  return static_cast<double>(rows) / (best_ms / 1000.0);
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;
  constexpr int kReps = 3;
  constexpr int64_t kRows = 400000;  // p=64-scale local fragment work.
  const int kThreads[] = {1, 8};

  bench::Banner("Local-compute kernels (rows/sec, best of 3)");
  bench::Table table(
      {"kernel", "threads", "new tps", "legacy tps", "speedup"});
  bench::BenchJson json("local_ops");
  json.Set("reps", kReps);
  json.Set("rows", kRows);

  // Build side: ~4 rows per key; probe side: same domain, ~70% hit rate.
  Rng rng(1234);
  const Relation build = GenerateUniform(rng, kRows, 2, kRows / 4);
  const Relation probe = GenerateUniform(rng, kRows, 2, (kRows / 4) * 3 / 2);
  const Relation unsorted = GenerateUniform(rng, kRows, 2, 1u << 31);

  // Sanity: the flat index and the legacy index must agree on the probe
  // checksum and the distinct-key count before any timing matters.
  {
    ThreadPool pool(8);
    const int64_t got = RunNewKeyIndex(build, probe, &pool);
    const int64_t want = RunLegacyKeyIndex(build, probe);
    KeyIndex index(build, {0}, &pool);
    LegacyKeyIndex legacy(build, {0});
    if (got != want ||
        index.num_distinct_keys() != legacy.num_distinct_keys()) {
      std::fprintf(stderr,
                   "FATAL: KeyIndex new/legacy disagree "
                   "(matched %lld vs %lld, keys %lld vs %lld)\n",
                   static_cast<long long>(got), static_cast<long long>(want),
                   static_cast<long long>(index.num_distinct_keys()),
                   static_cast<long long>(legacy.num_distinct_keys()));
      return 1;
    }
  }
  {
    std::vector<Value> a = unsorted.data();
    std::vector<Value> b = unsorted.data();
    ThreadPool pool(8);
    SortRowsBuffer(&pool, 2, a, {0});
    LegacySortRows(2, b, {0});
    if (a != b) {
      std::fprintf(stderr, "FATAL: sort kernel new/legacy outputs differ\n");
      return 1;
    }
  }

  double key_index_speedup_t8 = 0;
  for (const int threads : kThreads) {
    ThreadPool pool(threads);

    // KeyIndex: one build plus one full probe pass per repetition.
    const double new_tps = MeasureTps(2 * kRows, kReps, [&] {
      RunNewKeyIndex(build, probe, &pool);
    });
    const double legacy_tps = MeasureTps(2 * kRows, kReps, [&] {
      RunLegacyKeyIndex(build, probe);
    });
    const double speedup = new_tps / legacy_tps;
    if (threads == 8) key_index_speedup_t8 = speedup;
    table.AddRow({"key_index", std::to_string(threads),
                  bench::Fmt(new_tps / 1e6, 2) + "M",
                  bench::Fmt(legacy_tps / 1e6, 2) + "M",
                  bench::Fmt(speedup, 2) + "x"});
    const std::string key = "key_index_t" + std::to_string(threads);
    json.Set(key + "_new_tps", new_tps);
    json.Set(key + "_legacy_tps", legacy_tps);
    json.Set(key + "_speedup", speedup);

    // Sort kernel: one full row sort per repetition (the copy into the
    // working buffer is inside the timed region for both sides alike).
    const double sort_new_tps = MeasureTps(kRows, kReps, [&] {
      std::vector<Value> data = unsorted.data();
      SortRowsBuffer(&pool, 2, data, {0});
    });
    const double sort_legacy_tps = MeasureTps(kRows, kReps, [&] {
      std::vector<Value> data = unsorted.data();
      LegacySortRows(2, data, {0});
    });
    const double sort_speedup = sort_new_tps / sort_legacy_tps;
    table.AddRow({"sort", std::to_string(threads),
                  bench::Fmt(sort_new_tps / 1e6, 2) + "M",
                  bench::Fmt(sort_legacy_tps / 1e6, 2) + "M",
                  bench::Fmt(sort_speedup, 2) + "x"});
    const std::string skey = "sort_t" + std::to_string(threads);
    json.Set(skey + "_new_tps", sort_new_tps);
    json.Set(skey + "_legacy_tps", sort_legacy_tps);
    json.Set(skey + "_speedup", sort_speedup);
  }

  table.Print();

  // key_index_small: one server's hash join in a 200K-row, p = 64 serving
  // join (3,125 rows per side, keys over 500K values), best of 10 passes
  // over 64 such fragments.
  {
    constexpr int kFragments = 64;
    constexpr int kSmallReps = 10;
    constexpr int64_t kFragmentRows = 3125;
    std::vector<Relation> builds, probes;
    for (int f = 0; f < kFragments; ++f) {
      builds.push_back(GenerateUniform(rng, kFragmentRows, 2, 500000));
      probes.push_back(GenerateUniform(rng, kFragmentRows, 2, 500000));
    }
    const auto us_per_fragment = [&](const auto& run_fragment) {
      const double tps = MeasureTps(kFragments, kSmallReps, [&] {
        for (int f = 0; f < kFragments; ++f) run_fragment(f);
      });
      return 1e6 / tps;
    };
    const double new_us = us_per_fragment(
        [&](int f) { RunNewKeyIndex(builds[f], probes[f], nullptr); });
    const double legacy_us = us_per_fragment(
        [&](int f) { RunLegacyKeyIndex(builds[f], probes[f]); });
    std::printf(
        "key_index_small (64 x 3,125-row fragments, t=1, report only): "
        "%.1f us/fragment build+probe (legacy %.1f)\n",
        new_us, legacy_us);
    json.Set("key_index_small_t1_us_per_fragment", new_us);
    json.Set("key_index_small_t1_legacy_us_per_fragment", legacy_us);
  }
  json.Write();

  // CI gate: the flat index must not lose to the node-based one with the
  // full pool available.
  if (key_index_speedup_t8 < 1.0) {
    std::fprintf(stderr,
                 "FATAL: flat KeyIndex slower than legacy at 8 threads "
                 "(%.2fx)\n",
                 key_index_speedup_t8);
    return 1;
  }
  return 0;
}
