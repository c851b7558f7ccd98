// Data-plane throughput: tuples/sec through every exchange primitive, at
// p ∈ {4, 64} and threads ∈ {1, 8}, against the embedded per-source
// router — the pre-morsel two-phase data plane whose parallelism grain was
// one task per source fragment (per-tuple HashSpan calls, a heap-allocated
// cursor vector per copy task, serial O(p^2) presize, no write-combining).
// The baseline is kept here verbatim (not in src/) precisely so the gain
// of the morsel-driven rewrite stays measurable release over release.
//
// The skewed config (all rows on one source) is where per-source tasking
// degenerates to serial execution and morsel stealing must not.
//
// Emits BENCH_exchange.json with <prim>_p<P>_t<T>_{new,persrc}_tps and
// _speedup keys; CI runs this binary as a Release smoke test and fails
// the build if the morsel router loses to the baseline at t=8 (with a
// small tolerance for timer noise). The HyperCubeGrid row (RouteGrid on a
// 4 x 4 x 4 slab, p = 64 only) is reported but not gated; RouteGrid
// writes each slab once and shares it with the slab's other servers,
// while the baseline still writes all 4 copies, so that row's ratio also
// measures the copies saved.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"
#include "mpc/exchange.h"
#include "mpc/metrics.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"
#include "workload/generator.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

// ---------------------------------------------------------------------------
// The pre-morsel data plane, verbatim: two-phase index-routed exchange with
// one task per source fragment.
// ---------------------------------------------------------------------------

// The tuple being routed by the baseline: its source server and its row
// index within that source fragment (the library routers now pass these
// per morsel instead).
struct RouteContext {
  int src = 0;
  int64_t row = 0;
};

template <typename SingleTargetFn>
DistRelation PerSourceRouteSingle(Cluster& cluster, const DistRelation& rel,
                                  const SingleTargetFn& target,
                                  const std::string& label) {
  const int p = cluster.num_servers();
  RoundScope scope(cluster, label);

  const int arity = rel.arity();
  DistRelation out(arity, p);
  ThreadPool& pool = cluster.pool();

  // Phase 1: destinations + counts, one task per source.
  std::vector<std::vector<int32_t>> dest_of(p);
  std::vector<int64_t> counts(static_cast<size_t>(p) * p, 0);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kRoute);
    pool.ParallelFor(p, [&](int64_t task) {
      const int src = static_cast<int>(task);
      const Relation& frag = rel.fragment(src);
      std::vector<int32_t>& dests = dest_of[src];
      dests.resize(frag.size());
      int64_t* cnt = counts.data() + static_cast<size_t>(src) * p;
      RouteContext ctx;
      ctx.src = src;
      const int64_t n = frag.size();
      for (int64_t i = 0; i < n; ++i) {
        ctx.row = i;
        const int dst = target(ctx, frag.row(i));
        MPCQP_CHECK_GE(dst, 0);
        MPCQP_CHECK_LT(dst, p);
        dests[i] = dst;
        ++cnt[dst];
      }
      for (int dst = 0; dst < p; ++dst) {
        if (cnt[dst] > 0) {
          cluster.RecordMessage(src, dst, cnt[dst], cnt[dst] * arity);
        }
      }
    });
  }

  // Serial O(p^2) presize: src-major offsets, matching append order.
  std::vector<int64_t> offsets(static_cast<size_t>(p) * p);
  std::vector<Value*> base(p);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCount);
    int64_t peak = 0;
    for (int dst = 0; dst < p; ++dst) {
      int64_t total = 0;
      for (int src = 0; src < p; ++src) {
        offsets[static_cast<size_t>(src) * p + dst] = total;
        total += counts[static_cast<size_t>(src) * p + dst];
      }
      base[dst] = out.fragment(dst).ResizeRowsForOverwrite(total);
      peak = std::max(peak, total);
    }
    cluster.metrics().RecordFragmentRows(peak);
  }

  // Phase 2: bulk copy, one task per source, cursor vector per task.
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    pool.ParallelFor(p, [&](int64_t task) {
      const int src = static_cast<int>(task);
      const Relation& frag = rel.fragment(src);
      if (frag.empty()) return;
      std::vector<int64_t> cursor(
          offsets.begin() + static_cast<size_t>(src) * p,
          offsets.begin() + static_cast<size_t>(src + 1) * p);
      const std::vector<int32_t>& dests = dest_of[src];
      const Value* in = frag.row(0);
      const int64_t n = frag.size();
      for (int64_t i = 0; i < n; ++i, in += arity) {
        const int dst = dests[i];
        std::memcpy(base[dst] + cursor[dst] * arity, in,
                    static_cast<size_t>(arity) * sizeof(Value));
        ++cursor[dst];
      }
    });
  }
  return out;
}

template <typename MultiTargetFn>
DistRelation PerSourceRouteMulti(Cluster& cluster, const DistRelation& rel,
                                 const MultiTargetFn& targets,
                                 const std::string& label) {
  const int p = cluster.num_servers();
  RoundScope scope(cluster, label);

  const int arity = rel.arity();
  DistRelation out(arity, p);
  ThreadPool& pool = cluster.pool();

  std::vector<std::vector<int32_t>> dest_of(p);
  std::vector<std::vector<int64_t>> row_end(p);
  std::vector<int64_t> counts(static_cast<size_t>(p) * p, 0);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kRoute);
    pool.ParallelFor(p, [&](int64_t task) {
      const int src = static_cast<int>(task);
      const Relation& frag = rel.fragment(src);
      std::vector<int32_t>& flat = dest_of[src];
      std::vector<int64_t>& ends = row_end[src];
      ends.resize(frag.size());
      int64_t* cnt = counts.data() + static_cast<size_t>(src) * p;
      std::vector<int> dests;
      RouteContext ctx;
      ctx.src = src;
      const int64_t n = frag.size();
      for (int64_t i = 0; i < n; ++i) {
        ctx.row = i;
        dests.clear();
        targets(ctx, frag.row(i), dests);
        for (int dst : dests) {
          MPCQP_CHECK_GE(dst, 0);
          MPCQP_CHECK_LT(dst, p);
          flat.push_back(dst);
          ++cnt[dst];
        }
        ends[i] = static_cast<int64_t>(flat.size());
      }
      for (int dst = 0; dst < p; ++dst) {
        if (cnt[dst] > 0) {
          cluster.RecordMessage(src, dst, cnt[dst], cnt[dst] * arity);
        }
      }
    });
  }

  std::vector<int64_t> offsets(static_cast<size_t>(p) * p);
  std::vector<Value*> base(p);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCount);
    int64_t peak = 0;
    for (int dst = 0; dst < p; ++dst) {
      int64_t total = 0;
      for (int src = 0; src < p; ++src) {
        offsets[static_cast<size_t>(src) * p + dst] = total;
        total += counts[static_cast<size_t>(src) * p + dst];
      }
      base[dst] = out.fragment(dst).ResizeRowsForOverwrite(total);
      peak = std::max(peak, total);
    }
    cluster.metrics().RecordFragmentRows(peak);
  }

  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    pool.ParallelFor(p, [&](int64_t task) {
      const int src = static_cast<int>(task);
      const Relation& frag = rel.fragment(src);
      if (frag.empty()) return;
      std::vector<int64_t> cursor(
          offsets.begin() + static_cast<size_t>(src) * p,
          offsets.begin() + static_cast<size_t>(src + 1) * p);
      const std::vector<int32_t>& flat = dest_of[src];
      const std::vector<int64_t>& ends = row_end[src];
      const Value* in = frag.row(0);
      const int64_t n = frag.size();
      int64_t j = 0;
      for (int64_t i = 0; i < n; ++i, in += arity) {
        for (; j < ends[i]; ++j) {
          const int dst = flat[j];
          std::memcpy(base[dst] + cursor[dst] * arity, in,
                      static_cast<size_t>(arity) * sizeof(Value));
          ++cursor[dst];
        }
      }
    });
  }
  return out;
}

struct Primitive {
  std::string name;
  int64_t rows;  // Input size for this primitive (independent of p).
  // All rows on source 0 instead of block-scattered: the per-source
  // router's worst case (its parallel loops degenerate to one task).
  bool skewed = false;
  // Runs the library (morsel-driven) implementation.
  std::function<DistRelation(Cluster&, const DistRelation&)> run_new;
  // Same semantics through the embedded per-source router.
  std::function<DistRelation(Cluster&, const DistRelation&)> run_persrc;
  // Smallest p the primitive's destinations fit in.
  int min_servers = 1;
  // Whether the t=8 lose check below applies (report-only rows skip it).
  bool gated = true;
};

std::vector<Primitive> MakePrimitives() {
  std::vector<Primitive> prims;

  // Every primitive derives its routing from a fixed-seed hash so both
  // routers are comparable and repeatable.
  const HashFunction hash(0x5eedULL);

  const auto hash_new = [hash](Cluster& c, const DistRelation& rel) {
    return HashPartition(c, rel, {0}, hash, "bench");
  };
  const auto hash_persrc = [hash](Cluster& c, const DistRelation& rel) {
    const int p = c.num_servers();
    return PerSourceRouteSingle(
        c, rel,
        [&hash, p](const RouteContext&, const Value* row) {
          // Verbatim pre-morsel path: an out-of-line HashSpan call per
          // tuple (the morsel router batches these via BucketMany).
          return static_cast<int>(
              (static_cast<unsigned __int128>(hash.HashSpan(row, 1)) * p) >>
              64);
        },
        "bench");
  };
  prims.push_back({"HashPartition", 400000, false, hash_new, hash_persrc});
  prims.push_back({"HashPartitionSkew", 400000, true, hash_new, hash_persrc});

  prims.push_back(
      {"RangePartition", 400000, false,
       [](Cluster& c, const DistRelation& rel) {
         std::vector<Value> splitters;
         for (int s = 1; s < c.num_servers(); ++s) {
           splitters.push_back(static_cast<Value>(s) * 1000000 /
                               c.num_servers());
         }
         return RangePartition(c, rel, 0, splitters, "bench");
       },
       [](Cluster& c, const DistRelation& rel) {
         std::vector<Value> splitters;
         for (int s = 1; s < c.num_servers(); ++s) {
           splitters.push_back(static_cast<Value>(s) * 1000000 /
                               c.num_servers());
         }
         return PerSourceRouteSingle(
             c, rel,
             [&splitters](const RouteContext&, const Value* row) {
               const auto it = std::upper_bound(splitters.begin(),
                                                splitters.end(), row[0]);
               return static_cast<int>(it - splitters.begin());
             },
             "bench");
       }});

  // HyperCube-style multicast: each tuple goes to two hash-derived servers.
  prims.push_back(
      {"Route2", 200000, false,
       [hash](Cluster& c, const DistRelation& rel) {
         const int p = c.num_servers();
         return Route(
             c, rel,
             [&hash, p](int, const Relation& frag, int64_t begin,
                        int64_t end, RouteSink& sink) {
               for (int64_t i = begin; i < end; ++i) {
                 const Value* row = frag.row(i);
                 sink.Add(hash.Bucket(row[0], p));
                 sink.Add(hash.Bucket(row[1] + 1, p));
                 sink.EndRow();
               }
             },
             "bench");
       },
       [hash](Cluster& c, const DistRelation& rel) {
         const int p = c.num_servers();
         // Replicates the old public per-row Route() exactly: the user
         // callback is type-erased behind std::function (one indirect call
         // per row).
         const std::function<void(const Value*, std::vector<int>&)> fn =
             [&hash, p](const Value* row, std::vector<int>& dests) {
               dests.push_back(hash.Bucket(row[0], p));
               dests.push_back(hash.Bucket(row[1] + 1, p));
             };
         return PerSourceRouteMulti(
             c, rel,
             [&fn](const RouteContext&, const Value* row,
                   std::vector<int>& dests) { fn(row, dests); },
             "bench");
       }});

  // A HyperCube slab on a 4 x 4 x 4 grid (the triangle at p = 64): column
  // 0 fixes coordinate x, column 1 fixes y, and every tuple is multicast
  // over the 4 coordinates of the free z — 4 metered destinations per
  // tuple. RouteGrid copies each tuple once, to the slab's base, and hands
  // the other 3 servers handles to the base's fragment; the per-row
  // multicast baseline writes all 4 copies. Both deliver (and the rate
  // counts) 4 tuples per input tuple. Needs p >= 64; report-only (not
  // gated).
  const HashFunction hash_x(0x11ULL);
  const HashFunction hash_y(0x22ULL);
  prims.push_back(
      {"HyperCubeGrid", 200000, false,
       [hash_x, hash_y](Cluster& c, const DistRelation& rel) {
         return RouteGrid(
             c, rel,
             [&](const Relation& frag, int64_t begin, int64_t end,
                 int32_t* base) {
               const int64_t rows = end - begin;
               thread_local std::vector<Value> column;
               thread_local std::vector<int32_t> bucket;
               column.resize(static_cast<size_t>(rows));
               bucket.resize(static_cast<size_t>(rows));
               GatherKeyColumn(frag.data().data(), 2, 0, begin, end,
                               column.data());
               hash_x.BucketMany(column.data(), rows, 4, base);
               GatherKeyColumn(frag.data().data(), 2, 1, begin, end,
                               column.data());
               hash_y.BucketMany(column.data(), rows, 4, bucket.data());
               for (int64_t i = 0; i < rows; ++i) base[i] += 4 * bucket[i];
             },
             {0, 16, 32, 48}, "bench");
       },
       [hash_x, hash_y](Cluster& c, const DistRelation& rel) {
         return PerSourceRouteMulti(
             c, rel,
             [&](const RouteContext&, const Value* row,
                 std::vector<int>& dests) {
               const int base =
                   hash_x.Bucket(row[0], 4) + 4 * hash_y.Bucket(row[1], 4);
               for (int z = 0; z < 4; ++z) dests.push_back(base + 16 * z);
             },
             "bench");
       },
       /*min_servers=*/64, /*gated=*/false});

  prims.push_back(
      {"Broadcast", 40000, false,
       [](Cluster& c, const DistRelation& rel) {
         return Broadcast(c, rel, "bench");
       },
       [](Cluster& c, const DistRelation& rel) {
         const int p = c.num_servers();
         return PerSourceRouteMulti(
             c, rel,
             [p](const RouteContext&, const Value*, std::vector<int>& dests) {
               for (int s = 0; s < p; ++s) dests.push_back(s);
             },
             "bench");
       }});

  prims.push_back(
      {"GatherToServer", 400000, false,
       [](Cluster& c, const DistRelation& rel) {
         GatherToServer(c, rel, 0, "bench");
         return DistRelation(rel.arity(), c.num_servers());
       },
       [](Cluster& c, const DistRelation& rel) {
         PerSourceRouteSingle(
             c, rel, [](const RouteContext&, const Value*) { return 0; },
             "bench");
         return DistRelation(rel.arity(), c.num_servers());
       }});

  return prims;
}

DistRelation MakeInput(const Relation& input, int p, bool skewed) {
  if (!skewed) return DistRelation::Scatter(input, p);
  std::vector<Relation> frags(p, Relation(input.arity()));
  frags[0] = input;
  return DistRelation::FromFragments(std::move(frags));
}

// Best-of-`reps` throughput in delivered tuples/sec.
double MeasureTps(
    Cluster& cluster, const DistRelation& input, int64_t delivered,
    const std::function<DistRelation(Cluster&, const DistRelation&)>& run,
    int reps) {
  double best_ms = -1;
  for (int r = 0; r < reps; ++r) {
    cluster.ResetCosts();
    WallTimer timer;
    DistRelation out = run(cluster, input);
    const double ms = timer.ElapsedMs();
    if (best_ms < 0 || ms < best_ms) best_ms = ms;
  }
  return static_cast<double>(delivered) / (best_ms / 1000.0);
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;
  constexpr int kReps = 5;
  const int kP[] = {4, 64};
  const int kThreads[] = {1, 8};
  // CI gate: at t=8 the morsel router must not lose to the per-source
  // baseline on any config. Even best-of-5 jitters >10% on a loaded
  // runner (the parity configs bounce either side of 1.0), hence the
  // tolerance.
  constexpr double kLoseTolerance = 0.85;

  bench::Banner("Exchange data-plane throughput (tuples/sec, best of 5)");
  bench::Table table({"primitive", "p", "threads", "new tps", "persrc tps",
                      "speedup"});
  bench::BenchJson json("exchange");
  json.Set("reps", kReps);

  Rng rng(99);
  std::vector<std::pair<std::string, double>> t8_speedups;
  // Best t=8 speedup over the small-p and skewed configs: the headline
  // "morsel routing pays off where per-source tasking can't" number.
  double headline_t8 = 0;
  std::vector<Primitive> prims = MakePrimitives();
  for (const Primitive& prim : prims) {
    const Relation input = GenerateUniform(rng, prim.rows, 2, 1000000);
    for (const int p : kP) {
      if (p < prim.min_servers) continue;
      const DistRelation rel = MakeInput(input, p, prim.skewed);
      for (const int threads : kThreads) {
        ClusterOptions options;
        options.num_threads = threads;
        Cluster cluster(p, 7, options);

        // Sanity: both routers must move identical multisets of tuples.
        {
          Cluster check_new(p, 7), check_persrc(p, 7);
          DistRelation a = prim.run_new(check_new, rel);
          DistRelation b = prim.run_persrc(check_persrc, rel);
          if (!MultisetEqual(a.Collect(), b.Collect())) {
            std::fprintf(stderr, "FATAL: %s new/persrc outputs differ\n",
                         prim.name.c_str());
            return 1;
          }
        }

        // Delivered tuples: what the round actually ships (the meter is
        // identical for both routers by construction).
        cluster.ResetCosts();
        DistRelation probe = prim.run_new(cluster, rel);
        const int64_t delivered =
            cluster.cost_report().rounds().back().TotalTuplesReceived();

        const double new_tps =
            MeasureTps(cluster, rel, delivered, prim.run_new, kReps);
        const double persrc_tps =
            MeasureTps(cluster, rel, delivered, prim.run_persrc, kReps);
        const double speedup = new_tps / persrc_tps;

        table.AddRow({prim.name, std::to_string(p), std::to_string(threads),
                      bench::Fmt(new_tps / 1e6, 2) + "M",
                      bench::Fmt(persrc_tps / 1e6, 2) + "M",
                      bench::Fmt(speedup, 2) + "x"});
        const std::string key = prim.name + "_p" + std::to_string(p) + "_t" +
                                std::to_string(threads);
        json.Set(key + "_new_tps", new_tps);
        json.Set(key + "_persrc_tps", persrc_tps);
        json.Set(key + "_speedup", speedup);
        if (threads == 8 && prim.gated) {
          t8_speedups.push_back({key, speedup});
          if (p == 4 || prim.skewed) {
            headline_t8 = std::max(headline_t8, speedup);
          }
        }
      }
    }
  }
  table.Print();
  json.Set("headline_small_p_t8_speedup", headline_t8);
  json.Write();

  bool lost = false;
  for (const auto& [key, speedup] : t8_speedups) {
    if (speedup < kLoseTolerance) {
      std::fprintf(stderr,
                   "FATAL: morsel router lost to per-source baseline: "
                   "%s speedup %.2fx < %.2fx\n",
                   key.c_str(), speedup, kLoseTolerance);
      lost = true;
    }
  }
  return lost ? 1 : 0;
}
