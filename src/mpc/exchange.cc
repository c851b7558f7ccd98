#include "mpc/exchange.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "mpc/metrics.h"
#include "relation/columnar.h"

namespace mpcqp {

namespace {

// ---------------------------------------------------------------------------
// Morsel-driven two-phase index-routed exchange.
//
// The unit of parallelism is a morsel: a (source, row-range) tile of at
// most ClusterOptions::morsel_rows rows. The morsel decomposition derives
// from fragment sizes only — never from the thread count — and morsels are
// ordered by (src, begin), so per-morsel counts aggregate in a fixed order
// and the output layout is identical for every thread count AND every
// morsel size.
//
// Phase 1 (morsel-parallel, work-stealing): compute every tuple's
// destination(s) and tally exact per-(morsel, dst) row counts. No tuple
// bytes move. A grid route counts each row at its base only.
//
// Between phases (parallel over destinations): for each destination d,
// walk the morsels in order turning counts into exact write offsets
// (src-major, row-ascending — the serial append order), meter the
// per-(src, d) message (and, for a grid base, the same message to each
// slab mate), and pre-size fragment d to its final size.
//
// Phase 2 (morsel-parallel, work-stealing): copy each tuple straight to
// its final position. Per-(morsel, dst) ranges are disjoint, so the
// copies need no locks. At large p the scattered per-tuple writes would
// touch p cache-line streams per task, so the copy stages rows per
// destination in small cache-resident write-combining blocks and flushes
// them with bulk memcpy. A grid route's slab mates then take
// copy-on-write handles to their base's fragment.
// ---------------------------------------------------------------------------

// One (source, row-range) tile. `begin`/`end` are row indices within
// fragment `src`.
struct Morsel {
  int32_t src;
  int64_t begin;
  int64_t end;
};

// Cuts every non-empty fragment into tiles of at most `morsel_rows` rows,
// ordered by (src, begin). Depends only on fragment sizes and the morsel
// size, so the tiling — and everything whose aggregation order follows it
// — is thread-count independent.
std::vector<Morsel> TileSources(const DistRelation& rel, int64_t morsel_rows) {
  std::vector<Morsel> morsels;
  for (int src = 0; src < rel.num_servers(); ++src) {
    const int64_t n = rel.fragment(src).size();
    for (int64_t begin = 0; begin < n; begin += morsel_rows) {
      morsels.push_back(
          {src, begin, std::min<int64_t>(n, begin + morsel_rows)});
    }
  }
  return morsels;
}

// Destination stream count at or above which the copy phase stages rows in
// write-combining blocks instead of scattering per-tuple writes across all
// p fragments. Up to a couple hundred streams the scattered writes stay
// cache/TLB-resident and staging only adds bytes (measured: a 5-15% loss
// at p = 64); past that the p write streams thrash and staging wins. The
// choice reads p alone. Paired HashPartition runs (EXPERIMENTS.md E22):
// staged 39 ms vs direct 46-51 ms at p = 256, and 117-127 ms vs
// 132-140 ms at p = 1024.
constexpr int kWriteCombineMinDests = 256;
// Staging block footprint per destination. Cache-resident: p blocks of
// this size stay within L2 for the p this path targets.
constexpr int64_t kWriteCombineBlockBytes = 1024;

// Per-thread write-combining scratch. Pool workers are long-lived, so the
// buffers are allocated once per thread and reused across morsels and
// exchanges.
struct WriteCombineScratch {
  std::vector<Value> rows;    // p blocks of block_rows rows each.
  std::vector<int32_t> fill;  // Rows currently staged per destination.
};
WriteCombineScratch& LocalWriteCombineScratch() {
  thread_local WriteCombineScratch scratch;
  return scratch;
}

// Phase 2 for one morsel, shared by both routers: copies rows into the
// pre-sized fragments at `base`, advancing `cursor[dst]` (the morsel's
// private offset row). `for_each_copy(emit)` calls `emit(row, dst)` once
// per (row, destination) pair in row order. Below kWriteCombineMinDests
// each row goes straight to its destination; at or above it, rows are
// staged per destination and flushed with bulk memcpy.
template <typename ForEachCopyFn>
void CopyMorsel(int arity, int p, Value* const* base, int64_t* cursor,
                const ForEachCopyFn& for_each_copy) {
  const size_t row_bytes = static_cast<size_t>(arity) * sizeof(Value);
  if (p < kWriteCombineMinDests) {
    for_each_copy([&](const Value* row, int dst) {
      std::memcpy(base[dst] + cursor[dst] * arity, row, row_bytes);
      ++cursor[dst];
    });
    return;
  }
  const int64_t block_rows =
      std::max<int64_t>(4, kWriteCombineBlockBytes /
                               (static_cast<int64_t>(arity) * sizeof(Value)));
  WriteCombineScratch& wc = LocalWriteCombineScratch();
  wc.rows.resize(static_cast<size_t>(p) * block_rows * arity);
  wc.fill.assign(p, 0);
  Value* const stage = wc.rows.data();
  int32_t* const fill = wc.fill.data();
  const auto flush = [&](int dst) {
    const int64_t staged = fill[dst];
    std::memcpy(base[dst] + cursor[dst] * arity,
                stage + dst * block_rows * arity,
                static_cast<size_t>(staged) * row_bytes);
    cursor[dst] += staged;
    fill[dst] = 0;
  };
  for_each_copy([&](const Value* row, int dst) {
    std::memcpy(stage + (dst * block_rows + fill[dst]) * arity, row,
                row_bytes);
    if (++fill[dst] == block_rows) flush(dst);
  });
  for (int dst = 0; dst < p; ++dst) {
    if (fill[dst] > 0) flush(dst);
  }
}

// Where phase 2 writes: `offsets[m * p + d]` is morsel m's first row in
// fragment d (and, during the copy, its cursor); `base[d]` is fragment
// d's pre-sized payload.
struct CopyTargets {
  std::vector<int64_t> offsets;
  std::vector<Value*> base;
};

// The pass between the two morsel phases, shared by both routers, parallel
// over destinations: for destination d, walk the morsels in (src, begin)
// order so rows land src-major and row-ascending — the serial append
// order — for any morsel size; meter each (src, d) message as its total
// closes, then pre-size fragment d of `*out`. The message is metered to
// d + o for every o of `slab` (RouteGrid's offsets; Route passes {0}),
// because d's slab mates receive the same rows.
CopyTargets PresizeDestinations(Cluster& cluster,
                                const std::vector<Morsel>& morsels,
                                const std::vector<int64_t>& counts,
                                const std::vector<int>& slab,
                                DistRelation* out) {
  const int p = cluster.num_servers();
  const int arity = out->arity();
  const int64_t num_morsels = static_cast<int64_t>(morsels.size());
  CopyTargets targets;
  targets.offsets.resize(static_cast<size_t>(num_morsels) * p);
  targets.base.resize(p);
  ScopedPhaseTimer phase(cluster.metrics(), Phase::kCount);
  MPCQP_TRACE_SCOPE("presize", "exchange");
  cluster.pool().ParallelFor(p, [&](int64_t task) {
    const int dst = static_cast<int>(task);
    int64_t total = 0;
    int64_t src_total = 0;
    for (int64_t m = 0; m < num_morsels; ++m) {
      targets.offsets[m * p + dst] = total;
      total += counts[m * p + dst];
      src_total += counts[m * p + dst];
      if (m + 1 == num_morsels || morsels[m + 1].src != morsels[m].src) {
        if (src_total > 0) {
          for (const int off : slab) {
            cluster.RecordMessage(morsels[m].src, dst + off, src_total,
                                  src_total * arity);
          }
        }
        src_total = 0;
      }
    }
    targets.base[dst] = out->fragment(dst).ResizeRowsForOverwrite(total);
    // A peak: one record stands for the slab mates, which hold these rows.
    cluster.metrics().RecordFragmentRows(total);
  });
  return targets;
}

}  // namespace

DistRelation RouteGrid(Cluster& cluster, const DistRelation& rel,
                       const GridBaseFn& base_of,
                       const std::vector<int>& offsets,
                       const std::string& label) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  MPCQP_CHECK_GT(rel.arity(), 0) << "cannot route nullary relations";
  MPCQP_CHECK(!offsets.empty()) << "a grid route needs at least one offset";
  for (int off : offsets) MPCQP_CHECK_GE(off, 0) << "negative grid offset";
  std::vector<int> sorted = offsets;
  std::sort(sorted.begin(), sorted.end());
  MPCQP_CHECK_EQ(sorted.front(), 0) << "a grid route's offsets must include 0";
  MPCQP_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end())
      << "duplicate grid offset";
  const int64_t max_offset = sorted.back();
  RoundScope scope(cluster, label);

  const int arity = rel.arity();
  DistRelation out(arity, p);
  ThreadPool& pool = cluster.pool();
  const std::vector<Morsel> morsels =
      TileSources(rel, cluster.morsel_rows());
  const int64_t num_morsels = static_cast<int64_t>(morsels.size());

  // Row offset of each fragment in the flat base array.
  std::vector<int64_t> row_base(static_cast<size_t>(p) + 1, 0);
  for (int src = 0; src < p; ++src) {
    row_base[src + 1] = row_base[src] + rel.fragment(src).size();
  }
  const int64_t total_rows = row_base[p];
  auto bases = std::make_unique_for_overwrite<int32_t[]>(
      static_cast<size_t>(std::max<int64_t>(total_rows, 1)));

  // Phase 1: bases + per-(morsel, base) counts, one work-stealing task per
  // morsel. A row is counted at its base only.
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels) * p, 0);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kRoute);
    pool.ParallelFor(num_morsels, [&](int64_t m) {
      const Morsel& mo = morsels[m];
      MPCQP_TRACE_SCOPE_ARG("route morsel", "exchange", m);
      int32_t* const b = bases.get() + row_base[mo.src] + mo.begin;
      const int64_t rows = mo.end - mo.begin;
      base_of(rel.fragment(mo.src), mo.begin, mo.end, b);
      int64_t* const cnt = counts.data() + m * p;
      for (int64_t i = 0; i < rows; ++i) {
        const int32_t base = b[i];
        MPCQP_CHECK_GE(base, 0);
        MPCQP_CHECK_LT(base + max_offset, p);
        ++cnt[base];
      }
    });
  }

  CopyTargets targets =
      PresizeDestinations(cluster, morsels, counts, offsets, &out);

  // The slab contract: a server reached through a non-zero offset holds
  // no rows of its own as a base and is reached from one base only, so
  // its fragment is exactly its base's.
  std::vector<std::pair<int, int>> mates;  // (mate, its base).
  if (offsets.size() > 1) {
    std::vector<char> reached(p, 0);
    for (int base = 0; base < p; ++base) {
      if (out.fragment(base).empty()) continue;
      for (const int off : offsets) {
        if (off == 0) continue;
        const int mate = base + off;
        MPCQP_CHECK(out.fragment(mate).empty())
            << "grid destination " << mate << " is also a base";
        MPCQP_CHECK(!reached[mate])
            << "grid destination " << mate << " is reached from two bases";
        reached[mate] = 1;
        mates.push_back({mate, base});
      }
    }
  }

  // Phase 2: bulk copy into disjoint pre-sized ranges at the bases. Each
  // morsel's offsets row doubles as its private cursor — no per-task
  // allocation. Then every slab mate takes a handle to its base's payload.
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    pool.ParallelFor(num_morsels, [&](int64_t m) {
      const Morsel& mo = morsels[m];
      MPCQP_TRACE_SCOPE_ARG("copy morsel", "exchange", m);
      const Value* in = rel.fragment(mo.src).row(0) + mo.begin * arity;
      const int32_t* const b = bases.get() + row_base[mo.src] + mo.begin;
      const int64_t rows = mo.end - mo.begin;
      CopyMorsel(arity, p, targets.base.data(),
                 targets.offsets.data() + m * p, [&](const auto& emit) {
                   for (int64_t i = 0; i < rows; ++i, in += arity) {
                     emit(in, b[i]);
                   }
                 });
    });
    for (const auto& [mate, base] : mates) {
      out.fragment(mate) = out.fragment(base);
    }
  }
  cluster.ObserveExchange(out);
  return out;
}

DistRelation HashPartition(Cluster& cluster, const DistRelation& rel,
                           const std::vector<int>& key_cols,
                           const HashFunction& hash,
                           const std::string& label) {
  for (int c : key_cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, rel.arity());
  }
  const int p = cluster.num_servers();
  if (key_cols.empty()) {
    // Empty key: every row belongs to one (scalar) group, so all rows
    // route to that group's hash owner. HashSpan over zero columns is the
    // hash function's deterministic seed constant — same owner on every
    // server, chosen by the draw like any other key.
    const int owner = static_cast<int>(
        (static_cast<unsigned __int128>(hash.HashSpan(nullptr, 0)) * p) >>
        64);
    return RouteGrid(
        cluster, rel,
        [owner](const Relation& /*frag*/, int64_t begin,
                int64_t end, int32_t* dests) {
          std::fill(dests, dests + (end - begin),
                    static_cast<int32_t>(owner));
        },
        {0}, label);
  }
  // Single-column keys: one plan. Each morsel's key column is bucketed in
  // one batched, vectorizable BucketMany pass — read in place when the
  // relation has arity 1 (it already is a contiguous column), otherwise
  // gathered per morsel into thread-local scratch first. Destinations
  // equal the generic multi-column loop's below (HashSpan(v, 1) == Hash(v)
  // == HashMany element-wise, Bucket == BucketMany).
  if (key_cols.size() == 1) {
    const int col = key_cols.front();
    return RouteGrid(
        cluster, rel,
        [&hash, p, col](const Relation& frag, int64_t begin,
                        int64_t end, int32_t* dests) {
          const int64_t rows = end - begin;
          if (frag.arity() == 1) {
            hash.BucketMany(frag.data().data() + begin, rows, p, dests);
            return;
          }
          // Per-thread scratch: morsel tasks run concurrently.
          thread_local std::vector<Value> keys;
          keys.resize(static_cast<size_t>(rows));
          GatherKeyColumn(frag.data().data(), frag.arity(), col, begin, end,
                          keys.data());
          hash.BucketMany(keys.data(), rows, p, dests);
        },
        {0}, label);
  }
  const auto bucket = [p](uint64_t h) {
    return static_cast<int>((static_cast<unsigned __int128>(h) * p) >> 64);
  };
  return RouteGrid(
      cluster, rel,
      [&, bucket](const Relation& frag, int64_t begin,
                  int64_t end, int32_t* dests) {
        thread_local std::vector<Value> key;
        key.resize(key_cols.size());
        for (int64_t i = begin; i < end; ++i) {
          const Value* row = frag.row(i);
          for (size_t k = 0; k < key_cols.size(); ++k) {
            key[k] = row[key_cols[k]];
          }
          dests[i - begin] = static_cast<int32_t>(bucket(
              hash.HashSpan(key.data(), static_cast<int>(key.size()))));
        }
      },
      {0}, label);
}

DistRelation Broadcast(Cluster& cluster, const DistRelation& rel,
                       const std::string& label) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  MPCQP_CHECK_GT(rel.arity(), 0) << "cannot route nullary relations";
  RoundScope scope(cluster, label);

  const int arity = rel.arity();

  // Every destination receives the same src-major concatenation, so build
  // it once and hand out p copy-on-write handles to the one payload.
  Relation all(arity);
  int nonempty = 0;
  int last_nonempty = -1;
  int64_t total = 0;
  std::vector<int64_t> offsets(p);
  for (int src = 0; src < p; ++src) {
    const int64_t n = rel.fragment(src).size();
    offsets[src] = total;
    if (n > 0) {
      ++nonempty;
      last_nonempty = src;
      total += n;
    }
  }
  if (nonempty == 1) {
    // One source (a gathered sample, say): its fragment IS the broadcast
    // payload. Zero bytes move.
    all = rel.fragment(last_nonempty);
  } else if (nonempty > 1) {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    MPCQP_TRACE_SCOPE("broadcast payload", "exchange");
    Value* base = all.ResizeRowsForOverwrite(total);
    // Tile the concatenation over morsels so one huge fragment does not
    // serialize the payload build.
    const std::vector<Morsel> morsels =
        TileSources(rel, cluster.morsel_rows());
    cluster.pool().ParallelFor(
        static_cast<int64_t>(morsels.size()), [&](int64_t m) {
          const Morsel& mo = morsels[m];
          const Relation& frag = rel.fragment(mo.src);
          std::memcpy(base + (offsets[mo.src] + mo.begin) * arity,
                      frag.row(0) + mo.begin * arity,
                      static_cast<size_t>(mo.end - mo.begin) * arity *
                          sizeof(Value));
        });
  }
  cluster.metrics().RecordFragmentRows(total);

  // Metering is unchanged: every server still receives every tuple; the
  // shared payload is a simulator-memory optimization, not a cost one.
  // Parallel over destinations (integer sums — order-free).
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCount);
    cluster.pool().ParallelFor(p, [&](int64_t task) {
      const int dst = static_cast<int>(task);
      for (int src = 0; src < p; ++src) {
        const int64_t n = rel.fragment(src).size();
        if (n == 0) continue;
        cluster.RecordMessage(src, dst, n, n * arity);
      }
    });
  }

  DistRelation out(arity, p);
  for (int dst = 0; dst < p; ++dst) out.fragment(dst) = all;
  cluster.ObserveExchange(out);
  return out;
}

DistRelation RangePartition(Cluster& cluster, const DistRelation& rel, int col,
                            const std::vector<Value>& splitters,
                            const std::string& label) {
  MPCQP_CHECK_GE(col, 0);
  MPCQP_CHECK_LT(col, rel.arity());
  MPCQP_CHECK_EQ(static_cast<int>(splitters.size()) + 1,
                 cluster.num_servers());
  MPCQP_CHECK(std::is_sorted(splitters.begin(), splitters.end()));
  return RouteGrid(
      cluster, rel,
      [&](const Relation& frag, int64_t begin, int64_t end,
          int32_t* dests) {
        const int arity = frag.arity();
        const Value* in = frag.row(0) + begin * arity + col;
        for (int64_t i = 0; i < end - begin; ++i, in += arity) {
          const auto it =
              std::upper_bound(splitters.begin(), splitters.end(), *in);
          dests[i] = static_cast<int32_t>(it - splitters.begin());
        }
      },
      {0}, label);
}

DistRelation Route(Cluster& cluster, const DistRelation& rel,
                   const RouteFn& targets, const std::string& label) {
  const int p = cluster.num_servers();
  MPCQP_CHECK_EQ(rel.num_servers(), p);
  MPCQP_CHECK_GT(rel.arity(), 0) << "cannot route nullary relations";
  RoundScope scope(cluster, label);

  const int arity = rel.arity();
  DistRelation out(arity, p);
  ThreadPool& pool = cluster.pool();
  const std::vector<Morsel> morsels =
      TileSources(rel, cluster.morsel_rows());
  const int64_t num_morsels = static_cast<int64_t>(morsels.size());

  // Phase 1: one callback per morsel fills that morsel's sink — a flat
  // destination list plus per-row end indices.
  std::vector<RouteSink> sinks(morsels.size());
  std::vector<int64_t> counts(static_cast<size_t>(num_morsels) * p, 0);
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kRoute);
    pool.ParallelFor(num_morsels, [&](int64_t m) {
      const Morsel& mo = morsels[m];
      MPCQP_TRACE_SCOPE_ARG("route morsel", "exchange", m);
      RouteSink& sink = sinks[m];
      targets(mo.src, rel.fragment(mo.src), mo.begin, mo.end, sink);
      MPCQP_CHECK_EQ(static_cast<int64_t>(sink.row_ends().size()),
                     mo.end - mo.begin)
          << "a Route callback must call EndRow once per row";
      int64_t* const cnt = counts.data() + m * p;
      for (const int32_t dst : sink.dests()) {
        MPCQP_CHECK_GE(dst, 0);
        MPCQP_CHECK_LT(dst, p);
        ++cnt[dst];
      }
    });
  }

  CopyTargets copy_targets =
      PresizeDestinations(cluster, morsels, counts, {0}, &out);

  // Phase 2: every row once per entry of its destination list.
  {
    ScopedPhaseTimer phase(cluster.metrics(), Phase::kCopy);
    pool.ParallelFor(num_morsels, [&](int64_t m) {
      const Morsel& mo = morsels[m];
      MPCQP_TRACE_SCOPE_ARG("copy morsel", "exchange", m);
      const Value* in = rel.fragment(mo.src).row(0) + mo.begin * arity;
      const int32_t* const dests = sinks[m].dests().data();
      const int64_t* const ends = sinks[m].row_ends().data();
      const int64_t rows = mo.end - mo.begin;
      CopyMorsel(arity, p, copy_targets.base.data(),
                 copy_targets.offsets.data() + m * p,
                 [&](const auto& emit) {
                   int64_t j = 0;
                   for (int64_t i = 0; i < rows; ++i, in += arity) {
                     for (; j < ends[i]; ++j) emit(in, dests[j]);
                   }
                 });
    });
  }
  cluster.ObserveExchange(out);
  return out;
}

Relation GatherToServer(Cluster& cluster, const DistRelation& rel, int dst,
                        const std::string& label) {
  MPCQP_CHECK_GE(dst, 0);
  MPCQP_CHECK_LT(dst, cluster.num_servers());
  DistRelation gathered = RouteGrid(
      cluster, rel,
      [dst](const Relation&, int64_t begin, int64_t end,
            int32_t* dests) {
        std::fill(dests, dests + (end - begin), static_cast<int32_t>(dst));
      },
      {0}, label);
  return std::move(gathered.fragment(dst));
}

}  // namespace mpcqp
