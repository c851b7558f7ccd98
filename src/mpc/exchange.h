#ifndef MPCQP_MPC_EXCHANGE_H_
#define MPCQP_MPC_EXCHANGE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "mpc/cluster.h"
#include "mpc/dist_relation.h"

namespace mpcqp {

// Exchange (shuffle) primitives. Each moves a DistRelation's tuples to new
// servers and meters every tuple via the cluster. Each call is one MPC
// round unless the caller has a round open (RoundScope semantics), in which
// case it merges into that round.
//
// Execution model: morsel-driven two-phase index-routed exchange. Both
// parallel passes tile the input over (source, row-range) morsels of at
// most ClusterOptions::morsel_rows rows, claimed through the pool's
// work-stealing deques — the parallelism grain is decoupled from p, so a
// skewed fragment no longer serializes a round behind one task. Phase 1
// routes each morsel, computing per-tuple destinations and exact
// per-(morsel, dst) row counts — no tuple bytes move. A pass parallel
// over destinations turns the counts into src-major, row-ascending
// offsets and pre-sizes every destination fragment; phase 2 copies each
// tuple directly to its final position (with per-destination
// write-combining staging at large p); the per-(morsel, dst) ranges are
// disjoint, so the copies run lock-free and in parallel. The src-major
// layout reproduces sequential append order, so the output fragments and
// the metered costs are bit-identical for every thread count and every
// morsel size.
//
// Routing callbacks are batched: each runs once per morsel, over rows
// [begin, end) of fragment `src`, and runs concurrently with the other
// morsels' calls. They must not mutate shared state (thread_local scratch
// is fine), and their decision for a row may depend only on the row
// itself and its coordinates (src, begin + i) — never on how many rows
// were visited before it. A per-row pseudo-random choice (a row of a
// heavy-hitter grid, say) hashes those coordinates.
//
// The order in which one row's destinations are listed never changes the
// output: a destination's rows are placed src-major and row-ascending by
// the counts alone, so swapping two destinations of one row only swaps
// which fragment is written first.
//
// Every destination is CHECKed to lie in [0, p), per row.
//
// Zero copy: servers that receive the same rows in the same order share
// one payload. Broadcast writes the src-major concatenation once and
// hands every server a copy-on-write handle to it; RouteGrid writes each
// slab once, at its base, and hands the slab mates handles to the base's
// fragment. A receiver that mutates its copy detaches transparently. The
// metered cost is unchanged — every server is still charged for every
// tuple it receives; sharing is a simulator-memory optimization, not a
// cost one.

// Re-partitions by hash of the key columns: tuple t goes to server
// h(t[key_cols]) mod p.
DistRelation HashPartition(Cluster& cluster, const DistRelation& rel,
                           const std::vector<int>& key_cols,
                           const HashFunction& hash, const std::string& label);

// Every server receives a copy of the whole relation.
DistRelation Broadcast(Cluster& cluster, const DistRelation& rel,
                       const std::string& label);

// Range-partitions by column `col`: tuple with value v goes to server i
// where splitters[i-1] <= v < splitters[i] (splitters sorted, size p-1).
DistRelation RangePartition(Cluster& cluster, const DistRelation& rel, int col,
                            const std::vector<Value>& splitters,
                            const std::string& label);

// Slab multicast: `base_of(frag, begin, end, base)` fills base[i] with
// one base server for row begin + i, and that row goes to base[i] + off
// for every entry of `offsets` (its slab). The offsets must be distinct
// and non-negative and include 0; every row CHECKs base >= 0 and
// base + max(offsets) < p. A slab is routed whole: a server reached
// through a non-zero offset (a slab mate) must not also be a base that
// receives rows, and must be reached from one base only — so it receives
// exactly its base's rows. Each of these is a CHECK. The rows are copied
// to the base alone and every slab mate gets a handle to the base's
// fragment (see "Zero copy" above); every (source, mate) message is
// metered like the (source, base) one. Offsets {0} is the
// single-destination route HashPartition, RangePartition and
// GatherToServer run on; HyperCube's slabs are a base from the fixed
// variables' hashes plus the free dimensions' offsets.
using GridBaseFn = std::function<void(const Relation& frag, int64_t begin,
                                      int64_t end, int32_t* base)>;
DistRelation RouteGrid(Cluster& cluster, const DistRelation& rel,
                       const GridBaseFn& base_of,
                       const std::vector<int>& offsets,
                       const std::string& label);

// One morsel's destination lists, filled by a Route callback: Add(dst)
// appends a destination of the current row, EndRow() closes the row. A
// row closed with no Add goes nowhere (it is dropped); a row may list
// several destinations (multicast). The callback must close exactly one
// row per row of its morsel, in row order — the router CHECKs the count.
class RouteSink {
 public:
  void Add(int dst) { dests_.push_back(static_cast<int32_t>(dst)); }
  void EndRow() { row_ends_.push_back(static_cast<int64_t>(dests_.size())); }

  // Every listed destination, row after row, and the end of each closed
  // row's slice of that list.
  const std::vector<int32_t>& dests() const { return dests_; }
  const std::vector<int64_t>& row_ends() const { return row_ends_; }

 private:
  std::vector<int32_t> dests_;
  std::vector<int64_t> row_ends_;
};

// Irregular multicast: `targets(src, frag, begin, end, sink)` lists the
// destinations of rows [begin, end) of fragment `src` into `sink`, one
// EndRow per row. For routes whose destination sets are not one grid
// (heavy-hitter grids beside hash-routed light keys, band windows,
// rotated SkewHC grids).
using RouteFn = std::function<void(int src, const Relation& frag,
                                   int64_t begin, int64_t end,
                                   RouteSink& sink)>;
DistRelation Route(Cluster& cluster, const DistRelation& rel,
                   const RouteFn& targets, const std::string& label);

// Moves all tuples to server `dst` (e.g. collecting a sample to decide
// splitters). Returns the collected relation.
Relation GatherToServer(Cluster& cluster, const DistRelation& rel, int dst,
                        const std::string& label);

}  // namespace mpcqp

#endif  // MPCQP_MPC_EXCHANGE_H_
