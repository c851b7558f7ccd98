#ifndef MPCQP_MPC_DIST_RELATION_H_
#define MPCQP_MPC_DIST_RELATION_H_

#include <cstdint>
#include <vector>

#include "relation/relation.h"

namespace mpcqp {

class ThreadPool;

// A relation horizontally partitioned across the servers of a cluster:
// fragment s lives on server s. The simulator's algorithms transform
// DistRelations with exchange primitives (metered) and per-fragment local
// computation (free, per the MPC model).
class DistRelation {
 public:
  // An empty distributed relation with the given arity on `num_servers`.
  DistRelation(int arity, int num_servers);

  // Adopts existing fragments (all must share one arity; at least one).
  static DistRelation FromFragments(std::vector<Relation> fragments);

  // Initial placement of an input: block-partitions `input` evenly across
  // servers (each gets ceil/floor of size/p contiguous rows). Initial
  // placement is NOT communication: the MPC model assumes inputs start
  // spread O(IN/p) per server (deck slide 6). A non-null `pool` tiles the
  // per-fragment block copies over its workers (the result is identical).
  static DistRelation Scatter(const Relation& input, int num_servers,
                              ThreadPool* pool = nullptr);

  int arity() const { return arity_; }
  int num_servers() const { return static_cast<int>(fragments_.size()); }
  int64_t TotalSize() const;
  // Max fragment size: the current per-server storage in tuples.
  int64_t MaxFragmentSize() const;

  Relation& fragment(int server);
  const Relation& fragment(int server) const;

  // Concatenates all fragments into one local relation (test/verification
  // helper; not metered). A non-null `pool` runs the fragment copies as
  // morsel-tiled tasks (identical result).
  Relation Collect(ThreadPool* pool = nullptr) const;

 private:
  explicit DistRelation(std::vector<Relation> fragments);

  int arity_;
  std::vector<Relation> fragments_;
};

// `rel` with one more, trailing column: a row id unique across servers,
// assigned serially in (server, row) order starting at 0 (local compute,
// no communication). Drivers use it to match a row's filtered copies.
DistRelation AppendRowIds(const DistRelation& rel);

}  // namespace mpcqp

#endif  // MPCQP_MPC_DIST_RELATION_H_
