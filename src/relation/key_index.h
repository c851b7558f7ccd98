#ifndef MPCQP_RELATION_KEY_INDEX_H_
#define MPCQP_RELATION_KEY_INDEX_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "relation/relation.h"
#include "relation/relation_view.h"

namespace mpcqp {

class ThreadPool;

// A hash index over a relation view keyed by a subset of its columns.
// Probes verify exact key equality (the 64-bit row hash only buckets).
//
// Storage is one contiguous int64 arena of the view's row indices grouped
// by key, a group table, and a compact open-addressing directory:
//
//   arena_   [ rows of key A | rows of key B | ... ]   ascending per key
//   groups_  [ {hash, offset, len} per key ]           first-occurrence order
//   dir_     [ 0 0 2 0 1 0 3 ... ]                     4-byte group id + 1
//
// The directory is split into partitions by the hash's top bits; each is
// a power-of-two linear-probe slice at load <= 1/2, 0 marking an empty
// slot. Lookup returns a span into the arena, so probe results are never
// invalidated by later probes. A probe walks 4-byte ids (a 3K-row build's
// directory is 32 KB), reads the group table only for ids it meets, and
// ends in one contiguous arena read.
//
// Builds under 8,192 rows are one partition: rows are hashed and grouped
// in row order straight into the directory. Larger builds use 64
// partitions: a morsel-parallel count -> prefix-sum -> scatter pass (the
// two-phase shape of the exchange router) orders the rows
// partition-major, then each partition groups independently, in parallel
// when a ThreadPool is passed. Either way row indices within a
// group are ascending and groups within a partition appear in
// first-occurrence order, so the index is bit-identical for every thread
// count.
//
// The index borrows the viewed rows; the underlying Relation (and the
// selection vector, for selection views) must outlive the index and must
// not be modified while indexed. Indexing a view costs nothing extra over
// indexing a materialized copy — this is how the build sides of the local
// join family avoid materializing their inputs.
class KeyIndex {
 public:
  // Builds the index; `pool` (optional) parallelizes the build passes.
  KeyIndex(RelationView view, std::vector<int> key_cols,
           ThreadPool* pool = nullptr);

  // Test-only: overrides the 64-bit key hash so collision handling can be
  // forced deterministically (distinct keys, equal hashes).
  using KeyHashFn = std::function<uint64_t(const Value* key, int key_arity)>;
  KeyIndex(RelationView view, std::vector<int> key_cols, KeyHashFn test_hash,
           ThreadPool* pool = nullptr);

  // Row indices (into the view) whose key columns equal `key`
  // (key_cols.size() values), in ascending row order. The span points into
  // the index's arena and stays valid for the index's lifetime, across any
  // number of later probes (hit or miss).
  std::span<const int64_t> Lookup(const Value* key) const;

  // Lookup with the key's hash already computed (by HashKeys below): the
  // columnar probe loops hash a whole contiguous key column in one
  // vectorized pass, then walk the directory per key. `hash` MUST equal
  // HashKeys'/the index's hash of `key`; exact key equality is still
  // verified, so collisions behave exactly as in Lookup.
  std::span<const int64_t> LookupWithHash(uint64_t hash,
                                          const Value* key) const;

  // Batched probe hashing: out[i] = the index's hash of keys[i * key_arity
  // .. (i+1) * key_arity). For single-column keys without a test hash this
  // is one contiguous HashMany pass (the vectorizable splitmix loop) and
  // is bit-identical to per-key hashing.
  void HashKeys(const Value* keys, int64_t count, uint64_t* out) const;

  // True if some row matches `key`.
  bool Contains(const Value* key) const { return !Lookup(key).empty(); }

  int key_arity() const { return static_cast<int>(key_cols_.size()); }
  const RelationView& view() const { return view_; }
  const std::vector<int>& key_cols() const { return key_cols_; }

  // Number of distinct key values present (exact, even when distinct keys
  // collide on their 64-bit hash).
  int64_t num_distinct_keys() const { return num_distinct_keys_; }

 private:
  // One key: its 64-bit hash and its arena range. While a partition is
  // being grouped, `offset` holds the group's first row and `len` its
  // running row count.
  struct Group {
    uint64_t hash = 0;
    int64_t offset = 0;
    int64_t len = 0;
  };
  // One directory partition: its slice of dir_ and of the group table.
  struct Partition {
    int64_t dir_begin = 0;
    uint64_t mask = 0;  // Directory capacity - 1 (a power of two).
    int64_t group_begin = 0;
  };

  void Build(ThreadPool* pool);
  // out[i] = hash of row begin + i's key, for rows [begin, end).
  void HashRows(int64_t begin, int64_t end, uint64_t* out) const;
  // Groups one partition's `count` rows (rows[i], or i when rows is null,
  // with hashes[i]) into its directory and group table, writes their
  // arena ranges from `arena_begin`, and returns the number of groups.
  // `gid` is scratch for `count` group ids.
  int64_t GroupPartition(const Partition& part, int64_t count,
                         const int64_t* rows, const uint64_t* hashes,
                         int64_t arena_begin, uint32_t* gid);
  uint64_t HashKey(const Value* key) const;
  bool RowMatchesKey(int64_t row, const Value* key) const;

  RelationView view_;
  std::vector<int> key_cols_;
  KeyHashFn test_hash_;  // Null outside tests.

  // Row indices grouped by key: group g occupies
  // arena_[g.offset, g.offset + g.len).
  std::vector<int64_t> arena_;
  // Partition P's groups are groups_[P.group_begin + id - 1] for the ids
  // in dir_[P.dir_begin, P.dir_begin + P.mask + 1). A partition's slice
  // of the group table is sized by its row count, an upper bound on its
  // groups.
  std::vector<uint32_t> dir_;
  std::vector<Group> groups_;
  std::vector<Partition> parts_;
  int part_bits_ = 0;
  int64_t num_distinct_keys_ = 0;
};

// The probe is inline: the columnar probe loops call it once per key.
inline bool KeyIndex::RowMatchesKey(int64_t row, const Value* key) const {
  const Value* r = RowPtr(view_, row);
  for (size_t i = 0; i < key_cols_.size(); ++i) {
    if (r[key_cols_[i]] != key[i]) return false;
  }
  return true;
}

inline std::span<const int64_t> KeyIndex::LookupWithHash(
    uint64_t h, const Value* key) const {
  const Partition& part =
      parts_[part_bits_ == 0 ? 0 : static_cast<size_t>(h >> (64 - part_bits_))];
  const uint32_t* dir = dir_.data() + part.dir_begin;
  const Group* groups = groups_.data() + part.group_begin;
  for (uint64_t idx = h & part.mask;; idx = (idx + 1) & part.mask) {
    const uint32_t id = dir[idx];
    if (id == 0) return {};
    const Group& g = groups[id - 1];
    if (g.hash == h && RowMatchesKey(arena_[g.offset], key)) {
      return {arena_.data() + g.offset, static_cast<size_t>(g.len)};
    }
  }
}

}  // namespace mpcqp

#endif  // MPCQP_RELATION_KEY_INDEX_H_
