#ifndef MPCQP_AGG_GROUP_TABLE_H_
#define MPCQP_AGG_GROUP_TABLE_H_

// Internal to src/agg: the one open-addressing group table and the
// accumulator folds shared by the distributed per-server kernel
// (aggregate.cc) and the single-relation engine (groupby_engine.cc).

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "relation/relation.h"
#include "relation/relation_ops.h"

namespace mpcqp {
namespace agg_internal {

// The group-key seed, folded with the shared SplitMix64 (the same
// full-avalanche mix FlatCounter and the exchange hashing use). Fixed
// (data-only) seeds keep every table's layout independent of thread count
// and morsel size.
inline constexpr uint64_t kGroupHashSeed = 0x9e3779b97f4a7c15ULL;

// Hash of a contiguous `width`-column group key (width 0 = the scalar
// group: a fixed constant, so every row lands in one group). Width-1 keys
// match simd::GroupHashMany, which the engine's columnar scans batch
// through.
inline uint64_t HashKey(const Value* key, int width) {
  uint64_t h = kGroupHashSeed;
  for (int k = 0; k < width; ++k) h = SplitMix64(h ^ SplitMix64(key[k]));
  return h;
}

// Folds one input row into an accumulator (`inserted` = first row of this
// group). Returns false when SUM/COUNT would exceed the Value range —
// addends are non-negative, so partial sums are monotone and overflow
// occurrence is independent of accumulation order.
inline bool AccumulateRow(Value* acc, bool inserted, Value value,
                          AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      if (*acc + value < *acc) return false;
      *acc += value;
      return true;
    case AggregateOp::kCount:
      if (*acc + 1 == 0) return false;
      *acc += 1;
      return true;
    case AggregateOp::kMin:
      if (inserted || value < *acc) *acc = value;
      return true;
    case AggregateOp::kMax:
      if (inserted || value > *acc) *acc = value;
      return true;
  }
  return false;
}

// Folds a partial accumulator into another (the merge passes). COUNT
// partials merge by summation; MIN/MAX are idempotent under their own op.
inline bool MergePartial(Value* acc, bool inserted, Value partial,
                         AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kCount:
      if (inserted) {
        *acc = partial;
        return true;
      }
      if (*acc + partial < *acc) return false;
      *acc += partial;
      return true;
    case AggregateOp::kMin:
      if (inserted || partial < *acc) *acc = partial;
      return true;
    case AggregateOp::kMax:
      if (inserted || partial > *acc) *acc = partial;
      return true;
  }
  return false;
}

// Open-addressing (hash, group key) -> accumulator table. Keys live in a
// flat arena owned by the table; slots hold entry indices so growth only
// rebuilds the index, never moves keys or accumulators. Entries stay in
// insertion order.
class GroupTable {
 public:
  // The slot index grows before it is a quarter full. Every probe step
  // reads an entry elsewhere in memory, so short probe runs are worth
  // their 4 bytes per slot: in paired runs of the distributed group-by on
  // a Zipf join output, a quarter-full bound took 2-3 ms off ~22 ms
  // against a half-full one.
  static constexpr int64_t kSlotsPerEntry = 4;

  explicit GroupTable(int key_width)
      : key_width_(key_width), slots_(16, 0) {}

  struct Entry {
    uint64_t hash = 0;
    Value acc = 0;
    int64_t key_pos = 0;
  };

  // Pre-grows the slot index so `groups` entries insert without a rehash.
  void Reserve(int64_t groups) {
    size_t cap = slots_.size();
    while (static_cast<int64_t>(cap) < kSlotsPerEntry * groups) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
    entries_.reserve(static_cast<size_t>(groups));
    keys_.reserve(static_cast<size_t>(groups) * key_width_);
  }

  // The accumulator for (hash, key), inserting it at 0 first; second is
  // true exactly when the group is new. The returned pointer is valid
  // until the next Upsert.
  std::pair<Value*, bool> Upsert(uint64_t hash, const Value* key) {
    if (kSlotsPerEntry * (static_cast<int64_t>(entries_.size()) + 1) >
        static_cast<int64_t>(slots_.size())) {
      Rehash(slots_.size() * 2);
    }
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t slot = slots_[i];
      if (slot == 0) {
        Entry e;
        e.hash = hash;
        e.key_pos = static_cast<int64_t>(keys_.size());
        keys_.insert(keys_.end(), key, key + key_width_);
        entries_.push_back(e);
        slots_[i] = static_cast<uint32_t>(entries_.size());
        return {&entries_.back().acc, true};
      }
      Entry& e = entries_[slot - 1];
      if (e.hash == hash &&
          std::equal(key, key + key_width_, keys_.data() + e.key_pos)) {
        return {&e.acc, false};
      }
    }
  }

  int64_t num_groups() const {
    return static_cast<int64_t>(entries_.size());
  }
  const std::vector<Entry>& entries() const { return entries_; }
  const Value* key_of(const Entry& e) const {
    return keys_.data() + e.key_pos;
  }

 private:
  void Rehash(size_t cap) {
    slots_.assign(cap, 0);
    const uint64_t mask = cap - 1;
    for (size_t n = 0; n < entries_.size(); ++n) {
      uint64_t i = entries_[n].hash & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(n + 1);
    }
  }

  int key_width_;
  std::vector<uint32_t> slots_;  // Entry index + 1; 0 = empty.
  std::vector<Entry> entries_;
  std::vector<Value> keys_;  // key_width_ values per entry.
};

}  // namespace agg_internal
}  // namespace mpcqp

#endif  // MPCQP_AGG_GROUP_TABLE_H_
