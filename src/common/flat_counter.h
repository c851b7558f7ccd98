#ifndef MPCQP_COMMON_FLAT_COUNTER_H_
#define MPCQP_COMMON_FLAT_COUNTER_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace mpcqp {

// An open-addressing uint64 -> int64 counter for the statistics hot paths
// (degree counts, heavy-hitter detection, semijoin-copy intersection).
// Counting is O(1) per key with no per-node allocation; the deterministic
// sorted output the old std::map counters produced is recovered by one
// final sort over the distinct keys (SortedEntries), which is cheaper than
// paying a red-black-tree rebalance per input row.
class FlatCounter {
 public:
  explicit FlatCounter(int64_t expected_keys = 0) {
    int64_t cap = 16;
    while (cap < 2 * expected_keys) cap <<= 1;
    slots_.resize(static_cast<size_t>(cap));
  }

  // counts[key] += delta, inserting the key at count 0 first.
  void Add(uint64_t key, int64_t delta = 1) { Slot(key)->count += delta; }

  // Pre-grows the table so `expected_keys` distinct keys insert without a
  // rehash (bulk counting passes size once instead of doubling log times).
  void Reserve(int64_t expected_keys) {
    int64_t cap = static_cast<int64_t>(slots_.size());
    while (cap < 2 * expected_keys) cap <<= 1;
    if (cap > static_cast<int64_t>(slots_.size())) Rehash(cap);
  }

  // counts[key] += other.counts[key] for every key of `other` — the merge
  // step of per-worker partial counters (tree-merge aggregation, partial
  // degree counts). Order-insensitive: integer sums commute, so merging
  // in any order yields the same table contents.
  void MergeFrom(const FlatCounter& other) {
    Reserve(num_keys_ + other.num_keys_);
    for (const SlotEntry& s : other.slots_) {
      if (s.used) Add(s.key, s.count);
    }
  }

  // The count for `key`, or 0 if it was never added.
  int64_t Get(uint64_t key) const {
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      const SlotEntry& s = slots_[i];
      if (!s.used) return 0;
      if (s.key == key) return s.count;
    }
  }

  int64_t num_keys() const { return num_keys_; }

  // The largest count of any key, or 0 when no key was added — the heavy-
  // hitter test without materializing the sorted entries.
  int64_t MaxCount() const {
    int64_t best = 0;
    bool any = false;
    for (const SlotEntry& s : slots_) {
      if (s.used && (!any || s.count > best)) {
        best = s.count;
        any = true;
      }
    }
    return best;
  }

  // The (key, count) pairs sorted by key — the iteration order of the
  // std::map-based counters this class replaces. A `threshold` keeps only
  // counts STRICTLY greater than it (the heavy-hitter cut), so only the
  // survivors are sorted.
  std::vector<std::pair<uint64_t, int64_t>> SortedEntries(
      int64_t threshold = std::numeric_limits<int64_t>::min()) const {
    std::vector<std::pair<uint64_t, int64_t>> entries;
    for (const SlotEntry& s : slots_) {
      if (s.used && s.count > threshold) entries.push_back({s.key, s.count});
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  }

 private:
  struct SlotEntry {
    uint64_t key = 0;
    int64_t count = 0;
    bool used = false;
  };

  // SplitMix64's full avalanche keeps linear probing short even on
  // structured keys (sequential ids, strided values).
  static uint64_t Mix(uint64_t x) { return SplitMix64(x); }

  SlotEntry* Slot(uint64_t key) {
    if (2 * (num_keys_ + 1) > static_cast<int64_t>(slots_.size())) Grow();
    const uint64_t mask = slots_.size() - 1;
    for (uint64_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      SlotEntry& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        ++num_keys_;
        return &s;
      }
      if (s.key == key) return &s;
    }
  }

  void Grow() { Rehash(static_cast<int64_t>(slots_.size()) * 2); }

  void Rehash(int64_t cap) {
    std::vector<SlotEntry> old = std::move(slots_);
    slots_.assign(static_cast<size_t>(cap), SlotEntry{});
    const uint64_t mask = slots_.size() - 1;
    for (const SlotEntry& s : old) {
      if (!s.used) continue;
      for (uint64_t i = Mix(s.key) & mask;; i = (i + 1) & mask) {
        if (!slots_[i].used) {
          slots_[i] = s;
          break;
        }
      }
    }
  }

  std::vector<SlotEntry> slots_;
  int64_t num_keys_ = 0;
};

}  // namespace mpcqp

#endif  // MPCQP_COMMON_FLAT_COUNTER_H_
