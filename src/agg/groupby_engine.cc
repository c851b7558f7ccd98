#include "agg/groupby_engine.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "common/check.h"
#include "common/flat_counter.h"
#include "common/hash.h"
#include "common/parallel_sort.h"
#include "common/simd.h"
#include "common/status.h"
#include "common/trace.h"
#include "relation/columnar.h"

namespace mpcqp {

namespace {

// Radix fan-out: 256 partitions from the top hash byte. Enough that the
// per-partition table builds keep every worker busy, few enough that the
// per-chunk counting matrix (chunks x partitions) stays tiny.
constexpr int kRadixBits = 8;
constexpr int kRadixPartitions = 1 << kRadixBits;
constexpr int kRadixShift = 64 - kRadixBits;

// Adaptive thresholds (rationale in DESIGN.md "Aggregation engine"):
// inputs at or below kSmallInputRows keep the seed sorted-map path (the
// flat machinery costs more than it saves); otherwise a sampled prefix
// estimates the rows-per-group density, and at kTreeMergeDensity or more
// rows per distinct group the per-worker-partials strategy wins (its
// merge cost scales with #groups x #workers), else radix.
constexpr int64_t kSmallInputRows = 4096;
constexpr int64_t kSampleRowsPerInput = 2048;
constexpr int64_t kTreeMergeDensity = 16;

// The group-key seed, folded with the shared SplitMix64 (the same
// full-avalanche mix FlatCounter and the exchange hashing use). Fixed
// (data-only) seeds keep the engine's routing independent of thread count
// and morsel size.
constexpr uint64_t kGroupHashSeed = 0x9e3779b97f4a7c15ULL;

// Hash of a contiguous `width`-column group key (width 0 = the scalar
// group: a fixed constant, so every row lands in one group). Width-1 keys
// match simd::GroupHashMany, which the columnar scans batch through.
uint64_t HashKey(const Value* key, int width) {
  uint64_t h = kGroupHashSeed;
  for (int k = 0; k < width; ++k) h = SplitMix64(h ^ SplitMix64(key[k]));
  return h;
}

// Folds one input row into an accumulator (`inserted` = first row of this
// group). Returns false when SUM/COUNT would exceed the Value range —
// addends are non-negative, so partial sums are monotone and overflow
// occurrence is independent of accumulation order.
bool AccumulateRow(Value* acc, bool inserted, Value value, AggregateOp op) {
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
bool MergePartial(Value* acc, bool inserted, Value partial, AggregateOp op) {
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
// rebuilds the index, never moves keys or accumulators.
class GroupTable {
 public:
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
    while (static_cast<int64_t>(cap) < 2 * groups) cap <<= 1;
    if (cap > slots_.size()) Rehash(cap);
    entries_.reserve(static_cast<size_t>(groups));
    keys_.reserve(static_cast<size_t>(groups) * key_width_);
  }

  // The accumulator for (hash, key), inserting it at 0 first; second is
  // true exactly when the group is new. The returned pointer is valid
  // until the next Upsert.
  std::pair<Value*, bool> Upsert(uint64_t hash, const Value* key) {
    if (2 * (static_cast<int64_t>(entries_.size()) + 1) >
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

// Merges src's partials into dst; false on Value overflow.
bool MergeTable(GroupTable* dst, const GroupTable& src, AggregateOp op) {
  dst->Reserve(dst->num_groups() + src.num_groups());
  for (const GroupTable::Entry& e : src.entries()) {
    auto [acc, inserted] = dst->Upsert(e.hash, src.key_of(e));
    if (!MergePartial(acc, inserted, e.acc, op)) return false;
  }
  return true;
}

// Shared emission: sorts (key, accumulator) pairs lexicographically by the
// full group key and bulk-fills the output. Group keys are unique, so the
// sort order — and therefore the output bytes — is a total order
// independent of how threads partitioned the work.
Relation EmitSorted(std::vector<std::pair<const Value*, Value>>* groups,
                    int key_width, ThreadPool* pool, int64_t grain) {
  const int out_arity = key_width + 1;
  Relation out(out_arity);
  const int64_t g = static_cast<int64_t>(groups->size());
  if (g == 0) return out;
  ParallelSort(pool, *groups,
               [key_width](const std::pair<const Value*, Value>& a,
                           const std::pair<const Value*, Value>& b) {
                 return std::lexicographical_compare(
                     a.first, a.first + key_width, b.first,
                     b.first + key_width);
               });
  Value* base = out.ResizeRowsForOverwrite(g);
  const auto fill = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      Value* dst = base + i * out_arity;
      const auto& [key, acc] = (*groups)[i];
      std::copy(key, key + key_width, dst);
      dst[key_width] = acc;
    }
  };
  if (pool != nullptr) {
    pool->ParallelForGrained(g, grain, fill);
  } else {
    fill(0, g);
  }
  return out;
}

// The seed path: one serial std::map accumulator over every input in
// order. Lowest constant factor on small inputs; also the differential
// reference the parallel strategies are tested against.
StatusOr<Relation> RunSortedMap(const std::vector<RelationView>& inputs,
                                const std::vector<int>& group_cols,
                                int value_col, AggregateOp op) {
  std::map<std::vector<Value>, Value> accumulators;
  std::vector<Value> key(group_cols.size());
  for (const RelationView& in : inputs) {
    for (int64_t i = 0; i < in.size(); ++i) {
      const Value* row = in.row(i);
      for (size_t k = 0; k < group_cols.size(); ++k) {
        key[k] = row[group_cols[k]];
      }
      const Value value = value_col >= 0 ? row[value_col] : 0;
      auto [it, inserted] = accumulators.try_emplace(key, 0);
      if (!AccumulateRow(&it->second, inserted, value, op)) {
        return OutOfRangeError("group-by aggregate overflows Value");
      }
    }
  }
  Relation out(static_cast<int>(group_cols.size()) + 1);
  out.Reserve(static_cast<int64_t>(accumulators.size()));
  std::vector<Value> scratch;
  for (const auto& [group, aggregate] : accumulators) {
    scratch = group;
    scratch.push_back(aggregate);
    out.AppendRow(scratch.data());
  }
  return out;
}

// Compacts a scan range's grouping columns into row-major `keys` (width
// values per row) and its value column into `vals` — the columnar scan
// front-end: one pass over the wide rows, after which the hot
// hash/accumulate loops run over contiguous compact arrays. width == 1
// lowers to the shared GatherKeyColumn kernel (unit-stride output).
void CompactScanColumns(const RelationView& in,
                        const std::vector<int>& group_cols, int value_col,
                        int64_t begin, int64_t end, Value* keys,
                        Value* vals) {
  const int width = static_cast<int>(group_cols.size());
  if (width == 1) {
    GatherKeyColumn(in, group_cols[0], begin, end, keys);
  } else if (width > 1) {
    const int64_t n = end - begin;
    for (int64_t i = 0; i < n; ++i) {
      const Value* row = in.row(begin + i);
      for (int k = 0; k < width; ++k) {
        keys[i * width + k] = row[group_cols[k]];
      }
    }
  }
  if (value_col >= 0) GatherKeyColumn(in, value_col, begin, end, vals);
}

// Per-worker partial tables over a morsel-grained scan, then a pairwise
// merge tree. Which worker sees which rows varies run to run; the final
// accumulators do not (exact algebraic partials + unique-key sort).
StatusOr<Relation> RunTreeMerge(const std::vector<RelationView>& inputs,
                                const std::vector<int>& group_cols,
                                int value_col, AggregateOp op,
                                const GroupByEngineOptions& options,
                                uint64_t hash_mask, bool columnar) {
  const int width = static_cast<int>(group_cols.size());
  const int slots =
      options.pool != nullptr ? options.pool->num_threads() : 1;
  std::vector<GroupTable> tables(slots, GroupTable(width));
  // Slot 0 is the calling thread; workers map to 1..slots-1. Each slot is
  // only ever touched by its own thread, so no synchronization is needed.
  std::vector<Status> errors(slots, OkStatus());
  const int64_t grain = std::max<int64_t>(1, options.morsel_rows);
  for (const RelationView& in : inputs) {
    const auto scan = [&](int64_t begin, int64_t end) {
      const int slot = ThreadPool::current_worker_index() + 1;
      GroupTable& table = tables[slot];
      if (!errors[slot].ok()) return;  // Drain remaining morsels cheaply.
      if (columnar) {
        // Columnar scan: compact the grouping + value columns for this
        // morsel, then hash/accumulate over the contiguous copies — the
        // wide rows are read exactly once. Hashes and accumulation order
        // match the row path, so outputs are bit-identical.
        const int64_t n = end - begin;
        std::vector<Value> keys(static_cast<size_t>(n) * width);
        std::vector<Value> vals(value_col >= 0 ? static_cast<size_t>(n) : 0);
        CompactScanColumns(in, group_cols, value_col, begin, end,
                           keys.data(), vals.data());
        // Single-column keys hash as one SIMD pass over the compacted
        // column (bit-identical to HashKey by the splitmix identity).
        std::vector<uint64_t> hashes;
        if (width == 1) {
          hashes.resize(static_cast<size_t>(n));
          simd::GroupHashMany(keys.data(), n, kGroupHashSeed, hash_mask,
                              hashes.data());
        }
        for (int64_t i = 0; i < n; ++i) {
          const Value* key = keys.data() + i * width;
          const uint64_t h =
              width == 1 ? hashes[i] : HashKey(key, width) & hash_mask;
          auto [acc, inserted] = table.Upsert(h, key);
          const Value value = value_col >= 0 ? vals[i] : 0;
          if (!AccumulateRow(acc, inserted, value, op)) {
            errors[slot] =
                OutOfRangeError("group-by aggregate overflows Value");
            return;
          }
        }
        return;
      }
      std::vector<Value> key(width);
      for (int64_t i = begin; i < end; ++i) {
        const Value* row = in.row(i);
        for (int k = 0; k < width; ++k) key[k] = row[group_cols[k]];
        const uint64_t h = HashKey(key.data(), width) & hash_mask;
        auto [acc, inserted] = table.Upsert(h, key.data());
        const Value value = value_col >= 0 ? row[value_col] : 0;
        if (!AccumulateRow(acc, inserted, value, op)) {
          errors[slot] = OutOfRangeError("group-by aggregate overflows Value");
          return;
        }
      }
    };
    if (options.pool != nullptr) {
      options.pool->ParallelForGrained(in.size(), grain, scan);
    } else if (!in.empty()) {
      scan(0, in.size());
    }
  }
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  // Pairwise merge tree: level l merges table i+stride into table i. The
  // tree shape depends only on the slot count; the merged contents do not.
  for (int stride = 1; stride < slots; stride *= 2) {
    std::vector<int> lhs;
    for (int i = 0; i + stride < slots; i += 2 * stride) lhs.push_back(i);
    const auto merge = [&](int64_t j) {
      const int i = lhs[j];
      if (!MergeTable(&tables[i], tables[i + stride], op)) {
        errors[i] = OutOfRangeError("group-by aggregate overflows Value");
      }
    };
    if (options.pool != nullptr) {
      options.pool->ParallelFor(static_cast<int64_t>(lhs.size()), merge);
    } else {
      for (int64_t j = 0; j < static_cast<int64_t>(lhs.size()); ++j) {
        merge(j);
      }
    }
    for (const Status& s : errors) {
      if (!s.ok()) return s;
    }
  }
  const GroupTable& final_table = tables[0];
  std::vector<std::pair<const Value*, Value>> groups;
  groups.reserve(static_cast<size_t>(final_table.num_groups()));
  for (const GroupTable::Entry& e : final_table.entries()) {
    groups.push_back({final_table.key_of(e), e.acc});
  }
  return EmitSorted(&groups, width, options.pool, grain);
}

// Two-phase radix: count rows per (morsel, partition), prefix-sum exact
// scatter offsets, scatter (hash, row pointer) pairs — or (hash, compact
// key, value) triples when `columnar` — then aggregate each partition with
// its own table; partitions are disjoint by construction, so the
// per-partition builds need no merge and no locks.
StatusOr<Relation> RunRadix(const std::vector<RelationView>& inputs,
                            const std::vector<int>& group_cols, int value_col,
                            AggregateOp op,
                            const GroupByEngineOptions& options,
                            uint64_t hash_mask, int64_t total_rows,
                            bool columnar) {
  const int width = static_cast<int>(group_cols.size());
  const int64_t grain = std::max<int64_t>(1, options.morsel_rows);
  constexpr int P = kRadixPartitions;

  // Morsel decomposition over all inputs — derived from (sizes, grain)
  // only, so the scatter layout is thread-count independent.
  struct Chunk {
    const RelationView* input;
    int64_t begin, end;    // Row range within *input.
    int64_t offset;        // Flat offset of `begin` across all inputs.
  };
  std::vector<Chunk> chunks;
  int64_t flat = 0;
  for (const RelationView& in : inputs) {
    for (int64_t b = 0; b < in.size(); b += grain) {
      const int64_t e = std::min(in.size(), b + grain);
      chunks.push_back({&in, b, e, flat + b});
    }
    flat += in.size();
  }
  const int64_t num_chunks = static_cast<int64_t>(chunks.size());

  // Columnar: the grouping + value columns are compacted into flat arrays
  // (aligned with `hashes`) during pass 1, so the scatter and build
  // passes below never touch the wide input rows again.
  std::vector<Value> all_keys;
  std::vector<Value> all_vals;
  if (columnar) {
    all_keys.resize(static_cast<size_t>(total_rows) * width);
    if (value_col >= 0) all_vals.resize(static_cast<size_t>(total_rows));
  }

  // Pass 1: per-chunk hashes + per-(chunk, partition) counts.
  std::vector<uint64_t> hashes(static_cast<size_t>(total_rows));
  std::vector<int64_t> counts(static_cast<size_t>(num_chunks) * P, 0);
  const auto count_pass = [&](int64_t c) {
    const Chunk& ch = chunks[c];
    int64_t* my_counts = counts.data() + c * P;
    if (columnar) {
      const int64_t n = ch.end - ch.begin;
      Value* keys = all_keys.data() + ch.offset * width;
      Value* vals = value_col >= 0 ? all_vals.data() + ch.offset : nullptr;
      CompactScanColumns(*ch.input, group_cols, value_col, ch.begin, ch.end,
                         keys, vals);
      // Batched: one SIMD hash pass over the compacted keys (width 1),
      // then the shared top-byte histogram kernel for the radix counts.
      uint64_t* my_hashes = hashes.data() + ch.offset;
      if (width == 1) {
        simd::GroupHashMany(keys, n, kGroupHashSeed, hash_mask, my_hashes);
      } else {
        for (int64_t i = 0; i < n; ++i) {
          my_hashes[i] = HashKey(keys + i * width, width) & hash_mask;
        }
      }
      simd::HistogramTopBits(my_hashes, n, kRadixBits, my_counts);
      return;
    }
    std::vector<Value> key(width);
    for (int64_t i = ch.begin; i < ch.end; ++i) {
      const Value* row = ch.input->row(i);
      for (int k = 0; k < width; ++k) key[k] = row[group_cols[k]];
      const uint64_t h = HashKey(key.data(), width) & hash_mask;
      hashes[static_cast<size_t>(ch.offset + (i - ch.begin))] = h;
      ++my_counts[h >> kRadixShift];
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(num_chunks, count_pass);
  } else {
    for (int64_t c = 0; c < num_chunks; ++c) count_pass(c);
  }

  // Exact partition-major offsets (serial: num_chunks x 256 entries).
  std::vector<int64_t> chunk_offsets(static_cast<size_t>(num_chunks) * P);
  std::vector<int64_t> part_begin(P + 1, 0);
  int64_t run = 0;
  for (int p = 0; p < P; ++p) {
    part_begin[p] = run;
    for (int64_t c = 0; c < num_chunks; ++c) {
      chunk_offsets[c * P + p] = run;
      run += counts[c * P + p];
    }
  }
  part_begin[P] = run;

  // Pass 2: scatter into partition-contiguous arrays at the precomputed
  // disjoint offsets — (hash, row pointer) pairs on the row path, (hash,
  // compact key, value) triples on the columnar path. Scatter order within
  // a partition is flat-offset order either way, so the partition builds
  // upsert in the same sequence and produce identical tables.
  std::vector<uint64_t> part_hash(static_cast<size_t>(total_rows));
  std::vector<const Value*> part_row;
  std::vector<Value> part_keys;
  std::vector<Value> part_vals;
  if (columnar) {
    part_keys.resize(static_cast<size_t>(total_rows) * width);
    if (value_col >= 0) part_vals.resize(static_cast<size_t>(total_rows));
  } else {
    part_row.resize(static_cast<size_t>(total_rows));
  }
  const auto scatter_pass = [&](int64_t c) {
    const Chunk& ch = chunks[c];
    int64_t* cursor = chunk_offsets.data() + c * P;
    if (columnar) {
      const int64_t n = ch.end - ch.begin;
      const Value* keys = all_keys.data() + ch.offset * width;
      for (int64_t i = 0; i < n; ++i) {
        const uint64_t h = hashes[static_cast<size_t>(ch.offset + i)];
        const int64_t pos = cursor[h >> kRadixShift]++;
        part_hash[static_cast<size_t>(pos)] = h;
        std::copy(keys + i * width, keys + (i + 1) * width,
                  part_keys.data() + pos * width);
        if (value_col >= 0) {
          part_vals[static_cast<size_t>(pos)] =
              all_vals[static_cast<size_t>(ch.offset + i)];
        }
      }
      return;
    }
    for (int64_t i = ch.begin; i < ch.end; ++i) {
      const uint64_t h =
          hashes[static_cast<size_t>(ch.offset + (i - ch.begin))];
      const int64_t pos = cursor[h >> kRadixShift]++;
      part_hash[static_cast<size_t>(pos)] = h;
      part_row[static_cast<size_t>(pos)] = ch.input->row(i);
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(num_chunks, scatter_pass);
  } else {
    for (int64_t c = 0; c < num_chunks; ++c) scatter_pass(c);
  }

  // Pass 3: build each partition's table independently.
  std::vector<GroupTable> tables(P, GroupTable(width));
  std::vector<Status> errors(P, OkStatus());
  const auto build_pass = [&](int64_t p) {
    GroupTable& table = tables[p];
    if (columnar) {
      for (int64_t i = part_begin[p]; i < part_begin[p + 1]; ++i) {
        auto [acc, inserted] = table.Upsert(
            part_hash[static_cast<size_t>(i)], part_keys.data() + i * width);
        const Value value =
            value_col >= 0 ? part_vals[static_cast<size_t>(i)] : 0;
        if (!AccumulateRow(acc, inserted, value, op)) {
          errors[p] = OutOfRangeError("group-by aggregate overflows Value");
          return;
        }
      }
      return;
    }
    std::vector<Value> key(width);
    for (int64_t i = part_begin[p]; i < part_begin[p + 1]; ++i) {
      const Value* row = part_row[static_cast<size_t>(i)];
      for (int k = 0; k < width; ++k) key[k] = row[group_cols[k]];
      auto [acc, inserted] =
          table.Upsert(part_hash[static_cast<size_t>(i)], key.data());
      const Value value = value_col >= 0 ? row[value_col] : 0;
      if (!AccumulateRow(acc, inserted, value, op)) {
        errors[p] = OutOfRangeError("group-by aggregate overflows Value");
        return;
      }
    }
  };
  if (options.pool != nullptr) {
    options.pool->ParallelFor(P, build_pass);
  } else {
    for (int64_t p = 0; p < P; ++p) build_pass(p);
  }
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }

  int64_t num_groups = 0;
  for (const GroupTable& t : tables) num_groups += t.num_groups();
  std::vector<std::pair<const Value*, Value>> groups;
  groups.reserve(static_cast<size_t>(num_groups));
  for (const GroupTable& t : tables) {
    for (const GroupTable::Entry& e : t.entries()) {
      groups.push_back({t.key_of(e), e.acc});
    }
  }
  return EmitSorted(&groups, width, options.pool, grain);
}

}  // namespace

const char* GroupByStrategyName(GroupByStrategy strategy) {
  switch (strategy) {
    case GroupByStrategy::kAdaptive:
      return "adaptive";
    case GroupByStrategy::kSortedMap:
      return "sorted-map";
    case GroupByStrategy::kTreeMerge:
      return "tree-merge";
    case GroupByStrategy::kRadix:
      return "radix";
  }
  return "unknown";
}

GroupByStrategy ChooseGroupByStrategy(const std::vector<RelationView>& inputs,
                                      const std::vector<int>& group_cols) {
  int64_t total = 0;
  for (const RelationView& in : inputs) total += in.size();
  if (total <= kSmallInputRows) return GroupByStrategy::kSortedMap;
  // Estimate rows-per-group density from a prefix of each input. Reads
  // only the data, so the choice — and therefore the output bytes — never
  // depends on thread count or morsel size.
  const int width = static_cast<int>(group_cols.size());
  FlatCounter distinct;
  int64_t sampled = 0;
  std::vector<Value> key(group_cols.size());
  for (const RelationView& in : inputs) {
    const int64_t take = std::min(in.size(), kSampleRowsPerInput);
    for (int64_t i = 0; i < take; ++i) {
      const Value* row = in.row(i);
      for (int k = 0; k < width; ++k) key[k] = row[group_cols[k]];
      distinct.Add(HashKey(key.data(), width));
    }
    sampled += take;
  }
  if (distinct.num_keys() * kTreeMergeDensity <= sampled) {
    return GroupByStrategy::kTreeMerge;
  }
  return GroupByStrategy::kRadix;
}

StatusOr<Relation> GroupByAggregateParallel(
    const std::vector<RelationView>& inputs,
    const std::vector<int>& group_cols, int value_col, AggregateOp op,
    const GroupByEngineOptions& options) {
  // Validate against the first non-trivial input; all inputs must agree.
  int arity = -1;
  int64_t total_rows = 0;
  for (const RelationView& in : inputs) {
    if (arity == -1) {
      arity = in.arity();
    } else {
      MPCQP_CHECK_EQ(in.arity(), arity);
    }
    total_rows += in.size();
  }
  if (arity == -1) arity = 0;
  MPCQP_CHECK(value_col >= 0 || op == AggregateOp::kCount);
  if (value_col >= 0) MPCQP_CHECK_LT(value_col, arity);
  for (int c : group_cols) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, arity);
  }
  // Nullary inputs (no columns at all): only COUNT over the scalar group
  // is expressible, and the answer is just the row count.
  if (arity == 0) {
    MPCQP_CHECK(group_cols.empty());
    Relation out(1);
    if (total_rows > 0) out.AppendRow({static_cast<Value>(total_rows)});
    return out;
  }

  GroupByStrategy strategy = options.strategy;
  if (strategy == GroupByStrategy::kAdaptive) {
    strategy = ChooseGroupByStrategy(inputs, group_cols);
  }
  MPCQP_CHECK_GE(options.hash_bits, 1);
  MPCQP_CHECK_LE(options.hash_bits, 64);
  const uint64_t hash_mask = options.hash_bits >= 64
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << options.hash_bits) - 1;

  // Columnar scan decision: derived from (arity, columns read) only —
  // never thread count or morsel size — so the same path runs in every
  // decomposition and outputs stay bit-identical.
  const int columns_read =
      static_cast<int>(group_cols.size()) + (value_col >= 0 ? 1 : 0);
  const bool columnar = UseColumnarScan(arity, columns_read);

  MPCQP_TRACE_SCOPE_ARG("group-by engine", "compute", total_rows);
  switch (strategy) {
    case GroupByStrategy::kSortedMap:
      return RunSortedMap(inputs, group_cols, value_col, op);
    case GroupByStrategy::kTreeMerge:
      return RunTreeMerge(inputs, group_cols, value_col, op, options,
                          hash_mask, columnar);
    case GroupByStrategy::kRadix:
      return RunRadix(inputs, group_cols, value_col, op, options, hash_mask,
                      total_rows, columnar);
    case GroupByStrategy::kAdaptive:
      break;  // Resolved above.
  }
  MPCQP_CHECK(false) << "unreachable group-by strategy";
  return InvalidArgumentError("unreachable");
}

StatusOr<Relation> GroupByAggregateParallel(
    RelationView input, const std::vector<int>& group_cols, int value_col,
    AggregateOp op, const GroupByEngineOptions& options) {
  return GroupByAggregateParallel(std::vector<RelationView>{input},
                                  group_cols, value_col, op, options);
}

}  // namespace mpcqp
