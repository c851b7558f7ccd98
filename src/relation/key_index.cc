#include "relation/key_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "relation/columnar.h"

namespace mpcqp {

namespace {

// A fixed seed: the index is an in-memory structure, not a partitioning
// decision, so it does not need to vary across runs.
constexpr uint64_t kIndexSeed = 0x1d8af066u;

// Inputs below this row count build serially in one partition; the
// partitioned two-phase build only pays for itself on large fragments.
constexpr int64_t kPartitionMinRows = int64_t{1} << 13;
// Directory partitions (top hash bits) for large builds; independent of
// the thread count so the index layout is identical for every pool size.
constexpr int kLargeBuildPartitionBits = 6;
// Target rows per counting/scatter morsel.
constexpr int64_t kMorselRows = 8192;
// Directory entries are 4-byte group ids with 0 reserved for empty.
constexpr int64_t kMaxGroupsPerPartition = (int64_t{1} << 32) - 1;

int64_t NextPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// The index's (seeded, fixed) hash function; shared by the per-key and
// batched paths so both produce identical hashes.
const HashFunction& IndexHash() {
  static const HashFunction kHash(kIndexSeed);
  return kHash;
}

}  // namespace

KeyIndex::KeyIndex(RelationView view, std::vector<int> key_cols,
                   ThreadPool* pool)
    : view_(view), key_cols_(std::move(key_cols)) {
  Build(pool);
}

KeyIndex::KeyIndex(RelationView view, std::vector<int> key_cols,
                   KeyHashFn test_hash, ThreadPool* pool)
    : view_(view),
      key_cols_(std::move(key_cols)),
      test_hash_(std::move(test_hash)) {
  Build(pool);
}

void KeyIndex::Build(ThreadPool* pool) {
  for (int c : key_cols_) {
    MPCQP_CHECK_GE(c, 0);
    MPCQP_CHECK_LT(c, view_.arity());
  }
  const int64_t n = view_.size();
  MPCQP_TRACE_SCOPE_ARG("key_index build", "compute", n);

  part_bits_ = n < kPartitionMinRows ? 0 : kLargeBuildPartitionBits;
  const int64_t num_parts = int64_t{1} << part_bits_;
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  std::vector<uint32_t> gid(static_cast<size_t>(n));
  arena_.resize(static_cast<size_t>(n));
  groups_.resize(static_cast<size_t>(n));
  parts_.resize(static_cast<size_t>(num_parts));

  // Directory layout: one power-of-two linear-probe slice per partition at
  // load factor <= 0.5 (so probes always hit an empty slot and terminate).
  // `part_begin` holds each partition's first row in partition-major
  // order, which is also where its arena range and group slice start.
  const auto lay_out = [&](const std::vector<int64_t>& part_begin) {
    int64_t dir_size = 0;
    for (int64_t part = 0; part < num_parts; ++part) {
      const int64_t rows = part_begin[part + 1] - part_begin[part];
      const int64_t cap = NextPow2(std::max<int64_t>(2, 2 * rows));
      parts_[part] = {dir_size, static_cast<uint64_t>(cap - 1),
                      part_begin[part]};
      dir_size += cap;
    }
    dir_.assign(static_cast<size_t>(dir_size), 0);
  };

  if (part_bits_ == 0) {
    // One partition: group the rows in row order, no scatter.
    lay_out({0, n});
    if (n == 0) return;
    HashRows(0, n, hashes.data());
    num_distinct_keys_ = GroupPartition(parts_[0], n, /*rows=*/nullptr,
                                        hashes.data(), 0, gid.data());
    return;
  }

  const int64_t morsels =
      (pool == nullptr || pool->num_threads() <= 1)
          ? 1
          : std::min<int64_t>(static_cast<int64_t>(pool->num_threads()) * 4,
                              (n + kMorselRows - 1) / kMorselRows);
  const auto morsel_range = [&](int64_t m) {
    return std::pair<int64_t, int64_t>{m * n / morsels,
                                       (m + 1) * n / morsels};
  };
  const auto part_of = [&](uint64_t h) {
    return static_cast<int64_t>(h >> (64 - part_bits_));
  };

  // Phase 1 (morsel-parallel): hash every row's key and count rows per
  // (morsel, partition).
  std::vector<int64_t> counts(static_cast<size_t>(morsels * num_parts), 0);
  const auto count_morsel = [&](int64_t m) {
    const auto [begin, end] = morsel_range(m);
    HashRows(begin, end, hashes.data() + begin);
    simd::HistogramTopBits(hashes.data() + begin, end - begin, part_bits_,
                           counts.data() + m * num_parts);
  };
  if (morsels == 1) {
    count_morsel(0);
  } else {
    pool->ParallelFor(morsels, count_morsel);
  }

  // Prefix sum (partition-major, then morsel order within a partition):
  // every (morsel, partition) cell gets its exact scatter offset, so the
  // partitioned arrays stay in ascending row order for any morsel count.
  std::vector<int64_t> part_begin(static_cast<size_t>(num_parts) + 1, 0);
  std::vector<int64_t> offsets(static_cast<size_t>(morsels * num_parts), 0);
  int64_t pos = 0;
  for (int64_t part = 0; part < num_parts; ++part) {
    part_begin[part] = pos;
    for (int64_t m = 0; m < morsels; ++m) {
      offsets[m * num_parts + part] = pos;
      pos += counts[m * num_parts + part];
    }
  }
  part_begin[num_parts] = n;
  lay_out(part_begin);

  // Phase 2 (morsel-parallel): scatter (row, hash) into partition-major
  // order.
  std::vector<int64_t> part_rows(static_cast<size_t>(n));
  std::vector<uint64_t> part_hashes(static_cast<size_t>(n));
  const auto scatter_morsel = [&](int64_t m) {
    const auto [begin, end] = morsel_range(m);
    int64_t* my_offsets = offsets.data() + m * num_parts;
    for (int64_t r = begin; r < end; ++r) {
      const uint64_t h = hashes[r];
      const int64_t at = my_offsets[part_of(h)]++;
      part_rows[at] = r;
      part_hashes[at] = h;
    }
  };
  if (morsels == 1) {
    scatter_morsel(0);
  } else {
    pool->ParallelFor(morsels, scatter_morsel);
  }

  // Phase 3 (partition-parallel): group each partition's rows by exact
  // key. Rows arrive in ascending row order, so the layout is identical
  // for every thread count.
  std::vector<int64_t> distinct(static_cast<size_t>(num_parts), 0);
  const auto build_partition = [&](int64_t part) {
    const int64_t base = part_begin[part];
    distinct[part] = GroupPartition(
        parts_[part], part_begin[part + 1] - base, part_rows.data() + base,
        part_hashes.data() + base, base, gid.data() + base);
  };
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int64_t part = 0; part < num_parts; ++part) build_partition(part);
  } else {
    pool->ParallelFor(num_parts, build_partition);
  }
  for (int64_t part = 0; part < num_parts; ++part) {
    num_distinct_keys_ += distinct[part];
  }
}

void KeyIndex::HashRows(int64_t begin, int64_t end, uint64_t* out) const {
  // Single-column keys without a test hash gather the key column into a
  // contiguous scratch (the shared GatherKeyColumn kernel) and hash it
  // with one vectorized HashMany pass — bit-identical to the per-row
  // HashSpan by the splitmix identity.
  if (key_cols_.size() == 1 && !test_hash_) {
    std::vector<Value> keys(static_cast<size_t>(end - begin));
    GatherKeyColumn(view_, key_cols_[0], begin, end, keys.data());
    IndexHash().HashMany(keys.data(), end - begin, out);
    return;
  }
  std::vector<Value> key(key_cols_.size());
  for (int64_t r = begin; r < end; ++r) {
    const Value* row = RowPtr(view_, r);
    for (size_t i = 0; i < key_cols_.size(); ++i) key[i] = row[key_cols_[i]];
    out[r - begin] = HashKey(key.data());
  }
}

int64_t KeyIndex::GroupPartition(const Partition& part, int64_t count,
                                 const int64_t* rows, const uint64_t* hashes,
                                 int64_t arena_begin, uint32_t* gid) {
  uint32_t* dir = dir_.data() + part.dir_begin;
  Group* groups = groups_.data() + part.group_begin;
  int64_t num_groups = 0;
  for (int64_t i = 0; i < count; ++i) {
    const int64_t r = rows != nullptr ? rows[i] : i;
    const uint64_t h = hashes[i];
    for (uint64_t idx = h & part.mask;; idx = (idx + 1) & part.mask) {
      const uint32_t id = dir[idx];
      if (id == 0) {
        MPCQP_CHECK_LT(num_groups, kMaxGroupsPerPartition);
        groups[num_groups] = {h, r, 1};
        dir[idx] = gid[i] = static_cast<uint32_t>(++num_groups);
        break;
      }
      Group& g = groups[id - 1];
      if (g.hash != h) continue;
      // Hash match: confirm exact key equality against the group's first
      // row (distinct keys can share a 64-bit hash).
      const Value* first = RowPtr(view_, g.offset);
      const Value* row = RowPtr(view_, r);
      bool same = true;
      for (int c : key_cols_) {
        if (first[c] != row[c]) {
          same = false;
          break;
        }
      }
      if (same) {
        ++g.len;
        gid[i] = id;
        break;
      }
    }
  }
  // Each group's offset becomes the end of its arena range; the rows then
  // fill every range back to front, so each ends ascending and each
  // offset ends at its range's start.
  int64_t at = arena_begin;
  for (int64_t g = 0; g < num_groups; ++g) {
    at += groups[g].len;
    groups[g].offset = at;
  }
  for (int64_t i = count - 1; i >= 0; --i) {
    arena_[--groups[gid[i] - 1].offset] = rows != nullptr ? rows[i] : i;
  }
  return num_groups;
}

uint64_t KeyIndex::HashKey(const Value* key) const {
  if (test_hash_) {
    return test_hash_(key, static_cast<int>(key_cols_.size()));
  }
  return IndexHash().HashSpan(key, static_cast<int>(key_cols_.size()));
}

void KeyIndex::HashKeys(const Value* keys, int64_t count,
                        uint64_t* out) const {
  if (!test_hash_ && key_cols_.size() == 1) {
    IndexHash().HashMany(keys, count, out);
    return;
  }
  const int width = static_cast<int>(key_cols_.size());
  for (int64_t i = 0; i < count; ++i) {
    out[i] = HashKey(keys + static_cast<size_t>(i) * width);
  }
}

std::span<const int64_t> KeyIndex::Lookup(const Value* key) const {
  return LookupWithHash(HashKey(key), key);
}

}  // namespace mpcqp
