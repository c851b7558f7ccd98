#include "mpc/dist_relation.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"

namespace mpcqp {

namespace {

// Rows per tile for the pool-backed bulk paths (Scatter/Collect). These
// helpers run outside any Cluster, so the grain is a local constant; like
// the exchange morsels it derives from input sizes only.
constexpr int64_t kBulkMorselRows = 8192;

}  // namespace

DistRelation::DistRelation(int arity, int num_servers) : arity_(arity) {
  MPCQP_CHECK_GT(num_servers, 0);
  fragments_.assign(num_servers, Relation(arity));
}

DistRelation::DistRelation(std::vector<Relation> fragments)
    : arity_(fragments.front().arity()), fragments_(std::move(fragments)) {}

DistRelation DistRelation::FromFragments(std::vector<Relation> fragments) {
  MPCQP_CHECK(!fragments.empty());
  for (const Relation& f : fragments) {
    MPCQP_CHECK_EQ(f.arity(), fragments.front().arity());
  }
  return DistRelation(std::move(fragments));
}

DistRelation DistRelation::Scatter(const Relation& input, int num_servers,
                                   ThreadPool* pool) {
  MPCQP_CHECK_GT(num_servers, 0);
  DistRelation out(input.arity(), num_servers);
  if (num_servers == 1) {
    out.fragments_[0] = input;  // COW handle: no bytes move.
    return out;
  }
  const int64_t n = input.size();
  const auto place = [&](int s) {
    // Server s gets rows [s*n/p, (s+1)*n/p), copied in one block.
    const int64_t begin = s * n / num_servers;
    const int64_t end = (s + 1) * n / num_servers;
    out.fragments_[s].AppendRange(input, begin, end);
  };
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int s = 0; s < num_servers; ++s) place(s);
  } else {
    // Fragments are distinct objects reading one shared immutable payload,
    // so the block copies are embarrassingly parallel.
    pool->ParallelFor(num_servers,
                      [&](int64_t s) { place(static_cast<int>(s)); });
  }
  return out;
}

int64_t DistRelation::TotalSize() const {
  int64_t total = 0;
  for (const Relation& f : fragments_) total += f.size();
  return total;
}

int64_t DistRelation::MaxFragmentSize() const {
  int64_t best = 0;
  for (const Relation& f : fragments_) best = std::max(best, f.size());
  return best;
}

Relation& DistRelation::fragment(int server) {
  MPCQP_CHECK_GE(server, 0);
  MPCQP_CHECK_LT(server, num_servers());
  return fragments_[server];
}

const Relation& DistRelation::fragment(int server) const {
  MPCQP_CHECK_GE(server, 0);
  MPCQP_CHECK_LT(server, num_servers());
  return fragments_[server];
}

Relation DistRelation::Collect(ThreadPool* pool) const {
  if (fragments_.size() == 1) return fragments_[0];  // COW handle.
  Relation out(arity_);
  if (arity_ == 0 || pool == nullptr || pool->num_threads() <= 1) {
    out.Reserve(TotalSize());
    for (const Relation& f : fragments_) out.Append(f);
    return out;
  }
  // Pool path: pre-size once, then memcpy (fragment, row-range) tiles into
  // their exact offsets — the same bytes the serial append writes.
  struct Tile {
    int src;
    int64_t begin;
    int64_t end;
    int64_t at;  // Destination row offset.
  };
  std::vector<Tile> tiles;
  int64_t total = 0;
  for (int s = 0; s < num_servers(); ++s) {
    const int64_t n = fragments_[s].size();
    for (int64_t begin = 0; begin < n; begin += kBulkMorselRows) {
      const int64_t end = std::min(n, begin + kBulkMorselRows);
      tiles.push_back({s, begin, end, total + begin});
    }
    total += n;
  }
  Value* base = out.ResizeRowsForOverwrite(total);
  pool->ParallelFor(static_cast<int64_t>(tiles.size()), [&](int64_t t) {
    const Tile& tile = tiles[t];
    const Relation& f = fragments_[tile.src];
    std::memcpy(base + tile.at * arity_, f.row(0) + tile.begin * arity_,
                static_cast<size_t>(tile.end - tile.begin) * arity_ *
                    sizeof(Value));
  });
  return out;
}

DistRelation AppendRowIds(const DistRelation& rel) {
  DistRelation out(rel.arity() + 1, rel.num_servers());
  Value id = 0;
  std::vector<Value> row(rel.arity() + 1);
  for (int s = 0; s < rel.num_servers(); ++s) {
    const Relation& frag = rel.fragment(s);
    for (int64_t i = 0; i < frag.size(); ++i) {
      std::copy(frag.row(i), frag.row(i) + rel.arity(), row.begin());
      row[rel.arity()] = id++;
      out.fragment(s).AppendRow(row.data());
    }
  }
  return out;
}

}  // namespace mpcqp
