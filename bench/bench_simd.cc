// SIMD kernel throughput study (EXPERIMENTS.md E23): every kernel in
// common/simd.h timed against a VERBATIM scalar baseline embedded in this
// file — the baselines deliberately bypass the dispatch layer entirely, so
// a mis-dispatched or subtly slow kernel table cannot grade itself.
//
// Emits BENCH_simd.json. CI runs this binary as a Release gate and fails
// (exit 1) if
//  - any kernel's output differs from the embedded baseline at t=1 or
//    t=8 (including a lane-unfriendly tail count), or
//  - hash / bucket show less than 1.3x speedup over the
//    baseline at t=8 when AVX2 is dispatched, or
//  - any kernel loses to its baseline (beyond a 10% noise band) at t=8
//    when any vector level is dispatched.
// On a scalar-only dispatch (hardware or MPCQP_SIMD_LEVEL cap) the speed
// gates are skipped — identical code on both sides has no contract to
// enforce — and only bit-identity is checked.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"

namespace mpcqp {
namespace {

using bench::BenchJson;
using bench::Fmt;
using bench::Table;
using bench::WallTimer;

constexpr int kReps = 3;  // Best-of-N wall times.
constexpr int64_t kRows = 4000000;
constexpr int64_t kGrain = 65536;  // Per-task chunk of the parallel driver.
// Vector kernels must not lose at t=8; a band absorbs scheduler noise.
constexpr double kNoiseBand = 1.10;
// Headline gate on the mixing-bound kernels when AVX2 is dispatched.
constexpr double kHeadlineSpeedup = 1.3;
constexpr uint64_t kWhitening = 0x5851f42d4c957f2dULL;

// ---- Embedded scalar baselines (verbatim reference semantics) ----
// These mirror the scalar reference loops the dispatch layer promises to
// match, but live here so the gate never measures the library against
// itself.
namespace baseline {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void HashMany(const uint64_t* values, int64_t count, uint64_t whitening,
              uint64_t* out) {
  for (int64_t i = 0; i < count; ++i) {
    out[i] = SplitMix64(values[i] ^ whitening);
  }
}

void BucketMany(const uint64_t* values, int64_t count, uint64_t whitening,
                int num_buckets, int32_t* out) {
  const auto p = static_cast<unsigned __int128>(num_buckets);
  for (int64_t i = 0; i < count; ++i) {
    out[i] =
        static_cast<int32_t>((SplitMix64(values[i] ^ whitening) * p) >> 64);
  }
}

void HistogramTopBits(const uint64_t* hashes, int64_t count, int bits,
                      int64_t* counts) {
  const int shift = 64 - bits;
  for (int64_t i = 0; i < count; ++i) {
    ++counts[hashes[i] >> shift];
  }
}

}  // namespace baseline

double BestOf(const std::function<void()>& body) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    body();
    const double ms = timer.ElapsedMs();
    if (ms < best) best = ms;
  }
  return best;
}

bool g_ok = true;

void Gate(bool pass, const std::string& what) {
  if (!pass) {
    std::printf("FAIL: %s\n", what.c_str());
    g_ok = false;
  }
}

// Chunks [0, count) into kGrain tiles and runs `body(begin, end)` for each
// on the pool — the same shape the morsel-driven operators drive the
// kernels in, so both sides of every comparison share the driver.
void ForChunks(ThreadPool& pool, int64_t count,
               const std::function<void(int64_t, int64_t)>& body) {
  const int64_t chunks = (count + kGrain - 1) / kGrain;
  pool.ParallelFor(chunks, [&](int64_t c) {
    const int64_t begin = c * kGrain;
    const int64_t end = std::min(count, begin + kGrain);
    body(begin, end);
  });
}

struct KernelTimes {
  double base_t1 = 0, vec_t1 = 0, base_t8 = 0, vec_t8 = 0;
};

// Times `run(pool, use_vector)` at {1, 8} threads for both sides, checks
// the speed gates, and records a table row + JSON entries. `headline`
// applies the 1.3x AVX2 gate; every vectorized kernel gets the don't-lose
// band.
void Report(Table* table, BenchJson* json, const std::string& name,
            bool headline, bool vectorized,
            const std::function<void(ThreadPool&, bool)>& run) {
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  KernelTimes t;
  t.base_t1 = BestOf([&] { run(pool1, false); });
  t.vec_t1 = BestOf([&] { run(pool1, true); });
  t.base_t8 = BestOf([&] { run(pool8, false); });
  t.vec_t8 = BestOf([&] { run(pool8, true); });

  const bool scalar_dispatch =
      simd::DispatchedIsa() == simd::IsaLevel::kScalar;
  if (!scalar_dispatch && vectorized) {
    Gate(t.vec_t8 <= t.base_t8 * kNoiseBand,
         name + ": vector loses to embedded scalar baseline at t=8 (" +
             Fmt(t.base_t8 / t.vec_t8, 2) + "x)");
    if (headline && simd::DispatchedIsa() == simd::IsaLevel::kAvx2) {
      Gate(t.base_t8 / t.vec_t8 >= kHeadlineSpeedup,
           name + ": AVX2 speedup below " + Fmt(kHeadlineSpeedup, 1) +
               "x at t=8 (" + Fmt(t.base_t8 / t.vec_t8, 2) + "x)");
    }
  }

  table->AddRow({name, Fmt(t.base_t1, 2), Fmt(t.vec_t1, 2), Fmt(t.base_t8, 2),
                 Fmt(t.vec_t8, 2), Fmt(t.base_t8 / t.vec_t8, 2)});
  json->Set(name + "_baseline_t1_ms", t.base_t1);
  json->Set(name + "_vector_t1_ms", t.vec_t1);
  json->Set(name + "_baseline_t8_ms", t.base_t8);
  json->Set(name + "_vector_t8_ms", t.vec_t8);
  json->Set(name + "_speedup_t8", t.base_t8 / t.vec_t8);
}

std::vector<uint64_t> MakeValues(int64_t count) {
  std::vector<uint64_t> values(static_cast<size_t>(count));
  uint64_t x = 0x243f6a8885a308d3ULL;  // Weyl sequence: cheap, full-period.
  for (auto& v : values) {
    v = x;
    x += 0x9e3779b97f4a7c15ULL;
  }
  return values;
}

// Bit-identity against the embedded baselines at a lane-unfriendly tail
// count, at both thread counts — independent of the wall-time runs so a
// fast-but-wrong kernel cannot pass.
void CheckParity(const std::vector<uint64_t>& values) {
  const int64_t counts[] = {kRows, kRows - 3};
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (ThreadPool* pool : {&pool1, &pool8}) {
    for (const int64_t n : counts) {
      std::vector<uint64_t> want(static_cast<size_t>(n));
      std::vector<uint64_t> got(static_cast<size_t>(n));
      baseline::HashMany(values.data(), n, kWhitening, want.data());
      ForChunks(*pool, n, [&](int64_t b, int64_t e) {
        simd::HashMany(values.data() + b, e - b, kWhitening, got.data() + b);
      });
      Gate(want == got, "hash parity mismatch");

      std::vector<int32_t> want_b(static_cast<size_t>(n));
      std::vector<int32_t> got_b(static_cast<size_t>(n));
      baseline::BucketMany(values.data(), n, kWhitening, 1000, want_b.data());
      ForChunks(*pool, n, [&](int64_t b, int64_t e) {
        simd::BucketMany(values.data() + b, e - b, kWhitening, 1000,
                         got_b.data() + b);
      });
      Gate(want_b == got_b, "bucket parity mismatch");

      std::vector<int64_t> want_h(256, 0), got_h(256, 0);
      baseline::HistogramTopBits(values.data(), n, 8, want_h.data());
      simd::HistogramTopBits(values.data(), n, 8, got_h.data());
      Gate(want_h == got_h, "histogram parity mismatch");
    }
  }
}

}  // namespace
}  // namespace mpcqp

int main() {
  using namespace mpcqp;  // NOLINT
  BenchJson json("simd");

  const char* isa = simd::IsaLevelName(simd::DispatchedIsa());
  bench::Banner("SIMD kernels vs embedded scalar baselines — dispatched: " +
                std::string(isa) + ", " + std::to_string(kRows) +
                " values, threads {1, 8}, best of " + std::to_string(kReps));

  const std::vector<uint64_t> values = MakeValues(kRows);
  CheckParity(values);

  Table table({"kernel", "base t1", "vec t1", "base t8", "vec t8",
               "speedup t8"});

  std::vector<uint64_t> out64(static_cast<size_t>(kRows));
  std::vector<int32_t> out32(static_cast<size_t>(kRows));

  Report(&table, &json, "hash", /*headline=*/true, /*vectorized=*/true,
         [&](ThreadPool& pool, bool vec) {
           ForChunks(pool, kRows, [&](int64_t b, int64_t e) {
             (vec ? simd::HashMany : baseline::HashMany)(
                 values.data() + b, e - b, kWhitening, out64.data() + b);
           });
         });

  Report(&table, &json, "bucket", /*headline=*/true, /*vectorized=*/true,
         [&](ThreadPool& pool, bool vec) {
           ForChunks(pool, kRows, [&](int64_t b, int64_t e) {
             (vec ? simd::BucketMany : baseline::BucketMany)(
                 values.data() + b, e - b, kWhitening, 1000,
                 out32.data() + b);
           });
         });

  // Histogram: the KeyIndex partition count pass. The library implementation
  // is the interleaved scalar loop at every level (scatter-shaped), so no
  // vector gate applies — the JSON trajectory tracks the interleaving win.
  Report(&table, &json, "histogram", /*headline=*/false, /*vectorized=*/false,
         [&](ThreadPool& pool, bool vec) {
           const int64_t chunks = (kRows + kGrain - 1) / kGrain;
           std::vector<int64_t> counts(static_cast<size_t>(chunks) * 256, 0);
           ForChunks(pool, kRows, [&](int64_t b, int64_t e) {
             int64_t* mine = counts.data() + (b / kGrain) * 256;
             if (vec) {
               simd::HistogramTopBits(values.data() + b, e - b, 8, mine);
             } else {
               baseline::HistogramTopBits(values.data() + b, e - b, 8, mine);
             }
           });
         });

  table.Print();

  json.Set("rows", kRows);
  json.Set("gate_ok", g_ok ? "pass" : "fail");
  json.Write();
  if (!g_ok) {
    std::printf("\nsimd bench gate FAILED (dispatched: %s)\n", isa);
    return 1;
  }
  std::printf(
      "\nsimd bench gate passed (dispatched: %s): outputs bit-identical to "
      "embedded baselines; vector kernels hold their speedup gates at t=8\n",
      isa);
  return 0;
}
