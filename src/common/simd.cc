#include "common/simd.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/hash.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MPCQP_SIMD_X86 1
#else
#define MPCQP_SIMD_X86 0
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define MPCQP_SIMD_NEON 1
#else
#define MPCQP_SIMD_NEON 0
#endif

// Compile-time cap (IsaLevel rank): 0 = scalar only, 1 adds NEON, 2 adds
// AVX2. Set by the CMake cache variable MPCQP_SIMD_LEVEL; defaults to
// uncapped. Capped sections are compiled out entirely, so a scalar-capped
// build carries no vector code at all.
#ifndef MPCQP_SIMD_LEVEL_CAP
#define MPCQP_SIMD_LEVEL_CAP 2
#endif

// The build intentionally has no global -mavx2 flag (the binary must run
// on any x86-64); every vector function instead carries a function-level
// target attribute, and its helpers are force-inlined into it so the whole
// kernel compiles under one target.
#if MPCQP_SIMD_X86
#define MPCQP_TARGET_AVX2 __attribute__((target("avx2")))
#define MPCQP_TARGET_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline
#endif

namespace mpcqp::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. These ARE the semantics: every vector variant
// below must be bit-identical to them for every input, which is what lets
// the dispatcher swap levels without perturbing outputs or CostReports.
// ---------------------------------------------------------------------------

namespace scalar {

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

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 kernels (x86, 256-bit = 4 uint64 lanes). The performance tier the
// bench gates hold to >= 1.3x over scalar.
// ---------------------------------------------------------------------------

#if MPCQP_SIMD_X86 && MPCQP_SIMD_LEVEL_CAP >= 2
namespace avx2 {

// 64x64 -> low-64 multiply from 32-bit partial products:
// lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32). _mm256_mul_epu32
// multiplies the low 32 bits of each 64-bit lane into a full 64-bit
// product; the high-high partial only feeds bits >= 64 and is dropped.
MPCQP_TARGET_AVX2_INLINE __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)),
                       _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// splitmix64 over every lane; bit-identical to SplitMix64 per lane.
MPCQP_TARGET_AVX2_INLINE __m256i Mix64(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15LL));
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
              _mm256_set1_epi64x(0xbf58476d1ce4e5b9LL));
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
              _mm256_set1_epi64x(0x94d049bb133111ebLL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

// bucket = hi64(hash * p) for p < 2^31, decomposed exactly as
// (hi32(h)*p + (lo32(h)*p >> 32)) >> 32 — both partials fit 64 bits and
// the discarded low bits of lo32(h)*p cannot carry into bit 64.
MPCQP_TARGET_AVX2_INLINE __m256i BucketReduce(__m256i h, __m256i p) {
  const __m256i hi_prod = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), p);
  const __m256i lo_prod = _mm256_srli_epi64(_mm256_mul_epu32(h, p), 32);
  return _mm256_srli_epi64(_mm256_add_epi64(hi_prod, lo_prod), 32);
}

MPCQP_TARGET_AVX2
void HashMany(const uint64_t* values, int64_t count, uint64_t whitening,
              uint64_t* out) {
  const __m256i w = _mm256_set1_epi64x(static_cast<int64_t>(whitening));
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        Mix64(_mm256_xor_si256(v, w)));
  }
  for (; i < count; ++i) {
    out[i] = SplitMix64(values[i] ^ whitening);
  }
}

MPCQP_TARGET_AVX2
void BucketMany(const uint64_t* values, int64_t count, uint64_t whitening,
                int num_buckets, int32_t* out) {
  const __m256i w = _mm256_set1_epi64x(static_cast<int64_t>(whitening));
  const __m256i p = _mm256_set1_epi64x(num_buckets);
  // Picks the even 32-bit lane (the bucket) out of each 64-bit lane.
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i b = BucketReduce(Mix64(_mm256_xor_si256(v, w)), p);
    const __m128i packed =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(b, pack));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), packed);
  }
  const auto p128 = static_cast<unsigned __int128>(num_buckets);
  for (; i < count; ++i) {
    out[i] =
        static_cast<int32_t>((SplitMix64(values[i] ^ whitening) * p128) >> 64);
  }
}

}  // namespace avx2
#endif  // MPCQP_SIMD_X86 && MPCQP_SIMD_LEVEL_CAP >= 2

// ---------------------------------------------------------------------------
// NEON kernels (aarch64, 128-bit = 2 uint64 lanes). NEON is baseline on
// AArch64, so no function-level target attributes are needed.
// ---------------------------------------------------------------------------

#if MPCQP_SIMD_NEON && MPCQP_SIMD_LEVEL_CAP >= 1
namespace neon {

// 64x64 -> low-64 multiply from 32-bit halves (NEON has no 64-bit mul):
// vmull_u32 widens 32x32 -> 64 exactly like _mm256_mul_epu32.
inline uint64x2_t MulLo64(uint64x2_t a, uint64x2_t b) {
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t lo = vmull_u32(a_lo, b_lo);
  const uint64x2_t cross = vmlal_u32(vmull_u32(a_lo, b_hi), a_hi, b_lo);
  return vaddq_u64(lo, vshlq_n_u64(cross, 32));
}

inline uint64x2_t Mix64(uint64x2_t x) {
  x = vaddq_u64(x, vdupq_n_u64(0x9e3779b97f4a7c15ULL));
  x = MulLo64(veorq_u64(x, vshrq_n_u64(x, 30)),
              vdupq_n_u64(0xbf58476d1ce4e5b9ULL));
  x = MulLo64(veorq_u64(x, vshrq_n_u64(x, 27)),
              vdupq_n_u64(0x94d049bb133111ebULL));
  return veorq_u64(x, vshrq_n_u64(x, 31));
}

inline void HashMany(const uint64_t* values, int64_t count, uint64_t whitening,
                     uint64_t* out) {
  const uint64x2_t w = vdupq_n_u64(whitening);
  int64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    vst1q_u64(out + i, Mix64(veorq_u64(vld1q_u64(values + i), w)));
  }
  for (; i < count; ++i) {
    out[i] = SplitMix64(values[i] ^ whitening);
  }
}

inline void BucketMany(const uint64_t* values, int64_t count,
                       uint64_t whitening, int num_buckets, int32_t* out) {
  const uint64x2_t w = vdupq_n_u64(whitening);
  const uint32x2_t p = vdup_n_u32(static_cast<uint32_t>(num_buckets));
  int64_t i = 0;
  for (; i + 2 <= count; i += 2) {
    const uint64x2_t h = Mix64(veorq_u64(vld1q_u64(values + i), w));
    // hi64(h * p) = (hi32(h)*p + (lo32(h)*p >> 32)) >> 32, as in the x86
    // BucketReduce; both partials are exact 32x32 -> 64 products.
    const uint64x2_t hi_prod = vmull_u32(vshrn_n_u64(h, 32), p);
    const uint64x2_t lo_prod = vshrq_n_u64(vmull_u32(vmovn_u64(h), p), 32);
    const uint64x2_t bucket = vshrq_n_u64(vaddq_u64(hi_prod, lo_prod), 32);
    vst1_s32(out + i, vreinterpret_s32_u32(vmovn_u64(bucket)));
  }
  const auto p128 = static_cast<unsigned __int128>(num_buckets);
  for (; i < count; ++i) {
    out[i] =
        static_cast<int32_t>((SplitMix64(values[i] ^ whitening) * p128) >> 64);
  }
}

}  // namespace neon
#endif  // MPCQP_SIMD_NEON && MPCQP_SIMD_LEVEL_CAP >= 1

// ---------------------------------------------------------------------------
// Dispatch: one KernelTable per compiled-in level, resolved once.
// ---------------------------------------------------------------------------

struct KernelTable {
  IsaLevel level;
  void (*hash_many)(const uint64_t*, int64_t, uint64_t, uint64_t*);
  void (*bucket_many)(const uint64_t*, int64_t, uint64_t, int, int32_t*);
};

constexpr KernelTable kScalarTable = {
    IsaLevel::kScalar, scalar::HashMany, scalar::BucketMany,
};

#if MPCQP_SIMD_X86 && MPCQP_SIMD_LEVEL_CAP >= 2
constexpr KernelTable kAvx2Table = {
    IsaLevel::kAvx2, avx2::HashMany, avx2::BucketMany,
};
#endif

#if MPCQP_SIMD_NEON && MPCQP_SIMD_LEVEL_CAP >= 1
constexpr KernelTable kNeonTable = {
    IsaLevel::kNeon, neon::HashMany, neon::BucketMany,
};
#endif

// x86 without AVX2 dispatches scalar: a 128-bit SSE4.2 tier measured
// slower than the scalar loops (DESIGN.md "SIMD kernels").
IsaLevel DetectHardware() {
#if MPCQP_SIMD_NEON
  return IsaLevel::kNeon;  // NEON is architecturally baseline on AArch64.
#elif MPCQP_SIMD_X86
  return __builtin_cpu_supports("avx2") ? IsaLevel::kAvx2 : IsaLevel::kScalar;
#else
  return IsaLevel::kScalar;
#endif
}

// The best table whose level is <= `requested`, further clamped to what
// the hardware supports and what was compiled in — an over-ask (e.g.
// ScopedIsaOverride{kAvx2} on a NEON box or under a scalar-capped build)
// clamps down instead of faulting.
const KernelTable* TableFor(IsaLevel requested) {
  const int rank = std::min(static_cast<int>(requested),
                            static_cast<int>(DetectedIsa()));
#if MPCQP_SIMD_X86 && MPCQP_SIMD_LEVEL_CAP >= 2
  if (rank >= static_cast<int>(IsaLevel::kAvx2)) return &kAvx2Table;
#endif
#if MPCQP_SIMD_NEON && MPCQP_SIMD_LEVEL_CAP >= 1
  if (rank >= static_cast<int>(IsaLevel::kNeon)) return &kNeonTable;
#endif
  (void)rank;
  return &kScalarTable;
}

std::atomic<const KernelTable*> g_table{nullptr};

// One-time lazy resolution. compare_exchange (not a plain store) so a
// thread that loaded nullptr before a ScopedIsaOverride was installed can
// never publish the default table over the override afterward; whichever
// table lands first wins, and losers adopt it.
const KernelTable* Table() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    const KernelTable* resolved = TableFor(DetectedIsa());
    if (g_table.compare_exchange_strong(table, resolved,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      table = resolved;
    }
  }
  return table;
}

}  // namespace

const char* IsaLevelName(IsaLevel level) {
  switch (level) {
    case IsaLevel::kScalar:
      return "scalar";
    case IsaLevel::kNeon:
      return "neon";
    case IsaLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IsaLevel DetectedIsa() {
  static const IsaLevel detected = DetectHardware();
  return detected;
}

IsaLevel DispatchedIsa() { return Table()->level; }

void HashMany(const uint64_t* values, int64_t count, uint64_t whitening,
              uint64_t* out) {
  Table()->hash_many(values, count, whitening, out);
}

void BucketMany(const uint64_t* values, int64_t count, uint64_t whitening,
                int num_buckets, int32_t* out) {
  MPCQP_CHECK_GT(num_buckets, 0);
  Table()->bucket_many(values, count, whitening, num_buckets, out);
}

// The histogram is scatter-shaped, which SIMD ISAs without scatter can't
// express directly — the win instead comes from four interleaved
// sub-histograms that break the store-to-load forwarding stall on
// repeated buckets (skewed keys hammer one counter otherwise). Integer
// per-bucket sums commute, so the merged result equals the naive loop.
void HistogramTopBits(const uint64_t* hashes, int64_t count, int bits,
                      int64_t* counts) {
  MPCQP_CHECK_GE(bits, 1);
  MPCQP_CHECK_LE(bits, 8);
  const int shift = 64 - bits;
  if (count < 1024) {  // Not worth zeroing 6KB of sub-histograms.
    for (int64_t i = 0; i < count; ++i) {
      ++counts[hashes[i] >> shift];
    }
    return;
  }
  int64_t sub[3][256] = {};
  int64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    ++counts[hashes[i] >> shift];
    ++sub[0][hashes[i + 1] >> shift];
    ++sub[1][hashes[i + 2] >> shift];
    ++sub[2][hashes[i + 3] >> shift];
  }
  for (; i < count; ++i) {
    ++counts[hashes[i] >> shift];
  }
  const int num_buckets = 1 << bits;
  for (int b = 0; b < num_buckets; ++b) {
    counts[b] += sub[0][b] + sub[1][b] + sub[2][b];
  }
}

ScopedIsaOverride::ScopedIsaOverride(IsaLevel level) {
  // Force lazy resolution first: paired with the compare_exchange in
  // Table(), this guarantees no concurrent first-use can publish the
  // default table over the override we are about to install.
  Table();
  prev_ = g_table.exchange(TableFor(level), std::memory_order_acq_rel);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  g_table.store(static_cast<const KernelTable*>(prev_),
                std::memory_order_release);
}

}  // namespace mpcqp::simd
