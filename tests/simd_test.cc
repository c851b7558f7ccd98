// Kernel-level tests for common/simd.{h,cc}: every vectorized kernel must
// be bit-identical to a hand-written reference loop at every dispatch
// level this machine can run, across the awkward sizes the vector rewrite
// introduces (count 0, below one lane, non-multiple-of-lane tails) and
// the boundary inputs the lane tricks care about (extreme 64-bit values
// for the 32-bit partial products, num_buckets = 1, full-range masks).
// The references here are written out longhand on purpose — they must
// not share code with the library's own scalar fallback.

#include "common/simd.h"

#include <cstdint>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "gtest/gtest.h"

namespace mpcqp {
namespace {

using simd::IsaLevel;

// Every level worth exercising on this machine. Requesting a level above
// what the hardware/compile caps allow clamps down inside the dispatcher,
// so the list dedupes by what actually got dispatched.
std::vector<IsaLevel> LevelsUnderTest() {
  std::vector<IsaLevel> levels;
  for (IsaLevel req : {IsaLevel::kScalar, IsaLevel::kNeon, IsaLevel::kAvx2}) {
    simd::ScopedIsaOverride over(req);
    const IsaLevel got = simd::DispatchedIsa();
    bool seen = false;
    for (IsaLevel l : levels) seen = seen || l == got;
    if (!seen) levels.push_back(got);
  }
  return levels;
}

// Counts that hit every tail shape for 2-, 4-, and 8-wide lanes.
const int64_t kCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 1000};

// A deterministic value stream with sign-bit coverage: weyl-sequence
// values, plus planted extremes at the front.
std::vector<uint64_t> TestValues(int64_t count) {
  std::vector<uint64_t> values(static_cast<size_t>(count));
  const uint64_t extremes[] = {0, 1, std::numeric_limits<uint64_t>::max(),
                               uint64_t{1} << 63, (uint64_t{1} << 63) - 1};
  for (int64_t i = 0; i < count; ++i) {
    values[i] = i < 5 ? extremes[i] : static_cast<uint64_t>(i) *
                                          11400714819323198485ULL;
  }
  return values;
}

uint64_t RefSplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(SplitMix64Test, KnownVectors) {
  // Reference values from the canonical splitmix64 (Steele–Lea–Flood).
  EXPECT_EQ(SplitMix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(SplitMix64(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);
}

TEST(SplitMix64Test, MatchesLonghandReference) {
  for (uint64_t v : TestValues(100)) {
    EXPECT_EQ(SplitMix64(v), RefSplitMix64(v));
  }
}

TEST(IsaLevelTest, OverrideForcesScalarAndClampsOverAsks) {
  {
    simd::ScopedIsaOverride over(IsaLevel::kScalar);
    EXPECT_EQ(simd::DispatchedIsa(), IsaLevel::kScalar);
  }
  {
    // Asking for more than the hardware has must clamp, never fault.
    simd::ScopedIsaOverride over(IsaLevel::kAvx2);
    EXPECT_LE(static_cast<int>(simd::DispatchedIsa()),
              static_cast<int>(simd::DetectedIsa()));
    std::vector<uint64_t> out(8);
    simd::HashMany(TestValues(8).data(), 8, 0x1234, out.data());
  }
  EXPECT_LE(static_cast<int>(simd::DispatchedIsa()),
            static_cast<int>(simd::DetectedIsa()));
}

// The names are what --stats and the BENCH_*.json files print, so the
// three levels keep distinct, stable spellings.
TEST(IsaLevelTest, NamesMatchTheThreeLevels) {
  EXPECT_STREQ(simd::IsaLevelName(IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::IsaLevelName(IsaLevel::kNeon), "neon");
  EXPECT_STREQ(simd::IsaLevelName(IsaLevel::kAvx2), "avx2");
  EXPECT_EQ(static_cast<int>(IsaLevel::kScalar), 0);
  EXPECT_EQ(static_cast<int>(IsaLevel::kNeon), 1);
  EXPECT_EQ(static_cast<int>(IsaLevel::kAvx2), 2);
}

// x86 detects AVX2 or nothing: a CPU without AVX2 runs the scalar loops.
// AArch64 always detects NEON.
TEST(IsaLevelTest, DetectedLevelFollowsArchitecture) {
  const IsaLevel detected = simd::DetectedIsa();
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(detected, __builtin_cpu_supports("avx2") ? IsaLevel::kAvx2
                                                     : IsaLevel::kScalar);
#elif defined(__aarch64__)
  EXPECT_EQ(detected, IsaLevel::kNeon);
#else
  EXPECT_EQ(detected, IsaLevel::kScalar);
#endif
  EXPECT_EQ(simd::DetectedIsa(), detected) << "detection must be stable";
}

// Requests clamp by rank within the box's own family: asking for NEON on
// x86 ranks below AVX2 and lands on scalar, and nothing ever dispatches a
// level the hardware did not report.
TEST(IsaLevelTest, NeonRequestClampsByRank) {
  simd::ScopedIsaOverride over(IsaLevel::kNeon);
  const IsaLevel got = simd::DispatchedIsa();
  EXPECT_NE(got, IsaLevel::kAvx2);
  if (simd::DetectedIsa() != IsaLevel::kNeon) {
    EXPECT_EQ(got, IsaLevel::kScalar);
  }
  std::vector<uint64_t> out(3);
  simd::HashMany(TestValues(3).data(), 3, 0x55, out.data());
  EXPECT_EQ(out[2], RefSplitMix64(TestValues(3)[2] ^ 0x55));
}

// Overrides nest: each destructor reinstates exactly the level that was in
// effect when it was constructed.
TEST(IsaLevelTest, NestedOverridesRestoreInOrder) {
  const IsaLevel outer = simd::DispatchedIsa();
  {
    simd::ScopedIsaOverride scalar(IsaLevel::kScalar);
    EXPECT_EQ(simd::DispatchedIsa(), IsaLevel::kScalar);
    const IsaLevel best = [] {
      simd::ScopedIsaOverride over(IsaLevel::kAvx2);
      return simd::DispatchedIsa();
    }();
    // The top request clamps to the default dispatch level.
    EXPECT_EQ(best, outer);
    EXPECT_EQ(simd::DispatchedIsa(), IsaLevel::kScalar);
  }
  EXPECT_EQ(simd::DispatchedIsa(), outer);
}

TEST(SimdKernelTest, HashManyMatchesReferenceAtEveryLevel) {
  const uint64_t whitening = 0xa0761d6478bd642fULL;
  for (IsaLevel level : LevelsUnderTest()) {
    simd::ScopedIsaOverride over(level);
    for (int64_t count : kCounts) {
      const std::vector<uint64_t> values = TestValues(count);
      std::vector<uint64_t> out(static_cast<size_t>(count) + 1, 0xcc);
      simd::HashMany(values.data(), count, whitening, out.data());
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[i], RefSplitMix64(values[i] ^ whitening))
            << "level " << simd::IsaLevelName(level) << " count " << count
            << " index " << i;
      }
      EXPECT_EQ(out[static_cast<size_t>(count)], 0xccu) << "overwrote tail";
    }
  }
}

TEST(SimdKernelTest, BucketManyMatchesReferenceAtEveryLevel) {
  const uint64_t whitening = 0x1d8af066ULL;
  // num_buckets = 1 (everything lands in 0) and the top of the allowed
  // range stress the multiply-shift reduce.
  const int kBuckets[] = {1, 2, 3, 7, 64, 1000, 1 << 30, 0x7fffffff};
  for (IsaLevel level : LevelsUnderTest()) {
    simd::ScopedIsaOverride over(level);
    for (int64_t count : kCounts) {
      const std::vector<uint64_t> values = TestValues(count);
      std::vector<int32_t> out(static_cast<size_t>(count), -1);
      for (int buckets : kBuckets) {
        simd::BucketMany(values.data(), count, whitening, buckets,
                         out.data());
        for (int64_t i = 0; i < count; ++i) {
          const uint64_t h = RefSplitMix64(values[i] ^ whitening);
          const auto expected = static_cast<int32_t>(
              (static_cast<unsigned __int128>(h) * buckets) >> 64);
          ASSERT_EQ(out[i], expected)
              << "level " << simd::IsaLevelName(level) << " count " << count
              << " buckets " << buckets << " index " << i;
          ASSERT_GE(out[i], 0);
          ASSERT_LT(out[i], buckets);
        }
      }
    }
  }
}

TEST(SimdKernelTest, HistogramTopBitsMatchesReferenceAtEveryLevel) {
  for (IsaLevel level : LevelsUnderTest()) {
    simd::ScopedIsaOverride over(level);
    for (int bits : {1, 6, 8}) {
      const int parts = 1 << bits;
      // Cover both the short direct path and the interleaved
      // sub-histogram path (cutover at 1024), plus a skewed stream that
      // hammers one bucket.
      for (int64_t count : {int64_t{0}, int64_t{5}, int64_t{1023},
                            int64_t{1024}, int64_t{5000}}) {
        std::vector<uint64_t> hashes(static_cast<size_t>(count));
        for (int64_t i = 0; i < count; ++i) {
          hashes[static_cast<size_t>(i)] =
              i % 3 == 0 ? ~uint64_t{0}  // Repeated top bucket.
                         : RefSplitMix64(static_cast<uint64_t>(i));
        }
        std::vector<int64_t> expected(static_cast<size_t>(parts), 7);
        for (int64_t i = 0; i < count; ++i) {
          ++expected[static_cast<size_t>(hashes[i] >> (64 - bits))];
        }
        // Accumulation semantics: pre-seeded counts are added to.
        std::vector<int64_t> counts(static_cast<size_t>(parts), 7);
        simd::HistogramTopBits(hashes.data(), count, bits, counts.data());
        ASSERT_EQ(counts, expected)
            << "level " << simd::IsaLevelName(level) << " bits " << bits
            << " count " << count;
      }
    }
  }
}

// The library's own cross-check: whatever the hardware dispatches by
// default must agree with a forced-scalar run on a large mixed workload —
// the same guarantee the determinism suite proves end-to-end, pinned at
// the kernel boundary.
TEST(SimdKernelTest, DefaultDispatchAgreesWithForcedScalar) {
  const int64_t n = 4096 + 3;
  const std::vector<uint64_t> values = TestValues(n);
  std::vector<uint64_t> hashed_default(static_cast<size_t>(n));
  std::vector<int32_t> buckets_default(static_cast<size_t>(n));
  simd::HashMany(values.data(), n, 0xabcdef, hashed_default.data());
  simd::BucketMany(values.data(), n, 0xabcdef, 4999, buckets_default.data());

  simd::ScopedIsaOverride over(IsaLevel::kScalar);
  std::vector<uint64_t> hashed_scalar(static_cast<size_t>(n));
  std::vector<int32_t> buckets_scalar(static_cast<size_t>(n));
  simd::HashMany(values.data(), n, 0xabcdef, hashed_scalar.data());
  simd::BucketMany(values.data(), n, 0xabcdef, 4999, buckets_scalar.data());
  EXPECT_EQ(hashed_default, hashed_scalar);
  EXPECT_EQ(buckets_default, buckets_scalar);
}

}  // namespace
}  // namespace mpcqp
