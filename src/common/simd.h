#ifndef MPCQP_COMMON_SIMD_H_
#define MPCQP_COMMON_SIMD_H_

#include <cstdint>

// Runtime-dispatched SIMD kernels for the hash loops of the exchange route
// pass.
//
// Two kernels (HashMany, BucketMany) at three levels (scalar, AVX2, NEON).
// A vector variant stays only where a paired measurement shows it beats
// the scalar loop (DESIGN.md "SIMD kernels").
//
//   - the instruction-set level is detected once at first use (CPUID via
//     __builtin_cpu_supports on x86; NEON is baseline on aarch64); x86
//     without AVX2 dispatches scalar,
//   - the CMake cache variable `MPCQP_SIMD_LEVEL` caps it at compile time
//     (and compiles the higher-ISA code paths out entirely), which is how
//     CI keeps the portable fallback green on machines without AVX2,
//   - ScopedIsaOverride forces a level for tests and benches.
//
// Determinism contract: every kernel is BIT-IDENTICAL to its scalar
// reference for every input. All operations are exact integer arithmetic
// (splitmix64 mixing is element-wise), so the dispatched level can never
// change outputs, CostReports, or plan goldens — only wall time. The
// determinism suite locks this with a {scalar, best-detected} ISA axis on
// top of the existing thread-count/morsel sweeps.
//
// Adding a kernel (see DESIGN.md "SIMD kernels"): write the scalar
// reference, add a function pointer to KernelTable, implement per-ISA
// variants guarded by MPCQP_SIMD_LEVEL_CAP, and extend simd_test's
// cross-level parity sweep plus bench_simd's embedded-baseline gate.

namespace mpcqp::simd {

// Instruction-set levels. Numeric values are ranks: a level is eligible
// when its rank is <= the detected hardware's rank and the compile-time
// MPCQP_SIMD_LEVEL_CAP. The two architecture families never coexist on
// one box, so the cross-family ordering only matters for cap semantics
// (capping at "neon" on x86 yields scalar).
enum class IsaLevel {
  kScalar = 0,
  kNeon = 1,  // aarch64 NEON (128-bit lanes; baseline on AArch64).
  kAvx2 = 2,  // x86 AVX2 (256-bit lanes).
};

const char* IsaLevelName(IsaLevel level);

// The best level this hardware supports (ignoring the compile cap).
// Detected once; constant for the process lifetime.
IsaLevel DetectedIsa();

// The level the kernels below actually run at: DetectedIsa() capped by
// the compile-time MPCQP_SIMD_LEVEL (resolved once, at first kernel use).
// Reported by --stats and BENCH_*.json so measurements are comparable
// across boxes.
IsaLevel DispatchedIsa();

// ---- Kernels ----
// All counts may be zero; tails shorter than one SIMD lane are handled
// inside each kernel. Input and output spans must not overlap.

// out[i] = SplitMix64(values[i] ^ whitening) — the exchange route pass's
// hash loop (HashFunction::HashMany with whitening = the seed-derived
// xor constant).
void HashMany(const uint64_t* values, int64_t count, uint64_t whitening,
              uint64_t* out);

// out[i] = high 64 bits of (SplitMix64(values[i] ^ whitening) *
// num_buckets) — the multiply-shift bucket reduce of
// HashFunction::BucketMany. num_buckets must be in [1, 2^31).
void BucketMany(const uint64_t* values, int64_t count, uint64_t whitening,
                int num_buckets, int32_t* out);

// counts[hashes[i] >> (64 - bits)] += 1 for every i — the KeyIndex
// partition count (bits = part_bits). bits must be in [1, 8]; counts has
// (1 << bits) entries and is accumulated into, not overwritten.
// Interleaved sub-histograms break the store-to-load dependency chain on
// repeated buckets; the final per-bucket sums are order-independent, so
// the result equals the naive sequential loop exactly. Not dispatched:
// this one scalar loop serves every level.
void HistogramTopBits(const uint64_t* hashes, int64_t count, int bits,
                      int64_t* counts);

// Test/bench hook: forces the dispatched level for the current process
// until destruction (clamped to what the hardware and compile cap allow —
// requesting more than DetectedIsa() is safe and clamps down). The
// constructor forces dispatch resolution first, so a concurrent
// first-use Table() call can never publish the default table over an
// installed override. Kernel calls from unrelated threads during the
// override's lifetime are safe (every level is bit-identical) but run at
// the overridden level, so install before spawning parallel work and
// restore after it drains when per-level timing matters. The determinism
// suite's ISA axis and bench_simd's per-level timings use this;
// production code never should.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(IsaLevel level);
  ~ScopedIsaOverride();

  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  const void* prev_;  // The KernelTable in effect before the override.
};

}  // namespace mpcqp::simd

#endif  // MPCQP_COMMON_SIMD_H_
