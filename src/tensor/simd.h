// Runtime-dispatched SIMD layer for the elementwise transcendentals.
//
// tanh, sigmoid and exp over float arrays are the only elementwise kernels
// the compiler cannot vectorize on its own without -ffast-math, and the
// ones whose rounding must not depend on where an element sits: a kernel
// that ran a vector body plus a differently-rounded scalar tail would give
// an element different bits depending on the array length and the thread
// partition, and so make batched and unbatched forecasts differ. Every
// level here runs one fma-based polynomial per element, with a masked
// tail instead of a scalar peel.
//
// Dispatch model: the best instruction set (scalar / AVX2+FMA / AVX-512)
// is detected once at startup via cpuid and resolved into a function
// table; `Active()` returns that table, `OpsFor(level)` exposes every
// compiled level so tests can assert the vector paths are bit-identical to
// the scalar reference. The environment variable
// DYHSL_SIMD=scalar|avx2|avx512 forces a level at or below what the CPU
// supports (requests above support are clamped with a warning; unknown
// values are ignored with a warning).
//
// Determinism: every level performs the same IEEE operations per element
// in the same order — explicit fused multiply-adds (std::fma in the scalar
// table), correctly rounded division, no reciprocal or rsqrt
// approximations, no FTZ/DAZ — so all levels produce *identical* bits at
// every length, offset and thread count, including on denormals, ±0, ±inf
// and NaN. This translation unit must not be compiled with -ffast-math.
//
// Accuracy: within 2 ulp of the correctly rounded result on [-20, 20] and
// exact at the special values (tanh(±0) = ±0, tanh(±inf) = ±1,
// exp(-inf) = 0, exp(+inf) = +inf, NaN in gives NaN out).

#ifndef DYHSL_TENSOR_SIMD_H_
#define DYHSL_TENSOR_SIMD_H_

#include <cstdint>

namespace dyhsl::tensor::simd {

/// \brief Instruction-set levels the dispatcher can select. Levels are
/// ordered: a CPU supporting kAvx512 also runs the kAvx2 and kScalar
/// tables.
enum class Level : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// \brief Human-readable level name ("scalar", "avx2", "avx512").
const char* LevelName(Level level);

/// \brief The per-level function table. Every entry maps n floats from
/// `in` to `out` elementwise; `in == out` (in place) is allowed. Function
/// pointers are non-null at every level.
struct Ops {
  /// out[i] = tanh(in[i]).
  void (*tanh)(const float* in, float* out, int64_t n);
  /// out[i] = 1 / (1 + exp(-in[i])).
  void (*sigmoid)(const float* in, float* out, int64_t n);
  /// out[i] = exp(in[i]).
  void (*exp)(const float* in, float* out, int64_t n);
};

/// \brief Best level the CPU supports (cpuid probe, cached; ignores the
/// environment override). kAvx2 also requires FMA.
Level DetectedLevel();

/// \brief The level Active() resolved to: DetectedLevel() clamped by the
/// DYHSL_SIMD override. Resolved once, on first use.
Level ActiveLevel();

/// \brief Function table for an explicit level (tests compare vector paths
/// against OpsFor(Level::kScalar)). Levels above DetectedLevel() return
/// valid pointers but must not be called on unsupported hardware.
const Ops& OpsFor(Level level);

namespace internal {
/// Resolves DetectedLevel() + DYHSL_SIMD into a table (logs the choice).
const Ops* ResolveActiveOnce();
}  // namespace internal

/// \brief The startup-selected function table every kernel dispatches
/// through.
inline const Ops& Active() {
  static const Ops* ops = internal::ResolveActiveOnce();
  return *ops;
}

}  // namespace dyhsl::tensor::simd

/// \brief Evaluates to `x` unchanged, but keeps the operation that produced
/// it rounded on its own: the compiler may not contract a multiply feeding
/// this value into a following add (an FMA). Kernels that must match an
/// unfused chain of ops bit for bit put it after each such multiply. A
/// builtin rather than a function, so vector values never cross a call
/// between code compiled for different instruction sets.
#if defined(__has_builtin)
#if __has_builtin(__builtin_assoc_barrier)
#define DYHSL_ROUNDED(x) __builtin_assoc_barrier(x)
#endif
#endif
#ifndef DYHSL_ROUNDED
#define DYHSL_ROUNDED(x) (x)  // no barrier; the bit-identity tests catch it
#endif

#endif  // DYHSL_TENSOR_SIMD_H_
