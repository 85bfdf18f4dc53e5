// Runtime-dispatched SIMD utility layer for the GEMM column-tail write-back.
//
// The blocked GEMM micro-kernel (src/tensor/gemm.cc) accumulates full-width
// tiles in registers; when a tile hangs over the right edge of C, only its
// first n < kNr columns may be written back. `tile_row_update` performs that
// partial-row write-back, c[0, n) = beta * c + acc, with a lane mask instead
// of a peeled scalar loop.
//
// Dispatch model: the best instruction set (scalar / AVX2 / AVX-512) is
// detected once at startup via cpuid and resolved into a function table;
// `Active()` returns that table, `OpsFor(level)` exposes every compiled
// level so tests can assert the vector paths are bit-identical to the
// scalar reference. The environment variable DYHSL_SIMD=scalar|avx2|avx512
// forces a level at or below what the CPU supports (requests above support
// are clamped with a warning; unknown values are ignored with a warning).
//
// Determinism: every level performs the same multiply and add per element
// in the same order, so all levels produce *identical* results, including
// on denormals (the kernels never enable FTZ/DAZ; this translation unit
// must not be compiled with -ffast-math).

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

/// \brief Widest vector width (floats) any level may touch; the bound on
/// a tile_row_update width.
constexpr int64_t kMaxLanes = 16;

/// \brief The per-level function table. Its function pointer is non-null at
/// every level.
struct Ops {
  /// c[0, n) = beta * c + acc for the partial-width tiles of the GEMM
  /// write-back (beta 0 overwrites, 1 accumulates). n <= kMaxLanes.
  void (*tile_row_update)(const float* acc, float* c, int64_t n, float beta);
};

/// \brief Best level the CPU supports (cpuid probe, cached; ignores the
/// environment override).
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

#endif  // DYHSL_TENSOR_SIMD_H_
