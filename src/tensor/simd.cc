// Scalar / AVX2 / AVX-512 implementations of the GEMM tail write-back and
// the cpuid dispatch that picks between them.
//
// The vector paths are compiled with per-function target attributes, so
// the translation unit builds (and the scalar table runs) on any x86-64
// baseline — including -DDYHSL_MARCH_NATIVE=OFF portable Release builds —
// and on non-x86 targets everything degrades to the scalar table.
//
// Equivalence contract: every level rounds the same operations in the same
// order and none enables FTZ/DAZ, so outputs are bit-identical across
// levels. tests/sparse_kernels_test.cc asserts this property over
// every tail width, each beta mode and denormal inputs; keep it green when
// touching any path below.

#include "src/tensor/simd.h"

#include <cstdlib>
#include <cstring>

#include "src/core/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DYHSL_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dyhsl::tensor::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference. Also the semantic ground truth the vector paths must
// reproduce bit-for-bit.
// ---------------------------------------------------------------------------

void TileRowUpdateScalar(const float* acc, float* c, int64_t n, float beta) {
  if (beta == 0.0f) {
    for (int64_t j = 0; j < n; ++j) c[j] = acc[j];
  } else if (beta == 1.0f) {
    for (int64_t j = 0; j < n; ++j) c[j] += acc[j];
  } else {
    for (int64_t j = 0; j < n; ++j) c[j] = beta * c[j] + acc[j];
  }
}

constexpr Ops kScalarOps = {TileRowUpdateScalar};

#ifdef DYHSL_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 (8-lane) paths.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void TileRowUpdateAvx2(const float* acc,
                                                       float* c, int64_t n,
                                                       float beta) {
  // n <= 16: one masked pair of lanes. The lane mask (index < n) makes
  // the column-tail write-back branchless where the scalar loop peeled.
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int64_t j = 0; j < n; j += 8) {
    const __m256i lane = _mm256_add_epi32(
        iota, _mm256_set1_epi32(static_cast<int>(j)));
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)), lane);
    const __m256 a = _mm256_maskload_ps(acc + j, mask);
    __m256 r;
    if (beta == 0.0f) {
      r = a;
    } else if (beta == 1.0f) {
      r = _mm256_add_ps(_mm256_maskload_ps(c + j, mask), a);
    } else {
      r = _mm256_add_ps(
          _mm256_mul_ps(_mm256_set1_ps(beta), _mm256_maskload_ps(c + j, mask)),
          a);
    }
    _mm256_maskstore_ps(c + j, mask, r);
  }
}

constexpr Ops kAvx2Ops = {TileRowUpdateAvx2};

// ---------------------------------------------------------------------------
// AVX-512F (16-lane, native masks) paths.
// ---------------------------------------------------------------------------

__attribute__((target("avx512f"))) void TileRowUpdateAvx512(const float* acc,
                                                            float* c,
                                                            int64_t n,
                                                            float beta) {
  const __mmask16 mask = static_cast<__mmask16>(
      n >= 16 ? 0xffffu : (1u << n) - 1u);
  const __m512 a = _mm512_maskz_loadu_ps(mask, acc);
  __m512 r;
  if (beta == 0.0f) {
    r = a;
  } else if (beta == 1.0f) {
    r = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, c), a);
  } else {
    // mul + add (not FMA): matches the scalar path's two roundings so all
    // levels stay bit-identical.
    r = _mm512_add_ps(
        _mm512_mul_ps(_mm512_set1_ps(beta), _mm512_maskz_loadu_ps(mask, c)),
        a);
  }
  _mm512_mask_storeu_ps(c, mask, r);
}

constexpr Ops kAvx512Ops = {TileRowUpdateAvx512};

#endif  // DYHSL_SIMD_X86

Level Detect() {
#ifdef DYHSL_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

// DYHSL_SIMD override, clamped to hardware support. Empty/unset keeps the
// detected level; unknown values warn and keep it too.
Level Resolve() {
  Level level = DetectedLevel();
  const char* env = std::getenv("DYHSL_SIMD");
  if (env == nullptr || env[0] == '\0') return level;
  Level requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Level::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Level::kAvx2;
  } else if (std::strcmp(env, "avx512") == 0) {
    requested = Level::kAvx512;
  } else {
    DYHSL_LOG(Warning) << "DYHSL_SIMD=\"" << env
                       << "\" is not scalar|avx2|avx512; keeping detected "
                       << "level " << LevelName(level);
    return level;
  }
  if (static_cast<int>(requested) > static_cast<int>(level)) {
    DYHSL_LOG(Warning) << "DYHSL_SIMD=" << env
                       << " exceeds CPU support; clamping to "
                       << LevelName(level);
    return level;
  }
  return requested;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
    case Level::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Level DetectedLevel() {
  static const Level level = Detect();
  return level;
}

Level ActiveLevel() {
  static const Level level = Resolve();
  return level;
}

const Ops& OpsFor(Level level) {
#ifdef DYHSL_SIMD_X86
  switch (level) {
    case Level::kAvx512:
      return kAvx512Ops;
    case Level::kAvx2:
      return kAvx2Ops;
    case Level::kScalar:
      break;
  }
#else
  (void)level;
#endif
  return kScalarOps;
}

namespace internal {

const Ops* ResolveActiveOnce() {
  const Level level = ActiveLevel();
  DYHSL_LOG(Debug) << "simd dispatch: " << LevelName(level) << " (detected "
                   << LevelName(DetectedLevel()) << ")";
  return &OpsFor(level);
}

}  // namespace internal

}  // namespace dyhsl::tensor::simd
