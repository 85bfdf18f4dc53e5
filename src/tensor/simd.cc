// Scalar / AVX2 / AVX-512 implementations of tanh, sigmoid and exp, and
// the cpuid dispatch that picks between them.
//
// The vector paths are compiled with per-function target attributes, so
// the translation unit builds (and the scalar table runs) on any x86-64
// baseline — including -DDYHSL_MARCH_NATIVE=OFF portable Release builds —
// and on non-x86 targets everything degrades to the scalar table.
//
// One algorithm, written three times. Each step below is a single IEEE
// operation at every level (fma is fused, everything else rounds on its
// own, and DYHSL_ROUNDED stops the compiler from contracting a multiply
// into the add after it), so the levels agree bit for bit.
//
//  exp(x): clamp x to [-104, 89] (exp underflows to 0 below, overflows to
//    inf above); k = round(x·log2e); r = x − k·ln2 in two fma steps
//    (Cody–Waite); p = degree-6 polynomial of e^r on |r| ≤ ln2/2 (fit
//    error < 0.15 ulp); result = p·2^k with one rounding — correctly
//    rounded, also for denormal results. The scalar and AVX2 paths scale
//    in two steps, (p·2^⌊k/2⌋)·2^(k−⌊k/2⌋), whose first step is exact;
//    AVX-512 uses vscalefps. Both round p·2^k once, so the bits agree.
//  sigmoid(x) = 1 / (1 + exp(−x)).
//  tanh(x) = sign(x)·t(|x|): for a < 0.625, t = a + a³·g(a²), g a
//    degree-5 Chebyshev fit of (tanh(s)/s − 1)/s² on s ≤ 0.625 (fit error
//    1.6e-9); otherwise t = 1 − 2/(exp(2·min(a, 10)) + 1), which is
//    exactly 1 for a ≥ 9.02. Copying the sign bit keeps tanh(−0) = −0.
//  A NaN input is returned unchanged, bit for bit, at every level.
//
// tests/sparse_kernels_test.cc asserts the accuracy bound against a
// double-precision reference and bit-identity across levels, lengths and
// offsets; keep it green when touching any path below.

#include "src/tensor/simd.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/core/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DYHSL_SIMD_X86 1
// GCC 12 reports the deliberately undefined pass-through operand of the
// AVX-512 min/max/roundscale intrinsics as maybe-uninitialized once they
// are inlined through a target attribute; the lanes are never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace dyhsl::tensor::simd {
namespace {

constexpr float kExpLo = -104.0f;
constexpr float kExpHi = 89.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;  // 9 significant bits: k·kLn2Hi exact
constexpr float kLn2Lo = -2.12194440e-4f;
// e^r ≈ 1 + r + c2·r² + ... + c6·r⁶ on |r| ≤ ln2/2: a Chebyshev fit of
// (e^r − 1 − r)/r² (fit error 7.8e-9 absolute). The constant and linear
// terms are the final two fma(p, r, 1) steps.
constexpr float kExpC6 = 1.39261761199e-3f;
constexpr float kExpC5 = 8.36317307451e-3f;
constexpr float kExpC4 = 4.16665546621e-2f;
constexpr float kExpC3 = 1.66665770256e-1f;
constexpr float kExpC2 = 0.5f;

constexpr float kTanhSmall = 0.625f;
constexpr float kTanhClamp = 10.0f;
// g(u) ≈ (tanh(√u)/√u − 1)/u on u ∈ [0, 0.625²], highest degree first.
constexpr float kTanhG5 = 2.29274481618e-3f;
constexpr float kTanhG4 = -8.34394551584e-3f;
constexpr float kTanhG3 = 2.17689186510e-2f;
constexpr float kTanhG2 = -5.39592595772e-2f;
constexpr float kTanhG1 = 1.33333035569e-1f;
constexpr float kTanhG0 = -3.33333331721e-1f;

constexpr uint32_t kSignMask = 0x80000000u;

// ---------------------------------------------------------------------------
// Scalar reference. Also the semantic ground truth the vector paths must
// reproduce bit-for-bit. The comparisons mirror the x86 min/max
// instructions: `x > lo ? x : lo` maps NaN to lo exactly as maxps does.
// ---------------------------------------------------------------------------

float Bits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

uint32_t BitsOf(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// exp on an already-clamped, non-NaN argument.
float ExpClampedScalar(float x) {
  const float kf = std::nearbyint(x * kLog2e);
  float r = std::fma(-kf, kLn2Hi, x);
  r = std::fma(-kf, kLn2Lo, r);
  float p = kExpC6;
  p = std::fma(p, r, kExpC5);
  p = std::fma(p, r, kExpC4);
  p = std::fma(p, r, kExpC3);
  p = std::fma(p, r, kExpC2);
  p = std::fma(p, r, 1.0f);
  p = std::fma(p, r, 1.0f);
  const int32_t k = static_cast<int32_t>(kf);
  const int32_t k1 = k >> 1;
  const int32_t k2 = k - k1;
  const float s1 = Bits(static_cast<uint32_t>(k1 + 127) << 23);
  const float s2 = Bits(static_cast<uint32_t>(k2 + 127) << 23);
  return DYHSL_ROUNDED(p * s1 * s2);
}

// exp of x clamped into the finite range; NaN is mapped to kExpLo.
float ExpScalarOne(float x) {
  float c = x > kExpLo ? x : kExpLo;
  c = c < kExpHi ? c : kExpHi;
  return ExpClampedScalar(c);
}

float TanhScalarOne(float x) {
  const uint32_t sign = BitsOf(x) & kSignMask;
  const float a = Bits(BitsOf(x) ^ sign);
  const float a2 = a * a;
  float g = kTanhG5;
  g = std::fma(g, a2, kTanhG4);
  g = std::fma(g, a2, kTanhG3);
  g = std::fma(g, a2, kTanhG2);
  g = std::fma(g, a2, kTanhG1);
  g = std::fma(g, a2, kTanhG0);
  const float small = std::fma(a * a2, g, a);
  const float m = a < kTanhClamp ? a : kTanhClamp;
  const float e = ExpClampedScalar(m + m);
  const float large = 1.0f - 2.0f / (e + 1.0f);
  return Bits(BitsOf(a >= kTanhSmall ? large : small) | sign);
}

void TanhScalar(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float t = TanhScalarOne(x);
    out[i] = x == x ? t : x;
  }
}

void SigmoidScalar(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float s = 1.0f / (1.0f + ExpScalarOne(Bits(BitsOf(x) ^ kSignMask)));
    out[i] = x == x ? s : x;
  }
}

void ExpScalar(const float* in, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = in[i];
    const float e = ExpScalarOne(x);
    out[i] = x == x ? e : x;
  }
}

constexpr Ops kScalarOps = {TanhScalar, SigmoidScalar, ExpScalar};

#ifdef DYHSL_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 + FMA (8-lane) paths. Tails load and store through a lane mask
// (index < remaining); the dead lanes compute on zeros and are discarded.
// ---------------------------------------------------------------------------

#define DYHSL_AVX2 __attribute__((target("avx2,fma")))

DYHSL_AVX2 __m256 ExpClampedAvx2(__m256 x) {
  const __m256 kf =
      _mm256_round_ps(_mm256_mul_ps(x, _mm256_set1_ps(kLog2e)),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // fnmadd(a, b, c) = -(a·b) + c, bit-equal to the scalar fma(-a, b, c).
  __m256 r = _mm256_fnmadd_ps(kf, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(kf, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpC6);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC5));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpC2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.0f));
  const __m256i k = _mm256_cvtps_epi32(kf);
  const __m256i k1 = _mm256_srai_epi32(k, 1);
  const __m256i k2 = _mm256_sub_epi32(k, k1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k1, bias), 23));
  const __m256 s2 =
      _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k2, bias), 23));
  return DYHSL_ROUNDED(_mm256_mul_ps(_mm256_mul_ps(p, s1), s2));
}

// exp of x clamped into the finite range; NaN is mapped to kExpLo.
DYHSL_AVX2 __m256 ExpAvx2(__m256 x) {
  __m256 c = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
  c = _mm256_min_ps(c, _mm256_set1_ps(kExpHi));
  return ExpClampedAvx2(c);
}

DYHSL_AVX2 __m256 SignMaskAvx2() {
  return _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(kSignMask)));
}

DYHSL_AVX2 __m256 SigmoidAvx2(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpAvx2(_mm256_xor_ps(x, SignMaskAvx2()));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

DYHSL_AVX2 __m256 TanhAvx2(__m256 x) {
  const __m256 sign = _mm256_and_ps(x, SignMaskAvx2());
  const __m256 a = _mm256_xor_ps(x, sign);
  const __m256 a2 = _mm256_mul_ps(a, a);
  __m256 g = _mm256_set1_ps(kTanhG5);
  g = _mm256_fmadd_ps(g, a2, _mm256_set1_ps(kTanhG4));
  g = _mm256_fmadd_ps(g, a2, _mm256_set1_ps(kTanhG3));
  g = _mm256_fmadd_ps(g, a2, _mm256_set1_ps(kTanhG2));
  g = _mm256_fmadd_ps(g, a2, _mm256_set1_ps(kTanhG1));
  g = _mm256_fmadd_ps(g, a2, _mm256_set1_ps(kTanhG0));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(a, a2), g, a);
  const __m256 m = _mm256_min_ps(a, _mm256_set1_ps(kTanhClamp));
  const __m256 e = ExpClampedAvx2(_mm256_add_ps(m, m));
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 large = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0f), _mm256_add_ps(e, one)));
  const __m256 t = _mm256_blendv_ps(
      small, large, _mm256_cmp_ps(a, _mm256_set1_ps(kTanhSmall), _CMP_GE_OQ));
  return _mm256_or_ps(t, sign);
}

// Applies Fn to every element; NaN inputs pass through unchanged.
template <__m256 (*Fn)(__m256)>
DYHSL_AVX2 __m256 ApplyAvx2(__m256 x) {
  return _mm256_blendv_ps(x, Fn(x), _mm256_cmp_ps(x, x, _CMP_ORD_Q));
}

template <__m256 (*Fn)(__m256)>
DYHSL_AVX2 void MapAvx2(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, ApplyAvx2<Fn>(_mm256_loadu_ps(in + i)));
  }
  if (i < n) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - i)), lane);
    _mm256_maskstore_ps(out + i, mask,
                        ApplyAvx2<Fn>(_mm256_maskload_ps(in + i, mask)));
  }
}

constexpr Ops kAvx2Ops = {MapAvx2<TanhAvx2>, MapAvx2<SigmoidAvx2>,
                          MapAvx2<ExpAvx2>};

// ---------------------------------------------------------------------------
// AVX-512F (16-lane, native masks) paths. Bitwise float ops go through the
// integer domain: the _ps forms need AVX-512DQ.
// ---------------------------------------------------------------------------

#define DYHSL_AVX512 __attribute__((target("avx512f")))

DYHSL_AVX512 __m512 ExpClampedAvx512(__m512 x) {
  const __m512 kf =
      _mm512_roundscale_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                           _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_fnmadd_ps(kf, _mm512_set1_ps(kLn2Hi), x);
  r = _mm512_fnmadd_ps(kf, _mm512_set1_ps(kLn2Lo), r);
  __m512 p = _mm512_set1_ps(kExpC6);
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC5));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC4));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC3));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(kExpC2));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  p = _mm512_fmadd_ps(p, r, _mm512_set1_ps(1.0f));
  return DYHSL_ROUNDED(_mm512_scalef_ps(p, kf));
}

DYHSL_AVX512 __m512 ExpAvx512(__m512 x) {
  __m512 c = _mm512_max_ps(x, _mm512_set1_ps(kExpLo));
  c = _mm512_min_ps(c, _mm512_set1_ps(kExpHi));
  return ExpClampedAvx512(c);
}

DYHSL_AVX512 __m512 SigmoidAvx512(__m512 x) {
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 neg = _mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(x),
      _mm512_set1_epi32(static_cast<int>(kSignMask))));
  return _mm512_div_ps(one, _mm512_add_ps(one, ExpAvx512(neg)));
}

DYHSL_AVX512 __m512 TanhAvx512(__m512 x) {
  const __m512i xi = _mm512_castps_si512(x);
  const __m512i sign =
      _mm512_and_si512(xi, _mm512_set1_epi32(static_cast<int>(kSignMask)));
  const __m512 a = _mm512_castsi512_ps(_mm512_xor_si512(xi, sign));
  const __m512 a2 = _mm512_mul_ps(a, a);
  __m512 g = _mm512_set1_ps(kTanhG5);
  g = _mm512_fmadd_ps(g, a2, _mm512_set1_ps(kTanhG4));
  g = _mm512_fmadd_ps(g, a2, _mm512_set1_ps(kTanhG3));
  g = _mm512_fmadd_ps(g, a2, _mm512_set1_ps(kTanhG2));
  g = _mm512_fmadd_ps(g, a2, _mm512_set1_ps(kTanhG1));
  g = _mm512_fmadd_ps(g, a2, _mm512_set1_ps(kTanhG0));
  const __m512 small = _mm512_fmadd_ps(_mm512_mul_ps(a, a2), g, a);
  const __m512 m = _mm512_min_ps(a, _mm512_set1_ps(kTanhClamp));
  const __m512 e = ExpClampedAvx512(_mm512_add_ps(m, m));
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 large = _mm512_sub_ps(
      one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
  const __m512 t = _mm512_mask_blend_ps(
      _mm512_cmp_ps_mask(a, _mm512_set1_ps(kTanhSmall), _CMP_GE_OQ), small,
      large);
  return _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(t), sign));
}

// Applies Fn to every element; NaN inputs pass through unchanged.
template <__m512 (*Fn)(__m512)>
DYHSL_AVX512 __m512 ApplyAvx512(__m512 x) {
  return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_ORD_Q), x, Fn(x));
}

template <__m512 (*Fn)(__m512)>
DYHSL_AVX512 void MapAvx512(const float* in, float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, ApplyAvx512<Fn>(_mm512_loadu_ps(in + i)));
  }
  if (i < n) {
    const __mmask16 mask = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(out + i, mask,
                          ApplyAvx512<Fn>(_mm512_maskz_loadu_ps(mask, in + i)));
  }
}

constexpr Ops kAvx512Ops = {MapAvx512<TanhAvx512>, MapAvx512<SigmoidAvx512>,
                            MapAvx512<ExpAvx512>};

#endif  // DYHSL_SIMD_X86

Level Detect() {
#ifdef DYHSL_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
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
