#include "src/tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef __AVX512F__
#include <immintrin.h>
#endif

#if !defined(__GNUC__) && !defined(__clang__)
#error "gemm.cc needs the GCC/Clang vector extensions for its register tile"
#endif

namespace dyhsl::tensor {
namespace {

// Register tile: kMr rows x kNr columns accumulated per micro-kernel call.
// 6 x 16 keeps the accumulator tile (96 floats) plus one packed B row in
// registers on AVX-512 (12 zmm accumulators, two per row) and splits into
// ymm/xmm pairs on narrower ISAs; kMc is a multiple of kMr so packed
// row-groups align with row-block boundaries.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
constexpr int64_t kMc = 120;  // rows per L2-resident packed A block
constexpr int64_t kKc = 240;  // K panel: B panel of kKc x kNr stays in L1

// Multiply-add count below which the OpenMP fork/join overhead dominates.
constexpr int64_t kParallelCutoff = 1 << 15;

// Stand-in rows for the padded lanes of a row-group tail: the packed path
// zero-pads rows past mb, so the direct path points their row pointers at
// zeros — same values, same (unused) accumulator lanes.
alignas(64) constexpr float kZeroRow[kKc] = {};

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Fallback B-packing buffer for threads with no active WorkspaceScope: a
// thread-local vector, reused across calls so steady-state GEMMs perform
// no allocation at all. When a scope *is* installed (training steps, eval
// batches, serve workers), packing memory comes from the step arena
// instead — see the PackPlan below — so it is recycled with everything
// else at Reset() and stays cache-warm. The small-size path also routes
// its pack here: it is serial by construction, so the scratch is private
// to the call and skipping the arena plan saves the per-call allocation
// that dominates tiny GEMMs.
std::vector<float>* TlsBPack() {
  static thread_local std::vector<float> b_pack;
  return &b_pack;
}

int64_t ThreadNum() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

// B-packing buffer layout for one BatchedGemmInto call. With an active
// Workspace the whole plan is one arena allocation sized for the largest
// K panel (the shared pack first, then one per-OpenMP-thread task
// region); the handle drops at end of call, which the arena's LIFO
// reclaim rewinds immediately. Without a workspace, the shared pack falls
// back to a local vector and task packs to the thread-local TlsBPack.
struct PackPlan {
  std::shared_ptr<float[]> arena;   // single arena block (may be null)
  float* shared_b = nullptr;
  float* tasks = nullptr;           // num_threads x task_b_floats floats
  int64_t task_b_floats = 0;
  std::vector<float> fallback_b;    // shared pack when no workspace
};

// Packs op(A) rows [i0, i0+mb) x panel columns [p0, p0+kb) into kMr-row
// groups: out[g * kb * kMr + p * kMr + r] = op(A)[i0 + g*kMr + r][p0 + p].
// Rows past mb are zero-padded so the micro-kernel never branches on the
// row tail (padded lanes are simply not written back).
void PackA(const float* a, int64_t lda, bool trans, int64_t i0, int64_t mb,
           int64_t p0, int64_t kb, float* out) {
  int64_t groups = CeilDiv(mb, kMr);
  for (int64_t g = 0; g < groups; ++g) {
    float* dst = out + g * kb * kMr;
    int64_t rows = std::min<int64_t>(kMr, mb - g * kMr);
    if (!trans) {
      // op(A)[i][p] = a[i * lda + p]: unit-stride reads along p.
      for (int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + g * kMr + r) * lda + p0;
        for (int64_t p = 0; p < kb; ++p) dst[p * kMr + r] = src[p];
      }
    } else {
      // op(A)[i][p] = a[p * lda + i]: unit-stride reads along r.
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = a + (p0 + p) * lda + i0 + g * kMr;
        for (int64_t r = 0; r < rows; ++r) dst[p * kMr + r] = src[r];
      }
    }
    if (rows < kMr) {
      for (int64_t p = 0; p < kb; ++p) {
        for (int64_t r = rows; r < kMr; ++r) dst[p * kMr + r] = 0.0f;
      }
    }
  }
}

// Packs op(B) panel rows [p0, p0+kb) x all n columns into kNr-column
// panels: out[jp * kb * kNr + p * kNr + c] = op(B)[p0 + p][jp*kNr + c],
// zero-padding the column tail.
void PackB(const float* b, int64_t ldb, bool trans, int64_t p0, int64_t kb,
           int64_t n, float* out) {
  int64_t panels = CeilDiv(n, kNr);
  for (int64_t jp = 0; jp < panels; ++jp) {
    float* dst = out + jp * kb * kNr;
    int64_t j0 = jp * kNr;
    int64_t cols = std::min<int64_t>(kNr, n - j0);
    if (!trans) {
      // op(B)[p][j] = b[p * ldb + j]: unit-stride reads along c.
      for (int64_t p = 0; p < kb; ++p) {
        const float* src = b + (p0 + p) * ldb + j0;
        for (int64_t c = 0; c < cols; ++c) dst[p * kNr + c] = src[c];
        for (int64_t c = cols; c < kNr; ++c) dst[p * kNr + c] = 0.0f;
      }
    } else {
      // op(B)[p][j] = b[j * ldb + p]: unit-stride reads along p.
      for (int64_t c = 0; c < cols; ++c) {
        const float* src = b + (j0 + c) * ldb + p0;
        for (int64_t p = 0; p < kb; ++p) dst[p * kNr + c] = src[p];
      }
      for (int64_t c = cols; c < kNr; ++c) {
        for (int64_t p = 0; p < kb; ++p) dst[p * kNr + c] = 0.0f;
      }
    }
  }
}

// One kNr-wide row of the register tile. The compiler picks the widest ISA
// available (one zmm, two ymm or four xmm) and the arithmetic stays
// elementwise, so results are identical across ISAs.
typedef float Vec __attribute__((vector_size(sizeof(float) * kNr)));
// Unaligned, aliasing-safe view for loads from packed panels and C rows
// (std::vector storage only guarantees float alignment).
typedef float VecU
    __attribute__((vector_size(sizeof(float) * kNr), aligned(alignof(float)),
                   may_alias));

// Every function below that passes a Vec by value is always inlined, so no
// call actually crosses the vector-argument ABI that -Wpsabi warns about
// on targets without AVX-512.
#define DYHSL_GEMM_INLINE inline __attribute__((always_inline))
#pragma GCC diagnostic ignored "-Wpsabi"

// Row loads and stores of nr <= kNr floats. Full rows are one vector
// access; a column tail (nr < kNr) moves only its nr live lanes and reads
// the dead ones as zeros, which the write-back then discards. AVX-512
// builds use masked moves: the memcpy fallback takes the row's address,
// which makes the compiler keep the whole tile in memory — the accumulator
// spills this write-back path exists to avoid.
DYHSL_GEMM_INLINE Vec LoadRow(const float* p, int64_t nr) {
  if (nr == kNr) return *reinterpret_cast<const VecU*>(p);
#ifdef __AVX512F__
  return reinterpret_cast<Vec>(
      _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << nr) - 1u), p));
#else
  Vec v = {0.0f};
  std::memcpy(&v, p, static_cast<size_t>(nr) * sizeof(float));
  return v;
#endif
}

DYHSL_GEMM_INLINE void StoreRow(float* p, Vec v, int64_t nr) {
  if (nr == kNr) {
    *reinterpret_cast<VecU*>(p) = v;
    return;
  }
#ifdef __AVX512F__
  _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << nr) - 1u),
                        reinterpret_cast<__m512>(v));
#else
  std::memcpy(p, &v, static_cast<size_t>(nr) * sizeof(float));
#endif
}

// max(v, 0) with the `x > 0 ? x : 0` semantics of tensor::Relu.
DYHSL_GEMM_INLINE Vec Relu(Vec v) {
  const Vec zero = {0.0f};
  return v > zero ? v : zero;
}

// The epilogue's steps up to the gate, in chain order (see GemmEpilogue).
// `o` is the element offset of this row from the call's C base — the same
// offset into the operands laid out like C — and `col` the row's first
// column.
DYHSL_GEMM_INLINE Vec ApplyEpilogue(const GemmEpilogue& ep, Vec v, int64_t o,
                                    int64_t col, int64_t nr) {
  if (ep.bias != nullptr) v = v + LoadRow(ep.bias + col, nr);
  if (ep.scale != 1.0f) v = DYHSL_ROUNDED(v * ep.scale);
  if (ep.relu) v = Relu(v);
  if (ep.residual != nullptr) v = v + LoadRow(ep.residual + o, nr);
  if (ep.post != 1.0f) v = DYHSL_ROUNDED(v * ep.post);
  return v;
}

// The gate step, c = tanh(a ⊙ b) + max(c, 0), over an mr x nr tile that
// already holds the earlier steps' result. It runs after the tile's rows
// are stored, out of line, so the micro-kernels make no call while their
// accumulators are live. tanh is the dispatched kernel tensor::Tanh uses;
// its result depends only on each element's value, so the gate matches
// the unfused Mul/Tanh/Relu/Add chain bit for bit.
__attribute__((noinline)) void ApplyGate(const GemmEpilogue& ep, float* c,
                                         int64_t ldc, int64_t off,
                                         int64_t mr, int64_t nr) {
  // One tanh call per tile; dead tail lanes compute tanh(0) and are
  // discarded.
  alignas(64) float t[kMr * kNr] = {};
  for (int64_t r = 0; r < mr; ++r) {
    const int64_t o = off + r * ldc;
    *reinterpret_cast<Vec*>(t + r * kNr) =
        LoadRow(ep.gate_a + o, nr) * LoadRow(ep.gate_b + o, nr);
  }
  simd::Active().tanh(t, t, mr * kNr);
  for (int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    StoreRow(crow,
             *reinterpret_cast<const Vec*>(t + r * kNr) +
                 Relu(LoadRow(crow, nr)),
             nr);
  }
}

// Where one kMr x kNr register tile lands in C: its valid mr x nr corner
// is written once, straight from registers, as beta * C + acc followed by
// the epilogue when one is set (the last K panel of the call).
struct TileSink {
  float* c;  // the tile's top-left element
  int64_t ldc;
  int64_t mr, nr;
  float beta;
  const GemmEpilogue* ep;
  int64_t off;  // c's element offset from the call's C base
  int64_t col;  // the tile's first column

  DYHSL_GEMM_INLINE void Row(int64_t r, Vec acc) const {
    float* crow = c + r * ldc;
    Vec v = acc;
    if (beta == 1.0f) {
      v = LoadRow(crow, nr) + acc;
    } else if (beta != 0.0f) {
      v = beta * LoadRow(crow, nr) + acc;
    }
    if (ep != nullptr) v = ApplyEpilogue(*ep, v, off + r * ldc, col, nr);
    StoreRow(crow, v, nr);
  }

  DYHSL_GEMM_INLINE void Tile(Vec v0, Vec v1, Vec v2, Vec v3, Vec v4,
                              Vec v5) const {
    static_assert(kMr == 6, "tile rows are unrolled by hand");
    Row(0, v0);
    if (mr > 1) Row(1, v1);
    if (mr > 2) Row(2, v2);
    if (mr > 3) Row(3, v3);
    if (mr > 4) Row(4, v4);
    if (mr > 5) Row(5, v5);
    if (ep != nullptr && ep->gate_a != nullptr) {
      ApplyGate(*ep, c, ldc, off, mr, nr);
    }
  }
};

// One row block [i0, i0 + mb) of one batch item's C, for a K panel.
struct BlockSink {
  float* c;  // row i0, column 0
  int64_t ldc;
  float beta;
  const GemmEpilogue* ep;  // non-null on the last K panel only
  int64_t off;             // c's element offset from the call's C base

  TileSink Tile(int64_t g, int64_t j0, int64_t mr, int64_t nr) const {
    const int64_t shift = g * kMr * ldc + j0;
    return {c + shift, ldc, mr, nr, beta, ep, off + shift, j0};
  }
};

// Apack panel * Bpack panel over kb steps into one tile. Both panels are
// contiguous, so every inner loop is unit-stride.
void MicroKernel(int64_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, const TileSink& out) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  // Two accumulators per row (even/odd K steps): 12 independent FMA
  // chains hide the FMA latency that 6 alone cannot (latency 4-5 x
  // throughput 2 wants ~10 in flight). The per-element reduction order
  // is fixed (evens in order, odds in order, one final add), so results
  // stay deterministic and identical across taped/grad-free calls.
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  int64_t p = 0;
  for (; p + 1 < kb; p += 2) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const float* aq = ap + p * kMr;
    // scalar op vector splats the scalar lane-wise (vbroadcastss + FMA).
    c0 += aq[0] * b0;
    c1 += aq[1] * b0;
    c2 += aq[2] * b0;
    c3 += aq[3] * b0;
    c4 += aq[4] * b0;
    c5 += aq[5] * b0;
    const Vec b1 = *reinterpret_cast<const VecU*>(bp + (p + 1) * kNr);
    const float* ar = aq + kMr;
    d0 += ar[0] * b1;
    d1 += ar[1] * b1;
    d2 += ar[2] * b1;
    d3 += ar[3] * b1;
    d4 += ar[4] * b1;
    d5 += ar[5] * b1;
  }
  if (p < kb) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const float* aq = ap + p * kMr;
    c0 += aq[0] * b0;
    c1 += aq[1] * b0;
    c2 += aq[2] * b0;
    c3 += aq[3] * b0;
    c4 += aq[4] * b0;
    c5 += aq[5] * b0;
  }
  out.Tile(c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5);
}

// Two adjacent B panels per pass: every A broadcast feeds two FMAs, and
// the per-call fixed cost (accumulator init, write-back) is amortized
// over twice the work. out0/out1 receive the tiles of panels j and j+1.
// Each output element still accumulates sequentially over p, so results
// are deterministic for a fixed shape.
void MicroKernel2(int64_t kb, const float* __restrict__ ap,
                  const float* __restrict__ bp0,
                  const float* __restrict__ bp1, const TileSink& out0,
                  const TileSink& out1) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  for (int64_t p = 0; p < kb; ++p) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp0 + p * kNr);
    const Vec b1 = *reinterpret_cast<const VecU*>(bp1 + p * kNr);
    const float* aq = ap + p * kMr;
    const float a0 = aq[0], a1 = aq[1], a2 = aq[2];
    const float a3 = aq[3], a4 = aq[4], a5 = aq[5];
    c0 += a0 * b0;
    d0 += a0 * b1;
    c1 += a1 * b0;
    d1 += a1 * b1;
    c2 += a2 * b0;
    d2 += a2 * b1;
    c3 += a3 * b0;
    d3 += a3 * b1;
    c4 += a4 * b0;
    d4 += a4 * b1;
    c5 += a5 * b0;
    d5 += a5 * b1;
  }
  out0.Tile(c0, c1, c2, c3, c4, c5);
  out1.Tile(d0, d1, d2, d3, d4, d5);
}

// Direct-A variants: op(A) is consumed through per-row pointers (already
// offset to the K panel) instead of a packed panel. ar[r][p] reads the
// exact value PackA would have staged at ap[p * kMr + r], and the
// accumulation order replays MicroKernel's even/odd dual-accumulator
// schedule per element, so results are bit-identical to the packed path.
// Only valid for !trans_a, where op(A) rows are unit-stride in memory.
void MicroKernelDirectA(int64_t kb, const float* const* ar,
                        const float* __restrict__ bp, const TileSink& out) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  const float* a0 = ar[0];
  const float* a1 = ar[1];
  const float* a2 = ar[2];
  const float* a3 = ar[3];
  const float* a4 = ar[4];
  const float* a5 = ar[5];
  int64_t p = 0;
  for (; p + 1 < kb; p += 2) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    c0 += a0[p] * b0;
    c1 += a1[p] * b0;
    c2 += a2[p] * b0;
    c3 += a3[p] * b0;
    c4 += a4[p] * b0;
    c5 += a5[p] * b0;
    const Vec b1 = *reinterpret_cast<const VecU*>(bp + (p + 1) * kNr);
    d0 += a0[p + 1] * b1;
    d1 += a1[p + 1] * b1;
    d2 += a2[p + 1] * b1;
    d3 += a3[p + 1] * b1;
    d4 += a4[p + 1] * b1;
    d5 += a5[p + 1] * b1;
  }
  if (p < kb) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    c0 += a0[p] * b0;
    c1 += a1[p] * b0;
    c2 += a2[p] * b0;
    c3 += a3[p] * b0;
    c4 += a4[p] * b0;
    c5 += a5[p] * b0;
  }
  out.Tile(c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5);
}

// Direct-A twin of MicroKernel2: two B panels per pass, sequential
// accumulation over p — the same per-element order as the packed kernel.
void MicroKernelDirectA2(int64_t kb, const float* const* ar,
                         const float* __restrict__ bp0,
                         const float* __restrict__ bp1, const TileSink& out0,
                         const TileSink& out1) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  const float* r0 = ar[0];
  const float* r1 = ar[1];
  const float* r2 = ar[2];
  const float* r3 = ar[3];
  const float* r4 = ar[4];
  const float* r5 = ar[5];
  for (int64_t p = 0; p < kb; ++p) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp0 + p * kNr);
    const Vec b1 = *reinterpret_cast<const VecU*>(bp1 + p * kNr);
    const float a0 = r0[p], a1 = r1[p], a2 = r2[p];
    const float a3 = r3[p], a4 = r4[p], a5 = r5[p];
    c0 += a0 * b0;
    d0 += a0 * b1;
    c1 += a1 * b0;
    d1 += a1 * b1;
    c2 += a2 * b0;
    d2 += a2 * b1;
    c3 += a3 * b0;
    d3 += a3 * b1;
    c4 += a4 * b0;
    d4 += a4 * b1;
    c5 += a5 * b0;
    d5 += a5 * b1;
  }
  out0.Tile(c0, c1, c2, c3, c4, c5);
  out1.Tile(d0, d1, d2, d3, d4, d5);
}

// Strided twins for trans_a: op(A)[i0+r][p0+p] = a[(p0+p)*lda + i0+r], so
// the kMr lanes of one K step are contiguous in memory — the exact layout
// PackA stages at ap[p * kMr + r], just with row stride lda instead of
// kMr. These are MicroKernel/MicroKernel2 verbatim with `aq` advancing by
// `astr` per step, so every output element sees the identical even/odd
// accumulation schedule and results match the packed path bit for bit.
void MicroKernelDirectAT(int64_t kb, const float* __restrict__ a0,
                         int64_t astr, const float* __restrict__ bp,
                         const TileSink& out) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  int64_t p = 0;
  for (; p + 1 < kb; p += 2) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const float* aq = a0 + p * astr;
    c0 += aq[0] * b0;
    c1 += aq[1] * b0;
    c2 += aq[2] * b0;
    c3 += aq[3] * b0;
    c4 += aq[4] * b0;
    c5 += aq[5] * b0;
    const Vec b1 = *reinterpret_cast<const VecU*>(bp + (p + 1) * kNr);
    const float* ar = aq + astr;
    d0 += ar[0] * b1;
    d1 += ar[1] * b1;
    d2 += ar[2] * b1;
    d3 += ar[3] * b1;
    d4 += ar[4] * b1;
    d5 += ar[5] * b1;
  }
  if (p < kb) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const float* aq = a0 + p * astr;
    c0 += aq[0] * b0;
    c1 += aq[1] * b0;
    c2 += aq[2] * b0;
    c3 += aq[3] * b0;
    c4 += aq[4] * b0;
    c5 += aq[5] * b0;
  }
  out.Tile(c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5);
}

void MicroKernelDirectAT2(int64_t kb, const float* __restrict__ a0,
                          int64_t astr, const float* __restrict__ bp0,
                          const float* __restrict__ bp1, const TileSink& out0,
                          const TileSink& out1) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  for (int64_t p = 0; p < kb; ++p) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp0 + p * kNr);
    const Vec b1 = *reinterpret_cast<const VecU*>(bp1 + p * kNr);
    const float* aq = a0 + p * astr;
    const float a0v = aq[0], a1v = aq[1], a2v = aq[2];
    const float a3v = aq[3], a4v = aq[4], a5v = aq[5];
    c0 += a0v * b0;
    d0 += a0v * b1;
    c1 += a1v * b0;
    d1 += a1v * b1;
    c2 += a2v * b0;
    d2 += a2v * b1;
    c3 += a3v * b0;
    d3 += a3v * b1;
    c4 += a4v * b0;
    d4 += a4v * b1;
    c5 += a5v * b0;
    d5 += a5v * b1;
  }
  out0.Tile(c0, c1, c2, c3, c4, c5);
  out1.Tile(d0, d1, d2, d3, d4, d5);
}

// C block rows [i0, i0+mb): all panels of one packed A block against the
// packed B panels of the current K panel. Panels are consumed in pairs
// (MicroKernel2 shares every A broadcast across two panels); a lone
// trailing panel falls back to the single-panel kernel.
void ComputeBlock(const float* a_pack, const float* b_pack, int64_t mb,
                  int64_t n, int64_t kb, const BlockSink& out) {
  int64_t panels = CeilDiv(n, kNr);
  int64_t groups = CeilDiv(mb, kMr);
  for (int64_t jp = 0; jp < panels; jp += 2) {
    const bool pair = jp + 1 < panels;
    const float* bp0 = b_pack + jp * kb * kNr;
    int64_t j0 = jp * kNr;
    int64_t nr0 = std::min<int64_t>(kNr, n - j0);
    int64_t nr1 = pair ? std::min<int64_t>(kNr, n - (j0 + kNr)) : 0;
    for (int64_t g = 0; g < groups; ++g) {
      const float* ap = a_pack + g * kb * kMr;
      int64_t mr = std::min<int64_t>(kMr, mb - g * kMr);
      const TileSink t0 = out.Tile(g, j0, mr, nr0);
      if (pair) {
        MicroKernel2(kb, ap, bp0, bp0 + kb * kNr, t0,
                     out.Tile(g, j0 + kNr, mr, nr1));
      } else {
        MicroKernel(kb, ap, bp0, t0);
      }
    }
  }
}

// Direct-A twin of ComputeBlock: op(A) rows [i0, i0+mb) are consumed in
// place through row pointers (no PackA anywhere), panel columns starting
// at p0. Tail row groups point their padded lanes at kZeroRow — the same
// zeros PackA would stage — and the jp pairing matches ComputeBlock
// exactly, so every output element sees an identical accumulation order.
void ComputeBlockDirectA(const float* a, int64_t lda, int64_t i0, int64_t p0,
                         const float* b_pack, int64_t mb, int64_t n,
                         int64_t kb, const BlockSink& out) {
  int64_t panels = CeilDiv(n, kNr);
  int64_t groups = CeilDiv(mb, kMr);
  for (int64_t jp = 0; jp < panels; jp += 2) {
    const bool pair = jp + 1 < panels;
    const float* bp0 = b_pack + jp * kb * kNr;
    int64_t j0 = jp * kNr;
    int64_t nr0 = std::min<int64_t>(kNr, n - j0);
    int64_t nr1 = pair ? std::min<int64_t>(kNr, n - (j0 + kNr)) : 0;
    for (int64_t g = 0; g < groups; ++g) {
      int64_t mr = std::min<int64_t>(kMr, mb - g * kMr);
      const float* arows[kMr];
      for (int64_t r = 0; r < mr; ++r) {
        arows[r] = a + (i0 + g * kMr + r) * lda + p0;
      }
      for (int64_t r = mr; r < kMr; ++r) arows[r] = kZeroRow;
      const TileSink t0 = out.Tile(g, j0, mr, nr0);
      if (pair) {
        MicroKernelDirectA2(kb, arows, bp0, bp0 + kb * kNr, t0,
                            out.Tile(g, j0 + kNr, mr, nr1));
      } else {
        MicroKernelDirectA(kb, arows, bp0, t0);
      }
    }
  }
}

// Direct twin of ComputeBlock for trans_a: op(A)'s kMr lanes of one K step
// are contiguous in memory (one row of A), so the strided micro-kernels
// read them in place with row stride lda — no PackA for any full row
// group. Only the tail group (mr < kMr), whose padded lanes would read
// past the matrix edge, is staged through PackA into a stack buffer; it
// then runs the ordinary packed kernels. The jp pairing and per-element
// accumulation order match ComputeBlock exactly, so results are
// bit-identical to the packed path.
void ComputeBlockDirectAT(const float* a, int64_t lda, int64_t i0, int64_t p0,
                          const float* b_pack, int64_t mb, int64_t n,
                          int64_t kb, const BlockSink& out) {
  int64_t panels = CeilDiv(n, kNr);
  int64_t groups = CeilDiv(mb, kMr);
  const int64_t tail_rows = mb - (groups - 1) * kMr;
  float tail_pack[kMr * kKc];  // one staged row group, zero-padded lanes
  if (tail_rows < kMr) {
    PackA(a, lda, /*trans=*/true, i0 + (groups - 1) * kMr, tail_rows, p0, kb,
          tail_pack);
  }
  for (int64_t jp = 0; jp < panels; jp += 2) {
    const bool pair = jp + 1 < panels;
    const float* bp0 = b_pack + jp * kb * kNr;
    int64_t j0 = jp * kNr;
    int64_t nr0 = std::min<int64_t>(kNr, n - j0);
    int64_t nr1 = pair ? std::min<int64_t>(kNr, n - (j0 + kNr)) : 0;
    for (int64_t g = 0; g < groups; ++g) {
      int64_t mr = std::min<int64_t>(kMr, mb - g * kMr);
      const bool tail = mr < kMr;
      // op(A)[i0+g*kMr+r][p0+p] = a[(p0+p)*lda + i0+g*kMr+r].
      const float* a0 = a + p0 * lda + i0 + g * kMr;
      const TileSink t0 = out.Tile(g, j0, mr, nr0);
      if (pair) {
        const TileSink t1 = out.Tile(g, j0 + kNr, mr, nr1);
        if (tail) {
          MicroKernel2(kb, tail_pack, bp0, bp0 + kb * kNr, t0, t1);
        } else {
          MicroKernelDirectAT2(kb, a0, lda, bp0, bp0 + kb * kNr, t0, t1);
        }
      } else if (tail) {
        MicroKernel(kb, tail_pack, bp0, t0);
      } else {
        MicroKernelDirectAT(kb, a0, lda, bp0, t0);
      }
    }
  }
}

// The degenerate k == 0 case (op(A) op(B) is empty): every tile is written
// from a zero accumulator, so C = beta * C and then the epilogue.
void WriteEmptyProduct(int64_t batch, int64_t m, int64_t n, float beta,
                       float* c, int64_t c_stride, int64_t ldc,
                       const GemmEpilogue* ep) {
  if (beta == 1.0f && ep == nullptr) return;  // C stays as it is
  const Vec zero = {0.0f};
  for (int64_t bi = 0; bi < batch; ++bi) {
    const BlockSink block{c + bi * c_stride, ldc, beta, ep, bi * c_stride};
    for (int64_t g = 0; g < CeilDiv(m, kMr); ++g) {
      for (int64_t j0 = 0; j0 < n; j0 += kNr) {
        block
            .Tile(g, j0, std::min<int64_t>(kMr, m - g * kMr),
                  std::min<int64_t>(kNr, n - j0))
            .Tile(zero, zero, zero, zero, zero, zero);
      }
    }
  }
}

}  // namespace

std::shared_ptr<const PackedPanels> PackedPanels::PackBOperand(
    const float* b, int64_t ldb, bool trans, int64_t k, int64_t n) {
  DYHSL_CHECK(b != nullptr);
  DYHSL_CHECK_GE(k, 1);
  DYHSL_CHECK_GE(n, 1);
  std::shared_ptr<PackedPanels> pp(new PackedPanels());
  pp->side_ = Side::kB;
  pp->trans_ = trans;
  pp->k_ = k;
  pp->mn_ = n;
  const int64_t panels = CeilDiv(n, kNr);
  pp->panel_stride_ = panels * kKc * kNr;
  pp->total_floats_ = panels * kNr * k;
  // Heap-pinned: the panels outlive any step arena and survive Reset().
  WorkspaceBypass bypass;
  pp->data_ = AllocateStorage(pp->total_floats_);
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kb = std::min<int64_t>(kKc, k - p0);
    PackB(b, ldb, trans, p0, kb, n,
          pp->data_.get() + (p0 / kKc) * pp->panel_stride_);
  }
  return pp;
}

std::shared_ptr<const PackedPanels> PackedPanels::PackAOperand(
    const float* a, int64_t lda, bool trans, int64_t m, int64_t k) {
  DYHSL_CHECK(a != nullptr);
  DYHSL_CHECK_GE(m, 1);
  DYHSL_CHECK_GE(k, 1);
  std::shared_ptr<PackedPanels> pp(new PackedPanels());
  pp->side_ = Side::kA;
  pp->trans_ = trans;
  pp->k_ = k;
  pp->mn_ = m;
  const int64_t groups = CeilDiv(m, kMr);
  pp->panel_stride_ = groups * kMr * kKc;
  pp->total_floats_ = groups * kMr * k;
  WorkspaceBypass bypass;
  pp->data_ = AllocateStorage(pp->total_floats_);
  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kb = std::min<int64_t>(kKc, k - p0);
    PackA(a, lda, trans, 0, m, p0, kb,
          pp->data_.get() + (p0 / kKc) * pp->panel_stride_);
  }
  return pp;
}

void BatchedGemmPrepackedInto(int64_t batch, bool trans_a, bool trans_b,
                              int64_t m, int64_t n, int64_t k, const float* a,
                              int64_t a_stride, int64_t lda,
                              const PackedPanels* pre_a, const float* b,
                              int64_t b_stride, int64_t ldb,
                              const PackedPanels* pre_b, float beta, float* c,
                              int64_t c_stride, int64_t ldc,
                              const GemmEpilogue* epilogue) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  if (epilogue != nullptr) {
    DYHSL_CHECK((epilogue->gate_a == nullptr) ==
                (epilogue->gate_b == nullptr));
    if (epilogue->empty()) epilogue = nullptr;
  }
  if (k <= 0) {
    WriteEmptyProduct(batch, m, n, beta, c, c_stride, ldc, epilogue);
    return;
  }
  if (pre_b != nullptr) {
    // A prepacked operand must describe exactly the shared operand of this
    // call — the same op() and dimensions the on-the-fly pack would see.
    DYHSL_CHECK(b_stride == 0);
    DYHSL_CHECK(pre_b->side() == PackedPanels::Side::kB);
    DYHSL_CHECK(pre_b->trans() == trans_b);
    DYHSL_CHECK_EQ(pre_b->k(), k);
    DYHSL_CHECK_EQ(pre_b->mn(), n);
  }
  if (pre_a != nullptr) {
    DYHSL_CHECK(a_stride == 0);
    DYHSL_CHECK(pre_a->side() == PackedPanels::Side::kA);
    DYHSL_CHECK(pre_a->trans() == trans_a);
    DYHSL_CHECK_EQ(pre_a->k(), k);
    DYHSL_CHECK_EQ(pre_a->mn(), m);
  }
  const bool shared_b = b_stride == 0;
  // A is never packed here. Without prepacked panels the kernels read
  // op(A) in place: direct-A for !trans_a, where op(A) rows are
  // unit-stride in memory, and direct-AT for trans_a, where op(A)'s row
  // lanes of one K step are contiguous (a row of A) and only the row tail
  // group stages through PackA (see ComputeBlockDirectAT). Profiling shows
  // the activation side is ~90% of grad-free packing time, so this is the
  // main lever.
  const int64_t ic_blocks = CeilDiv(m, kMc);
  const int64_t panels = CeilDiv(n, kNr);
  const int64_t kb_max = std::min<int64_t>(kKc, k);
  // Small-size path: the call runs serial either way — below the parallel
  // cutoff, or the calling thread's team budget is one (a pinned engine
  // worker) — so skip the arena plan and the OpenMP region and stage the
  // B pack in the thread-local scratch.
  const int avail_team = core::TeamThreads();
  const bool small =
      avail_team == 1 || batch * m * n * kb_max <= kParallelCutoff;

  // B-packing buffers, sized for the largest K panel. With an active
  // WorkspaceScope the plan is one step-arena allocation, released (and
  // LIFO-rewound) when this call returns; otherwise the shared pack uses
  // a local vector and task packs the thread-local scratch. A prepacked
  // B needs no buffer at all.
  const int64_t shared_b_floats =
      (shared_b && pre_b == nullptr) ? panels * kb_max * kNr : 0;
  PackPlan plan;
  plan.task_b_floats = shared_b ? 0 : panels * kb_max * kNr;
  // Intra-op team scoping: the region below is bounded by the calling
  // thread's ThreadBudget slice (TeamScope), so an engine worker's GEMMs
  // can never spawn a machine-wide team and oversubscribe its peers.
  const int team = small ? 1 : avail_team;
  (void)team;  // consumed only by the pragma; unused without OpenMP
  Workspace* workspace = small ? nullptr : Workspace::Current();
  if (workspace != nullptr) {
    plan.arena =
        workspace->Allocate(shared_b_floats + plan.task_b_floats * team);
    plan.shared_b = shared_b_floats > 0 ? plan.arena.get() : nullptr;
    plan.tasks = plan.arena.get() + shared_b_floats;
  } else if (small) {
    // Serial: a shared pack and per-task packs are mutually exclusive, so
    // either can draw from the same thread-local scratch vector.
    if (shared_b_floats > 0) {
      TlsBPack()->resize(shared_b_floats);
      plan.shared_b = TlsBPack()->data();
    }
  } else {
    plan.fallback_b.resize(shared_b_floats);
    plan.shared_b = shared_b_floats > 0 ? plan.fallback_b.data() : nullptr;
  }

  for (int64_t p0 = 0; p0 < k; p0 += kKc) {
    const int64_t kb = std::min<int64_t>(kKc, k - p0);
    // The first K panel applies the caller's beta; later panels accumulate.
    // The epilogue runs once, on the last panel, so it sees the full sum.
    const float eff_beta = p0 == 0 ? beta : 1.0f;
    const GemmEpilogue* eff_ep = p0 + kKc >= k ? epilogue : nullptr;
    // Shared packed panels for this K panel: prepacked bytes when the
    // caller supplied them (identical to what PackB/PackA would write),
    // packed on the fly for a shared B otherwise.
    const float* sb = nullptr;
    if (shared_b) {
      if (pre_b != nullptr) {
        sb = pre_b->data() + (p0 / kKc) * pre_b->panel_stride();
      } else {
        PackB(b, ldb, trans_b, p0, kb, n, plan.shared_b);
        sb = plan.shared_b;
      }
    }
    const float* sa = pre_a != nullptr
                          ? pre_a->data() + (p0 / kKc) * pre_a->panel_stride()
                          : nullptr;

    const int64_t tasks = batch * ic_blocks;
    auto run_task = [&](int64_t t) {
      const int64_t bi = t / ic_blocks;
      const int64_t ic = t % ic_blocks;
      const int64_t i0 = ic * kMc;
      const int64_t mb = std::min<int64_t>(kMc, m - i0);
      const float* b_pack = sb;
      if (!shared_b) {
        float* task_b;
        if (plan.arena != nullptr) {
          task_b = plan.tasks + ThreadNum() * plan.task_b_floats;
        } else {
          TlsBPack()->resize(plan.task_b_floats);
          task_b = TlsBPack()->data();
        }
        PackB(b + bi * b_stride, ldb, trans_b, p0, kb, n, task_b);
        b_pack = task_b;
      }
      const int64_t off = bi * c_stride + i0 * ldc;
      const BlockSink out{c + off, ldc, eff_beta, eff_ep, off};
      if (sa != nullptr) {
        // kMc is a multiple of kMr, so row-block ic starts at packed group
        // i0 / kMr of the whole-M prepacked panel.
        ComputeBlock(sa + (i0 / kMr) * kb * kMr, b_pack, mb, n, kb, out);
      } else if (trans_a) {
        ComputeBlockDirectAT(a + bi * a_stride, lda, i0, p0, b_pack, mb, n,
                             kb, out);
      } else {
        ComputeBlockDirectA(a + bi * a_stride, lda, i0, p0, b_pack, mb, n,
                            kb, out);
      }
    };
    // Deterministic per thread count: tasks partition the output, and each
    // element's accumulation order is fixed by the (p0, p) loop structure.
    if (!small && batch * m * n * kb > kParallelCutoff) {
#pragma omp parallel for schedule(static) num_threads(team)
      for (int64_t t = 0; t < tasks; ++t) run_task(t);
    } else {
      for (int64_t t = 0; t < tasks; ++t) run_task(t);
    }
  }
}

void BatchedGemmInto(int64_t batch, bool trans_a, bool trans_b, int64_t m,
                     int64_t n, int64_t k, const float* a, int64_t a_stride,
                     int64_t lda, const float* b, int64_t b_stride,
                     int64_t ldb, float beta, float* c, int64_t c_stride,
                     int64_t ldc) {
  BatchedGemmPrepackedInto(batch, trans_a, trans_b, m, n, k, a, a_stride,
                           lda, /*pre_a=*/nullptr, b, b_stride, ldb,
                           /*pre_b=*/nullptr, beta, c, c_stride, ldc,
                           /*epilogue=*/nullptr);
}

void GemmInto(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              const float* a, int64_t lda, const float* b, int64_t ldb,
              float beta, float* c, int64_t ldc) {
  BatchedGemmInto(1, trans_a, trans_b, m, n, k, a, /*a_stride=*/0, lda, b,
                  /*b_stride=*/0, ldb, beta, c, /*c_stride=*/0, ldc);
}

}  // namespace dyhsl::tensor
