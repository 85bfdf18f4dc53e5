#include "src/tensor/gemm.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dyhsl::tensor {
namespace {

// Register tile: kMr rows x kNr columns accumulated per micro-kernel call.
// 6 x 16 keeps the accumulator tile (96 floats) plus one packed B row in
// registers on AVX2 (12 ymm accumulators) and degrades gracefully to
// scalar code; kMc is a multiple of kMr so packed row-groups align with
// row-block boundaries.
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

// acc (kMr x kNr) = Apack panel * Bpack panel over kb steps. Both panels
// are contiguous, so every inner loop is unit-stride. The GCC/Clang vector
// extension variant pins the 6 accumulator rows in SIMD registers — the
// compiler picks the widest ISA available (one zmm, two ymm or four xmm
// per row) and the arithmetic stays elementwise, so results are identical
// across ISAs.
#if defined(__GNUC__) || defined(__clang__)

typedef float Vec __attribute__((vector_size(sizeof(float) * kNr)));
// Unaligned, aliasing-safe view for loads from packed panels (std::vector
// storage only guarantees float alignment).
typedef float VecU
    __attribute__((vector_size(sizeof(float) * kNr), aligned(alignof(float)),
                   may_alias));

void MicroKernel(int64_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, float* __restrict__ acc) {
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
  VecU* out = reinterpret_cast<VecU*>(acc);
  out[0] = c0 + d0;
  out[1] = c1 + d1;
  out[2] = c2 + d2;
  out[3] = c3 + d3;
  out[4] = c4 + d4;
  out[5] = c5 + d5;
}

// Two adjacent B panels per pass: every A broadcast feeds two FMAs, and
// the per-call fixed cost (accumulator init, write-back) is amortized
// over twice the work. acc0/acc1 receive the kMr x kNr tiles of panels
// j and j+1. Each output element still accumulates sequentially over p,
// so results are deterministic for a fixed shape.
void MicroKernel2(int64_t kb, const float* __restrict__ ap,
                  const float* __restrict__ bp0,
                  const float* __restrict__ bp1, float* __restrict__ acc0,
                  float* __restrict__ acc1) {
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
  VecU* out0 = reinterpret_cast<VecU*>(acc0);
  out0[0] = c0;
  out0[1] = c1;
  out0[2] = c2;
  out0[3] = c3;
  out0[4] = c4;
  out0[5] = c5;
  VecU* out1 = reinterpret_cast<VecU*>(acc1);
  out1[0] = d0;
  out1[1] = d1;
  out1[2] = d2;
  out1[3] = d3;
  out1[4] = d4;
  out1[5] = d5;
}

// Direct-A variants: op(A) is consumed through per-row pointers (already
// offset to the K panel) instead of a packed panel. ar[r][p] reads the
// exact value PackA would have staged at ap[p * kMr + r], and the
// accumulation order replays MicroKernel's even/odd dual-accumulator
// schedule per element, so results are bit-identical to the packed path.
// Only valid for !trans_a, where op(A) rows are unit-stride in memory.
void MicroKernelDirectA(int64_t kb, const float* const* ar,
                        const float* __restrict__ bp,
                        float* __restrict__ acc) {
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
  VecU* out = reinterpret_cast<VecU*>(acc);
  out[0] = c0 + d0;
  out[1] = c1 + d1;
  out[2] = c2 + d2;
  out[3] = c3 + d3;
  out[4] = c4 + d4;
  out[5] = c5 + d5;
}

// Direct-A twin of MicroKernel2: two B panels per pass, sequential
// accumulation over p — the same per-element order as the packed kernel.
void MicroKernelDirectA2(int64_t kb, const float* const* ar,
                         const float* __restrict__ bp0,
                         const float* __restrict__ bp1,
                         float* __restrict__ acc0, float* __restrict__ acc1) {
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
  VecU* out0 = reinterpret_cast<VecU*>(acc0);
  out0[0] = c0;
  out0[1] = c1;
  out0[2] = c2;
  out0[3] = c3;
  out0[4] = c4;
  out0[5] = c5;
  VecU* out1 = reinterpret_cast<VecU*>(acc1);
  out1[0] = d0;
  out1[1] = d1;
  out1[2] = d2;
  out1[3] = d3;
  out1[4] = d4;
  out1[5] = d5;
}

// Strided twins for trans_a: op(A)[i0+r][p0+p] = a[(p0+p)*lda + i0+r], so
// the kMr lanes of one K step are contiguous in memory — the exact layout
// PackA stages at ap[p * kMr + r], just with row stride lda instead of
// kMr. These are MicroKernel/MicroKernel2 verbatim with `aq` advancing by
// `astr` per step, so every output element sees the identical even/odd
// accumulation schedule and results match the packed path bit for bit.
void MicroKernelDirectAT(int64_t kb, const float* __restrict__ a0,
                         int64_t astr, const float* __restrict__ bp,
                         float* __restrict__ acc) {
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
  VecU* out = reinterpret_cast<VecU*>(acc);
  out[0] = c0 + d0;
  out[1] = c1 + d1;
  out[2] = c2 + d2;
  out[3] = c3 + d3;
  out[4] = c4 + d4;
  out[5] = c5 + d5;
}

void MicroKernelDirectAT2(int64_t kb, const float* __restrict__ a0,
                          int64_t astr, const float* __restrict__ bp0,
                          const float* __restrict__ bp1,
                          float* __restrict__ acc0,
                          float* __restrict__ acc1) {
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
  VecU* out0 = reinterpret_cast<VecU*>(acc0);
  out0[0] = c0;
  out0[1] = c1;
  out0[2] = c2;
  out0[3] = c3;
  out0[4] = c4;
  out0[5] = c5;
  VecU* out1 = reinterpret_cast<VecU*>(acc1);
  out1[0] = d0;
  out1[1] = d1;
  out1[2] = d2;
  out1[3] = d3;
  out1[4] = d4;
  out1[5] = d5;
}

#else  // portable scalar fallback

void MicroKernel(int64_t kb, const float* __restrict__ ap,
                 const float* __restrict__ bp, float* __restrict__ acc) {
  for (int64_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  for (int64_t p = 0; p < kb; ++p) {
    const float* aq = ap + p * kMr;
    const float* bq = bp + p * kNr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = aq[i];
      float* arow = acc + i * kNr;
      for (int64_t j = 0; j < kNr; ++j) arow[j] += av * bq[j];
    }
  }
}

void MicroKernel2(int64_t kb, const float* __restrict__ ap,
                  const float* __restrict__ bp0,
                  const float* __restrict__ bp1, float* __restrict__ acc0,
                  float* __restrict__ acc1) {
  MicroKernel(kb, ap, bp0, acc0);
  MicroKernel(kb, ap, bp1, acc1);
}

// Scalar direct-A twins: same sequential accumulation order as the scalar
// MicroKernel/MicroKernel2 above, reading op(A) through row pointers.
void MicroKernelDirectA(int64_t kb, const float* const* ar,
                        const float* __restrict__ bp,
                        float* __restrict__ acc) {
  for (int64_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  for (int64_t p = 0; p < kb; ++p) {
    const float* bq = bp + p * kNr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = ar[i][p];
      float* arow = acc + i * kNr;
      for (int64_t j = 0; j < kNr; ++j) arow[j] += av * bq[j];
    }
  }
}

void MicroKernelDirectA2(int64_t kb, const float* const* ar,
                         const float* __restrict__ bp0,
                         const float* __restrict__ bp1,
                         float* __restrict__ acc0, float* __restrict__ acc1) {
  MicroKernelDirectA(kb, ar, bp0, acc0);
  MicroKernelDirectA(kb, ar, bp1, acc1);
}

// Scalar strided twins for trans_a: MicroKernel with `aq` advancing by
// `astr` (the caller's lda) instead of kMr per K step.
void MicroKernelDirectAT(int64_t kb, const float* __restrict__ a0,
                         int64_t astr, const float* __restrict__ bp,
                         float* __restrict__ acc) {
  for (int64_t i = 0; i < kMr * kNr; ++i) acc[i] = 0.0f;
  for (int64_t p = 0; p < kb; ++p) {
    const float* aq = a0 + p * astr;
    const float* bq = bp + p * kNr;
    for (int64_t i = 0; i < kMr; ++i) {
      const float av = aq[i];
      float* arow = acc + i * kNr;
      for (int64_t j = 0; j < kNr; ++j) arow[j] += av * bq[j];
    }
  }
}

void MicroKernelDirectAT2(int64_t kb, const float* __restrict__ a0,
                          int64_t astr, const float* __restrict__ bp0,
                          const float* __restrict__ bp1,
                          float* __restrict__ acc0,
                          float* __restrict__ acc1) {
  MicroKernelDirectAT(kb, a0, astr, bp0, acc0);
  MicroKernelDirectAT(kb, a0, astr, bp1, acc1);
}

#endif

// Writes the valid (mr x nr) corner of the accumulator tile into C. Full-
// width tiles keep the inlined unit-stride loops (the compiler already
// vectorizes the fixed nr == kNr trip count); the column-tail tiles go
// through the runtime SIMD dispatch (src/tensor/simd.h), whose masked
// stores replace the scalar peel the autovectorizer emits for a variable
// nr. The arithmetic per element is identical either way (beta * c + acc
// in the same order), so results stay bit-identical across paths.
void WriteTile(const float* acc, float* c, int64_t ldc, int64_t mr,
               int64_t nr, float beta) {
  if (nr < kNr) {
    const simd::Ops& ops = simd::Active();
    for (int64_t i = 0; i < mr; ++i) {
      ops.tile_row_update(acc + i * kNr, c + i * ldc, nr, beta);
    }
    return;
  }
  for (int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const float* arow = acc + i * kNr;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < nr; ++j) crow[j] = arow[j];
    } else if (beta == 1.0f) {
      for (int64_t j = 0; j < nr; ++j) crow[j] += arow[j];
    } else {
      for (int64_t j = 0; j < nr; ++j) crow[j] = beta * crow[j] + arow[j];
    }
  }
}

// C block rows [i0, i0+mb): all panels of one packed A block against the
// packed B panels of the current K panel. Panels are consumed in pairs
// (MicroKernel2 shares every A broadcast across two panels); a lone
// trailing panel falls back to the single-panel kernel.
void ComputeBlock(const float* a_pack, const float* b_pack, int64_t mb,
                  int64_t n, int64_t kb, float* c, int64_t ldc, float beta) {
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
      float* crow = c + g * kMr * ldc + j0;
      if (pair) {
        float acc0[kMr * kNr];  // fully written by MicroKernel2
        float acc1[kMr * kNr];
        MicroKernel2(kb, ap, bp0, bp0 + kb * kNr, acc0, acc1);
        WriteTile(acc0, crow, ldc, mr, nr0, beta);
        WriteTile(acc1, crow + kNr, ldc, mr, nr1, beta);
      } else {
        float acc[kMr * kNr];  // fully written by MicroKernel
        MicroKernel(kb, ap, bp0, acc);
        WriteTile(acc, crow, ldc, mr, nr0, beta);
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
                         int64_t kb, float* c, int64_t ldc, float beta) {
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
      float* crow = c + g * kMr * ldc + j0;
      if (pair) {
        float acc0[kMr * kNr];  // fully written by MicroKernelDirectA2
        float acc1[kMr * kNr];
        MicroKernelDirectA2(kb, arows, bp0, bp0 + kb * kNr, acc0, acc1);
        WriteTile(acc0, crow, ldc, mr, nr0, beta);
        WriteTile(acc1, crow + kNr, ldc, mr, nr1, beta);
      } else {
        float acc[kMr * kNr];  // fully written by MicroKernelDirectA
        MicroKernelDirectA(kb, arows, bp0, acc);
        WriteTile(acc, crow, ldc, mr, nr0, beta);
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
                          int64_t kb, float* c, int64_t ldc, float beta) {
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
      float* crow = c + g * kMr * ldc + j0;
      if (pair) {
        float acc0[kMr * kNr];  // fully written by the paired kernels
        float acc1[kMr * kNr];
        if (tail) {
          MicroKernel2(kb, tail_pack, bp0, bp0 + kb * kNr, acc0, acc1);
        } else {
          MicroKernelDirectAT2(kb, a0, lda, bp0, bp0 + kb * kNr, acc0, acc1);
        }
        WriteTile(acc0, crow, ldc, mr, nr0, beta);
        WriteTile(acc1, crow + kNr, ldc, mr, nr1, beta);
      } else {
        float acc[kMr * kNr];  // fully written by the single-panel kernels
        if (tail) {
          MicroKernel(kb, tail_pack, bp0, acc);
        } else {
          MicroKernelDirectAT(kb, a0, lda, bp0, acc);
        }
        WriteTile(acc, crow, ldc, mr, nr0, beta);
      }
    }
  }
}

// beta-only update for the degenerate k == 0 case (op(A) op(B) is empty).
void ScaleOutput(int64_t batch, int64_t m, int64_t n, float beta, float* c,
                 int64_t c_stride, int64_t ldc) {
  for (int64_t bi = 0; bi < batch; ++bi) {
    for (int64_t i = 0; i < m; ++i) {
      float* row = c + bi * c_stride + i * ldc;
      if (beta == 0.0f) {
        std::fill(row, row + n, 0.0f);
      } else if (beta != 1.0f) {
        for (int64_t j = 0; j < n; ++j) row[j] *= beta;
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
                              int64_t c_stride, int64_t ldc) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  if (k <= 0) {
    ScaleOutput(batch, m, n, beta, c, c_stride, ldc);
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
    const float eff_beta = p0 == 0 ? beta : 1.0f;
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
      float* cdst = c + bi * c_stride + i0 * ldc;
      if (sa != nullptr) {
        // kMc is a multiple of kMr, so row-block ic starts at packed group
        // i0 / kMr of the whole-M prepacked panel.
        ComputeBlock(sa + (i0 / kMr) * kb * kMr, b_pack, mb, n, kb, cdst, ldc,
                     eff_beta);
      } else if (trans_a) {
        ComputeBlockDirectAT(a + bi * a_stride, lda, i0, p0, b_pack, mb, n,
                             kb, cdst, ldc, eff_beta);
      } else {
        ComputeBlockDirectA(a + bi * a_stride, lda, i0, p0, b_pack, mb, n,
                            kb, cdst, ldc, eff_beta);
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
                           /*pre_b=*/nullptr, beta, c, c_stride, ldc);
}

void GemmInto(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              const float* a, int64_t lda, const float* b, int64_t ldb,
              float beta, float* c, int64_t ldc) {
  BatchedGemmInto(1, trans_a, trans_b, m, n, k, a, /*a_stride=*/0, lda, b,
                  /*b_stride=*/0, ldb, beta, c, /*c_stride=*/0, ldc);
}

}  // namespace dyhsl::tensor
