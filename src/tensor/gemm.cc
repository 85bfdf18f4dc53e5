#include "src/tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"
#include "src/tensor/workspace.h"

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

// Stand-in rows for the padded lanes of a row-group tail: PackA zero-pads
// rows past mb, so a no-trans A read in place points their row pointers
// at zeros — same values, same (unused) accumulator lanes.
alignas(64) constexpr float kZeroRow[kKc] = {};

int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// The calling thread's B-pack scratch, at least `floats` long. It only
// grows, so steady-state GEMMs allocate nothing. One buffer per thread is
// enough: a call packs either one shared B on the calling thread or one B
// per task on the thread running that task, never both, and no GEMM runs
// inside another on the same thread.
float* BPackScratch(int64_t floats) {
  static thread_local std::vector<float> scratch;
  if (static_cast<int64_t>(scratch.size()) < floats) {
    scratch.resize(static_cast<size_t>(floats));
  }
  return scratch.data();
}

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

// op(A) for one kMr-row group of one K panel, read where it lies: lane r
// of K step p is row[r][p * stride]. That covers every layout the kernels
// see, each reading exactly the value PackA would stage at
// ap[p * kMr + r]:
//  * packed panels (prepacked A, or the staged trans-A tail):
//    row[r] = ap + r, stride kMr;
//  * trans-A in place, where one K step's lanes are one row of A:
//    row[r] = a + p0 * lda + i + r, stride lda;
//  * no-trans A in place: row[r] = a + (i + r) * lda + p0, stride 1, with
//    padded tail lanes pointing at kZeroRow.
struct ARows {
  const float* row[kMr];
  int64_t stride;
};

// One B panel over kb steps into one tile. Two accumulators per row
// (even/odd K steps): 12 independent FMA chains hide the FMA latency that
// 6 alone cannot (latency 4-5 x throughput 2 wants ~10 in flight). The
// per-element reduction order is fixed (evens in order, odds in order,
// one final add), so results are deterministic and the same for every A
// layout.
void MicroKernel(int64_t kb, const ARows& a, const float* __restrict__ bp,
                 const TileSink& out) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  const float* a0 = a.row[0];
  const float* a1 = a.row[1];
  const float* a2 = a.row[2];
  const float* a3 = a.row[3];
  const float* a4 = a.row[4];
  const float* a5 = a.row[5];
  const int64_t s = a.stride;
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  int64_t p = 0;
  for (; p + 1 < kb; p += 2) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const int64_t q = p * s;
    // scalar op vector splats the scalar lane-wise (vbroadcastss + FMA).
    c0 += a0[q] * b0;
    c1 += a1[q] * b0;
    c2 += a2[q] * b0;
    c3 += a3[q] * b0;
    c4 += a4[q] * b0;
    c5 += a5[q] * b0;
    const Vec b1 = *reinterpret_cast<const VecU*>(bp + (p + 1) * kNr);
    const int64_t q1 = q + s;
    d0 += a0[q1] * b1;
    d1 += a1[q1] * b1;
    d2 += a2[q1] * b1;
    d3 += a3[q1] * b1;
    d4 += a4[q1] * b1;
    d5 += a5[q1] * b1;
  }
  if (p < kb) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp + p * kNr);
    const int64_t q = p * s;
    c0 += a0[q] * b0;
    c1 += a1[q] * b0;
    c2 += a2[q] * b0;
    c3 += a3[q] * b0;
    c4 += a4[q] * b0;
    c5 += a5[q] * b0;
  }
  out.Tile(c0 + d0, c1 + d1, c2 + d2, c3 + d3, c4 + d4, c5 + d5);
}

// Two adjacent B panels per pass: every A broadcast feeds two FMAs, and
// the per-call fixed cost (accumulator init, write-back) is amortized
// over twice the work. out0/out1 receive the tiles of panels j and j+1.
// Each output element accumulates sequentially over p, so results are
// deterministic for a fixed shape.
void MicroKernel2(int64_t kb, const ARows& a, const float* __restrict__ bp0,
                  const float* __restrict__ bp1, const TileSink& out0,
                  const TileSink& out1) {
  static_assert(kMr == 6, "accumulator rows are unrolled by hand");
  const float* r0 = a.row[0];
  const float* r1 = a.row[1];
  const float* r2 = a.row[2];
  const float* r3 = a.row[3];
  const float* r4 = a.row[4];
  const float* r5 = a.row[5];
  const int64_t s = a.stride;
  Vec c0 = {0.0f}, c1 = {0.0f}, c2 = {0.0f};
  Vec c3 = {0.0f}, c4 = {0.0f}, c5 = {0.0f};
  Vec d0 = {0.0f}, d1 = {0.0f}, d2 = {0.0f};
  Vec d3 = {0.0f}, d4 = {0.0f}, d5 = {0.0f};
  for (int64_t p = 0; p < kb; ++p) {
    const Vec b0 = *reinterpret_cast<const VecU*>(bp0 + p * kNr);
    const Vec b1 = *reinterpret_cast<const VecU*>(bp1 + p * kNr);
    const int64_t q = p * s;
    const float a0 = r0[q], a1 = r1[q], a2 = r2[q];
    const float a3 = r3[q], a4 = r4[q], a5 = r5[q];
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

// C rows [i0, i0 + mb) of one batch item over the K panel [p0, p0 + kb):
// every kMr-row group against the packed B panels, panels outer and
// groups inner. Panels go in pairs (MicroKernel2); a lone trailing panel
// takes MicroKernel. op(A) comes from `a_pack`, the block's packed
// panels, when set, and is read in place from `a` otherwise. In place, a
// trans-A tail group (mr < kMr) would read its padded lanes past the
// matrix edge, so that one group is staged through PackA and read as
// packed.
void ComputeBlock(const float* a, int64_t lda, bool trans_a,
                  const float* a_pack, int64_t i0, int64_t p0,
                  const float* b_pack, int64_t mb, int64_t n, int64_t kb,
                  const BlockSink& out) {
  const int64_t panels = CeilDiv(n, kNr);
  const int64_t groups = CeilDiv(mb, kMr);
  const int64_t tail_rows = mb - (groups - 1) * kMr;
  float tail_pack[kMr * kKc];
  const bool stage_tail = a_pack == nullptr && trans_a && tail_rows < kMr;
  if (stage_tail) {
    PackA(a, lda, /*trans=*/true, i0 + (groups - 1) * kMr, tail_rows, p0, kb,
          tail_pack);
  }
  auto group_rows = [&](int64_t g, int64_t mr) {
    ARows rows;
    if (a_pack != nullptr || (stage_tail && g == groups - 1)) {
      const float* ap = a_pack != nullptr ? a_pack + g * kb * kMr : tail_pack;
      for (int64_t r = 0; r < kMr; ++r) rows.row[r] = ap + r;
      rows.stride = kMr;
    } else if (trans_a) {
      const float* lane0 = a + p0 * lda + i0 + g * kMr;
      for (int64_t r = 0; r < kMr; ++r) rows.row[r] = lane0 + r;
      rows.stride = lda;
    } else {
      for (int64_t r = 0; r < kMr; ++r) {
        rows.row[r] = r < mr ? a + (i0 + g * kMr + r) * lda + p0 : kZeroRow;
      }
      rows.stride = 1;
    }
    return rows;
  };
  for (int64_t jp = 0; jp < panels; jp += 2) {
    const bool pair = jp + 1 < panels;
    const float* bp0 = b_pack + jp * kb * kNr;
    const int64_t j0 = jp * kNr;
    const int64_t nr0 = std::min<int64_t>(kNr, n - j0);
    const int64_t nr1 = pair ? std::min<int64_t>(kNr, n - (j0 + kNr)) : 0;
    for (int64_t g = 0; g < groups; ++g) {
      const int64_t mr = std::min<int64_t>(kMr, mb - g * kMr);
      const ARows rows = group_rows(g, mr);
      const TileSink t0 = out.Tile(g, j0, mr, nr0);
      if (pair) {
        MicroKernel2(kb, rows, bp0, bp0 + kb * kNr, t0,
                     out.Tile(g, j0 + kNr, mr, nr1));
      } else {
        MicroKernel(kb, rows, bp0, t0);
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
  // A is never packed here: ComputeBlock reads op(A) in place unless the
  // caller supplies prepacked panels. Profiling shows the activation side
  // is ~90% of grad-free packing time, so this is the main lever.
  const int64_t ic_blocks = CeilDiv(m, kMc);
  const int64_t kb_max = std::min<int64_t>(kKc, k);
  // One packed B: every column panel of the largest K panel.
  const int64_t b_floats = CeilDiv(n, kNr) * kb_max * kNr;
  // Small-size path: the call runs serial either way — below the parallel
  // cutoff, or the calling thread's team budget is one (a pinned engine
  // worker) — so it skips the OpenMP region.
  const int avail_team = core::TeamThreads();
  const bool small =
      avail_team == 1 || batch * m * n * kb_max <= kParallelCutoff;
  // Intra-op team scoping: the region below is bounded by the calling
  // thread's ThreadBudget slice (TeamScope), so an engine worker's GEMMs
  // can never spawn a machine-wide team and oversubscribe its peers.
  const int team = small ? 1 : avail_team;
  (void)team;  // consumed only by the pragma; unused without OpenMP
  float* shared_pack =
      shared_b && pre_b == nullptr ? BPackScratch(b_floats) : nullptr;

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
    if (pre_b != nullptr) {
      sb = pre_b->data() + (p0 / kKc) * pre_b->panel_stride();
    } else if (shared_b) {
      PackB(b, ldb, trans_b, p0, kb, n, shared_pack);
      sb = shared_pack;
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
        float* task_b = BPackScratch(b_floats);
        PackB(b + bi * b_stride, ldb, trans_b, p0, kb, n, task_b);
        b_pack = task_b;
      }
      const int64_t off = bi * c_stride + i0 * ldc;
      const BlockSink out{c + off, ldc, eff_beta, eff_ep, off};
      // kMc is a multiple of kMr, so row-block ic starts at packed group
      // i0 / kMr of the whole-M prepacked panel.
      ComputeBlock(a + bi * a_stride, lda, trans_a,
                   sa != nullptr ? sa + (i0 / kMr) * kb * kMr : nullptr, i0,
                   p0, b_pack, mb, n, kb, out);
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
