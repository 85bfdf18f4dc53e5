// Cache-blocked float32 GEMM — the compute core behind MatMul and
// BatchedMatMul in src/tensor/ops.cc.
//
// Design notes
//  * BLIS-style blocking: the K dimension is split into kKc panels, rows
//    into kMc blocks, and a kMr x kNr register tile is accumulated per
//    micro-kernel call. The B operand is packed into contiguous panels
//    per K panel, so both trans_b settings run unit-stride inner loops —
//    the packing absorbs the strides.
//  * One micro-kernel pair (one B panel, or two adjacent panels per pass)
//    serves every op(A) layout: it reads the kMr rows of a row group
//    through row pointers plus a K stride. No-trans A is read in place
//    (its rows, stride 1, padded rows at a static zero row), trans A in
//    place (row lanes, stride lda) and packed A panels with stride kMr.
//    Only a trans-A tail row group, whose padded lanes would read past
//    the matrix edge, is staged through the packer. A is never packed at
//    call time otherwise; activations dominate packing time.
//  * Deterministic for any OpenMP thread count: parallelism is over
//    (batch, row-block) tasks inside a K-panel, each output element is
//    written by exactly one task, and its floating-point accumulation
//    order (p ascending within a panel, panels ascending) never depends on
//    the thread count.
//  * One write-back path: each micro-kernel writes its tile's valid
//    corner straight from the accumulator registers, once per K panel —
//    there is no staging tile in memory. Column tails (n not a multiple of
//    kNr) load and store only their live lanes around the same vector
//    arithmetic, so a tail element rounds exactly like a full-tile one.
//  * beta semantics follow BLAS: C = beta * C + op(A) op(B), and beta == 0
//    never reads C, so the output may be uninitialized arena memory.
//  * Epilogue: an optional GemmEpilogue applies elementwise steps to each
//    element on the way out of the registers, on the last K panel only
//    (so it always sees the complete sum), at every team size. Each step
//    rounds on its own, in the documented chain order, so a fused call is
//    bit-identical to the GEMM followed by the equivalent tensor ops
//    (Add of a row vector, MulScalar, Relu, Add, MulScalar, and
//    Tanh(Mul(a, b)) + Relu(·)). A plain call is the empty epilogue.
//  * Every layout runs the same kernels, so reading A in place is
//    bit-identical to packing op(A) with PackedPanels::PackAOperand.
//  * One grow-only B scratch per thread: a call packs either one shared B
//    on the calling thread or one B per task on the thread running it,
//    never both. GEMMs under the parallel cutoff skip the OpenMP region.
//  * PackedPanels lets a caller pack a long-lived operand (a frozen
//    checkpoint weight) once and reuse the panels across calls — the
//    packed bytes are the same ones the on-the-fly path would produce,
//    so prepacked GEMMs are bit-identical too. See src/tensor/prepack.h
//    for the cache that serves them transparently.

#ifndef DYHSL_TENSOR_GEMM_H_
#define DYHSL_TENSOR_GEMM_H_

#include <cstdint>
#include <memory>

namespace dyhsl::tensor {

/// \brief Elementwise steps fused into the GEMM write-back. After
/// v = beta * c + acc, the set steps run in this order:
///   v += bias[col]; v *= scale; v = max(v, 0); v += residual;
///   v *= post; v = tanh(gate_a * gate_b) + max(v, 0).
/// `residual`, `gate_a` and `gate_b` are laid out like C (same ldc and
/// batch stride) and must not alias it. Defaults leave a step out.
struct GemmEpilogue {
  const float* bias = nullptr;  // n floats, one per output column
  float scale = 1.0f;
  bool relu = false;
  const float* residual = nullptr;
  float post = 1.0f;
  /// The IGC gate (paper Eq. 11–12): both set or both null.
  const float* gate_a = nullptr;
  const float* gate_b = nullptr;

  bool empty() const {
    return bias == nullptr && scale == 1.0f && !relu &&
           residual == nullptr && post == 1.0f && gate_a == nullptr;
  }
};

/// \brief A long-lived packed copy of one GEMM operand, laid out exactly
/// as the blocked kernel's per-K-panel packing (PackA/PackB in gemm.cc)
/// and heap-pinned (WorkspaceBypass) so it survives arena resets. Packed
/// size is the operand rounded up to whole register tiles: ~= the operand
/// bytes, plus tail padding.
class PackedPanels {
 public:
  enum class Side : int { kA, kB };

  /// \brief Packs op(B) — k x n after the optional transpose — of the
  /// stored matrix `b` with leading dimension `ldb`.
  static std::shared_ptr<const PackedPanels> PackBOperand(const float* b,
                                                          int64_t ldb,
                                                          bool trans,
                                                          int64_t k,
                                                          int64_t n);

  /// \brief Packs op(A) — m x k after the optional transpose — of the
  /// stored matrix `a` with leading dimension `lda`.
  static std::shared_ptr<const PackedPanels> PackAOperand(const float* a,
                                                          int64_t lda,
                                                          bool trans,
                                                          int64_t m,
                                                          int64_t k);

  Side side() const { return side_; }
  bool trans() const { return trans_; }
  int64_t k() const { return k_; }
  /// n for a B-side pack, m for an A-side pack.
  int64_t mn() const { return mn_; }
  int64_t bytes() const {
    return total_floats_ * static_cast<int64_t>(sizeof(float));
  }

  /// \name Kernel plumbing (used by BatchedGemmPrepackedInto)
  /// @{
  const float* data() const { return data_.get(); }
  /// Floats between consecutive full K panels.
  int64_t panel_stride() const { return panel_stride_; }
  /// @}

 private:
  PackedPanels() = default;

  Side side_ = Side::kB;
  bool trans_ = false;
  int64_t k_ = 0;
  int64_t mn_ = 0;
  int64_t panel_stride_ = 0;
  int64_t total_floats_ = 0;
  std::shared_ptr<float[]> data_;
};

/// \brief C (m x n, row-major, leading dimension ldc) = beta * C +
/// op(A) op(B). op transposes when the matching flag is set; `lda`/`ldb`
/// are the leading dimensions of the *stored* (untransposed) operands.
void GemmInto(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
              const float* a, int64_t lda, const float* b, int64_t ldb,
              float beta, float* c, int64_t ldc);

/// \brief Batched GemmInto. `a_stride`/`b_stride`/`c_stride` advance each
/// operand between batch items; a stride of 0 shares that operand across
/// the whole batch. A shared B is packed once and reused by every batch
/// item (the shared-weight fast path).
void BatchedGemmInto(int64_t batch, bool trans_a, bool trans_b, int64_t m,
                     int64_t n, int64_t k, const float* a, int64_t a_stride,
                     int64_t lda, const float* b, int64_t b_stride,
                     int64_t ldb, float beta, float* c, int64_t c_stride,
                     int64_t ldc);

/// \brief BatchedGemmInto accepting optional prepacked operands. A non-null
/// `pre_a`/`pre_b` must describe the matching shared operand (stride 0,
/// same trans flag and op() dimensions, packed from the same bytes) and
/// replaces its on-the-fly packing; results are bit-identical to the
/// unpacked call. The raw pointer for a prepacked operand may be null.
/// A non-null `epilogue` is applied as C is written (see GemmEpilogue).
void BatchedGemmPrepackedInto(int64_t batch, bool trans_a, bool trans_b,
                              int64_t m, int64_t n, int64_t k, const float* a,
                              int64_t a_stride, int64_t lda,
                              const PackedPanels* pre_a, const float* b,
                              int64_t b_stride, int64_t ldb,
                              const PackedPanels* pre_b, float beta, float* c,
                              int64_t c_stride, int64_t ldc,
                              const GemmEpilogue* epilogue = nullptr);

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_GEMM_H_
