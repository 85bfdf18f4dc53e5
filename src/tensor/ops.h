// Eager kernels over Tensor: elementwise (with numpy-style broadcasting),
// matrix products, reductions, movement ops, pooling and convolution.
//
// These are the forward *and* backward building blocks used by the autograd
// layer (src/autograd); they contain no differentiation logic themselves.

#ifndef DYHSL_TENSOR_OPS_H_
#define DYHSL_TENSOR_OPS_H_

#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace dyhsl::tensor {

/// \name Broadcasting
/// @{

/// \brief Numpy-style broadcast result shape; aborts on incompatibility.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// \brief Sums `t` over its broadcast axes so the result has `target` shape.
/// Inverse of broadcasting, used by gradient accumulation.
Tensor ReduceToShape(const Tensor& t, const Shape& target);
/// @}

/// \name Elementwise binary (broadcasting)
/// @{
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
/// @}

/// \name Elementwise with scalar
/// @{
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
/// @}

/// \name In-place updates (same shape, no broadcast)
/// @{
/// dst += src
void AddInPlace(Tensor* dst, const Tensor& src);
/// dst += alpha * src
void AxpyInPlace(Tensor* dst, float alpha, const Tensor& src);
/// dst *= s
void ScaleInPlace(Tensor* dst, float s);

/// \brief dst += b where b broadcasts to dst's shape (dst's shape is the
/// broadcast result). Same per-element arithmetic as Add.
void AddBroadcastInPlace(Tensor* dst, const Tensor& b);

/// \brief dst = max(dst, 0) elementwise.
void ReluInPlace(Tensor* dst);

/// \brief dst += s elementwise.
void AddScalarInPlace(Tensor* dst, float s);
/// @}

/// \name Out-parameter (fused) variants
/// Write into a preallocated output instead of allocating one, so hot
/// loops (autograd backward, optimizer) run without per-op allocation.
/// @{
/// out = a + b (same shape; out may alias a or b).
void AddInto(const Tensor& a, const Tensor& b, Tensor* out);
/// @}

/// \name Elementwise unary
/// @{
Tensor Neg(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sign(const Tensor& a);
/// 1 where a > 0, else 0 (subgradient mask for Relu/Abs backward).
Tensor Heaviside(const Tensor& a);
Tensor Clamp(const Tensor& a, float lo, float hi);
/// @}

/// \name Matrix products
/// All matmuls run on the blocked GEMM in src/tensor/gemm.h: op(B) is
/// packed into unit-stride panels, op(A) is read in place for either
/// trans_a, and results are bit-deterministic for any OpenMP thread count.
/// @{

/// \brief 2-D product C = op(A) * op(B), where op transposes when requested.
Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// \brief out = beta * out + op(A) op(B). beta == 0 never reads `out` (it
/// may be uninitialized); beta == 1 accumulates — the autograd backward
/// uses this to add matmul gradients straight into existing grad buffers.
/// A non-null `epilogue` fuses elementwise steps into the write of `out`
/// (see GemmEpilogue in src/tensor/gemm.h; its operands are laid out like
/// `out`), bit-identical to running those steps as separate ops.
void MatMulInto(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                float beta, Tensor* out,
                const GemmEpilogue* epilogue = nullptr);

/// \brief Batched product over the leading dim. `a` is (B, M, K) or 2-D
/// (M, K) shared across the batch; `b` is (B, K, N) or 2-D (K, N) shared.
/// Trans flags apply to the trailing two axes; a shared operand is packed
/// once and reused for every batch item.
Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool trans_a = false,
                     bool trans_b = false);

/// \brief Batched MatMulInto with the same shared-operand rules and the
/// same optional epilogue.
void BatchedMatMulInto(const Tensor& a, const Tensor& b, bool trans_a,
                       bool trans_b, float beta, Tensor* out,
                       const GemmEpilogue* epilogue = nullptr);

/// \brief out (2-D) = beta * out + sum over the batch of op(A_b) op(B_b),
/// for 3-D `a` and `b`. This is the gradient of a batch-shared operand.
void BatchedMatMulReduceInto(const Tensor& a, const Tensor& b, bool trans_a,
                             bool trans_b, float beta, Tensor* out);
/// @}

/// \name Movement
/// @{
Tensor Transpose2D(const Tensor& a);
/// \brief General axis permutation (copies).
Tensor TransposePerm(const Tensor& a, const std::vector<int64_t>& perm);
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
/// \brief Stacks B equally-shaped items into one (B, ...) batch tensor.
/// B == 1 is zero-copy: the result is a Reshape view sharing items[0]'s
/// storage — no allocation, no memcpy — which is what lets the serving
/// packers pass a single request straight through. B > 1 allocates
/// through the current allocation path (arena inside a WorkspaceScope)
/// and copies each item into its batch slot.
Tensor PackBatch(const std::vector<Tensor>& items);
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length);
/// \brief out[i, :] = a[indices[i], :] for a 2-D `a`.
Tensor TakeRows(const Tensor& a, const std::vector<int64_t>& indices);
/// \brief dst[indices[i], :] += src[i, :] for 2-D tensors.
void ScatterAddRows(Tensor* dst, const std::vector<int64_t>& indices,
                    const Tensor& src);
/// @}

/// \name Reductions
/// @{
float SumAllScalar(const Tensor& a);
float MeanAllScalar(const Tensor& a);
Tensor Sum(const Tensor& a, int64_t axis, bool keepdims = false);
Tensor Mean(const Tensor& a, int64_t axis, bool keepdims = false);
/// @}

/// \brief Numerically stable softmax over the last axis.
Tensor SoftmaxLastAxis(const Tensor& a);

/// \brief In-place variant of SoftmaxLastAxis (no output allocation).
void SoftmaxLastAxisInPlace(Tensor* a);

/// \brief Elementwise 1 / sqrt(a + eps) (fused normalization denominator).
Tensor Rsqrt(const Tensor& a, float eps = 0.0f);

/// \brief Fused layer normalization over the last axis:
/// y = (x - mean) / sqrt(var + eps) * gamma + beta, with per-row mean/var
/// and 1-D gamma/beta of the row width. One pass per row instead of the
/// six-kernel Mean/Sub/Mul/Mean/Rsqrt/Add chain. When non-null, `xhat`
/// receives the normalized rows and `inv_std` (one value per row, last
/// axis 1) the reciprocal standard deviations — the quantities the
/// backward pass needs.
void LayerNormLastAxisInto(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, float eps, Tensor* y,
                           Tensor* xhat = nullptr, Tensor* inv_std = nullptr);

/// \brief Allocating convenience wrapper around LayerNormLastAxisInto.
Tensor LayerNormLastAxis(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, float eps);

/// \brief Result of a pooling op; `argmax` holds flat input indices per
/// output element so the backward pass can scatter gradients.
struct PoolResult {
  Tensor values;
  std::vector<int64_t> argmax;
};

/// \brief Non-overlapping max pooling along `axis` with the given window.
/// size(axis) must be divisible by `window`.
PoolResult MaxPoolAxis(const Tensor& a, int64_t axis, int64_t window);

/// \brief MaxPoolAxis without the argmax bookkeeping (grad-free paths).
Tensor MaxPoolAxisValues(const Tensor& a, int64_t axis, int64_t window);

/// \name Channels-last temporal convolution (TCN / STGCN / GraphWaveNet /
/// DSANet)
///
/// x is (B, T, R, Cin): B items of T time steps, each step R rows of Cin
/// channels (R = sensors). The kernel w is (Cout, Cin, K), tap k reading
/// time step t + k * dilation - pad_left for output step t; steps outside
/// [0, T) read as zero. The output is (B, Tout, R, Cout) with
/// Tout = T + pad_left + pad_right - (K - 1) * dilation.
///
/// Each tap is one GEMM of the item's contiguous (steps * R, Cin) row block
/// against the tap's (Cin, Cout) weight slice, batched over B with
/// per-item strides, so no tap reads across an item boundary and item b's
/// result does not depend on B. The weight is re-laid tap-major on every
/// call (K * Cin * Cout floats). Summation order, per output element:
/// the widest-reaching tap first (writing with the bias), then the others
/// by ascending k; rows that tap does not reach start from the bias. The
/// widest-reaching tap is the one covering the most output rows, the first
/// in k order winning ties: under causal padding (pad_left = reach,
/// pad_right = 0) that is the last tap at every length, while a valid conv
/// (no padding) ties every tap and leads with k = 0.
/// @{

/// \brief y = conv(x, w) + bias. `bias` is Cout floats or null.
Tensor TemporalConv(const Tensor& x, const Tensor& w, const float* bias,
                    int64_t dilation, int64_t pad_left, int64_t pad_right);
/// \brief VJP w.r.t. x: grad_out (B, Tout, R, Cout) -> (B, T, R, Cin).
Tensor TemporalConvBackwardInput(const Tensor& grad_out, const Tensor& w,
                                 const Shape& x_shape, int64_t dilation,
                                 int64_t pad_left);
/// \brief VJP w.r.t. w: -> (Cout, Cin, K).
Tensor TemporalConvBackwardWeight(const Tensor& grad_out, const Tensor& x,
                                  const Shape& w_shape, int64_t dilation,
                                  int64_t pad_left);
/// @}

/// \brief Max over all elements (helper for tests/metrics).
float MaxAllScalar(const Tensor& a);

/// \brief True if shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_OPS_H_
