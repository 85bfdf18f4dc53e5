// Differentiable operations over Variable.
//
// Each function computes its forward value with the eager kernels in
// src/tensor and attaches a backward closure implementing the exact
// vector-Jacobian product. Every op declared here has a finite-difference
// gradient check in tests/autograd_test.cc (OpGradCheck suite) — including
// the subgradient ops (Relu, Abs, Maximum, MaxPoolAxis), which
// are checked away from their kinks, and Dropout, which is checked under a
// fixed mask. Keep that suite in sync when adding an op.

#ifndef DYHSL_AUTOGRAD_OPS_H_
#define DYHSL_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

// The taped sparse op (SpMM over a SparseConstant) lives in
// src/autograd/sparse.h; it is included here so call sites keep seeing the
// full op vocabulary through one header.
#include "src/autograd/sparse.h"
#include "src/autograd/variable.h"
#include "src/core/rng.h"

namespace dyhsl::autograd {

// In-place note: the Variable&& overloads below may, in inference mode
// only, reuse the consumed operand's storage for the result (when the
// operand is a sole-owner tape-less leaf). Outside inference mode they
// forward to the const& versions, so values are identical either way —
// in-place execution never changes a single bit, only where it lands.

/// \name Elementwise binary (numpy broadcasting; gradients are reduced back
/// to each operand's shape)
/// @{
Variable Add(const Variable& a, const Variable& b);
/// May add b into a's storage in place (same shapes, inference mode).
Variable Add(Variable&& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
/// Elementwise max; the subgradient routes to the larger operand (ties: a).
Variable Maximum(const Variable& a, const Variable& b);
/// @}

/// \name Scalar / unary
/// @{
Variable AddScalar(const Variable& a, float s);
Variable AddScalar(Variable&& a, float s);
Variable MulScalar(const Variable& a, float s);
Variable MulScalar(Variable&& a, float s);
Variable Neg(const Variable& a);
Variable Relu(const Variable& a);
Variable Relu(Variable&& a);
Variable Sigmoid(const Variable& a);
Variable Sigmoid(Variable&& a);
Variable Tanh(const Variable& a);
Variable Tanh(Variable&& a);
Variable Abs(const Variable& a);
/// @}

/// \name Linear algebra
/// @{

/// \brief 2-D matmul with optional transposes.
Variable MatMul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);

/// \brief Fused affine map y = x W + b for 2-D x (k, n)-shaped W and
/// length-n bias: the bias seeds the GEMM output (beta = 1), saving the
/// separate broadcast-add pass of the MatMul/Add chain.
Variable Affine(const Variable& x, const Variable& w, const Variable& b);

/// \brief Batched matmul. Either operand may be 2-D, in which case it is
/// shared across the batch (the flag-driven shared-LHS form `U @ M_b`
/// replaces the old TransposePerm/BatchedMatMul/TransposePerm sandwich);
/// its gradient is reduced over the batch. All four trans combinations are
/// supported for every sharing pattern.
Variable BatchedMatMul(const Variable& a, const Variable& b,
                       bool trans_a = false, bool trans_b = false);

/// @}

/// \name Movement
/// @{
Variable Reshape(const Variable& a, tensor::Shape new_shape);
Variable TransposePerm(const Variable& a, std::vector<int64_t> perm);
Variable Concat(const std::vector<Variable>& parts, int64_t axis);
Variable Slice(const Variable& a, int64_t axis, int64_t start, int64_t length);
/// \brief Embedding lookup: rows of `weight` (V x d) selected by `indices`.
Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& indices);
/// @}

/// \name Reductions and normalization
/// @{
Variable Sum(const Variable& a, int64_t axis, bool keepdims = false);
Variable Mean(const Variable& a, int64_t axis, bool keepdims = false);
/// Sum of all elements -> shape {1}.
Variable SumAll(const Variable& a);
/// Mean of all elements -> shape {1}.
Variable MeanAll(const Variable& a);
Variable SoftmaxLastAxis(const Variable& a);
/// Fused layer normalization over the last axis with 1-D gamma/beta of the
/// row width: one kernel (and one tape node) instead of the
/// Mean/Sub/Mul/Mean/rsqrt/Mul/Add chain.
Variable LayerNormLastAxis(const Variable& x, const Variable& gamma,
                           const Variable& beta, float eps = 1e-5f);
/// May normalize x's storage in place (inference mode, sole owner).
Variable LayerNormLastAxis(Variable&& x, const Variable& gamma,
                           const Variable& beta, float eps = 1e-5f);
/// @}

/// \brief Non-overlapping max pool along `axis` (window divides the size).
Variable MaxPoolAxis(const Variable& a, int64_t axis, int64_t window);

/// \brief Channels-last temporal convolution (see tensor::TemporalConv):
/// x (B, T, R, Cin), w (Cout, Cin, K) -> (B, Tout, R, Cout). `b` holds
/// Cout floats (any shape) or is undefined for no bias; it joins in the
/// first tap's GEMM write-back. Taped and grad-free calls run the same
/// kernel.
Variable TemporalConv(const Variable& x, const Variable& w, const Variable& b,
                      int64_t dilation = 1, int64_t pad_left = 0,
                      int64_t pad_right = 0);

/// \brief Inverted dropout. Identity when !training or p == 0.
Variable Dropout(const Variable& a, float p, bool training, Rng* rng);

}  // namespace dyhsl::autograd

#endif  // DYHSL_AUTOGRAD_OPS_H_
