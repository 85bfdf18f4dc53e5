#include "src/autograd/ops.h"

#include <cstring>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/tensor/ops.h"
#include "src/tensor/vecmath.h"
#include "src/tensor/workspace.h"

namespace dyhsl::autograd {

namespace T = ::dyhsl::tensor;

namespace {

// Accumulates `g` into parent i of `node` after reducing broadcast axes.
void AccumulateBroadcast(Node* node, size_t i, const T::Tensor& g) {
  Node* parent = node->parents[i].get();
  if (!parent->requires_grad) return;
  parent->AccumulateGrad(T::ReduceToShape(g, parent->value.shape()));
}

void Accumulate(Node* node, size_t i, const T::Tensor& g) {
  Node* parent = node->parents[i].get();
  if (!parent->requires_grad) return;
  parent->AccumulateGrad(g);
}

// Inference-mode in-place precondition: a tape-less leaf that nothing
// else references — neither another Variable (SoleOwner) nor another
// Tensor sharing the buffer through a Reshape view (UniqueStorage).
// Parameters never qualify: their module keeps a reference.
bool CanMutateInPlace(const Variable& a) {
  return InferenceModeEnabled() && a.defined() && !a.requires_grad() &&
         a.SoleOwner() && a.value().UniqueStorage();
}

bool ParentNeedsGrad(Node* node, size_t i) {
  return node->parents[i]->requires_grad;
}

// Fused gradient GEMMs: the product is written straight into the parent's
// grad buffer — the first touch allocates it and overwrites (beta 0),
// later touches GEMM-accumulate (beta 1) — so matmul backward passes run
// without gradient temporaries.
float GradAccumBeta(Node* parent) { return internal::EnsureGradBeta(parent); }

void AccumulateMatMul(Node* node, size_t i, const T::Tensor& x,
                      const T::Tensor& y, bool tx, bool ty) {
  Node* parent = node->parents[i].get();
  if (!parent->requires_grad) return;
  T::MatMulInto(x, y, tx, ty, GradAccumBeta(parent), &parent->grad);
}

void AccumulateBatchedMatMul(Node* node, size_t i, const T::Tensor& x,
                             const T::Tensor& y, bool tx, bool ty) {
  Node* parent = node->parents[i].get();
  if (!parent->requires_grad) return;
  T::BatchedMatMulInto(x, y, tx, ty, GradAccumBeta(parent), &parent->grad);
}

// Batch-reduced variant for operands shared across the batch.
void AccumulateBatchedReduce(Node* node, size_t i, const T::Tensor& x,
                             const T::Tensor& y, bool tx, bool ty) {
  Node* parent = node->parents[i].get();
  if (!parent->requires_grad) return;
  T::BatchedMatMulReduceInto(x, y, tx, ty, GradAccumBeta(parent),
                             &parent->grad);
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  return MakeOpResult(T::Add(a.value(), b.value()), {a, b}, [](Node* n) {
    AccumulateBroadcast(n, 0, n->grad);
    AccumulateBroadcast(n, 1, n->grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  return MakeOpResult(T::Sub(a.value(), b.value()), {a, b}, [](Node* n) {
    AccumulateBroadcast(n, 0, n->grad);
    AccumulateBroadcast(n, 1, T::Neg(n->grad));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  T::Tensor av = a.value(), bv = b.value();
  return MakeOpResult(T::Mul(av, bv), {a, b}, [av, bv](Node* n) {
    AccumulateBroadcast(n, 0, T::Mul(n->grad, bv));
    AccumulateBroadcast(n, 1, T::Mul(n->grad, av));
  });
}

Variable Maximum(const Variable& a, const Variable& b) {
  T::Tensor av = a.value(), bv = b.value();
  return MakeOpResult(T::Maximum(av, bv), {a, b}, [av, bv](Node* n) {
    // mask = 1 where a >= b (broadcast over the output shape).
    T::Tensor mask = T::Heaviside(T::AddScalar(T::Sub(av, bv), 1e-30f));
    AccumulateBroadcast(n, 0, T::Mul(n->grad, mask));
    AccumulateBroadcast(
        n, 1, T::Mul(n->grad, T::AddScalar(T::Neg(mask), 1.0f)));
  });
}

Variable AddScalar(const Variable& a, float s) {
  return MakeOpResult(T::AddScalar(a.value(), s), {a},
                      [](Node* n) { Accumulate(n, 0, n->grad); });
}

Variable MulScalar(const Variable& a, float s) {
  return MakeOpResult(T::MulScalar(a.value(), s), {a}, [s](Node* n) {
    Accumulate(n, 0, T::MulScalar(n->grad, s));
  });
}

Variable Neg(const Variable& a) { return MulScalar(a, -1.0f); }

Variable Relu(const Variable& a) {
  T::Tensor av = a.value();
  return MakeOpResult(T::Relu(av), {a}, [av](Node* n) {
    Accumulate(n, 0, T::Mul(n->grad, T::Heaviside(av)));
  });
}

Variable Sigmoid(const Variable& a) {
  T::Tensor y = T::Sigmoid(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    // y * (1 - y)
    T::Tensor dy = T::Mul(y, T::AddScalar(T::Neg(y), 1.0f));
    Accumulate(n, 0, T::Mul(n->grad, dy));
  });
}

Variable Tanh(const Variable& a) {
  T::Tensor y = T::Tanh(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    T::Tensor dy = T::AddScalar(T::Neg(T::Mul(y, y)), 1.0f);  // 1 - y^2
    Accumulate(n, 0, T::Mul(n->grad, dy));
  });
}

Variable Abs(const Variable& a) {
  T::Tensor av = a.value();
  return MakeOpResult(T::Abs(av), {a}, [av](Node* n) {
    Accumulate(n, 0, T::Mul(n->grad, T::Sign(av)));
  });
}

Variable MatMul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  T::Tensor av = a.value(), bv = b.value();
  return MakeOpResult(
      T::MatMul(av, bv, trans_a, trans_b), {a, b},
      [av, bv, trans_a, trans_b](Node* n) {
        const T::Tensor& g = n->grad;
        // ga = op(A) adjoint: the gradient GEMM accumulates straight into
        // the parent's grad buffer (no temporary).
        if (trans_a) {
          AccumulateMatMul(n, 0, bv, g, trans_b, true);
        } else {
          AccumulateMatMul(n, 0, g, bv, false, !trans_b);
        }
        if (trans_b) {
          AccumulateMatMul(n, 1, g, av, true, trans_a);
        } else {
          AccumulateMatMul(n, 1, av, g, !trans_a, false);
        }
      });
}

Variable Affine(const Variable& x, const Variable& w, const Variable& b) {
  DYHSL_CHECK_EQ(x.dim(), 2);
  DYHSL_CHECK_EQ(w.dim(), 2);
  DYHSL_CHECK_EQ(x.size(1), w.size(0));
  // Rank-1 required (not just matching numel): the bias VJP is the rank-1
  // column sum of the output gradient.
  DYHSL_CHECK_EQ(b.dim(), 1);
  DYHSL_CHECK_EQ(b.numel(), w.size(1));
  T::Tensor xv = x.value(), wv = w.value();
  int64_t m = xv.size(0), n = wv.size(1);
  T::Tensor y({m, n});
  // The bias joins in the GEMM write-back, after the last K panel: one
  // output pass, bit-identical to MatMul followed by a broadcast Add.
  T::GemmEpilogue ep;
  ep.bias = b.value().data();
  T::MatMulInto(xv, wv, false, false, /*beta=*/0.0f, &y, &ep);
  return MakeOpResult(std::move(y), {x, w, b}, [xv, wv](Node* node) {
    const T::Tensor& g = node->grad;
    AccumulateMatMul(node, 0, g, wv, false, true);
    AccumulateMatMul(node, 1, xv, g, true, false);
    if (ParentNeedsGrad(node, 2)) {
      Accumulate(node, 2, T::Sum(g, 0));  // db = column sum
    }
  });
}

Variable BatchedMatMul(const Variable& a, const Variable& b, bool trans_a,
                       bool trans_b) {
  T::Tensor av = a.value(), bv = b.value();
  const bool shared_a = av.dim() == 2;
  const bool shared_b = bv.dim() == 2;
  return MakeOpResult(
      T::BatchedMatMul(av, bv, trans_a, trans_b), {a, b},
      [av, bv, trans_a, trans_b, shared_a, shared_b](Node* n) {
        const T::Tensor& g = n->grad;  // (B, m, n)
        // ga: same adjoint formulas as MatMul; a batch-shared 2-D operand
        // additionally reduces over the batch.
        if (shared_a) {
          if (trans_a) {
            AccumulateBatchedReduce(n, 0, bv, g, trans_b, true);
          } else {
            AccumulateBatchedReduce(n, 0, g, bv, false, !trans_b);
          }
        } else if (trans_a) {
          // With shared b this is the shared-LHS form (bv 2-D, g 3-D).
          AccumulateBatchedMatMul(n, 0, bv, g, trans_b, true);
        } else {
          AccumulateBatchedMatMul(n, 0, g, bv, false, !trans_b);
        }
        if (shared_b && !trans_a) {
          // Fold the batch into rows: op(A_b) = A_b stacks contiguously,
          // so gb = sum_b op(A_b)^T G_b is one GEMM over (B*m) rows.
          int64_t batch = av.size(0);
          int64_t m = av.size(1), k = av.size(2);
          T::Tensor a2 = av.Reshape({batch * m, k});
          T::Tensor g2 = g.Reshape({batch * m, g.size(2)});
          if (trans_b) {
            AccumulateMatMul(n, 1, g2, a2, true, false);
          } else {
            AccumulateMatMul(n, 1, a2, g2, true, false);
          }
        } else if (shared_b) {  // trans_a == true: batch-reduce instead
          if (trans_b) {
            AccumulateBatchedReduce(n, 1, g, av, true, trans_a);
          } else {
            AccumulateBatchedReduce(n, 1, av, g, !trans_a, false);
          }
        } else if (trans_b) {
          AccumulateBatchedMatMul(n, 1, g, av, true, trans_a);
        } else {
          AccumulateBatchedMatMul(n, 1, av, g, !trans_a, false);
        }
      });
}

Variable Reshape(const Variable& a, tensor::Shape new_shape) {
  tensor::Shape old_shape = a.shape();
  return MakeOpResult(a.value().Reshape(std::move(new_shape)), {a},
                      [old_shape](Node* n) {
                        Accumulate(n, 0, n->grad.Reshape(old_shape));
                      });
}

Variable TransposePerm(const Variable& a, std::vector<int64_t> perm) {
  std::vector<int64_t> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = i;
  return MakeOpResult(T::TransposePerm(a.value(), perm), {a},
                      [inverse](Node* n) {
                        Accumulate(n, 0, T::TransposePerm(n->grad, inverse));
                      });
}

Variable Concat(const std::vector<Variable>& parts, int64_t axis) {
  DYHSL_CHECK(!parts.empty());
  std::vector<T::Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  int64_t norm_axis = axis < 0 ? axis + parts[0].dim() : axis;
  std::vector<int64_t> sizes;
  sizes.reserve(parts.size());
  for (const Variable& p : parts) sizes.push_back(p.size(norm_axis));
  return MakeOpResult(T::Concat(values, norm_axis), parts,
                      [norm_axis, sizes](Node* n) {
                        int64_t offset = 0;
                        for (size_t i = 0; i < sizes.size(); ++i) {
                          if (ParentNeedsGrad(n, i)) {
                            Accumulate(n, i,
                                       T::Slice(n->grad, norm_axis, offset,
                                                sizes[i]));
                          }
                          offset += sizes[i];
                        }
                      });
}

Variable Slice(const Variable& a, int64_t axis, int64_t start,
               int64_t length) {
  int64_t norm_axis = axis < 0 ? axis + a.dim() : axis;
  tensor::Shape in_shape = a.shape();
  return MakeOpResult(
      T::Slice(a.value(), norm_axis, start, length), {a},
      [norm_axis, start, in_shape](Node* n) {
        if (!ParentNeedsGrad(n, 0)) return;
        // Scatter the gradient slice back into a zero tensor of input shape.
        T::Tensor gx = T::Tensor::Zeros(in_shape);
        int64_t outer = 1;
        for (int64_t d = 0; d < norm_axis; ++d) outer *= in_shape[d];
        int64_t inner = 1;
        for (int64_t d = norm_axis + 1;
             d < static_cast<int64_t>(in_shape.size()); ++d) {
          inner *= in_shape[d];
        }
        int64_t mid = in_shape[norm_axis];
        int64_t len = n->grad.size(norm_axis);
        const float* pg = n->grad.data();
        float* px = gx.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(px + (o * mid + start) * inner,
                      pg + o * len * inner, len * inner * sizeof(float));
        }
        Accumulate(n, 0, gx);
      });
}

Variable EmbeddingLookup(const Variable& weight,
                         const std::vector<int64_t>& indices) {
  tensor::Shape w_shape = weight.shape();
  return MakeOpResult(T::TakeRows(weight.value(), indices), {weight},
                      [indices, w_shape](Node* n) {
                        if (!ParentNeedsGrad(n, 0)) return;
                        T::Tensor gw = T::Tensor::Zeros(w_shape);
                        T::ScatterAddRows(&gw, indices, n->grad);
                        Accumulate(n, 0, gw);
                      });
}

Variable Sum(const Variable& a, int64_t axis, bool keepdims) {
  int64_t norm_axis = axis < 0 ? axis + a.dim() : axis;
  tensor::Shape in_shape = a.shape();
  return MakeOpResult(
      T::Sum(a.value(), norm_axis, keepdims), {a},
      [norm_axis, keepdims, in_shape](Node* n) {
        if (!ParentNeedsGrad(n, 0)) return;
        // Expand grad along the reduced axis by broadcasting against zeros.
        T::Tensor g = n->grad;
        if (!keepdims) {
          tensor::Shape keep_shape = in_shape;
          keep_shape[norm_axis] = 1;
          g = g.Reshape(keep_shape);
        }
        T::Tensor expanded = T::Add(T::Tensor::Zeros(in_shape), g);
        Accumulate(n, 0, expanded);
      });
}

Variable Mean(const Variable& a, int64_t axis, bool keepdims) {
  int64_t norm_axis = axis < 0 ? axis + a.dim() : axis;
  float inv = 1.0f / static_cast<float>(a.size(norm_axis));
  return MulScalar(Sum(a, norm_axis, keepdims), inv);
}

Variable SumAll(const Variable& a) {
  tensor::Shape in_shape = a.shape();
  T::Tensor value = T::Tensor::Scalar(T::SumAllScalar(a.value()));
  return MakeOpResult(value, {a}, [in_shape](Node* n) {
    if (!ParentNeedsGrad(n, 0)) return;
    Accumulate(n, 0, T::Tensor::Full(in_shape, n->grad.data()[0]));
  });
}

Variable MeanAll(const Variable& a) {
  return MulScalar(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Variable SoftmaxLastAxis(const Variable& a) {
  T::Tensor y = T::SoftmaxLastAxis(a.value());
  return MakeOpResult(y, {a}, [y](Node* n) {
    if (!ParentNeedsGrad(n, 0)) return;
    // dx = y * (g - sum(g * y, last, keepdims))
    T::Tensor gy = T::Mul(n->grad, y);
    T::Tensor dot = T::Sum(gy, -1, /*keepdims=*/true);
    Accumulate(n, 0, T::Mul(y, T::Sub(n->grad, dot)));
  });
}

Variable LayerNormLastAxis(const Variable& x, const Variable& gamma,
                           const Variable& beta, float eps) {
  const T::Tensor& xv = x.value();
  T::Tensor y(xv.shape());
  if (InferenceModeEnabled()) {
    // Grad-free: one pass, no saved statistics.
    T::LayerNormLastAxisInto(xv, gamma.value(), beta.value(), eps, &y);
    return Variable(std::move(y), /*requires_grad=*/false);
  }
  int64_t cols = xv.size(-1);
  int64_t rows = xv.numel() / cols;
  T::Tensor xhat(xv.shape());
  T::Tensor inv_std({rows});
  T::LayerNormLastAxisInto(xv, gamma.value(), beta.value(), eps, &y, &xhat,
                           &inv_std);
  tensor::Shape row_stat_shape = xv.shape();
  row_stat_shape.back() = 1;
  inv_std = inv_std.Reshape(std::move(row_stat_shape));
  return MakeOpResult(
      std::move(y), {x, gamma, beta}, [xhat, inv_std, rows, cols](Node* n) {
        const T::Tensor& g = n->grad;
        if (ParentNeedsGrad(n, 1)) {
          // dgamma = sum over rows of g * xhat.
          T::Tensor gx2 = T::Mul(g, xhat).Reshape({rows, cols});
          Accumulate(n, 1, T::Sum(gx2, 0));
        }
        if (ParentNeedsGrad(n, 2)) {
          Accumulate(n, 2, T::Sum(g.Reshape({rows, cols}), 0));
        }
        if (!ParentNeedsGrad(n, 0)) return;
        // dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        // with per-row means; dxhat = g * gamma.
        T::Tensor dxhat = T::Mul(g, n->parents[1]->value);
        T::Tensor m1 = T::Mean(dxhat, -1, /*keepdims=*/true);
        T::Tensor m2 = T::Mean(T::Mul(dxhat, xhat), -1, /*keepdims=*/true);
        T::Tensor dx = T::Mul(
            T::Sub(T::Sub(dxhat, m1), T::Mul(xhat, m2)), inv_std);
        Accumulate(n, 0, dx);
      });
}

Variable LayerNormLastAxis(Variable&& x, const Variable& gamma,
                           const Variable& beta, float eps) {
  if (CanMutateInPlace(x)) {
    // Row statistics are computed before each row is overwritten, so
    // normalizing into the input's storage is safe and bit-identical.
    tensor::Tensor* value = x.mutable_value();
    T::LayerNormLastAxisInto(*value, gamma.value(), beta.value(), eps, value);
    return std::move(x);
  }
  return LayerNormLastAxis(static_cast<const Variable&>(x), gamma, beta, eps);
}

Variable MaxPoolAxis(const Variable& a, int64_t axis, int64_t window) {
  int64_t norm_axis = axis < 0 ? axis + a.dim() : axis;
  if (InferenceModeEnabled()) {
    // No backward — skip the argmax index tensor entirely.
    return Variable(T::MaxPoolAxisValues(a.value(), norm_axis, window),
                    /*requires_grad=*/false);
  }
  T::PoolResult pooled = T::MaxPoolAxis(a.value(), norm_axis, window);
  tensor::Shape in_shape = a.shape();
  auto argmax = std::make_shared<std::vector<int64_t>>(std::move(pooled.argmax));
  return MakeOpResult(pooled.values, {a}, [argmax, in_shape](Node* n) {
    if (!ParentNeedsGrad(n, 0)) return;
    T::Tensor gx = T::Tensor::Zeros(in_shape);
    const float* pg = n->grad.data();
    float* px = gx.data();
    for (size_t i = 0; i < argmax->size(); ++i) {
      px[(*argmax)[i]] += pg[i];
    }
    Accumulate(n, 0, gx);
  });
}

Variable TemporalConv(const Variable& x, const Variable& w, const Variable& b,
                      int64_t dilation, int64_t pad_left, int64_t pad_right) {
  T::Tensor xv = x.value(), wv = w.value();
  const bool has_bias = b.defined();
  if (has_bias) DYHSL_CHECK_EQ(b.numel(), wv.size(0));
  T::Tensor y =
      T::TemporalConv(xv, wv, has_bias ? b.value().data() : nullptr,
                      dilation, pad_left, pad_right);
  std::vector<Variable> parents{x, w};
  if (has_bias) parents.push_back(b);
  tensor::Shape x_shape = xv.shape(), w_shape = wv.shape();
  return MakeOpResult(
      std::move(y), std::move(parents),
      [xv, wv, x_shape, w_shape, dilation, pad_left, has_bias](Node* n) {
        const T::Tensor& g = n->grad;
        if (ParentNeedsGrad(n, 0)) {
          Accumulate(n, 0, T::TemporalConvBackwardInput(g, wv, x_shape,
                                                        dilation, pad_left));
        }
        if (ParentNeedsGrad(n, 1)) {
          Accumulate(n, 1, T::TemporalConvBackwardWeight(g, xv, w_shape,
                                                         dilation, pad_left));
        }
        if (has_bias && ParentNeedsGrad(n, 2)) {
          // db = column sum over every (item, step, row).
          const int64_t cout = w_shape[0];
          T::Tensor db = T::Sum(g.Reshape({g.numel() / cout, cout}), 0);
          Accumulate(n, 2, db.Reshape(n->parents[2]->value.shape()));
        }
      });
}

Variable Dropout(const Variable& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  DYHSL_CHECK_LT(p, 1.0f);
  DYHSL_CHECK(rng != nullptr);
  T::Tensor mask(a.shape());
  float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask.data()[i] = rng->Bernoulli(p) ? 0.0f : scale;
  }
  return MakeOpResult(T::Mul(a.value(), mask), {a}, [mask](Node* n) {
    Accumulate(n, 0, T::Mul(n->grad, mask));
  });
}

Variable Add(Variable&& a, const Variable& b) {
  if (CanMutateInPlace(a)) {
    if (a.shape() == b.shape()) {
      T::AddInPlace(a.mutable_value(), b.value());
      return std::move(a);
    }
    // Broadcast add (e.g. embeddings onto activations) when the result
    // shape is a's shape.
    if (T::BroadcastShape(a.shape(), b.shape()) == a.shape()) {
      T::AddBroadcastInPlace(a.mutable_value(), b.value());
      return std::move(a);
    }
  }
  return Add(static_cast<const Variable&>(a), b);
}

Variable AddScalar(Variable&& a, float s) {
  if (CanMutateInPlace(a)) {
    T::AddScalarInPlace(a.mutable_value(), s);
    return std::move(a);
  }
  return AddScalar(static_cast<const Variable&>(a), s);
}

Variable MulScalar(Variable&& a, float s) {
  if (CanMutateInPlace(a)) {
    T::ScaleInPlace(a.mutable_value(), s);
    return std::move(a);
  }
  return MulScalar(static_cast<const Variable&>(a), s);
}

Variable Relu(Variable&& a) {
  if (CanMutateInPlace(a)) {
    T::ReluInPlace(a.mutable_value());
    return std::move(a);
  }
  return Relu(static_cast<const Variable&>(a));
}

Variable Sigmoid(Variable&& a) {
  if (CanMutateInPlace(a)) {
    float* p = a.mutable_value()->data();
    T::SigmoidArray(p, p, a.numel());
    return std::move(a);
  }
  return Sigmoid(static_cast<const Variable&>(a));
}

Variable Tanh(Variable&& a) {
  if (CanMutateInPlace(a)) {
    float* p = a.mutable_value()->data();
    T::TanhArray(p, p, a.numel());
    return std::move(a);
  }
  return Tanh(static_cast<const Variable&>(a));
}

}  // namespace dyhsl::autograd
