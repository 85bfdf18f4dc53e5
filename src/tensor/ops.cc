#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/tensor/prepack.h"
#include "src/tensor/vecmath.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace dyhsl::tensor {
namespace {

// Threshold below which elementwise loops stay single-threaded.
constexpr int64_t kParallelCutoff = 1 << 15;

// Row-major strides for a shape.
std::vector<int64_t> StridesOf(const Shape& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[i] = strides[i + 1] * shape[i + 1];
  }
  return strides;
}

// Strides of `shape` expanded to `out_rank` dims with broadcast axes zeroed.
std::vector<int64_t> BroadcastStrides(const Shape& shape, const Shape& out) {
  std::vector<int64_t> strides(out.size(), 0);
  auto own = StridesOf(shape);
  int64_t offset = static_cast<int64_t>(out.size() - shape.size());
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] != 1) strides[offset + i] = own[i];
  }
  return strides;
}

template <typename F>
Tensor BinaryOp(const Tensor& a, const Tensor& b, F f) {
  // Fast path: identical shapes.
  if (SameShape(a, b)) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    int64_t n = a.numel();
#pragma omp parallel for if (n > kParallelCutoff)
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
    return out;
  }
  // Fast path: b is a scalar.
  if (b.numel() == 1) {
    Tensor out(a.shape());
    const float* pa = a.data();
    float s = b.data()[0];
    float* po = out.data();
    int64_t n = a.numel();
#pragma omp parallel for if (n > kParallelCutoff)
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], s);
    return out;
  }
  // Fast path: row broadcast — rank-1 b pairs elementwise with the trailing
  // axis of a. Valid only when the broadcast result *is* a.shape: b must
  // match a's trailing axis exactly and no axis of a may need expanding
  // against b (a size-1 trailing axis with a longer b, say, must fall
  // through to the general path, which produces a wider output).
  if (b.dim() == 1 && a.dim() >= 1 && a.size(-1) == b.size(0) &&
      BroadcastShape(a.shape(), b.shape()) == a.shape()) {
    Tensor out(a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    int64_t cols = b.size(0);
    int64_t rows = a.numel() / cols;
#pragma omp parallel for if (a.numel() > kParallelCutoff)
    for (int64_t r = 0; r < rows; ++r) {
      const float* ra = pa + r * cols;
      float* ro = po + r * cols;
      for (int64_t c = 0; c < cols; ++c) ro[c] = f(ra[c], pb[c]);
    }
    return out;
  }
  // Fast path: column broadcast — b matches a except its last axis is 1
  // (the LayerNorm/Softmax "per-row statistic" pattern). One scalar load
  // per row instead of the general path's per-element index arithmetic.
  if (a.dim() == b.dim() && a.dim() >= 1 && b.size(-1) == 1) {
    bool column = true;
    for (int64_t d = 0; d + 1 < a.dim(); ++d) {
      if (a.size(d) != b.size(d)) {
        column = false;
        break;
      }
    }
    if (column && a.size(-1) >= 1) {
      Tensor out(a.shape());
      const float* pa = a.data();
      const float* pb = b.data();
      float* po = out.data();
      int64_t cols = a.size(-1);
      int64_t rows = a.numel() / cols;
#pragma omp parallel for if (a.numel() > kParallelCutoff)
      for (int64_t r = 0; r < rows; ++r) {
        const float* ra = pa + r * cols;
        float s = pb[r];
        float* ro = po + r * cols;
        for (int64_t c = 0; c < cols; ++c) ro[c] = f(ra[c], s);
      }
      return out;
    }
  }
  // General broadcasting, iterated by output row (the last axis): the
  // div/mod index arithmetic runs once per row, and the inner loop is one
  // of four unit-stride forms picked by whether each operand broadcasts
  // along the last axis. Orders of magnitude faster than per-element
  // index math for the embedding-add / row-stat patterns.
  Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out(out_shape);
  if (out.numel() == 0) return out;  // zero-size axis: nothing to compute
  auto sa = BroadcastStrides(a.shape(), out_shape);
  auto sb = BroadcastStrides(b.shape(), out_shape);
  auto so = StridesOf(out_shape);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  int64_t rank = static_cast<int64_t>(out_shape.size());
  int64_t cols = out_shape[rank - 1];
  int64_t rows = out.numel() / cols;
  int64_t sa_col = sa[rank - 1];  // 0 or 1 (operands are contiguous)
  int64_t sb_col = sb[rank - 1];
#pragma omp parallel for if (out.numel() > kParallelCutoff)
  for (int64_t r = 0; r < rows; ++r) {
    int64_t rem = r * cols, ia = 0, ib = 0;
    for (int64_t d = 0; d < rank - 1; ++d) {
      int64_t idx = rem / so[d];
      rem -= idx * so[d];
      ia += idx * sa[d];
      ib += idx * sb[d];
    }
    const float* ra = pa + ia;
    const float* rb = pb + ib;
    float* ro = po + r * cols;
    if (sa_col == 1 && sb_col == 1) {
      for (int64_t c = 0; c < cols; ++c) ro[c] = f(ra[c], rb[c]);
    } else if (sa_col == 1) {
      float s = rb[0];
      for (int64_t c = 0; c < cols; ++c) ro[c] = f(ra[c], s);
    } else if (sb_col == 1) {
      float s = ra[0];
      for (int64_t c = 0; c < cols; ++c) ro[c] = f(s, rb[c]);
    } else {
      float v = f(ra[0], rb[0]);
      for (int64_t c = 0; c < cols; ++c) ro[c] = v;
    }
  }
  return out;
}

template <typename F>
Tensor UnaryOp(const Tensor& a, F f) {
  Tensor out(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  size_t rank = std::max(a.size(), b.size());
  Shape out(rank, 1);
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    DYHSL_CHECK_MSG(da == db || da == 1 || db == 1,
                    "incompatible broadcast " + ShapeToString(a) + " vs " +
                        ShapeToString(b));
    out[i] = std::max(da, db);
  }
  return out;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  Tensor cur = t;
  // Sum away leading extra axes.
  while (cur.dim() > static_cast<int64_t>(target.size())) {
    cur = Sum(cur, 0, /*keepdims=*/false);
  }
  // Sum broadcast axes (size 1 in target) keeping dims.
  for (int64_t d = 0; d < cur.dim(); ++d) {
    if (target[d] == 1 && cur.size(d) != 1) {
      cur = Sum(cur, d, /*keepdims=*/true);
    }
  }
  DYHSL_CHECK_MSG(cur.shape() == target,
                  "ReduceToShape failed: " + ShapeToString(t.shape()) +
                      " -> " + ShapeToString(target));
  return cur;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x * y; });
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, [](float x, float y) { return x > y ? x : y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(a, [s](float x) { return x * s; });
}

void AddInPlace(Tensor* dst, const Tensor& src) { AddInto(*dst, src, dst); }

void ScaleInPlace(Tensor* dst, float s) {
  float* pd = dst->data();
  int64_t n = dst->numel();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) pd[i] *= s;
}

void AddBroadcastInPlace(Tensor* dst, const Tensor& b) {
  Shape out_shape = BroadcastShape(dst->shape(), b.shape());
  DYHSL_CHECK_MSG(out_shape == dst->shape(),
                  "AddBroadcastInPlace: b must broadcast to dst's shape");
  if (dst->numel() == 0) return;
  auto sb = BroadcastStrides(b.shape(), out_shape);
  auto so = StridesOf(out_shape);
  const float* pb = b.data();
  float* pd = dst->data();
  int64_t rank = static_cast<int64_t>(out_shape.size());
  if (rank == 0) {
    pd[0] += pb[0];
    return;
  }
  int64_t cols = out_shape[rank - 1];
  int64_t rows = dst->numel() / cols;
  int64_t sb_col = sb[rank - 1];
#pragma omp parallel for if (dst->numel() > kParallelCutoff)
  for (int64_t r = 0; r < rows; ++r) {
    int64_t rem = r * cols, ib = 0;
    for (int64_t d = 0; d < rank - 1; ++d) {
      int64_t idx = rem / so[d];
      rem -= idx * so[d];
      ib += idx * sb[d];
    }
    const float* rb = pb + ib;
    float* rd = pd + r * cols;
    if (sb_col == 1) {
      for (int64_t c = 0; c < cols; ++c) rd[c] = rd[c] + rb[c];
    } else {
      float s = rb[0];
      for (int64_t c = 0; c < cols; ++c) rd[c] = rd[c] + s;
    }
  }
}

// The single fused addition kernel; AddInPlace is the aliasing special
// case AddInto(dst, src, dst).
void AddInto(const Tensor& a, const Tensor& b, Tensor* out) {
  DYHSL_CHECK(SameShape(a, b));
  DYHSL_CHECK(SameShape(a, *out));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  int64_t n = a.numel();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i];
}

Tensor Neg(const Tensor& a) {
  return UnaryOp(a, [](float x) { return -x; });
}
void ReluInPlace(Tensor* t) {
  float* p = t->data();
  int64_t n = t->numel();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}
void AddScalarInPlace(Tensor* t, float s) {
  float* p = t->data();
  int64_t n = t->numel();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) p[i] += s;
}
Tensor Relu(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
// Sigmoid/Tanh route through vecmath.cc and the dispatched SIMD
// kernels, whose results do not depend on element position.
Tensor Sigmoid(const Tensor& a) {
  Tensor out(a.shape());
  SigmoidArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Tanh(const Tensor& a) {
  Tensor out(a.shape());
  TanhArray(a.data(), out.data(), a.numel());
  return out;
}
Tensor Abs(const Tensor& a) {
  return UnaryOp(a, [](float x) { return std::fabs(x); });
}
Tensor Sign(const Tensor& a) {
  return UnaryOp(a, [](float x) {
    return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
  });
}
Tensor Heaviside(const Tensor& a) {
  return UnaryOp(a, [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

namespace {

// Validated logical dimensions of a (possibly batched) matmul. A stride of
// 0 marks an operand shared across the batch.
struct MatMulDims {
  int64_t batch;
  int64_t m, n, k;
  int64_t a_stride, b_stride;
  int64_t lda, ldb;
};

MatMulDims ResolveMatMulDims(const Tensor& a, const Tensor& b, bool trans_a,
                             bool trans_b, bool batched) {
  MatMulDims d;
  if (batched) {
    DYHSL_CHECK(a.dim() == 3 || a.dim() == 2);
    DYHSL_CHECK(b.dim() == 3 || b.dim() == 2);
    DYHSL_CHECK_MSG(a.dim() == 3 || b.dim() == 3,
                    "BatchedMatMul needs at least one 3-D operand");
    d.batch = a.dim() == 3 ? a.size(0) : b.size(0);
    if (a.dim() == 3 && b.dim() == 3) DYHSL_CHECK_EQ(b.size(0), d.batch);
  } else {
    DYHSL_CHECK_EQ(a.dim(), 2);
    DYHSL_CHECK_EQ(b.dim(), 2);
    d.batch = 1;
  }
  int64_t a_rows = a.size(a.dim() - 2);
  int64_t a_cols = a.size(-1);
  int64_t b_rows = b.size(b.dim() - 2);
  int64_t b_cols = b.size(-1);
  d.m = trans_a ? a_cols : a_rows;
  d.k = trans_a ? a_rows : a_cols;
  int64_t kb = trans_b ? b_cols : b_rows;
  d.n = trans_b ? b_rows : b_cols;
  DYHSL_CHECK_MSG(d.k == kb, "MatMul inner dim mismatch " +
                                 ShapeToString(a.shape()) + " x " +
                                 ShapeToString(b.shape()));
  d.a_stride = a.dim() == 3 ? a_rows * a_cols : 0;
  d.b_stride = b.dim() == 3 ? b_rows * b_cols : 0;
  d.lda = a_cols;
  d.ldb = b_cols;
  return d;
}

// Prepacked-operand resolution: under an active PrepackLookupScope (the
// serving paths), shared 2-D operands are looked up in the PrepackCache
// and enrolled weights skip their packing entirely — bit-identical, since
// the cached panels hold the same bytes the on-the-fly pack would write.
// Training installs no scope and pays nothing here.
struct PrepackedOperands {
  std::shared_ptr<const PackedPanels> a;
  std::shared_ptr<const PackedPanels> b;
};

PrepackedOperands LookupPrepacked(const Tensor& a, const Tensor& b,
                                  bool trans_a, bool trans_b,
                                  const MatMulDims& d) {
  PrepackedOperands pre;
  if (!PrepackLookupActive()) return pre;
  PrepackCache& cache = PrepackCache::Instance();
  if (d.b_stride == 0 && b.dim() == 2) {
    pre.b = cache.Lookup(b.data(), PackedPanels::Side::kB, trans_b, d.k, d.n);
  }
  if (d.a_stride == 0 && a.dim() == 2) {
    pre.a = cache.Lookup(a.data(), PackedPanels::Side::kA, trans_a, d.k, d.m);
  }
  return pre;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  MatMulDims d = ResolveMatMulDims(a, b, trans_a, trans_b, /*batched=*/false);
  PrepackedOperands pre = LookupPrepacked(a, b, trans_a, trans_b, d);
  Tensor out({d.m, d.n});  // uninitialized: beta == 0 fully overwrites
  BatchedGemmPrepackedInto(1, trans_a, trans_b, d.m, d.n, d.k, a.data(),
                           /*a_stride=*/0, d.lda, pre.a.get(), b.data(),
                           /*b_stride=*/0, d.ldb, pre.b.get(),
                           /*beta=*/0.0f, out.data(), /*c_stride=*/0, d.n);
  return out;
}

void MatMulInto(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
                float beta, Tensor* out, const GemmEpilogue* epilogue) {
  MatMulDims d = ResolveMatMulDims(a, b, trans_a, trans_b, /*batched=*/false);
  DYHSL_CHECK_MSG(out->shape() == Shape({d.m, d.n}),
                  "MatMulInto output shape " + ShapeToString(out->shape()) +
                      " != " + ShapeToString({d.m, d.n}));
  PrepackedOperands pre = LookupPrepacked(a, b, trans_a, trans_b, d);
  BatchedGemmPrepackedInto(1, trans_a, trans_b, d.m, d.n, d.k, a.data(),
                           /*a_stride=*/0, d.lda, pre.a.get(), b.data(),
                           /*b_stride=*/0, d.ldb, pre.b.get(), beta,
                           out->data(), /*c_stride=*/0, d.n, epilogue);
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                     bool trans_b) {
  MatMulDims d = ResolveMatMulDims(a, b, trans_a, trans_b, /*batched=*/true);
  PrepackedOperands pre = LookupPrepacked(a, b, trans_a, trans_b, d);
  Tensor out({d.batch, d.m, d.n});
  BatchedGemmPrepackedInto(d.batch, trans_a, trans_b, d.m, d.n, d.k,
                           a.data(), d.a_stride, d.lda, pre.a.get(),
                           b.data(), d.b_stride, d.ldb, pre.b.get(),
                           /*beta=*/0.0f, out.data(), d.m * d.n, d.n);
  return out;
}

void BatchedMatMulInto(const Tensor& a, const Tensor& b, bool trans_a,
                       bool trans_b, float beta, Tensor* out,
                       const GemmEpilogue* epilogue) {
  MatMulDims d = ResolveMatMulDims(a, b, trans_a, trans_b, /*batched=*/true);
  DYHSL_CHECK_MSG(out->shape() == Shape({d.batch, d.m, d.n}),
                  "BatchedMatMulInto output shape " +
                      ShapeToString(out->shape()) + " != " +
                      ShapeToString({d.batch, d.m, d.n}));
  PrepackedOperands pre = LookupPrepacked(a, b, trans_a, trans_b, d);
  BatchedGemmPrepackedInto(d.batch, trans_a, trans_b, d.m, d.n, d.k,
                           a.data(), d.a_stride, d.lda, pre.a.get(),
                           b.data(), d.b_stride, d.ldb, pre.b.get(), beta,
                           out->data(), d.m * d.n, d.n, epilogue);
}

void BatchedMatMulReduceInto(const Tensor& a, const Tensor& b, bool trans_a,
                             bool trans_b, float beta, Tensor* out) {
  DYHSL_CHECK_EQ(a.dim(), 3);
  DYHSL_CHECK_EQ(b.dim(), 3);
  MatMulDims d = ResolveMatMulDims(a, b, trans_a, trans_b, /*batched=*/true);
  DYHSL_CHECK_MSG(out->shape() == Shape({d.m, d.n}),
                  "BatchedMatMulReduceInto output shape " +
                      ShapeToString(out->shape()) + " != " +
                      ShapeToString({d.m, d.n}));
  if (d.batch == 0) {
    if (beta == 0.0f) {
      out->Fill(0.0f);
    } else if (beta != 1.0f) {
      ScaleInPlace(out, beta);
    }
    return;
  }
  // Sequential over the batch (deterministic reduction order); each GEMM
  // parallelizes internally.
  for (int64_t bi = 0; bi < d.batch; ++bi) {
    GemmInto(trans_a, trans_b, d.m, d.n, d.k, a.data() + bi * d.a_stride,
             d.lda, b.data() + bi * d.b_stride, d.ldb,
             bi == 0 ? beta : 1.0f, out->data(), d.n);
  }
}

Tensor TransposePerm(const Tensor& a, const std::vector<int64_t>& perm) {
  DYHSL_CHECK_EQ(static_cast<int64_t>(perm.size()), a.dim());
  Shape out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out_shape[i] = a.size(perm[i]);
  Tensor out(out_shape);
  auto in_strides = StridesOf(a.shape());
  auto out_strides = StridesOf(out_shape);
  std::vector<int64_t> gather(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) gather[i] = in_strides[perm[i]];
  const float* pa = a.data();
  float* po = out.data();
  int64_t n = a.numel();
  int64_t rank = a.dim();
#pragma omp parallel for if (n > kParallelCutoff)
  for (int64_t i = 0; i < n; ++i) {
    int64_t rem = i, src = 0;
    for (int64_t d = 0; d < rank; ++d) {
      int64_t idx = rem / out_strides[d];
      rem -= idx * out_strides[d];
      src += idx * gather[d];
    }
    po[i] = pa[src];
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  DYHSL_CHECK(!parts.empty());
  if (axis < 0) axis += parts[0].dim();
  Shape out_shape = parts[0].shape();
  int64_t total_axis = 0;
  for (const Tensor& p : parts) {
    DYHSL_CHECK_EQ(p.dim(), parts[0].dim());
    for (int64_t d = 0; d < p.dim(); ++d) {
      if (d != axis) DYHSL_CHECK_EQ(p.size(d), parts[0].size(d));
    }
    total_axis += p.size(axis);
  }
  out_shape[axis] = total_axis;
  Tensor out(out_shape);
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= out_shape[d];
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < static_cast<int64_t>(out_shape.size()); ++d) {
    inner *= out_shape[d];
  }
  int64_t out_row = total_axis * inner;
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    int64_t p_axis = p.size(axis);
    int64_t p_row = p_axis * inner;
    const float* ps = p.data();
    float* pd = out.data() + offset * inner;
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(pd + o * out_row, ps + o * p_row, p_row * sizeof(float));
    }
    offset += p_axis;
  }
  return out;
}

Tensor PackBatch(const std::vector<Tensor>& items) {
  DYHSL_CHECK(!items.empty());
  DYHSL_CHECK(items[0].defined());
  Shape batched;
  batched.reserve(items[0].dim() + 1);
  batched.push_back(static_cast<int64_t>(items.size()));
  batched.insert(batched.end(), items[0].shape().begin(),
                 items[0].shape().end());
  if (items.size() == 1) return items[0].Reshape(std::move(batched));
  const int64_t item_numel = items[0].numel();
  Tensor out(batched);
  for (size_t i = 0; i < items.size(); ++i) {
    DYHSL_CHECK(items[i].shape() == items[0].shape());
    std::memcpy(out.data() + static_cast<int64_t>(i) * item_numel,
                items[i].data(),
                static_cast<size_t>(item_numel) * sizeof(float));
  }
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length) {
  if (axis < 0) axis += a.dim();
  DYHSL_CHECK_GE(start, 0);
  DYHSL_CHECK_LE(start + length, a.size(axis));
  Shape out_shape = a.shape();
  out_shape[axis] = length;
  Tensor out(out_shape);
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  int64_t in_row = a.size(axis) * inner;
  int64_t out_row = length * inner;
  const float* ps = a.data() + start * inner;
  float* pd = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(pd + o * out_row, ps + o * in_row, out_row * sizeof(float));
  }
  return out;
}

Tensor TakeRows(const Tensor& a, const std::vector<int64_t>& indices) {
  DYHSL_CHECK_EQ(a.dim(), 2);
  int64_t cols = a.size(1);
  Tensor out({static_cast<int64_t>(indices.size()), cols});
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t r = indices[i];
    DYHSL_CHECK_GE(r, 0);
    DYHSL_CHECK_LT(r, a.size(0));
    std::memcpy(out.data() + i * cols, a.data() + r * cols,
                cols * sizeof(float));
  }
  return out;
}

void ScatterAddRows(Tensor* dst, const std::vector<int64_t>& indices,
                    const Tensor& src) {
  DYHSL_CHECK_EQ(dst->dim(), 2);
  DYHSL_CHECK_EQ(src.dim(), 2);
  DYHSL_CHECK_EQ(src.size(0), static_cast<int64_t>(indices.size()));
  DYHSL_CHECK_EQ(src.size(1), dst->size(1));
  int64_t cols = dst->size(1);
  for (size_t i = 0; i < indices.size(); ++i) {
    int64_t r = indices[i];
    DYHSL_CHECK_GE(r, 0);
    DYHSL_CHECK_LT(r, dst->size(0));
    float* pd = dst->data() + r * cols;
    const float* ps = src.data() + i * cols;
    for (int64_t c = 0; c < cols; ++c) pd[c] += ps[c];
  }
}

float SumAllScalar(const Tensor& a) {
  const float* p = a.data();
  double acc = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdims) {
  if (axis < 0) axis += a.dim();
  DYHSL_CHECK_GE(axis, 0);
  DYHSL_CHECK_LT(axis, a.dim());
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  int64_t mid = a.size(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  Shape out_shape;
  for (int64_t d = 0; d < a.dim(); ++d) {
    if (d == axis) {
      if (keepdims) out_shape.push_back(1);
    } else {
      out_shape.push_back(a.size(d));
    }
  }
  if (out_shape.empty()) out_shape.push_back(1);
  Tensor out = Tensor::Zeros(out_shape);
  const float* pa = a.data();
  float* po = out.data();
#pragma omp parallel for if (outer * inner > kParallelCutoff)
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t m = 0; m < mid; ++m) {
      const float* row = pa + (o * mid + m) * inner;
      float* orow = po + o * inner;
      for (int64_t i = 0; i < inner; ++i) orow[i] += row[i];
    }
  }
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdims) {
  if (axis < 0) axis += a.dim();
  Tensor s = Sum(a, axis, keepdims);
  ScaleInPlace(&s, 1.0f / static_cast<float>(a.size(axis)));
  return s;
}

void SoftmaxLastAxisInPlace(Tensor* a) {
  int64_t cols = a->size(-1);
  int64_t rows = a->numel() / cols;
  float* pa = a->data();
#pragma omp parallel for if (a->numel() > kParallelCutoff)
  for (int64_t r = 0; r < rows; ++r) {
    float* o = pa + r * cols;
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t c = 0; c < cols; ++c) mx = std::max(mx, o[c]);
    float denom = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(o[c] - mx);
      denom += o[c];
    }
    float inv = 1.0f / denom;
    for (int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
}

Tensor SoftmaxLastAxis(const Tensor& a) {
  Tensor out = a.Clone();
  SoftmaxLastAxisInPlace(&out);
  return out;
}

void LayerNormLastAxisInto(const Tensor& x, const Tensor& gamma,
                           const Tensor& beta, float eps, Tensor* y,
                           Tensor* xhat, Tensor* inv_std) {
  DYHSL_CHECK_GE(x.dim(), 1);
  int64_t cols = x.size(-1);
  DYHSL_CHECK_EQ(gamma.numel(), cols);
  DYHSL_CHECK_EQ(beta.numel(), cols);
  DYHSL_CHECK(y != nullptr);
  DYHSL_CHECK(y->shape() == x.shape());
  int64_t rows = x.numel() / cols;
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* py = y->data();
  float* ph = xhat != nullptr ? xhat->data() : nullptr;
  float* pi = inv_std != nullptr ? inv_std->data() : nullptr;
  float inv_cols = 1.0f / static_cast<float>(cols);
#pragma omp parallel for if (x.numel() > kParallelCutoff)
  for (int64_t r = 0; r < rows; ++r) {
    const float* rx = px + r * cols;
    float* ry = py + r * cols;
    // Lane-parallel row reductions: independent partial sums vectorize,
    // where a single sequential accumulator would serialize on add
    // latency. The reduction order is fixed (lane-major, then a fixed
    // final sweep), so results are deterministic and mode-independent.
    constexpr int64_t kLanes = 16;
    float partial[kLanes] = {0.0f};
    int64_t c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
      for (int64_t j = 0; j < kLanes; ++j) partial[j] += rx[c + j];
    }
    float sum = 0.0f;
    for (int64_t j = 0; j < kLanes; ++j) sum += partial[j];
    for (; c < cols; ++c) sum += rx[c];
    float mean = sum * inv_cols;
    float sq_partial[kLanes] = {0.0f};
    c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
      for (int64_t j = 0; j < kLanes; ++j) {
        float d = rx[c + j] - mean;
        sq_partial[j] += d * d;
      }
    }
    float sq = 0.0f;
    for (int64_t j = 0; j < kLanes; ++j) sq += sq_partial[j];
    for (; c < cols; ++c) {
      float d = rx[c] - mean;
      sq += d * d;
    }
    float inv = 1.0f / std::sqrt(sq * inv_cols + eps);
    if (pi != nullptr) pi[r] = inv;
    if (ph != nullptr) {
      float* rh = ph + r * cols;
      for (int64_t c = 0; c < cols; ++c) {
        float h = (rx[c] - mean) * inv;
        rh[c] = h;
        ry[c] = h * pg[c] + pb[c];
      }
    } else {
      // Arithmetic kept textually identical to the xhat branch so taped
      // and grad-free forwards round (and contract) the same way.
      for (int64_t c = 0; c < cols; ++c) {
        float h = (rx[c] - mean) * inv;
        ry[c] = h * pg[c] + pb[c];
      }
    }
  }
}

PoolResult MaxPoolAxis(const Tensor& a, int64_t axis, int64_t window) {
  if (axis < 0) axis += a.dim();
  DYHSL_CHECK_GT(window, 0);
  DYHSL_CHECK_EQ(a.size(axis) % window, 0);
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  int64_t mid = a.size(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  int64_t out_mid = mid / window;
  Shape out_shape = a.shape();
  out_shape[axis] = out_mid;
  PoolResult result;
  result.values = Tensor(out_shape);
  result.argmax.assign(result.values.numel(), 0);
  const float* pa = a.data();
  float* po = result.values.data();
  int64_t* arg = result.argmax.data();
#pragma omp parallel for if (outer * out_mid * inner > kParallelCutoff)
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t om = 0; om < out_mid; ++om) {
      for (int64_t i = 0; i < inner; ++i) {
        int64_t best_idx = (o * mid + om * window) * inner + i;
        float best = pa[best_idx];
        for (int64_t w = 1; w < window; ++w) {
          int64_t idx = (o * mid + om * window + w) * inner + i;
          if (pa[idx] > best) {
            best = pa[idx];
            best_idx = idx;
          }
        }
        int64_t out_idx = (o * out_mid + om) * inner + i;
        po[out_idx] = best;
        arg[out_idx] = best_idx;
      }
    }
  }
  return result;
}

Tensor MaxPoolAxisValues(const Tensor& a, int64_t axis, int64_t window) {
  if (axis < 0) axis += a.dim();
  DYHSL_CHECK_GT(window, 0);
  DYHSL_CHECK_EQ(a.size(axis) % window, 0);
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.size(d);
  int64_t mid = a.size(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.dim(); ++d) inner *= a.size(d);
  int64_t out_mid = mid / window;
  Shape out_shape = a.shape();
  out_shape[axis] = out_mid;
  Tensor out(out_shape);
  const float* pa = a.data();
  float* po = out.data();
#pragma omp parallel for if (outer * out_mid * inner > kParallelCutoff)
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t om = 0; om < out_mid; ++om) {
      const float* base = pa + (o * mid + om * window) * inner;
      float* orow = po + (o * out_mid + om) * inner;
      for (int64_t i = 0; i < inner; ++i) orow[i] = base[i];
      for (int64_t w = 1; w < window; ++w) {
        const float* row = base + w * inner;
        for (int64_t i = 0; i < inner; ++i) {
          if (row[i] > orow[i]) orow[i] = row[i];
        }
      }
    }
  }
  return out;
}

namespace {

// The destination steps [lo, hi) a tap reaches: step u reads source step
// u + shift, and only source steps in [0, src_len) exist.
struct TapSpan {
  int64_t shift;
  int64_t lo;
  int64_t hi;
  int64_t steps() const { return std::max<int64_t>(0, hi - lo); }
};

TapSpan SpanOf(int64_t shift, int64_t dst_len, int64_t src_len) {
  return {shift, std::max<int64_t>(0, -shift),
          std::min<int64_t>(dst_len, src_len - shift)};
}

// (Cout, Cin, K) -> (K, Cin, Cout): tap k's GEMM operand is the
// contiguous (Cin, Cout) block k.
Tensor TapMajor(const Tensor& w) {
  const int64_t cout = w.size(0), cin = w.size(1), ksize = w.size(2);
  Tensor wt({ksize, cin, cout});
  const float* pw = w.data();
  float* pt = wt.data();
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t k = 0; k < ksize; ++k) {
        pt[(k * cin + ci) * cout + co] = pw[(co * cin + ci) * ksize + k];
      }
    }
  }
  return wt;
}

// The tap loop shared by the forward and the input VJP. src is
// (B, src_len, R, src_ch) and dst (B, dst_len, R, dst_ch); destination
// step u accumulates source step u + sign * (k * dilation - pad_left)
// times op(W_k) for every tap k, W_k being the (Cin, Cout) block k of
// `wt` (transposed when `trans_w`). One batched GEMM per tap covers the
// rows it reaches in every item. The widest-reaching tap writes first
// (beta 0, `bias` in its epilogue); the destination rows it does not reach
// are pre-filled with `bias` (zeros when null), and the remaining taps
// accumulate in ascending k.
void ShiftedTapGemms(int64_t batch, int64_t rows, const float* src,
                     int64_t src_len, int64_t src_ch, const float* wt,
                     int64_t ksize, bool trans_w, int64_t sign,
                     int64_t dilation, int64_t pad_left, const float* bias,
                     float* dst, int64_t dst_len, int64_t dst_ch) {
  std::vector<TapSpan> spans;
  spans.reserve(static_cast<size_t>(ksize));
  int64_t lead = 0;
  for (int64_t k = 0; k < ksize; ++k) {
    spans.push_back(
        SpanOf(sign * (k * dilation - pad_left), dst_len, src_len));
    if (spans[k].steps() > spans[lead].steps()) lead = k;
  }
  const int64_t src_step = rows * src_ch;
  const int64_t dst_step = rows * dst_ch;
  const int64_t dst_item = dst_len * dst_step;
  const TapSpan& first = spans[lead];
  const int64_t lo = first.steps() > 0 ? first.lo : 0;
  const int64_t hi = first.steps() > 0 ? first.hi : 0;
  auto fill_rows = [&](float* item, int64_t from, int64_t to) {
    for (int64_t r = from; r < to; ++r) {
      float* row = item + r * dst_ch;
      if (bias != nullptr) {
        std::memcpy(row, bias, static_cast<size_t>(dst_ch) * sizeof(float));
      } else {
        std::memset(row, 0, static_cast<size_t>(dst_ch) * sizeof(float));
      }
    }
  };
  for (int64_t b = 0; b < batch; ++b) {
    fill_rows(dst + b * dst_item, 0, lo * rows);
    fill_rows(dst + b * dst_item, hi * rows, dst_len * rows);
  }
  GemmEpilogue with_bias;
  with_bias.bias = bias;
  auto run_tap = [&](int64_t k, float beta, const GemmEpilogue* ep) {
    const TapSpan& s = spans[k];
    if (s.steps() == 0) return;
    BatchedGemmPrepackedInto(
        batch, /*trans_a=*/false, trans_w, s.steps() * rows, dst_ch, src_ch,
        src + (s.lo + s.shift) * src_step, src_len * src_step, src_ch,
        /*pre_a=*/nullptr, wt + k * src_ch * dst_ch, /*b_stride=*/0,
        trans_w ? src_ch : dst_ch, /*pre_b=*/nullptr, beta,
        dst + s.lo * dst_step, dst_item, dst_ch, ep);
  };
  run_tap(lead, 0.0f, &with_bias);
  for (int64_t k = 0; k < ksize; ++k) {
    if (k != lead) run_tap(k, 1.0f, nullptr);
  }
}

}  // namespace

Tensor TemporalConv(const Tensor& x, const Tensor& w, const float* bias,
                    int64_t dilation, int64_t pad_left, int64_t pad_right) {
  DYHSL_CHECK_EQ(x.dim(), 4);
  DYHSL_CHECK_EQ(w.dim(), 3);
  DYHSL_CHECK_GT(dilation, 0);
  DYHSL_CHECK_GE(pad_left, 0);
  DYHSL_CHECK_GE(pad_right, 0);
  const int64_t batch = x.size(0), t_in = x.size(1), rows = x.size(2);
  const int64_t cin = x.size(3);
  const int64_t cout = w.size(0), ksize = w.size(2);
  DYHSL_CHECK_EQ(w.size(1), cin);
  const int64_t t_out = t_in + pad_left + pad_right - (ksize - 1) * dilation;
  DYHSL_CHECK_GT(t_out, 0);
  Tensor wt = TapMajor(w);
  Tensor y({batch, t_out, rows, cout});
  ShiftedTapGemms(batch, rows, x.data(), t_in, cin, wt.data(), ksize,
                  /*trans_w=*/false, /*sign=*/1, dilation, pad_left, bias,
                  y.data(), t_out, cout);
  return y;
}

Tensor TemporalConvBackwardInput(const Tensor& grad_out, const Tensor& w,
                                 const Shape& x_shape, int64_t dilation,
                                 int64_t pad_left) {
  DYHSL_CHECK_EQ(x_shape.size(), 4u);
  const int64_t batch = x_shape[0], t_in = x_shape[1], rows = x_shape[2];
  const int64_t cin = x_shape[3];
  const int64_t cout = w.size(0), ksize = w.size(2);
  const int64_t t_out = grad_out.size(1);
  Tensor wt = TapMajor(w);
  Tensor gx(x_shape);
  // Input step u received output step u - shift: the forward geometry
  // with the shift negated, output and input swapping roles.
  ShiftedTapGemms(batch, rows, grad_out.data(), t_out, cout, wt.data(),
                  ksize, /*trans_w=*/true, /*sign=*/-1, dilation, pad_left,
                  /*bias=*/nullptr, gx.data(), t_in, cin);
  return gx;
}

Tensor TemporalConvBackwardWeight(const Tensor& grad_out, const Tensor& x,
                                  const Shape& w_shape, int64_t dilation,
                                  int64_t pad_left) {
  const int64_t batch = x.size(0), t_in = x.size(1), rows = x.size(2);
  const int64_t cin = x.size(3);
  const int64_t cout = w_shape[0], ksize = w_shape[2];
  const int64_t t_out = grad_out.size(1);
  const int64_t in_step = rows * cin, out_step = rows * cout;
  // dW_k = sum over items of X_shifted^T G over the rows tap k reaches,
  // accumulated tap-major and re-laid to (Cout, Cin, K) at the end.
  Tensor gwt = Tensor::Zeros({ksize, cin, cout});
  for (int64_t k = 0; k < ksize; ++k) {
    const TapSpan s = SpanOf(k * dilation - pad_left, t_out, t_in);
    if (s.steps() == 0) continue;
    for (int64_t b = 0; b < batch; ++b) {
      GemmInto(/*trans_a=*/true, /*trans_b=*/false, cin, cout,
               s.steps() * rows,
               x.data() + b * t_in * in_step + (s.lo + s.shift) * in_step,
               cin, grad_out.data() + b * t_out * out_step + s.lo * out_step,
               cout, /*beta=*/1.0f, gwt.data() + k * cin * cout, cout);
    }
  }
  Tensor gw(w_shape);
  const float* pt = gwt.data();
  float* pw = gw.data();
  for (int64_t co = 0; co < cout; ++co) {
    for (int64_t ci = 0; ci < cin; ++ci) {
      for (int64_t k = 0; k < ksize; ++k) {
        pw[(co * cin + ci) * ksize + k] = pt[(k * cin + ci) * cout + co];
      }
    }
  }
  return gw;
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

}  // namespace dyhsl::tensor
