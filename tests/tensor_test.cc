// Unit tests for the dense tensor library: construction, movement ops,
// broadcasting arithmetic, matmuls, reductions, pooling and convolution.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/parallel.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "tests/testing_utils.h"

namespace dyhsl::tensor {
namespace {

using ::dyhsl::testing::Transpose2D;

TEST(TensorTest, ZerosShapeAndFill) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.numel(), 6);
  for (float v : t.ToVector()) EXPECT_EQ(v, 0.0f);
  t.Fill(2.5f);
  for (float v : t.ToVector()) EXPECT_EQ(v, 2.5f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At({0, 0}), 1.0f);
  EXPECT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_EQ(t.At({1, 0}), 3.0f);
  EXPECT_EQ(t.At({1, 1}), 4.0f);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor t = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.Reshape({3, 2});
  EXPECT_TRUE(t.SharesStorageWith(r));
  r.Set({0, 1}, 42.0f);
  EXPECT_EQ(t.At({0, 1}), 42.0f);
}

TEST(TensorTest, ReshapeInfersAxis) {
  Tensor t = Tensor::Zeros({4, 6});
  Tensor r = t.Reshape({2, -1});
  EXPECT_EQ(r.size(1), 12);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor t = Tensor::Ones({3});
  Tensor c = t.Clone();
  EXPECT_FALSE(t.SharesStorageWith(c));
  c.Fill(7.0f);
  EXPECT_EQ(t.At({0}), 1.0f);
}

TEST(TensorTest, Scalar) {
  EXPECT_EQ(Tensor::Scalar(3.5f).At({0}), 3.5f);
}

TEST(TensorTest, RandnDeterministicGivenSeed) {
  Rng rng1(7), rng2(7);
  Tensor a = Tensor::Randn({16}, &rng1);
  Tensor b = Tensor::Randn({16}, &rng2);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  EXPECT_EQ(Add(a, b).ToVector(), (std::vector<float>{11, 22, 33, 44}));
}

TEST(OpsTest, BroadcastRowBias) {
  Tensor a = Tensor::FromVector({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b = Tensor::FromVector({3}, {1, 2, 3});
  EXPECT_EQ(Add(a, b).ToVector(), (std::vector<float>{1, 2, 3, 2, 3, 4}));
}

TEST(OpsTest, BroadcastScalar) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor s = Tensor::Scalar(10.0f);
  EXPECT_EQ(Mul(a, s).ToVector(), (std::vector<float>{10, 20, 30}));
}

TEST(OpsTest, BroadcastMiddleAxis) {
  // (2, 1, 2) + (1, 3, 1) -> (2, 3, 2)
  Tensor a = Tensor::FromVector({2, 1, 2}, {0, 1, 10, 11});
  Tensor b = Tensor::FromVector({1, 3, 1}, {100, 200, 300});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 2}));
  EXPECT_EQ(c.At({0, 0, 0}), 100.0f);
  EXPECT_EQ(c.At({0, 2, 1}), 301.0f);
  EXPECT_EQ(c.At({1, 1, 0}), 210.0f);
}

TEST(OpsTest, BroadcastZeroSizeLastAxisIsEmpty) {
  // Regression: the row-based broadcast path must not divide by a
  // zero-width last axis; the result is simply empty. (2,0) + (1,0)
  // broadcasts over the leading axis with nothing to compute per row.
  Tensor a(Shape{2, 0});
  Tensor b(Shape{1, 0});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 0}));
  EXPECT_EQ(c.numel(), 0);
  Tensor d(Shape{2, 0});
  AddBroadcastInPlace(&d, b);
  EXPECT_EQ(d.numel(), 0);
}

// Regression tests for the row-broadcast fast path in BinaryOp: the fast
// path may fire only when rank-1 b pairs elementwise with a's trailing
// axis AND the result shape is exactly a.shape. A rank-1 b whose length
// coincidentally matches some axis of a (or divides a.numel()) must still
// go through the general path.
TEST(OpsTest, RankOneRhsMatchingNonTrailingAxisUsesGeneralPath) {
  // b's length 3 matches a's *middle* axis, while a's trailing axis is 1
  // and must broadcast against b: the output widens to (2, 3, 3). A sloppy
  // "length divides numel" row fast path would pair b with flattened rows
  // of a and produce shape (2, 3, 1) garbage.
  Tensor a = Tensor::FromVector({2, 3, 1}, {0, 1, 2, 10, 11, 12});
  Tensor b = Tensor::FromVector({3}, {100, 200, 300});
  Tensor c = Add(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 3}));
  EXPECT_EQ(c.At({0, 0, 0}), 100.0f);
  EXPECT_EQ(c.At({0, 0, 2}), 300.0f);
  EXPECT_EQ(c.At({1, 2, 1}), 212.0f);
}

TEST(OpsTest, RankOneRhsAgainstSizeOneTrailingAxisExpands) {
  // a's trailing axis is 1, b is longer: the general path must widen the
  // output (outer-product-style), not pair "rows" of a with b.
  Tensor a = Tensor::FromVector({3, 1}, {1, 2, 3});
  Tensor b = Tensor::FromVector({4}, {10, 20, 30, 40});
  Tensor c = Mul(a, b);
  ASSERT_EQ(c.shape(), (Shape{3, 4}));
  EXPECT_EQ(c.At({0, 0}), 10.0f);
  EXPECT_EQ(c.At({2, 3}), 120.0f);
}

TEST(OpsTest, RowBroadcastFastPathMatchesGeneralSemantics) {
  // Exact trailing match (including through a middle size-1 axis): the
  // fast path must agree with manually computed row-wise subtraction for
  // a non-commutative op.
  Tensor a = Tensor::FromVector({2, 1, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {1, 1, 2});
  Tensor c = Sub(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1, 3}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{0, 1, 1, 3, 4, 4}));
}

TEST(OpsTest, ReduceToShapeInvertsBroadcast) {
  Tensor g = Tensor::Ones({2, 3});
  Tensor r = ReduceToShape(g, {3});
  EXPECT_EQ(r.ToVector(), (std::vector<float>{2, 2, 2}));
  Tensor r2 = ReduceToShape(g, {2, 1});
  EXPECT_EQ(r2.ToVector(), (std::vector<float>{3, 3}));
}

TEST(OpsTest, MatMulBasic) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsTest, MatMulTransposeFlagsAgree) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 5}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  Tensor ref = MatMul(a, b);
  Tensor at = Transpose2D(a);
  Tensor bt = Transpose2D(b);
  Tensor c1 = MatMul(at, b, /*trans_a=*/true, /*trans_b=*/false);
  Tensor c2 = MatMul(a, bt, /*trans_a=*/false, /*trans_b=*/true);
  Tensor c3 = MatMul(at, bt, /*trans_a=*/true, /*trans_b=*/true);
  EXPECT_TENSOR_NEAR(c1, ref, 1e-4f);
  EXPECT_TENSOR_NEAR(c2, ref, 1e-4f);
  EXPECT_TENSOR_NEAR(c3, ref, 1e-4f);
}

TEST(OpsTest, BatchedMatMulMatchesPerBatch) {
  Rng rng(11);
  Tensor a = Tensor::Randn({3, 4, 5}, &rng);
  Tensor b = Tensor::Randn({3, 5, 2}, &rng);
  Tensor c = BatchedMatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 4, 2}));
  for (int64_t bi = 0; bi < 3; ++bi) {
    Tensor ab = Slice(a, 0, bi, 1).Reshape({4, 5});
    Tensor bb = Slice(b, 0, bi, 1).Reshape({5, 2});
    Tensor ref = MatMul(ab, bb);
    Tensor got = Slice(c, 0, bi, 1).Reshape({4, 2});
    EXPECT_TENSOR_NEAR(got, ref, 1e-4f);
  }
}

TEST(OpsTest, BatchedMatMulSharedRhs) {
  Rng rng(13);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor w = Tensor::Randn({4, 5}, &rng);
  Tensor c = BatchedMatMul(a, w);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 5}));
  Tensor folded = MatMul(a.Reshape({6, 4}), w).Reshape({2, 3, 5});
  EXPECT_TENSOR_NEAR(c, folded, 1e-4f);
}

TEST(OpsTest, BatchedMatMulTransB) {
  Rng rng(17);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b = Tensor::Randn({2, 6, 4}, &rng);
  Tensor c = BatchedMatMul(a, b, false, /*trans_b=*/true);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 6}));
  for (int64_t bi = 0; bi < 2; ++bi) {
    Tensor ab = Slice(a, 0, bi, 1).Reshape({3, 4});
    Tensor bb = Slice(b, 0, bi, 1).Reshape({6, 4});
    Tensor ref = MatMul(ab, Transpose2D(bb));
    Tensor got = Slice(c, 0, bi, 1).Reshape({3, 6});
    EXPECT_TENSOR_NEAR(got, ref, 1e-4f);
  }
}

TEST(OpsTest, TransposePerm3D) {
  Tensor a = Tensor::FromVector({2, 1, 3}, {0, 1, 2, 3, 4, 5});
  Tensor t = TransposePerm(a, {2, 0, 1});
  EXPECT_EQ(t.shape(), (Shape{3, 2, 1}));
  EXPECT_EQ(t.At({0, 0, 0}), 0.0f);
  EXPECT_EQ(t.At({0, 1, 0}), 3.0f);
  EXPECT_EQ(t.At({2, 1, 0}), 5.0f);
}

TEST(OpsTest, ConcatAxis0And1) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({1, 2}, {3, 4});
  EXPECT_EQ(Concat({a, b}, 0).ToVector(), (std::vector<float>{1, 2, 3, 4}));
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{1, 4}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{1, 2, 3, 4}));
}

TEST(OpsTest, SliceMiddleAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor s = Slice(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{1, 2, 4, 5}));
}

TEST(OpsTest, TakeAndScatterRows) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor taken = TakeRows(a, {2, 0});
  EXPECT_EQ(taken.ToVector(), (std::vector<float>{5, 6, 1, 2}));
  Tensor dst = Tensor::Zeros({3, 2});
  ScatterAddRows(&dst, {1, 1}, Tensor::Ones({2, 2}));
  EXPECT_EQ(dst.ToVector(), (std::vector<float>{0, 0, 2, 2, 0, 0}));
}

TEST(OpsTest, SumMeanAxis) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(Sum(a, 0).ToVector(), (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(Sum(a, 1).ToVector(), (std::vector<float>{6, 15}));
  EXPECT_EQ(Sum(a, 1, true).shape(), (Shape{2, 1}));
  EXPECT_EQ(Mean(a, 1).ToVector(), (std::vector<float>{2, 5}));
  EXPECT_FLOAT_EQ(SumAllScalar(a), 21.0f);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor a = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor s = SoftmaxLastAxis(a);
  EXPECT_TRUE(dyhsl::testing::RowStochastic(s, 1e-5f));
}

TEST(OpsTest, SoftmaxStableForLargeInputs) {
  Tensor a = Tensor::FromVector({1, 3}, {1000, 1001, 1002});
  Tensor s = SoftmaxLastAxis(a);
  EXPECT_FALSE(std::isnan(s.At({0, 0})));
  EXPECT_GT(s.At({0, 2}), s.At({0, 0}));
}

TEST(OpsTest, MaxPoolAxisValuesAndArgmax) {
  // (1, 4, 2) pooled along axis 1 with window 2.
  Tensor a = Tensor::FromVector({1, 4, 2}, {1, 8, 3, 2, 5, 0, 4, 9});
  PoolResult r = MaxPoolAxis(a, 1, 2);
  EXPECT_EQ(r.values.shape(), (Shape{1, 2, 2}));
  EXPECT_EQ(r.values.ToVector(), (std::vector<float>{3, 8, 5, 9}));
  EXPECT_EQ(r.argmax[0], 2);  // flat index of 3
  EXPECT_EQ(r.argmax[1], 1);  // flat index of 8
}

TEST(OpsTest, UnaryKernels) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0, 3});
  EXPECT_EQ(Relu(a).ToVector(), (std::vector<float>{0, 0, 0, 3}));
  EXPECT_EQ(Abs(a).ToVector(), (std::vector<float>{2, 0.5, 0, 3}));
  EXPECT_EQ(Sign(a).ToVector(), (std::vector<float>{-1, -1, 0, 1}));
  EXPECT_EQ(Heaviside(a).ToVector(), (std::vector<float>{0, 0, 0, 1}));
}

TEST(TemporalConvTest, IdentityKernel) {
  // Kernel [1] with K=1 is the identity, for every row and item.
  Tensor x = Tensor::FromVector({2, 4, 1, 1}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor w = Tensor::FromVector({1, 1, 1}, {1});
  Tensor y = TemporalConv(x, w, nullptr, 1, 0, 0);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 1, 1}));
  EXPECT_EQ(y.ToVector(), x.ToVector());
}

TEST(TemporalConvTest, CausalDifference) {
  // Kernel [-1, 1] with causal left pad computes x[t] - x[t-1] per row.
  Tensor x = Tensor::FromVector({1, 4, 2, 1}, {1, 0, 3, 1, 6, 3, 10, 6});
  Tensor w = Tensor::FromVector({1, 1, 2}, {-1, 1});
  Tensor y = TemporalConv(x, w, nullptr, 1, 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 4, 2, 1}));
  EXPECT_EQ(y.ToVector(), (std::vector<float>{1, 0, 2, 1, 3, 2, 4, 3}));
}

TEST(TemporalConvTest, DilationAndBias) {
  // Dilated difference plus bias: y[t] = x[t] - x[t-2] + 0.5.
  Tensor x = Tensor::FromVector({1, 5, 1, 1}, {1, 2, 4, 7, 11});
  Tensor w = Tensor::FromVector({1, 1, 2}, {-1, 1});
  const float bias = 0.5f;
  Tensor y = TemporalConv(x, w, &bias, /*dilation=*/2, /*pad_left=*/2,
                          /*pad_right=*/0);
  EXPECT_EQ(y.ToVector(), (std::vector<float>{1.5, 2.5, 3.5, 5.5, 7.5}));
}

TEST(TemporalConvTest, MultiChannelShape) {
  Rng rng(23);
  Tensor x = Tensor::Randn({2, 8, 3, 3}, &rng);
  Tensor w = Tensor::Randn({5, 3, 2}, &rng);
  EXPECT_EQ(TemporalConv(x, w, nullptr, 1, 1, 0).shape(),
            (Shape{2, 8, 3, 5}));
  // Unpadded: Tout = T - (K - 1) * dilation.
  EXPECT_EQ(TemporalConv(x, w, nullptr, 3, 0, 0).shape(),
            (Shape{2, 5, 3, 5}));
}

// Direct-loop oracles in double precision. A tap reads input step
// t + k * dilation - pad_left; steps outside [0, T) are zero.
struct ConvGeometry {
  int64_t dilation;
  int64_t pad_left;
  int64_t pad_right;
};

Tensor OracleConv(const Tensor& x, const Tensor& w, const float* bias,
                  ConvGeometry g) {
  const int64_t nb = x.size(0), t_in = x.size(1), nr = x.size(2);
  const int64_t cin = x.size(3), cout = w.size(0), ksize = w.size(2);
  const int64_t t_out =
      t_in + g.pad_left + g.pad_right - (ksize - 1) * g.dilation;
  const float* px = x.data();
  const float* pw = w.data();
  Tensor y({nb, t_out, nr, cout});
  for (int64_t b = 0; b < nb; ++b) {
    for (int64_t t = 0; t < t_out; ++t) {
      for (int64_t r = 0; r < nr; ++r) {
        for (int64_t co = 0; co < cout; ++co) {
          double acc = bias != nullptr ? bias[co] : 0.0;
          for (int64_t k = 0; k < ksize; ++k) {
            const int64_t u = t + k * g.dilation - g.pad_left;
            if (u < 0 || u >= t_in) continue;
            for (int64_t ci = 0; ci < cin; ++ci) {
              acc += static_cast<double>(pw[(co * cin + ci) * ksize + k]) *
                     px[((b * t_in + u) * nr + r) * cin + ci];
            }
          }
          y.data()[((b * t_out + t) * nr + r) * cout + co] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// The input and weight VJPs of OracleConv for output gradient `gy`.
void OracleConvGrads(const Tensor& x, const Tensor& w, const Tensor& gy,
                     ConvGeometry g, Tensor* gx, Tensor* gw) {
  const int64_t nb = x.size(0), t_in = x.size(1), nr = x.size(2);
  const int64_t cin = x.size(3), cout = w.size(0), ksize = w.size(2);
  const int64_t t_out = gy.size(1);
  const float* px = x.data();
  const float* pw = w.data();
  std::vector<double> ax(x.numel(), 0.0), aw(w.numel(), 0.0);
  for (int64_t b = 0; b < nb; ++b) {
    for (int64_t t = 0; t < t_out; ++t) {
      for (int64_t k = 0; k < ksize; ++k) {
        const int64_t u = t + k * g.dilation - g.pad_left;
        if (u < 0 || u >= t_in) continue;
        for (int64_t r = 0; r < nr; ++r) {
          for (int64_t co = 0; co < cout; ++co) {
            const double gv =
                gy.data()[((b * t_out + t) * nr + r) * cout + co];
            for (int64_t ci = 0; ci < cin; ++ci) {
              const int64_t xi = ((b * t_in + u) * nr + r) * cin + ci;
              const int64_t wi = (co * cin + ci) * ksize + k;
              ax[xi] += gv * pw[wi];
              aw[wi] += gv * px[xi];
            }
          }
        }
      }
    }
  }
  *gx = Tensor(x.shape());
  *gw = Tensor(w.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    gx->data()[i] = static_cast<float>(ax[i]);
  }
  for (int64_t i = 0; i < w.numel(); ++i) {
    gw->data()[i] = static_cast<float>(aw[i]);
  }
}

ConvGeometry Geometry(int64_t ksize, int64_t dilation, bool causal) {
  const int64_t reach = (ksize - 1) * dilation;
  const int64_t pad_left = causal ? reach : reach / 2;
  return {dilation, pad_left, reach - pad_left};
}

TEST(TemporalConvTest, MatchesDirectLoopOracle) {
  // Causal and split padding, K in {2, 3}, dilation in {1, 2, 8} (8 shifts
  // taps by at least T = 12 at K = 3), Cin in {1, 3, 16}, Cout in {16, 32}
  // and B in {1, 3}: forward and both VJPs against the oracle.
  Rng rng(29);
  const int64_t t_in = 12, rows = 5;
  for (bool causal : {true, false}) {
    for (int64_t ksize : {2, 3}) {
      for (int64_t dilation : {1, 2, 8}) {
        for (int64_t cin : {1, 3, 16}) {
          for (int64_t cout : {16, 32}) {
            for (int64_t nb : {1, 3}) {
              SCOPED_TRACE(::testing::Message()
                           << "causal " << causal << " K " << ksize << " d "
                           << dilation << " Cin " << cin << " Cout " << cout
                           << " B " << nb);
              const ConvGeometry g = Geometry(ksize, dilation, causal);
              Tensor x = Tensor::Randn({nb, t_in, rows, cin}, &rng);
              Tensor w = Tensor::Randn({cout, cin, ksize}, &rng);
              Tensor bias = Tensor::Randn({cout}, &rng);
              Tensor y = TemporalConv(x, w, bias.data(), g.dilation,
                                      g.pad_left, g.pad_right);
              EXPECT_TENSOR_NEAR(y, OracleConv(x, w, bias.data(), g), 1e-4f);
              Tensor gy = Tensor::Randn(y.shape(), &rng);
              Tensor gx, gw;
              OracleConvGrads(x, w, gy, g, &gx, &gw);
              EXPECT_TENSOR_NEAR(
                  TemporalConvBackwardInput(gy, w, x.shape(), g.dilation,
                                            g.pad_left),
                  gx, 1e-4f);
              EXPECT_TENSOR_NEAR(
                  TemporalConvBackwardWeight(gy, x, w.shape(), g.dilation,
                                             g.pad_left),
                  gw, 1e-3f);
            }
          }
        }
      }
    }
  }
}

// Item b of a (B, ...) tensor as its own (1, ...) tensor.
Tensor Item(const Tensor& t, int64_t b) {
  Shape shape = t.shape();
  const int64_t item = t.numel() / shape[0];
  shape[0] = 1;
  Tensor out(shape);
  std::copy(t.data() + b * item, t.data() + (b + 1) * item, out.data());
  return out;
}

TEST(TemporalConvTest, BatchOfThreeEqualsThreeSingleCalls) {
  // Per-item strides: item b's result, forward and input VJP, does not
  // depend on the batch it rides in — bit for bit, at a size that crosses
  // the GEMM's parallel cutoff.
  Rng rng(31);
  for (bool causal : {true, false}) {
    for (int64_t dilation : {1, 8}) {
      const ConvGeometry g = Geometry(3, dilation, causal);
      Tensor x = Tensor::Randn({3, 12, 96, 16}, &rng);
      Tensor w = Tensor::Randn({32, 16, 3}, &rng);
      Tensor bias = Tensor::Randn({32}, &rng);
      Tensor y =
          TemporalConv(x, w, bias.data(), g.dilation, g.pad_left, g.pad_right);
      Tensor gy = Tensor::Randn(y.shape(), &rng);
      Tensor gx = TemporalConvBackwardInput(gy, w, x.shape(), g.dilation,
                                            g.pad_left);
      for (int64_t b = 0; b < 3; ++b) {
        Tensor xb = Item(x, b);
        EXPECT_TENSOR_EQ(Item(y, b),
                         TemporalConv(xb, w, bias.data(), g.dilation,
                                      g.pad_left, g.pad_right));
        EXPECT_TENSOR_EQ(Item(gx, b),
                         TemporalConvBackwardInput(Item(gy, b), w, xb.shape(),
                                                   g.dilation, g.pad_left));
      }
    }
  }
}

TEST(TemporalConvTest, NoTapReadsAcrossItems) {
  // Perturbing item 0's last time step must leave items 1 and 2 untouched:
  // a causal tap at t - k * dilation must stop at its own item's first
  // step, not run on into the previous item's rows.
  Rng rng(37);
  for (int64_t ksize : {2, 3}) {
    for (int64_t dilation : {1, 2, 8}) {
      for (bool causal : {true, false}) {
        const ConvGeometry g = Geometry(ksize, dilation, causal);
        Tensor x = Tensor::Randn({3, 12, 4, 3}, &rng);
        Tensor w = Tensor::Randn({16, 3, ksize}, &rng);
        Tensor perturbed = x.Clone();
        for (int64_t i = 11 * 4 * 3; i < 12 * 4 * 3; ++i) {
          perturbed.data()[i] += 5.0f;
        }
        Tensor y0 =
            TemporalConv(x, w, nullptr, g.dilation, g.pad_left, g.pad_right);
        Tensor y1 = TemporalConv(perturbed, w, nullptr, g.dilation,
                                 g.pad_left, g.pad_right);
        EXPECT_GT(::dyhsl::testing::MaxAbsDiff(Item(y1, 0), Item(y0, 0)), 0.0f);
        for (int64_t b = 1; b < 3; ++b) {
          EXPECT_TENSOR_EQ(Item(y1, b), Item(y0, b))
              << "K " << ksize << " d " << dilation << " causal " << causal
              << " item " << b;
        }
      }
    }
  }
}

TEST(TemporalConvTest, BitIdenticalAcrossTeamSizes) {
  // Forward and both VJPs at the metro-shard shape agree bit for bit at
  // teams 1, 2 and 4.
  Rng rng(41);
  const ConvGeometry g = Geometry(3, 1, /*causal=*/true);
  Tensor x = Tensor::Randn({1, 12, 840, 16}, &rng);
  Tensor w = Tensor::Randn({32, 16, 3}, &rng);
  Tensor bias = Tensor::Randn({32}, &rng);
  Tensor gy = Tensor::Randn({1, 12, 840, 32}, &rng);
  auto run = [&](int team, Tensor* y, Tensor* gx, Tensor* gw) {
    core::TeamScope scope(team);
    *y = TemporalConv(x, w, bias.data(), g.dilation, g.pad_left,
                      g.pad_right);
    *gx = TemporalConvBackwardInput(gy, w, x.shape(), g.dilation, g.pad_left);
    *gw = TemporalConvBackwardWeight(gy, x, w.shape(), g.dilation,
                                     g.pad_left);
  };
  Tensor y1, gx1, gw1;
  run(1, &y1, &gx1, &gw1);
  for (int team : {2, 4}) {
    Tensor y, gx, gw;
    run(team, &y, &gx, &gw);
    EXPECT_TENSOR_EQ(y, y1) << "team " << team;
    EXPECT_TENSOR_EQ(gx, gx1) << "team " << team;
    EXPECT_TENSOR_EQ(gw, gw1) << "team " << team;
  }
}

}  // namespace
}  // namespace dyhsl::tensor
