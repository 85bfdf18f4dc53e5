// Autograd correctness: every differentiable op is validated against
// central finite differences through the GradCheck harness, plus tape
// mechanics (accumulation, reuse, detach).

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/gradcheck.h"
#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/tensor/ops.h"
#include "src/tensor/sparse.h"
#include "tests/testing_utils.h"

namespace dyhsl::autograd {
namespace {

namespace T = ::dyhsl::tensor;

Variable Param(T::Tensor t) { return Variable(std::move(t), true); }

// Reduces any variable to a scalar through a fixed weighted sum so the
// gradcheck objective is sensitive to every coordinate.
Variable ToScalar(const Variable& v) {
  Variable flat = Reshape(v, {1, -1});
  // Deterministic weights 1, 2, 3, ... keep all coordinates distinguishable.
  int64_t n = flat.size(1);
  T::Tensor w({n, 1});
  for (int64_t i = 0; i < n; ++i) {
    w.data()[i] = 0.1f * static_cast<float>(i + 1);
  }
  return Reshape(MatMul(flat, Variable(w)), {1});
}

TEST(TapeTest, BackwardThroughScalarChain) {
  Variable x = Param(T::Tensor::Scalar(3.0f));
  Variable y = MulScalar(x, 2.0f);   // y = 2x
  Variable z = Mul(y, y);            // z = 4x^2, dz/dx = 8x = 24
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 24.0f);
}

TEST(TapeTest, GradAccumulatesAcrossUses) {
  Variable x = Param(T::Tensor::Scalar(5.0f));
  Variable y = Add(x, x);  // dy/dx = 2
  y.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 2.0f);
}

TEST(TapeTest, DiamondGraphGradient) {
  // z = (x*2) + (x*3); dz/dx = 5.
  Variable x = Param(T::Tensor::Scalar(1.0f));
  Variable z = Add(MulScalar(x, 2.0f), MulScalar(x, 3.0f));
  z.Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 5.0f);
}

TEST(TapeTest, ZeroGradClears) {
  Variable x = Param(T::Tensor::Scalar(1.0f));
  MulScalar(x, 3.0f).Backward();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 3.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().data()[0], 0.0f);
}

TEST(TapeTest, NoGradLeafReceivesNothing) {
  Variable x = Param(T::Tensor::Scalar(1.0f));
  Variable c(T::Tensor::Scalar(10.0f));  // constant
  Variable z = Mul(x, c);
  z.Backward();
  EXPECT_FALSE(c.has_grad());
  EXPECT_FLOAT_EQ(x.grad().data()[0], 10.0f);
}

class OpGradCheck : public ::dyhsl::testing::SeededTest {
 protected:
  void Check(const std::function<Variable(const std::vector<Variable>&)>& f,
             std::vector<Variable> inputs, float tol = 5e-2f) {
    GradCheckReport report = GradCheck(f, std::move(inputs), 1e-2f, tol);
    EXPECT_TRUE(report.ok)
        << "max_rel_error=" << report.max_rel_error
        << " max_abs_error=" << report.max_abs_error;
  }
};

TEST_F(OpGradCheck, AddBroadcast) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Add(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_)),
         Param(T::Tensor::Randn({4}, &rng_))});
}

TEST_F(OpGradCheck, SubBroadcastMiddle) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Sub(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({2, 3, 2}, &rng_)),
         Param(T::Tensor::Randn({1, 3, 1}, &rng_))});
}

TEST_F(OpGradCheck, MulElementwise) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Mul(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({3, 3}, &rng_)),
         Param(T::Tensor::Randn({3, 3}, &rng_))});
}

TEST_F(OpGradCheck, UnaryChain) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Tanh(Sigmoid(MulScalar(in[0], 0.7f))));
        },
        {Param(T::Tensor::Randn({4, 2}, &rng_))});
}

TEST_F(OpGradCheck, ReluAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  T::Tensor x = T::Tensor::Randn({4, 4}, &rng_);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] = 0.5f;
  }
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Relu(in[0]));
        },
        {Param(x)});
}

TEST_F(OpGradCheck, AbsAwayFromZero) {
  T::Tensor x = T::Tensor::Randn({5}, &rng_);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] = 1.0f;
  }
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Abs(in[0]));
        },
        {Param(x)});
}

TEST_F(OpGradCheck, MatMulPlain) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(MatMul(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_)),
         Param(T::Tensor::Randn({4, 2}, &rng_))});
}

TEST_F(OpGradCheck, MatMulTransA) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(MatMul(in[0], in[1], true, false));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_)),
         Param(T::Tensor::Randn({4, 2}, &rng_))});
}

TEST_F(OpGradCheck, MatMulTransB) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(MatMul(in[0], in[1], false, true));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_)),
         Param(T::Tensor::Randn({2, 4}, &rng_))});
}

TEST_F(OpGradCheck, MatMulTransBoth) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(MatMul(in[0], in[1], true, true));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_)),
         Param(T::Tensor::Randn({2, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMul) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({2, 3, 4}, &rng_)),
         Param(T::Tensor::Randn({2, 4, 2}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulTransB) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], false, true));
        },
        {Param(T::Tensor::Randn({2, 3, 4}, &rng_)),
         Param(T::Tensor::Randn({2, 5, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulTransA) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, false));
        },
        {Param(T::Tensor::Randn({2, 4, 3}, &rng_)),
         Param(T::Tensor::Randn({2, 4, 2}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedRhs) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({2, 3, 4}, &rng_)),
         Param(T::Tensor::Randn({4, 2}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedRhsTransB) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], false, true));
        },
        {Param(T::Tensor::Randn({2, 3, 4}, &rng_)),
         Param(T::Tensor::Randn({5, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedRhsTransBoth) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, true));
        },
        {Param(T::Tensor::Randn({2, 4, 3}, &rng_)),
         Param(T::Tensor::Randn({5, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedRhsTransA) {
  // trans_a with a batch-shared RHS was previously rejected; the gradient
  // now batch-reduces through BatchedMatMulReduceInto.
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, false));
        },
        {Param(T::Tensor::Randn({2, 4, 3}, &rng_)),
         Param(T::Tensor::Randn({4, 2}, &rng_))});
}

// The shared-LHS form U @ M_b (2-D a, 3-D b) that replaced the
// TransposePerm/BatchedMatMul/TransposePerm sandwich in the DHSL block —
// all four trans combinations.
TEST_F(OpGradCheck, BatchedMatMulSharedLhs) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1]));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_)),
         Param(T::Tensor::Randn({2, 4, 2}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedLhsTransA) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, false));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_)),
         Param(T::Tensor::Randn({2, 4, 2}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedLhsTransB) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], false, true));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_)),
         Param(T::Tensor::Randn({2, 5, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulSharedLhsTransBoth) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, true));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_)),
         Param(T::Tensor::Randn({2, 5, 4}, &rng_))});
}

TEST_F(OpGradCheck, BatchedMatMulBothTransNonShared) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(BatchedMatMul(in[0], in[1], true, true));
        },
        {Param(T::Tensor::Randn({2, 4, 3}, &rng_)),
         Param(T::Tensor::Randn({2, 5, 4}, &rng_))});
}

TEST_F(OpGradCheck, SpMMGradFlowsThroughDense) {
  auto adj = T::SparseOp::Create(T::CsrMatrix::FromTriplets(
      3, 3,
      {{0, 1, 0.5f}, {1, 0, 0.25f}, {1, 2, 0.75f}, {2, 2, 1.0f}}));
  Check([adj](const std::vector<Variable>& in) {
          return ToScalar(SpMM(adj, in[0]));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_))});
}

TEST_F(OpGradCheck, SpMMBatched) {
  auto adj = T::SparseOp::Create(T::CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0f}, {0, 1, 0.5f}, {2, 1, 0.3f}}));
  Check([adj](const std::vector<Variable>& in) {
          return ToScalar(SpMM(adj, in[0]));
        },
        {Param(T::Tensor::Randn({2, 3, 2}, &rng_))});
}

TEST_F(OpGradCheck, ReshapeTransposeRoundTrip) {
  Check([](const std::vector<Variable>& in) {
          Variable t = TransposePerm(in[0], {1, 0, 2});
          return ToScalar(Reshape(t, {3, -1}));
        },
        {Param(T::Tensor::Randn({3, 3, 2}, &rng_))});
}

TEST_F(OpGradCheck, ConcatAndSlice) {
  Check([](const std::vector<Variable>& in) {
          Variable c = Concat({in[0], in[1]}, 1);
          return ToScalar(Slice(c, 1, 1, 3));
        },
        {Param(T::Tensor::Randn({2, 2}, &rng_)),
         Param(T::Tensor::Randn({2, 3}, &rng_))});
}

TEST_F(OpGradCheck, EmbeddingLookupRepeatedIndices) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(EmbeddingLookup(in[0], {0, 2, 2, 1}));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_))});
}

TEST_F(OpGradCheck, SumMeanAxes) {
  Check([](const std::vector<Variable>& in) {
          Variable s = Sum(in[0], 0);
          Variable m = Mean(in[0], 1, /*keepdims=*/true);
          return Add(ToScalar(s), ToScalar(m));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_))});
}

TEST_F(OpGradCheck, SumAllMeanAll) {
  Check([](const std::vector<Variable>& in) {
          return Add(SumAll(in[0]), MeanAll(in[0]));
        },
        {Param(T::Tensor::Randn({2, 3}, &rng_))});
}

TEST_F(OpGradCheck, SoftmaxLastAxis) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(SoftmaxLastAxis(in[0]));
        },
        {Param(T::Tensor::Randn({3, 5}, &rng_))});
}

TEST_F(OpGradCheck, MaxPoolAxisDistinctValues) {
  // Distinct values keep the argmax stable under perturbation.
  T::Tensor x({2, 4, 3});
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>((i * 7) % 24) + 0.01f * i;
  }
  Check([](const std::vector<Variable>& in) {
          return ToScalar(MaxPoolAxis(in[0], 1, 2));
        },
        {Param(x)});
}

TEST_F(OpGradCheck, TemporalConvCausalDilated) {
  // Channels-last (B, T, R, Cin); the dilation-2 causal tap at t - 2
  // reaches past step 0 for the first two steps of each item.
  Check([](const std::vector<Variable>& in) {
          return ToScalar(TemporalConv(in[0], in[1], in[2], /*dilation=*/2,
                                       /*pad_left=*/2, /*pad_right=*/0));
        },
        {Param(T::Tensor::Randn({2, 6, 2, 3}, &rng_)),
         Param(T::Tensor::Randn({4, 3, 2}, &rng_)),
         Param(T::Tensor::Randn({4, 1}, &rng_))});
}

TEST_F(OpGradCheck, TemporalConvNonCausal) {
  // Split padding, K = 3, no bias: taps read both the past and the future.
  Check([](const std::vector<Variable>& in) {
          return ToScalar(TemporalConv(in[0], in[1], Variable(),
                                       /*dilation=*/1, /*pad_left=*/1,
                                       /*pad_right=*/1));
        },
        {Param(T::Tensor::Randn({2, 5, 3, 2}, &rng_)),
         Param(T::Tensor::Randn({3, 2, 3}, &rng_))});
}

TEST_F(OpGradCheck, MaximumAwayFromTies) {
  // Keep the operands separated so the subgradient choice is stable under
  // the finite-difference perturbation.
  T::Tensor a = T::Tensor::Randn({3, 4}, &rng_);
  T::Tensor b = T::Tensor::Randn({3, 4}, &rng_);
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) < 0.2f) b.data()[i] += 0.5f;
  }
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Maximum(in[0], in[1]));
        },
        {Param(a), Param(b)});
}

TEST_F(OpGradCheck, ScalarOpsChain) {
  // Covers AddScalar, MulScalar and Neg, which the composite chains above
  // only exercised incidentally.
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Neg(MulScalar(AddScalar(in[0], 1.5f), -0.6f)));
        },
        {Param(T::Tensor::Randn({3, 4}, &rng_))});
}

TEST_F(OpGradCheck, DropoutFixedMask) {
  // A fresh, identically seeded Rng on every evaluation keeps the mask
  // constant, making training-mode dropout a fixed linear map that finite
  // differences can validate.
  Check([](const std::vector<Variable>& in) {
          Rng mask_rng(123);
          return ToScalar(Dropout(in[0], 0.4f, /*training=*/true, &mask_rng));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_))});
}

TEST(DropoutTest, IdentityInEval) {
  Rng rng(3);
  Variable x(T::Tensor::Randn({4, 4}, &rng), true);
  Variable y = Dropout(x, 0.5f, /*training=*/false, &rng);
  EXPECT_TRUE(x.value().SharesStorageWith(y.value()));
}

TEST(DropoutTest, MaskScalesSurvivors) {
  Rng rng(3);
  Variable x(T::Tensor::Ones({1000}), true);
  Variable y = Dropout(x, 0.5f, /*training=*/true, &rng);
  int64_t zeros = 0;
  for (float v : y.value().ToVector()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_GT(zeros, 350);
  EXPECT_LT(zeros, 650);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(5);
  Variable x(T::Tensor::Ones({100}), true);
  Variable y = Dropout(x, 0.3f, true, &rng);
  SumAll(y).Backward();
  for (int64_t i = 0; i < 100; ++i) {
    float out = y.value().data()[i];
    float g = x.grad().data()[i];
    EXPECT_FLOAT_EQ(g, out);  // both equal the mask value for x = 1
  }
}

TEST(SpMMTest, ForwardMatchesDense) {
  Rng rng(9);
  auto csr = T::CsrMatrix::FromTriplets(
      4, 3, {{0, 0, 2.0f}, {1, 2, -1.0f}, {3, 1, 0.5f}, {3, 2, 1.5f}});
  T::Tensor x = T::Tensor::Randn({3, 5}, &rng);
  T::Tensor dense = csr.ToDense();
  T::Tensor want = T::MatMul(dense, x);
  T::Tensor got = T::SpMM(csr, x);
  EXPECT_TENSOR_NEAR(got, want, 1e-5f);
}

// ---------------------------------------------------------------------------
// Grad-free inference mode.
// ---------------------------------------------------------------------------

TEST(InferenceModeTest, OpsProduceTapelessLeaves) {
  Rng rng(11);
  Variable w = Param(T::Tensor::Randn({4, 4}, &rng));
  Variable x(T::Tensor::Randn({4, 4}, &rng));
  InferenceModeGuard guard;
  ASSERT_TRUE(InferenceModeEnabled());
  Variable y = Relu(MatMul(x, w));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(static_cast<bool>(y.node()->backward));
}

TEST(InferenceModeTest, GuardNestsAndRestores) {
  EXPECT_FALSE(InferenceModeEnabled());
  {
    InferenceModeGuard outer;
    EXPECT_TRUE(InferenceModeEnabled());
    {
      InferenceModeGuard inner;
      EXPECT_TRUE(InferenceModeEnabled());
    }
    EXPECT_TRUE(InferenceModeEnabled());
  }
  EXPECT_FALSE(InferenceModeEnabled());
}

TEST(InferenceModeTest, ValuesBitIdenticalToTapedOps) {
  Rng rng(12);
  Variable w = Param(T::Tensor::Randn({6, 6}, &rng));
  Variable g = Param(T::Tensor::Ones({6}));
  Variable b = Param(T::Tensor::Zeros({6}));
  T::Tensor input = T::Tensor::Randn({5, 6}, &rng);
  auto chain = [&](const Variable& x) {
    Variable h = Tanh(MatMul(x, w));
    h = LayerNormLastAxis(h, g, b, 1e-5f);
    return Add(Relu(h), Sigmoid(h));
  };
  T::Tensor taped = chain(Variable(input)).value();
  InferenceModeGuard guard;
  T::Tensor grad_free = chain(Variable(input)).value();
  EXPECT_TENSOR_EQ(grad_free, taped);
}

TEST(InferenceModeTest, InPlaceSkippedWhenStorageShared) {
  // A Reshape view shares storage with its source; consuming the view
  // with an rvalue op must not clobber the source.
  T::Tensor base = T::Tensor::Full({2, 3}, 2.0f);
  InferenceModeGuard guard;
  Variable x(base);
  Variable view = Reshape(x, {6});
  Variable y = Tanh(std::move(view));
  for (int64_t i = 0; i < base.numel(); ++i) {
    EXPECT_FLOAT_EQ(base.data()[i], 2.0f);
  }
  EXPECT_FLOAT_EQ(y.value().data()[0], std::tanh(2.0f));
}

TEST(InferenceModeDeathTest, BackwardUnderGuardAborts) {
  Variable x = Param(T::Tensor::Scalar(2.0f));
  Variable y = MulScalar(x, 3.0f);  // taped before the guard
  EXPECT_DEATH(
      {
        InferenceModeGuard guard;
        y.Backward();
      },
      "InferenceModeGuard");
}

TEST_F(OpGradCheck, LayerNormLastAxis) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(LayerNormLastAxis(in[0], in[1], in[2], 1e-3f));
        },
        {Param(T::Tensor::Randn({3, 5}, &rng_)),
         Param(T::Tensor::Uniform({5}, &rng_, 0.5f, 1.5f)),
         Param(T::Tensor::Randn({5}, &rng_, 0.2f))});
}

TEST_F(OpGradCheck, LayerNormLastAxisBatched3D) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(LayerNormLastAxis(in[0], in[1], in[2], 1e-3f));
        },
        {Param(T::Tensor::Randn({2, 3, 4}, &rng_)),
         Param(T::Tensor::Uniform({4}, &rng_, 0.5f, 1.5f)),
         Param(T::Tensor::Randn({4}, &rng_, 0.2f))});
}

TEST_F(OpGradCheck, AffineFusedBias) {
  Check([](const std::vector<Variable>& in) {
          return ToScalar(Affine(in[0], in[1], in[2]));
        },
        {Param(T::Tensor::Randn({4, 3}, &rng_)),
         Param(T::Tensor::Randn({3, 5}, &rng_)),
         Param(T::Tensor::Randn({5}, &rng_))});
}

TEST(AffineTest, MatchesMatMulPlusBias) {
  Rng rng(13);
  T::Tensor x = T::Tensor::Randn({7, 4}, &rng);
  T::Tensor w = T::Tensor::Randn({4, 6}, &rng);
  T::Tensor b = T::Tensor::Randn({6}, &rng);
  T::Tensor fused = Affine(Variable(x), Variable(w), Variable(b)).value();
  T::Tensor chain =
      Add(MatMul(Variable(x), Variable(w)), Variable(b)).value();
  EXPECT_TENSOR_EQ(fused, chain);
}

TEST(AffineTest, MultiPanelKBitIdenticalToMatMulPlusAdd) {
  // k = 300 spans two GEMM K panels (kKc = 240). The bias joins in the
  // write-back after the last panel, so Affine is bit-identical to the
  // MatMul+Add chain at any k, and taped vs grad-free Affine (same
  // kernel) agree exactly.
  Rng rng(14);
  T::Tensor x = T::Tensor::Randn({5, 300}, &rng, 0.1f);
  T::Tensor w = T::Tensor::Randn({300, 6}, &rng, 0.1f);
  T::Tensor b = T::Tensor::Randn({6}, &rng);
  T::Tensor fused = Affine(Variable(x), Variable(w), Variable(b)).value();
  T::Tensor chain =
      Add(MatMul(Variable(x), Variable(w)), Variable(b)).value();
  EXPECT_TENSOR_EQ(fused, chain);
  InferenceModeGuard guard;
  T::Tensor grad_free =
      Affine(Variable(x), Variable(w), Variable(b)).value();
  EXPECT_TENSOR_EQ(grad_free, fused);
}

TEST(LayerNormOpTest, MatchesUnfusedChain) {
  Rng rng(14);
  Variable x(T::Tensor::Randn({4, 8}, &rng));
  Variable g(T::Tensor::Uniform({8}, &rng, 0.5f, 1.5f));
  Variable b(T::Tensor::Randn({8}, &rng, 0.3f));
  T::Tensor fused = LayerNormLastAxis(x, g, b, 1e-5f).value();
  // The pre-fusion composition.
  Variable mu = Mean(x, -1, /*keepdims=*/true);
  Variable centered = Sub(x, mu);
  Variable var = Mean(Mul(centered, centered), -1, /*keepdims=*/true);
  T::Tensor inv_std = var.value().Clone();
  for (int64_t i = 0; i < inv_std.numel(); ++i) {
    inv_std.data()[i] = 1.0f / std::sqrt(inv_std.data()[i] + 1e-5f);
  }
  Variable normed = Mul(centered, Variable(inv_std));
  T::Tensor chain = Add(Mul(normed, g), b).value();
  EXPECT_TENSOR_NEAR(fused, chain, 1e-6f);
}

}  // namespace
}  // namespace dyhsl::autograd
