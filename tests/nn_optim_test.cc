// Tests for nn layers (shape/grad behaviour) and optimizers (convergence on
// closed-form problems).

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/gradcheck.h"
#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/nn/init.h"
#include "src/nn/layers.h"
#include "src/nn/module.h"
#include "src/optim/optimizer.h"
#include "tests/testing_utils.h"
#include "src/tensor/ops.h"

namespace dyhsl::nn {
namespace {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

TEST(InitTest, GlorotBounds) {
  Rng rng(1);
  T::Tensor w = GlorotUniform2D(100, 50, &rng);
  float bound = std::sqrt(6.0f / 150.0f);
  for (float v : w.ToVector()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(LinearTest, ShapeAnyRank) {
  Rng rng(2);
  Linear lin(5, 3, &rng);
  ag::Variable x2(T::Tensor::Randn({7, 5}, &rng));
  EXPECT_EQ(lin.Forward(x2).shape(), (T::Shape{7, 3}));
  ag::Variable x3(T::Tensor::Randn({2, 7, 5}, &rng));
  EXPECT_EQ(lin.Forward(x3).shape(), (T::Shape{2, 7, 3}));
  ag::Variable x4(T::Tensor::Randn({2, 3, 7, 5}, &rng));
  EXPECT_EQ(lin.Forward(x4).shape(), (T::Shape{2, 3, 7, 3}));
}

TEST(LinearTest, GradReachesParameters) {
  Rng rng(3);
  Linear lin(4, 2, &rng);
  ag::Variable x(T::Tensor::Randn({3, 4}, &rng));
  ag::SumAll(lin.Forward(x)).Backward();
  for (const auto& p : lin.Parameters()) {
    EXPECT_TRUE(p.has_grad());
  }
}

TEST(LinearTest, ParameterCount) {
  Rng rng(4);
  Linear with_bias(4, 3, &rng, true);
  Linear no_bias(4, 3, &rng, false);
  EXPECT_EQ(with_bias.ParameterCount(), 4 * 3 + 3);
  EXPECT_EQ(no_bias.ParameterCount(), 4 * 3);
}

TEST(ModuleTest, NamedParametersNested) {
  Rng rng(5);
  GruCell cell(3, 4, &rng);
  auto named = cell.NamedParameters();
  ASSERT_FALSE(named.empty());
  bool found = false;
  for (const auto& [name, p] : named) {
    if (name == "x_gates.weight") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EmbeddingTest, LookupRows) {
  Rng rng(6);
  Embedding emb(10, 4, &rng);
  ag::Variable rows = emb.Forward({1, 1, 7});
  EXPECT_EQ(rows.shape(), (T::Shape{3, 4}));
  // Rows 0 and 1 are the same embedding.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.value().At({0, c}), rows.value().At({1, c}));
  }
}

TEST(LayerNormTest, NormalizesLastAxis) {
  Rng rng(7);
  LayerNorm norm(6);
  ag::Variable x(T::Tensor::Randn({4, 6}, &rng, 5.0f));
  ag::Variable y = norm.Forward(x);
  for (int64_t r = 0; r < 4; ++r) {
    float mean = 0.0f, var = 0.0f;
    for (int64_t c = 0; c < 6; ++c) mean += y.value().At({r, c});
    mean /= 6.0f;
    for (int64_t c = 0; c < 6; ++c) {
      float d = y.value().At({r, c}) - mean;
      var += d * d;
    }
    var /= 6.0f;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(LayerNormTest, GradCheck) {
  Rng rng(8);
  LayerNorm norm(4);
  auto report = ag::GradCheck(
      [&norm](const std::vector<ag::Variable>& in) {
        ag::Variable y = norm.Forward(in[0]);
        return ag::MeanAll(ag::Mul(y, y));
      },
      {ag::Variable(T::Tensor::Randn({3, 4}, &rng), true)});
  EXPECT_TRUE(report.ok) << report.max_rel_error;
}

TEST(GruCellTest, StepKeepsShapeAndDiffers) {
  Rng rng(9);
  GruCell cell(3, 5, &rng);
  ag::Variable x(T::Tensor::Randn({2, 3}, &rng));
  ag::Variable h(T::Tensor::Zeros({2, 5}));
  ag::Variable h1 = cell.Forward(x, h);
  EXPECT_EQ(h1.shape(), (T::Shape{2, 5}));
  float sum = T::SumAllScalar(T::Abs(h1.value()));
  EXPECT_GT(sum, 0.0f);
}

TEST(GruCellTest, GradFlowsThroughTime) {
  Rng rng(10);
  GruCell cell(2, 3, &rng);
  ag::Variable x0(T::Tensor::Randn({1, 2}, &rng), true);
  ag::Variable h(T::Tensor::Zeros({1, 3}));
  ag::Variable state = cell.Forward(x0, h);
  for (int step = 0; step < 3; ++step) {
    ag::Variable xt(T::Tensor::Randn({1, 2}, &rng));
    state = cell.Forward(xt, state);
  }
  ag::SumAll(state).Backward();
  EXPECT_TRUE(x0.has_grad());
  float gnorm = T::SumAllScalar(T::Abs(x0.grad()));
  EXPECT_GT(gnorm, 0.0f);
}

TEST(LstmCellTest, StateShapes) {
  Rng rng(11);
  LstmCell cell(3, 4, &rng);
  auto state = cell.InitialState(2);
  ag::Variable x(T::Tensor::Randn({2, 3}, &rng));
  auto next = cell.Forward(x, state);
  EXPECT_EQ(next.h.shape(), (T::Shape{2, 4}));
  EXPECT_EQ(next.c.shape(), (T::Shape{2, 4}));
}

TEST(Conv1dLayerTest, CausalPreservesLength) {
  Rng rng(12);
  Conv1dLayer conv(2, 4, 3, &rng, /*dilation=*/2, /*causal=*/true);
  ag::Variable x(T::Tensor::Randn({3, 12, 5, 2}, &rng));  // (B, T, R, Cin)
  EXPECT_EQ(conv.Forward(x).shape(), (T::Shape{3, 12, 5, 4}));
  Conv1dLayer split(2, 4, 2, &rng, /*dilation=*/8, /*causal=*/false);
  EXPECT_EQ(split.Forward(x).shape(), (T::Shape{3, 12, 5, 4}));
}

TEST(Conv1dLayerTest, CausalityNoFutureLeak) {
  Rng rng(13);
  Conv1dLayer conv(1, 1, 3, &rng, 1, /*causal=*/true);
  T::Tensor base = T::Tensor::Randn({1, 8, 1, 1}, &rng);
  T::Tensor perturbed = base.Clone();
  perturbed.data()[7] += 10.0f;  // change only the last step
  T::Tensor y0 = conv.Forward(ag::Variable(base)).value();
  T::Tensor y1 = conv.Forward(ag::Variable(perturbed)).value();
  for (int64_t t = 0; t < 7; ++t) {
    EXPECT_FLOAT_EQ(y0.At({0, t, 0, 0}), y1.At({0, t, 0, 0}));
  }
}

TEST(Conv1dLayerTest, CheckpointShapesUnchanged) {
  // Parameter names and shapes are the checkpoint format.
  Rng rng(15);
  Conv1dLayer conv(3, 8, 2, &rng);
  auto params = conv.NamedParameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].first, "weight");
  EXPECT_EQ(params[0].second.shape(), (T::Shape{8, 3, 2}));
  EXPECT_EQ(params[1].first, "bias");
  EXPECT_EQ(params[1].second.shape(), (T::Shape{8, 1}));
}

TEST(Conv1dLayerTest, ChannelHalvesMatchFullOutput) {
  // A GLU half convolves with its slice of the weight and bias: exactly
  // the matching channels of the full output, taped or grad-free.
  Rng rng(16);
  Conv1dLayer conv(4, 6, 3, &rng, /*dilation=*/2, /*causal=*/true);
  ag::Variable bias = conv.NamedParameters()[1].second;
  bias.mutable_value()->CopyDataFrom(T::Tensor::Randn({6, 1}, &rng));
  ag::Variable x(T::Tensor::Randn({2, 7, 5, 4}, &rng));
  T::Tensor full = conv.Forward(x).value();
  for (int64_t begin : {0, 3}) {
    T::Tensor half = conv.ForwardChannels(x, begin, 3).value();
    EXPECT_TENSOR_EQ(half, T::Slice(full, 3, begin, 3));
    ag::InferenceModeGuard no_grad;
    EXPECT_TENSOR_EQ(conv.ForwardChannels(x, begin, 3).value(), half);
  }
}

TEST(DiffusionConvTest, ShapesAndParams) {
  Rng rng(15);
  auto fw = T::SparseOp::Create(T::CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 0.9f}, {1, 2, 0.8f}}));
  auto bw = T::SparseOp::Create(fw->forward.Transposed());
  DiffusionConv conv(4, 6, /*steps=*/2, &rng);
  ag::Variable x(T::Tensor::Randn({3, 4}, &rng));
  EXPECT_EQ(conv.Forward(fw, bw, x).shape(), (T::Shape{3, 6}));
  // k=0 proj + 2 forward + 2 backward projections.
  EXPECT_EQ(conv.ParameterCount(), (4 * 6 + 6) + 4 * (4 * 6));
}

TEST(AdamTest, ConvergesOnLeastSquares) {
  Rng rng(16);
  // Recover planted weights from noiseless linear data.
  T::Tensor w_true = T::Tensor::FromVector({3, 1}, {1.0f, -2.0f, 0.5f});
  T::Tensor x = T::Tensor::Randn({64, 3}, &rng);
  T::Tensor y = T::MatMul(x, w_true);
  ag::Variable w(T::Tensor::Zeros({3, 1}), true);
  optim::Adam adam({w}, /*lr=*/0.05f);
  for (int i = 0; i < 400; ++i) {
    adam.ZeroGrad();
    ag::Variable pred = ag::MatMul(ag::Variable(x), w);
    ag::Variable diff = ag::Sub(pred, ag::Variable(y));
    ag::MeanAll(ag::Mul(diff, diff)).Backward();
    adam.Step();
  }
  EXPECT_TENSOR_NEAR(w.value(), w_true, 5e-2f);
}

TEST(AdamTest, WeightDecayShrinksUnusedWeight) {
  ag::Variable w(T::Tensor::Scalar(5.0f), true);
  optim::Adam adam({w}, 0.01f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 50; ++i) {
    adam.ZeroGrad();
    // Loss gradient is 0; only decay acts.
    ag::MulScalar(w, 0.0f).Backward();
    adam.Step();
  }
  EXPECT_LT(std::fabs(w.value().data()[0]), 5.0f);
}

TEST(ClipGradNormTest, ScalesLargeGradients) {
  ag::Variable w(T::Tensor::FromVector({2}, {1.0f, 1.0f}), true);
  ag::MulScalar(ag::SumAll(ag::Mul(w, w)), 50.0f).Backward();
  float before = optim::ClipGradNorm({w}, 1.0f);
  EXPECT_GT(before, 1.0f);
  double total = 0.0;
  for (int64_t i = 0; i < 2; ++i) {
    total += static_cast<double>(w.grad().data()[i]) * w.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-4);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  ag::Variable w(T::Tensor::Scalar(1.0f), true);
  ag::MulScalar(w, 0.5f).Backward();
  optim::ClipGradNorm({w}, 10.0f);
  EXPECT_FLOAT_EQ(w.grad().data()[0], 0.5f);
}

}  // namespace
}  // namespace dyhsl::nn
