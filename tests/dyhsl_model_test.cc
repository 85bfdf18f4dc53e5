// Tests for the DyHSL model: block semantics, shapes, gradient flow,
// ablation switches, and end-to-end training on a tiny dataset.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/graph/temporal_graph.h"
#include "src/models/blocks.h"
#include "src/models/dyhsl.h"
#include "src/tensor/ops.h"
#include "src/train/trainer.h"
#include "tests/testing_utils.h"

namespace dyhsl::models {
namespace {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

data::DatasetSpec TinySpec() {
  data::DatasetSpec spec = data::DatasetSpec::Pems08Like(0.1, 2, /*seed=*/5);
  return spec;
}

class DyHslModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = std::make_unique<data::TrafficDataset>(
        data::TrafficDataset::Generate(TinySpec()));
    task_ = train::ForecastTask::FromDataset(*dataset_);
    config_.hidden_dim = 16;
    config_.prior_layers = 2;
    config_.mhce_layers = 1;
    config_.num_hyperedges = 8;
    config_.window_sizes = {1, 3, 12};
    config_.dropout = 0.0f;
  }

  tensor::Tensor MakeBatch(int64_t b) const {
    data::BatchIterator it(dataset_.get(), {0, b}, b, false, 1);
    data::BatchIterator::Batch batch;
    EXPECT_TRUE(it.Next(&batch));
    return batch.x;
  }

  std::unique_ptr<data::TrafficDataset> dataset_;
  train::ForecastTask task_;
  DyHslConfig config_;
};

TEST_F(DyHslModelTest, ForwardShape) {
  DyHsl model(task_, config_);
  tensor::Tensor x = MakeBatch(3);
  ag::Variable y = model.Forward(x, /*training=*/false);
  EXPECT_EQ(y.shape(), (T::Shape{3, task_.horizon, task_.num_nodes}));
}

TEST_F(DyHslModelTest, OutputIsRawScale) {
  DyHsl model(task_, config_);
  tensor::Tensor x = MakeBatch(2);
  ag::Variable y = model.Forward(x, false);
  // Raw flow is O(100); an untrained head outputs near the scaler mean.
  float mean = T::SumAllScalar(y.value()) / y.value().numel();
  EXPECT_NEAR(mean, task_.scaler_mean, 3.0f * task_.scaler_std);
}

TEST_F(DyHslModelTest, GradientsReachAllParameters) {
  DyHsl model(task_, config_);
  tensor::Tensor x = MakeBatch(2);
  ag::Variable y = model.Forward(x, /*training=*/true);
  ag::MeanAll(y).Backward();
  int64_t with_grad = 0, total = 0;
  for (const auto& p : model.Parameters()) {
    ++total;
    if (p.has_grad()) ++with_grad;
  }
  EXPECT_EQ(with_grad, total);
}

TEST_F(DyHslModelTest, DeterministicForwardInEval) {
  DyHsl model(task_, config_);
  tensor::Tensor x = MakeBatch(2);
  T::Tensor y1 = model.Forward(x, false).value();
  T::Tensor y2 = model.Forward(x, false).value();
  EXPECT_TENSOR_EQ(y1, y2);
}

TEST_F(DyHslModelTest, GradFreeForwardBitIdenticalToTaped) {
  // The grad-free path fuses every block's elementwise steps into GEMM
  // write-backs; the taped path runs them op by op. Checked for the paper
  // method and every Table V/VI ablation.
  DyHslConfig nsl = config_;
  nsl.structure_learning = StructureLearning::kFixedRandom;
  DyHslConfig fs = config_;
  fs.structure_learning = StructureLearning::kFromScratch;
  DyHslConfig no_igc = config_;
  no_igc.use_igc = false;
  T::Tensor x = MakeBatch(3);
  Rng rng(3);
  for (const DyHslConfig& config : {config_, nsl, fs, no_igc}) {
    DyHsl model(task_, config);
    // Biases and norm gains start at 0 and 1; give them values a fused
    // bias step could get wrong.
    for (ag::Variable& p : model.Parameters()) {
      if (p.dim() != 1) continue;
      T::Tensor noise = T::Tensor::Randn(p.shape(), &rng, 0.5f);
      std::copy(noise.data(), noise.data() + noise.numel(),
                p.mutable_value()->data());
    }
    T::Tensor taped = model.Forward(x, /*training=*/false).value();
    ag::InferenceModeGuard no_grad;
    T::Tensor grad_free = model.Forward(x, /*training=*/false).value();
    EXPECT_TENSOR_EQ(grad_free, taped)
        << "structure " << static_cast<int>(config.structure_learning)
        << " use_igc " << config.use_igc;
  }
}

TEST_F(DyHslModelTest, IncidenceShapeMatchesEq6) {
  DyHsl model(task_, config_);
  tensor::Tensor x = MakeBatch(2);
  T::Tensor inc = model.IncidenceFor(x);
  EXPECT_EQ(inc.shape(),
            (T::Shape{2, task_.history * task_.num_nodes,
                      config_.num_hyperedges}));
}

TEST_F(DyHslModelTest, ScaleWeightsSoftmaxNormalized) {
  DyHsl model(task_, config_);
  std::vector<float> w = model.ScaleWeights();
  ASSERT_EQ(w.size(), config_.window_sizes.size());
  float sum = 0.0f;
  for (float v : w) {
    EXPECT_GT(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST_F(DyHslModelTest, AblationNslHasFewerTrainableParams) {
  DyHslConfig nsl = config_;
  nsl.structure_learning = StructureLearning::kFixedRandom;
  DyHsl full(task_, config_);
  DyHsl ablated(task_, nsl);
  // NSL freezes the incidence weight (d x I fewer trainable parameters).
  EXPECT_EQ(full.ParameterCount() - ablated.ParameterCount(),
            config_.hidden_dim * config_.num_hyperedges);
}

TEST_F(DyHslModelTest, AblationFromScratchExplodesParamCount) {
  DyHslConfig fs = config_;
  fs.structure_learning = StructureLearning::kFromScratch;
  DyHsl full(task_, config_);
  DyHsl scratch(task_, fs);
  // FS learns dense (R x R) adjacencies -> far more parameters (Table V's
  // point about the low-rank design).
  EXPECT_GT(scratch.ParameterCount(), 2 * full.ParameterCount());
}

TEST_F(DyHslModelTest, AblationVariantsForwardCleanly) {
  for (StructureLearning mode :
       {StructureLearning::kLowRank, StructureLearning::kFixedRandom,
        StructureLearning::kFromScratch}) {
    DyHslConfig cfg = config_;
    cfg.structure_learning = mode;
    DyHsl model(task_, cfg);
    tensor::Tensor x = MakeBatch(2);
    ag::Variable y = model.Forward(x, true);
    EXPECT_EQ(y.size(0), 2);
    for (float v : y.value().ToVector()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST_F(DyHslModelTest, NoIgcVariantRunsAndShrinksGraph) {
  DyHslConfig cfg = config_;
  cfg.use_igc = false;
  DyHsl model(task_, cfg);
  tensor::Tensor x = MakeBatch(2);
  ag::Variable y = model.Forward(x, true);
  ag::MeanAll(y).Backward();
  // IGC projections exist but receive no gradient when the block is off.
  int64_t untouched = 0;
  for (const auto& p : model.Parameters()) {
    if (!p.has_grad()) ++untouched;
  }
  EXPECT_GT(untouched, 0);
}

TEST_F(DyHslModelTest, SingleScaleConfig) {
  DyHslConfig cfg = config_;
  cfg.window_sizes = {1};
  DyHsl model(task_, cfg);
  tensor::Tensor x = MakeBatch(2);
  EXPECT_EQ(model.Forward(x, false).size(1), task_.horizon);
}

using DyHslModelDeathTest = DyHslModelTest;

TEST_F(DyHslModelDeathTest, RejectsNonDividingWindowSize) {
  DyHslConfig cfg = config_;
  cfg.window_sizes = {1, 5};  // history is 12; 5 does not divide it
  EXPECT_DEATH(DyHsl(task_, cfg), "must divide the history length");
}

TEST_F(DyHslModelDeathTest, RejectsZeroWindowSize) {
  // Regression: a zero window used to hit `history % 0` (UB) before any
  // validation fired.
  DyHslConfig cfg = config_;
  cfg.window_sizes = {1, 0};
  EXPECT_DEATH(DyHsl(task_, cfg), "window sizes must be positive");
}

TEST_F(DyHslModelDeathTest, RejectsNegativeWindowSize) {
  DyHslConfig cfg = config_;
  cfg.window_sizes = {-3};
  EXPECT_DEATH(DyHsl(task_, cfg), "window sizes must be positive");
}

TEST(DhslBlockTest, OutputShapeAndFiniteness) {
  Rng rng(3);
  DhslBlock block(8, 4, &rng);
  ag::Variable h(T::Tensor::Randn({2, 12, 8}, &rng), true);
  ag::Variable f = block.Forward(h);
  EXPECT_EQ(f.shape(), (T::Shape{2, 12, 8}));
  ag::Variable inc = block.Incidence(h);
  EXPECT_EQ(inc.shape(), (T::Shape{2, 12, 4}));
  ag::MeanAll(f).Backward();
  EXPECT_TRUE(h.has_grad());
}

TEST(DhslBlockTest, HyperedgeMixingIsGlobal) {
  // A change in one node's features must reach every node connected through
  // the dense learned incidence (non-pairwise propagation).
  Rng rng(4);
  DhslBlock block(4, 3, &rng);
  T::Tensor base = T::Tensor::Randn({1, 6, 4}, &rng);
  T::Tensor bumped = base.Clone();
  bumped.data()[0] += 1.0f;  // perturb node 0
  T::Tensor f0 = block.Forward(ag::Variable(base)).value();
  T::Tensor f1 = block.Forward(ag::Variable(bumped)).value();
  // Node 5 (last row) output changes although it is "far" from node 0.
  float delta = 0.0f;
  for (int64_t c = 0; c < 4; ++c) {
    delta += std::fabs(f1.At({0, 5, c}) - f0.At({0, 5, c}));
  }
  EXPECT_GT(delta, 1e-6f);
}

TEST(IgcBlockTest, InteractionIsSecondOrder) {
  // Doubling the input must scale the linear path by ~2 but the
  // interaction path by ~4 pre-activation; outputs must differ from a
  // purely linear response.
  Rng rng(5);
  IgcBlock block(4, &rng);
  auto adj = T::SparseOp::Create(
      graph::BuildTemporalGraph(
          T::CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0f}, {1, 1, 1.0f}}), 3)
          .RowNormalized());
  T::Tensor x = T::Tensor::Randn({1, 6, 4}, &rng, 0.1f);
  T::Tensor x2 = x.Clone();
  T::ScaleInPlace(&x2, 2.0f);
  T::Tensor y1 = block.Forward(adj, ag::Variable(x)).value();
  T::Tensor y2 = block.Forward(adj, ag::Variable(x2)).value();
  // If the block were linear, y2 == 2*y1 exactly.
  T::Tensor doubled = y1.Clone();
  T::ScaleInPlace(&doubled, 2.0f);
  EXPECT_GT(dyhsl::testing::MaxAbsDiff(y2, doubled), 1e-4f);
}

TEST(PriorGraphEncoderTest, EncodesJointSpatioTemporal) {
  Rng rng(6);
  auto spatial = T::CsrMatrix::FromTriplets(
      3, 3, {{0, 1, 1.0f}, {1, 0, 1.0f}, {1, 2, 1.0f}, {2, 1, 1.0f}});
  auto op = graph::BuildNormalizedTemporalOp(spatial, 4);
  PriorGraphEncoder enc(3, 4, 2, 8, 2, op, &rng);
  ag::Variable x(T::Tensor::Randn({2, 4, 3, 2}, &rng));
  ag::Variable h = enc.Forward(x);
  EXPECT_EQ(h.shape(), (T::Shape{2, 12, 8}));
  // Perturbing sensor 0 at t=0 must affect sensor 1 at t=1: one spatial
  // hop plus one temporal hop, within reach of the 2 conv layers.
  T::Tensor base = T::Tensor::Randn({1, 4, 3, 2}, &rng);
  T::Tensor bumped = base.Clone();
  bumped.data()[0] += 3.0f;
  T::Tensor h0 = enc.Forward(ag::Variable(base)).value();
  T::Tensor h1 = enc.Forward(ag::Variable(bumped)).value();
  int64_t far_row = graph::TemporalNodeIndex(1, 1, 3);
  float delta = 0.0f;
  for (int64_t c = 0; c < 8; ++c) {
    delta += std::fabs(h1.At({0, far_row, c}) - h0.At({0, far_row, c}));
  }
  EXPECT_GT(delta, 1e-6f);
}

TEST(DyHslTrainingTest, LossDecreasesOnTinyDataset) {
  data::TrafficDataset dataset =
      data::TrafficDataset::Generate(TinySpec());
  train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  DyHslConfig config;
  config.hidden_dim = 12;
  config.prior_layers = 1;
  config.mhce_layers = 1;
  config.num_hyperedges = 4;
  config.window_sizes = {1, 12};
  config.dropout = 0.0f;
  DyHsl model(task, config);

  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  tc.max_batches_per_epoch = 10;
  tc.learning_rate = 2e-3f;
  train::TrainResult result = train::TrainModel(&model, dataset, tc);
  ASSERT_EQ(result.epochs_run, 3);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front() * 0.8)
      << "first " << result.epoch_losses.front() << " last "
      << result.epoch_losses.back();
}

TEST(DyHslTrainingTest, EvaluateBeatsNaiveMeanAfterTraining) {
  data::TrafficDataset dataset =
      data::TrafficDataset::Generate(TinySpec());
  train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  DyHslConfig config;
  config.hidden_dim = 12;
  config.prior_layers = 1;
  config.mhce_layers = 1;
  config.num_hyperedges = 4;
  config.window_sizes = {1, 12};
  config.dropout = 0.0f;
  DyHsl model(task, config);
  train::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 8;
  tc.max_batches_per_epoch = 12;
  tc.learning_rate = 2e-3f;
  train::TrainModel(&model, dataset, tc);
  train::EvalResult eval = train::EvaluateModel(
      &model, dataset, dataset.test_range(), 8, /*max_batches=*/6);
  // Naive baseline: predict the global mean everywhere.
  data::BatchIterator it(&dataset, dataset.test_range(), 8, false, 1);
  data::BatchIterator::Batch batch;
  metrics::MetricAccumulator naive;
  int64_t batches = 0;
  while (it.Next(&batch) && batches < 6) {
    T::Tensor constant = T::Tensor::Full(batch.y.shape(), task.scaler_mean);
    naive.Add(constant, batch.y);
    ++batches;
  }
  EXPECT_LT(eval.overall.mae, naive.Mae());
  EXPECT_EQ(eval.per_horizon.size(), static_cast<size_t>(dataset.horizon()));
}

}  // namespace
}  // namespace dyhsl::models
