// Baseline zoo tests.
//
// The parameterized suite sweeps every neural model in the registry through
// the same battery (shape, finiteness, gradient flow, determinism, one
// optimization step reduces loss); classical models get analytic checks.

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/baselines/classical.h"
#include "src/baselines/gnn_models.h"
#include "src/data/dataset.h"
#include "src/hypergraph/hypergraph.h"
#include "src/optim/optimizer.h"
#include "src/tensor/ops.h"
#include "src/train/model_zoo.h"
#include "src/train/trainer.h"
#include "tests/testing_utils.h"

namespace dyhsl::train {
namespace {

namespace T = ::dyhsl::tensor;
namespace ag = ::dyhsl::autograd;

// One small dataset shared by every test in this file.
const data::TrafficDataset& SharedDataset() {
  static const data::TrafficDataset* dataset = [] {
    data::DatasetSpec spec = data::DatasetSpec::Pems08Like(0.1, 2, 5);
    return new data::TrafficDataset(data::TrafficDataset::Generate(spec));
  }();
  return *dataset;
}

tensor::Tensor SharedBatchX(int64_t b) {
  data::BatchIterator it(&SharedDataset(), {0, b}, b, false, 1);
  data::BatchIterator::Batch batch;
  EXPECT_TRUE(it.Next(&batch));
  return batch.x;
}

tensor::Tensor SharedBatchY(int64_t b) {
  data::BatchIterator it(&SharedDataset(), {0, b}, b, false, 1);
  data::BatchIterator::Batch batch;
  EXPECT_TRUE(it.Next(&batch));
  return batch.y;
}

class NeuralZooTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ForecastModel> MakeModel() {
    ZooConfig cfg;
    cfg.hidden_dim = 8;
    cfg.seed = 13;
    return MakeNeuralModel(GetParam(),
                           ForecastTask::FromDataset(SharedDataset()), cfg);
  }
};

TEST_P(NeuralZooTest, ForwardShapeAndFinite) {
  auto model = MakeModel();
  tensor::Tensor x = SharedBatchX(2);
  ag::Variable y = model->Forward(x, /*training=*/false);
  const auto& ds = SharedDataset();
  EXPECT_EQ(y.shape(), (T::Shape{2, ds.horizon(), ds.num_nodes()}));
  for (float v : y.value().ToVector()) {
    ASSERT_TRUE(std::isfinite(v)) << model->name();
  }
}

TEST_P(NeuralZooTest, GradientReachesSomeParameters) {
  auto model = MakeModel();
  tensor::Tensor x = SharedBatchX(2);
  ag::Variable y = model->Forward(x, /*training=*/true);
  ag::MeanAll(y).Backward();
  int64_t with_grad = 0;
  for (const auto& p : model->Parameters()) {
    if (p.has_grad()) ++with_grad;
  }
  EXPECT_GT(with_grad, 0) << model->name();
  // The vast majority of parameters must participate.
  EXPECT_GE(with_grad * 10,
            static_cast<int64_t>(model->Parameters().size()) * 9)
      << model->name();
}

TEST_P(NeuralZooTest, DeterministicEvalForward) {
  auto model = MakeModel();
  tensor::Tensor x = SharedBatchX(2);
  T::Tensor y1 = model->Forward(x, false).value();
  T::Tensor y2 = model->Forward(x, false).value();
  EXPECT_TRUE(dyhsl::testing::TensorEq(y1, y2)) << model->name();
}

TEST_P(NeuralZooTest, GradFreeForwardBitIdenticalToTaped) {
  // Inference mode (no tape, in-place fast paths) must not change a
  // single output bit for any model in the zoo.
  auto model = MakeModel();
  tensor::Tensor x = SharedBatchX(2);
  T::Tensor taped = model->Forward(x, false).value();
  ag::InferenceModeGuard no_grad;
  T::Tensor grad_free = model->Forward(x, false).value();
  EXPECT_TRUE(dyhsl::testing::TensorEq(grad_free, taped)) << model->name();
}

TEST_P(NeuralZooTest, OneAdamStepReducesLoss) {
  auto model = MakeModel();
  tensor::Tensor x = SharedBatchX(4);
  tensor::Tensor y = SharedBatchY(4);
  optim::Adam adam(model->Parameters(), 5e-3f);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 6; ++step) {
    adam.ZeroGrad();
    ag::Variable loss = MaskedMaeLoss(model->Forward(x, true), y);
    if (step == 0) first_loss = loss.value().data()[0];
    last_loss = loss.value().data()[0];
    loss.Backward();
    optim::ClipGradNorm(adam.params(), 5.0f);
    adam.Step();
  }
  EXPECT_LT(last_loss, first_loss) << model->name();
}

TEST_P(NeuralZooTest, ForecastIndependentOfBatchMates) {
  // A window's forecast is a function of that window alone: its B=1
  // forecast equals its row in a batch of other windows, bit for bit,
  // taped and grad-free. The windows overlap in time, as consecutive
  // evaluation windows do, so a model that pools anything across the
  // batch sees another window's future.
  auto model = MakeModel();
  const auto& ds = SharedDataset();
  constexpr int64_t kBatch = 5;
  std::vector<T::Tensor> windows;
  for (int64_t k = 0; k < kBatch; ++k) {
    windows.push_back(ds.MakeInput(ds.test_range().begin + 7 * k));
  }
  const T::Tensor batch = T::PackBatch(windows);
  for (bool grad_free : {false, true}) {
    SCOPED_TRACE(grad_free ? "grad-free" : "taped");
    std::unique_ptr<ag::InferenceModeGuard> no_grad;
    if (grad_free) no_grad = std::make_unique<ag::InferenceModeGuard>();
    const T::Tensor batched = model->Forward(batch, false).value();
    for (int64_t k = 0; k < kBatch; ++k) {
      const T::Shape one = {1, ds.history(), ds.num_nodes(),
                            ds.num_features()};
      const T::Tensor alone =
          model->Forward(windows[k].Reshape(one), false).value();
      EXPECT_TRUE(dyhsl::testing::TensorEq(T::Slice(batched, 0, k, 1), alone))
          << model->name() << " window " << k;
    }
  }
}

TEST_P(NeuralZooTest, ParameterCountPositiveAndConsistent) {
  auto model = MakeModel();
  int64_t total = 0;
  for (const auto& p : model->Parameters()) total += p.numel();
  EXPECT_EQ(total, model->ParameterCount());
  EXPECT_GT(total, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllNeuralModels, NeuralZooTest, ::testing::ValuesIn(NeuralModelKeys()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::string out;
      for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
      }
      return out;
    });

class ClassicalZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClassicalZooTest, FitPredictShapeAndFinite) {
  auto model = MakeClassicalModel(GetParam());
  const auto& ds = SharedDataset();
  model->Fit(ds);
  tensor::Tensor pred = model->Predict(ds, ds.test_range().begin);
  EXPECT_EQ(pred.shape(), (T::Shape{ds.horizon(), ds.num_nodes()}));
  for (float v : pred.ToVector()) {
    ASSERT_TRUE(std::isfinite(v)) << model->name();
    ASSERT_GE(v, 0.0f) << model->name() << " predicted negative flow";
  }
}

TEST_P(ClassicalZooTest, BeatsConstantZeroPredictor) {
  auto model = MakeClassicalModel(GetParam());
  const auto& ds = SharedDataset();
  model->Fit(ds);
  auto m = baselines::EvaluateClassical(model.get(), ds, ds.test_range(),
                                        /*max_windows=*/40);
  // A useful model must do noticeably better than predicting zero
  // (MAE of zero predictor = mean masked flow).
  metrics::MetricAccumulator zero_acc;
  for (int64_t t0 = ds.test_range().begin;
       t0 < std::min(ds.test_range().begin + 40, ds.test_range().end);
       ++t0) {
    tensor::Tensor truth = ds.MakeTarget(t0);
    zero_acc.Add(T::Tensor::Zeros(truth.shape()), truth);
  }
  EXPECT_LT(m.mae, 0.8 * zero_acc.Mae()) << model->name();
}

INSTANTIATE_TEST_SUITE_P(AllClassicalModels, ClassicalZooTest,
                         ::testing::ValuesIn(ClassicalModelKeys()));

TEST(HistoricalAverageTest, RecoversPeriodicSignal) {
  // On purely periodic data HA should be near-perfect.
  const auto& ds = SharedDataset();
  baselines::HistoricalAverage ha;
  ha.Fit(ds);
  auto m = baselines::EvaluateClassical(&ha, ds, ds.val_range(), 30);
  // Flow scale is O(150); periodic buckets must be far better than scale.
  EXPECT_LT(m.mae, 80.0);
}

TEST(ArimaTest, NearPerfectOnLinearTrend) {
  // Hand-build a tiny dataset-free check through the public API: ARIMA on
  // the shared dataset should produce finite forecasts with MAE below HA's
  // on short horizons (difference models track local level).
  const auto& ds = SharedDataset();
  baselines::Arima arima;
  arima.Fit(ds);
  tensor::Tensor p = arima.Predict(ds, ds.val_range().begin);
  // First horizon step should be close to the last observed value.
  float last_obs = ds.traffic().flow.At(
      {ds.val_range().begin + ds.history() - 1, 0});
  EXPECT_NEAR(p.At({0, 0}), last_obs, 60.0f);
}

TEST(VarTest, UsesCrossSensorInformation) {
  const auto& ds = SharedDataset();
  baselines::Var var(2, 1e-1f);
  var.Fit(ds);
  auto m = baselines::EvaluateClassical(&var, ds, ds.val_range(), 30);
  EXPECT_GT(m.mae, 0.0);
  EXPECT_LT(m.mae, 100.0);
}

// Largest |a - b| relative to the magnitude of `b` (floored at 1).
float MaxRelDiff(const T::Tensor& a, const T::Tensor& b) {
  float scale = 1.0f;
  for (int64_t i = 0; i < b.numel(); ++i) {
    scale = std::max(scale, std::fabs(b.data()[i]));
  }
  return dyhsl::testing::MaxAbsDiff(a, b) / scale;
}

// Sparse-vs-dense forward agreement (<= 1e-4 rel) for the structure
// operators two sparse-path baselines actually run — STGCN's symmetric
// normalized road adjacency and HGC-RNN's factored district-hypergraph
// propagation — at the models' (B*T, N, C) working shapes.
TEST(SparsePathAgreementTest, StgcnSymAdjMatchesDenseReference) {
  ForecastTask task = ForecastTask::FromDataset(SharedDataset());
  ag::SparseConstant op(task.spatial_adj.WithSelfLoops().SymNormalized());
  T::Tensor dense = op.matrix().ToDense();
  Rng rng(17);
  ag::Variable x(
      T::Tensor::Randn({2 * task.history, task.num_nodes, 16}, &rng));
  T::Tensor via_sparse = ag::SpMM(op, x).value();
  T::Tensor via_dense = ag::BatchedMatMul(ag::Variable(dense), x).value();
  EXPECT_LE(MaxRelDiff(via_sparse, via_dense), 1e-4f);
}

TEST(SparsePathAgreementTest, HgcRnnFactoredHypergraphMatchesDenseReference) {
  ForecastTask task = ForecastTask::FromDataset(SharedDataset());
  hypergraph::Hypergraph hg =
      hypergraph::Hypergraph::FromCommunities(task.district_labels);
  hypergraph::FactoredIncidence f = hg.FactoredOperator();
  // Dense reference: the materialized product operator as one GEMM.
  T::Tensor g_dense = hg.NormalizedOperator().matrix().ToDense();
  Rng rng(18);
  ag::Variable x(T::Tensor::Randn({3, task.num_nodes, 16}, &rng));
  T::Tensor via_sparse =
      ag::SpMM(f.edge_to_node, ag::SpMM(f.node_to_edge, x)).value();
  T::Tensor via_dense = ag::BatchedMatMul(ag::Variable(g_dense), x).value();
  EXPECT_LE(MaxRelDiff(via_sparse, via_dense), 1e-4f);
}

// An STGCN with every parameter drawn at random, biases included, so each
// bias write-back shows in the bits.
std::unique_ptr<baselines::Stgcn> RandomStgcn(int64_t hidden) {
  auto model = std::make_unique<baselines::Stgcn>(
      ForecastTask::FromDataset(SharedDataset()), hidden, /*seed=*/13);
  Rng rng(29);
  for (auto& [name, param] : model->NamedParameters()) {
    param.mutable_value()->CopyDataFrom(
        T::Tensor::Randn(param.shape(), &rng, 0.3f));
  }
  return model;
}

T::Tensor StgcnForecast(baselines::Stgcn* model, const T::Tensor& x,
                        bool grad_free) {
  if (grad_free) {
    ag::InferenceModeGuard no_grad;
    return model->Forward(x, false).value();
  }
  return model->Forward(x, false).value();
}

// Reference STGCN over the whole window: both gated convs and the graph
// conv over all T steps, the head on step T-1, with Stgcn's ops and
// parameters.
T::Tensor FullWindowStgcn(const baselines::Stgcn& model, int64_t hidden,
                          const T::Tensor& x) {
  const ForecastTask task = ForecastTask::FromDataset(SharedDataset());
  std::map<std::string, ag::Variable> p;
  for (const auto& [name, param] : model.NamedParameters()) p[name] = param;
  auto gated = [&](const std::string& conv, const ag::Variable& h) {
    auto half = [&](int64_t begin) {
      return ag::TemporalConv(h, ag::Slice(p[conv + ".weight"], 0, begin, hidden),
                              ag::Slice(p[conv + ".bias"], 0, begin, hidden),
                              /*dilation=*/1, /*pad_left=*/2, /*pad_right=*/0);
    };
    return ag::Mul(half(0), ag::Sigmoid(half(hidden)));
  };
  const int64_t b = x.size(0), t = x.size(1), n = x.size(2);
  ag::SparseConstant adj(task.spatial_adj.WithSelfLoops().SymNormalized());
  ag::Variable h =
      ag::Reshape(gated("tconv1", ag::Variable(x)), {b * t, n, hidden});
  h = ag::Reshape(ag::SpMM(adj, h), {b * t * n, hidden});
  h = ag::Relu(ag::Affine(h, p["gconv.weight"], p["gconv.bias"]));
  h = gated("tconv2", ag::Reshape(h, {b, t, n, hidden}));
  ag::Variable last = ag::Reshape(ag::Slice(h, 1, t - 1, 1), {b * n, hidden});
  ag::Variable out =
      ag::Reshape(ag::Affine(last, p["head.weight"], p["head.bias"]),
                  {b, n, task.horizon});
  return Descale(ag::TransposePerm(out, {0, 2, 1}), task.scaler_mean,
                 task.scaler_std)
      .value();
}

// STGCN's head reads tconv2's last step. Through two kernel-3 causal convs
// that step sees exactly the last five input steps, so a longer window with
// the same last five steps forecasts the same bits, an edit to any earlier
// step changes nothing, and an edit to step T-5 changes the forecast.
TEST(StgcnReceptiveFieldTest, ForecastReadsExactlyTheLastFiveSteps) {
  auto model = RandomStgcn(8);
  for (int64_t b : {1, 3}) {
    const T::Tensor x = SharedBatchX(b);
    const int64_t t = x.size(1), n = x.size(2), f = x.size(3);
    const int64_t step = n * f;
    // A 20-step window of noise ending in x's last five steps.
    Rng rng(40 + b);
    T::Tensor longer = T::Tensor::Randn({b, 20, n, f}, &rng);
    for (int64_t i = 0; i < b; ++i) {
      std::memcpy(longer.data() + (i * 20 + 15) * step,
                  x.data() + (i * t + t - 5) * step,
                  static_cast<size_t>(5 * step) * sizeof(float));
    }
    // x with 1 added to every value of step s in every item.
    auto edited = [&](int64_t s) {
      T::Tensor y = x.Clone();
      for (int64_t i = 0; i < b; ++i) {
        float* p = y.data() + (i * t + s) * step;
        for (int64_t j = 0; j < step; ++j) p[j] += 1.0f;
      }
      return y;
    };
    for (bool grad_free : {false, true}) {
      SCOPED_TRACE("B=" + std::to_string(b) +
                   (grad_free ? " grad-free" : " taped"));
      auto forecast = [&](const T::Tensor& in) {
        return StgcnForecast(model.get(), in, grad_free);
      };
      const T::Tensor base = forecast(x);
      EXPECT_TRUE(dyhsl::testing::TensorEq(forecast(longer), base));
      for (int64_t s = 0; s <= t - 6; ++s) {
        EXPECT_TRUE(dyhsl::testing::TensorEq(forecast(edited(s)), base))
            << "edit to step " << s;
      }
      EXPECT_FALSE(dyhsl::testing::TensorEq(forecast(edited(t - 5)), base))
          << "edit to step " << t - 5;
    }
  }
}

// The trimmed forward keeps the full-window forward's bits at every window
// length, including those shorter than the receptive field: the kept steps
// sum their conv taps in the same order.
TEST(StgcnReceptiveFieldTest, TrimmedForecastBitIdenticalToFullWindow) {
  auto model = RandomStgcn(8);
  for (int64_t b : {1, 3}) {
    const T::Tensor x = SharedBatchX(b);
    for (int64_t t : {1, 2, 3, 4, 5, 6, 12}) {
      const T::Tensor window = T::Slice(x, 1, x.size(1) - t, t);
      const T::Tensor full = FullWindowStgcn(*model, 8, window);
      for (bool grad_free : {false, true}) {
        EXPECT_TRUE(dyhsl::testing::TensorEq(
            StgcnForecast(model.get(), window, grad_free), full))
            << "B=" << b << " T=" << t
            << (grad_free ? " grad-free" : " taped");
      }
    }
  }
}

TEST(ModelZooTest, KeysAreUniqueAndConstructible) {
  std::set<std::string> seen;
  for (const std::string& k : NeuralModelKeys()) {
    EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
  }
  for (const std::string& k : ClassicalModelKeys()) {
    EXPECT_TRUE(seen.insert(k).second) << "duplicate key " << k;
  }
}

TEST(ModelZooTest, PaperReferenceLookup) {
  PaperRow row;
  ASSERT_TRUE(PaperTable3Reference("DyHSL", "SynPEMS04", &row));
  EXPECT_DOUBLE_EQ(row.mae, 17.66);
  ASSERT_TRUE(PaperTable3Reference("HA", "SynPEMS03", &row));
  EXPECT_DOUBLE_EQ(row.mae, 31.58);
  EXPECT_FALSE(PaperTable3Reference("NotAModel", "SynPEMS03", &row));
  EXPECT_FALSE(PaperTable3Reference("DyHSL", "NotADataset", &row));
}

TEST(ModelZooTest, DyHslHasCompetitiveParameterBudget) {
  // Table IV: DyHSL should not be the parameter-heaviest model by far.
  ForecastTask task = ForecastTask::FromDataset(SharedDataset());
  ZooConfig cfg;
  cfg.hidden_dim = 16;
  auto dyhsl = MakeNeuralModel("DyHSL", task, cfg);
  auto fclstm = MakeNeuralModel("FC-LSTM", task, cfg);
  EXPECT_GT(dyhsl->ParameterCount(), 0);
  // FC-LSTM scales with N^2-ish (N inputs x hidden x T' x N outputs), the
  // low-rank DyHSL should be comparable or smaller at equal hidden size.
  EXPECT_LT(dyhsl->ParameterCount(), 4 * fclstm->ParameterCount());
}

}  // namespace
}  // namespace dyhsl::train
