// google-benchmark suite validating the paper's section IV-D complexity
// claim: DyHSL's forward+backward cost grows linearly with the network
// size ||A||_0 (ring roads of increasing N) and with the observation
// length T. Also measures forward latency of DyHSL next to two baselines,
// and whether packing requests into one batch pays for each served model.

#include <chrono>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/models/dyhsl.h"
#include "src/serve/engine.h"
#include "src/tensor/ops.h"
#include "src/train/model_zoo.h"

namespace dyhsl {
namespace {

namespace T = ::dyhsl::tensor;

// Synthetic task over a ring road of n sensors, without a full dataset.
using train::RingForecastTask;

models::DyHslConfig SmallConfig() {
  models::DyHslConfig cfg;
  cfg.hidden_dim = 16;
  cfg.prior_layers = 2;
  cfg.mhce_layers = 1;
  cfg.num_hyperedges = 8;
  cfg.window_sizes = {1, 3, 12};
  cfg.dropout = 0.0f;
  return cfg;
}

// Linear scaling in the number of nodes (||A||_0 proportional to N here).
void BM_DyHslForwardBackward_Nodes(benchmark::State& state) {
  int64_t n = state.range(0);
  train::ForecastTask task = RingForecastTask(n, 12);
  models::DyHsl model(task, SmallConfig());
  Rng rng(1);
  T::Tensor x = T::Tensor::Randn({4, 12, n, 3}, &rng, 0.5f);
  for (auto _ : state) {
    autograd::Variable out = model.Forward(x, /*training=*/true);
    autograd::Variable loss = autograd::MeanAll(out);
    loss.Backward();
    for (auto& p : model.Parameters()) p.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data()[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["nodes"] = static_cast<double>(n);
}
BENCHMARK(BM_DyHslForwardBackward_Nodes)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

// Linear scaling in the observation length T (window sizes fixed to
// divisors of every tested T).
void BM_DyHslForwardBackward_History(benchmark::State& state) {
  int64_t t_in = state.range(0);
  train::ForecastTask task = RingForecastTask(48, t_in);
  models::DyHslConfig cfg = SmallConfig();
  cfg.window_sizes = {1, t_in / 2, t_in};
  models::DyHsl model(task, cfg);
  Rng rng(2);
  T::Tensor x = T::Tensor::Randn({4, t_in, 48, 3}, &rng, 0.5f);
  for (auto _ : state) {
    autograd::Variable out = model.Forward(x, /*training=*/true);
    autograd::Variable loss = autograd::MeanAll(out);
    loss.Backward();
    for (auto& p : model.Parameters()) p.ZeroGrad();
    benchmark::DoNotOptimize(loss.value().data()[0]);
  }
  state.counters["T"] = static_cast<double>(t_in);
}
BENCHMARK(BM_DyHslForwardBackward_History)
    ->Arg(6)
    ->Arg(12)
    ->Arg(24)
    ->Unit(benchmark::kMillisecond);

// Inference latency: DyHSL vs representative baselines at equal size.
template <const char* kKey>
void BM_ModelForward(benchmark::State& state) {
  train::ForecastTask task = RingForecastTask(64, 12);
  train::ZooConfig zoo;
  zoo.hidden_dim = 16;
  auto model = train::MakeNeuralModel(kKey, task, zoo);
  Rng rng(3);
  T::Tensor x = T::Tensor::Randn({4, 12, 64, 3}, &rng, 0.5f);
  autograd::InferenceModeGuard no_grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model->Forward(x, /*training=*/false).value().data()[0]);
  }
}
constexpr char kDyHsl[] = "DyHSL";
constexpr char kStgode[] = "STGODE";
constexpr char kAgcrn[] = "AGCRN";
BENCHMARK_TEMPLATE(BM_ModelForward, kDyHsl)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ModelForward, kStgode)->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_ModelForward, kAgcrn)->Unit(benchmark::kMillisecond);

// Does packing amortize? Each iteration runs one packed B = 4 grad-free
// forward (SubmitBatch) and the same four windows as B = 1 forwards
// (ForecastNow), through a team-1 engine at the model's serving shape.
// `packed_over_sequential` above 1 means the packed batch costs more
// than its items served one by one.
void RunPackedVsSequential(benchmark::State& state,
                           const data::DatasetSpec& spec,
                           const serve::ModelFactory& factory) {
  using Clock = std::chrono::steady_clock;
  const data::TrafficDataset dataset = data::TrafficDataset::Generate(spec);
  const train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  serve::EngineOptions options;
  options.team_size = 1;
  auto engine = std::move(serve::ForecastEngine::Create(task, factory, "",
                                                        options))
                    .ValueOrDie();
  Rng rng(4);
  std::vector<T::Tensor> windows;
  for (int i = 0; i < 4; ++i) {
    windows.push_back(T::Tensor::Randn(
        {task.history, task.num_nodes, task.input_dim}, &rng, 1.0f));
  }
  const T::Tensor packed = T::PackBatch(windows);
  // Warm both paths' arenas before timing.
  engine->SubmitBatch(packed);
  for (const T::Tensor& w : windows) engine->ForecastNow(w);
  double packed_s = 0.0;
  double sequential_s = 0.0;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(engine->SubmitBatch(packed).forecasts.data());
    const Clock::time_point t1 = Clock::now();
    for (const T::Tensor& w : windows) {
      benchmark::DoNotOptimize(engine->ForecastNow(w).forecast.data());
    }
    const Clock::time_point t2 = Clock::now();
    packed_s += std::chrono::duration<double>(t1 - t0).count();
    sequential_s += std::chrono::duration<double>(t2 - t1).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["nodes"] = static_cast<double>(task.num_nodes);
  state.counters["packed_ms"] = 1e3 * packed_s / n;
  state.counters["sequential_ms"] = 1e3 * sequential_s / n;
  state.counters["packed_over_sequential"] = packed_s / sequential_s;
}

train::ZooConfig Hidden16() {
  train::ZooConfig zoo;
  zoo.hidden_dim = 16;
  return zoo;
}

// Paper-config DyHSL on the PEMS08-like network (N = 170).
void BM_PackedVsSequential_DyHsl(benchmark::State& state) {
  RunPackedVsSequential(state, data::DatasetSpec::Pems08Like(1.0, 2),
                        serve::DyHslFactory(models::DyHslConfig()));
}
// STGCN, hidden 16, on the PEMS07-like network (N = 883).
void BM_PackedVsSequential_Stgcn(benchmark::State& state) {
  RunPackedVsSequential(state, data::DatasetSpec::Pems07Like(1.0, 2),
                        serve::ZooFactory("STGCN", Hidden16()));
}
// DCRNN, hidden 16, on the PEMS08-like network (N = 170).
void BM_PackedVsSequential_Dcrnn(benchmark::State& state) {
  RunPackedVsSequential(state, data::DatasetSpec::Pems08Like(1.0, 2),
                        serve::ZooFactory("DCRNN", Hidden16()));
}
BENCHMARK(BM_PackedVsSequential_DyHsl)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PackedVsSequential_Stgcn)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PackedVsSequential_Dcrnn)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dyhsl

BENCHMARK_MAIN();
