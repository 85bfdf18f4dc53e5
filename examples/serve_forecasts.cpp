// End-to-end serving flow: train a small DyHSL forecaster, checkpoint it,
// bring up a ForecastEngine from the checkpoint, and serve concurrent
// forecast queries through its request queue.
//
//   $ ./build/example_serve_forecasts
//
// Environment: DYHSL_PROFILE=tiny|quick|full scales dataset and schedule.

#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/data/dataset.h"
#include "src/models/dyhsl.h"
#include "src/serve/engine.h"
#include "src/train/checkpoint.h"
#include "src/train/trainer.h"

int main() {
  using namespace dyhsl;
  ConfigureParallelism();
  ProfileKnobs knobs = GetProfileKnobs(GetRunProfile());

  // 1. Data + task: a PEMS08-like network, as in the quickstart.
  data::DatasetSpec spec =
      data::DatasetSpec::Pems08Like(knobs.node_scale, knobs.sim_days);
  data::TrafficDataset dataset = data::TrafficDataset::Generate(spec);
  train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  std::printf("dataset %s: %lld sensors, %lld steps\n",
              dataset.name().c_str(),
              static_cast<long long>(dataset.num_nodes()),
              static_cast<long long>(dataset.num_steps()));

  // 2. Train briefly and checkpoint — the offline half of the pipeline.
  models::DyHslConfig config;
  config.hidden_dim = knobs.hidden_dim;
  config.prior_layers = 2;
  config.mhce_layers = 1;
  config.num_hyperedges = 8;
  models::DyHsl model(task, config);
  train::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = knobs.batch_size;
  tc.max_batches_per_epoch = knobs.max_batches_per_epoch;
  tc.learning_rate = 2e-3f;
  train::TrainModel(&model, dataset, tc);
  const std::string ckpt = "serve_demo.ckpt";
  Status saved = train::SaveCheckpoint(model, ckpt);
  if (!saved.ok()) {
    std::fprintf(stderr, "checkpoint save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("checkpointed %lld parameters to %s\n",
              static_cast<long long>(model.ParameterCount()), ckpt.c_str());

  // 3. Serving side: one engine, built once from the checkpoint. The
  //    model construction pre-computes every pooling scale's temporal
  //    operator; workers keep warm arenas.
  auto created = serve::ForecastEngine::Create(task, config, ckpt);
  if (!created.ok()) {
    std::fprintf(stderr, "engine bring-up failed: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(created).ValueOrDie();
  std::printf("engine up: %lld worker(s), team size %d\n",
              static_cast<long long>(engine->options().num_workers),
              engine->team_size());

  // 4. Concurrent queries: one window per test position, all in flight
  //    at once; the worker serves them one by one in arrival order.
  const int64_t kQueries = 6;
  std::vector<std::future<serve::ForecastResponse>> futures;
  int64_t start = dataset.test_range().begin;
  for (int64_t q = 0; q < kQueries; ++q) {
    futures.push_back(engine->Submit(
        serve::ForecastRequest{dataset.MakeInput(start + q)}));
  }
  for (int64_t q = 0; q < kQueries; ++q) {
    serve::ForecastResponse response = futures[q].get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "query %lld failed: %s\n", static_cast<long long>(q),
                   response.status.ToString().c_str());
      return 1;
    }
    std::printf(
        "query %lld: queue %.0f us compute %.0f us; sensor 0 next hour:",
        static_cast<long long>(q), response.queue_micros,
        response.compute_micros);
    for (int64_t t = 0; t < response.forecast.size(0); t += 3) {
      std::printf(" %6.1f", response.forecast.At({t, 0}));
    }
    std::printf("\n");
  }
  serve::EngineStats stats = engine->Snapshot();
  std::printf("served %lld requests in %lld forwards\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches));
  std::remove(ckpt.c_str());
  return 0;
}
