// Sharded, multi-model serving end to end: partition a generated road
// network with a ShardPlan, train one graph-operator model whose
// parameters are node-count independent, write a shard checkpoint
// family, and serve concurrent mixed-model queries through a
// ForecastRouter — one engine per (model, shard).
//
//   $ ./build/example_shard_serving
//
// Environment: DYHSL_PROFILE=tiny|quick|full scales dataset and schedule.

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/data/dataset.h"
#include "src/graph/shard.h"
#include "src/models/dyhsl.h"
#include "src/serve/router.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"
#include "src/train/trainer.h"

int main() {
  using namespace dyhsl;
  ConfigureParallelism();
  ProfileKnobs knobs = GetProfileKnobs(GetRunProfile());

  // 1. Data + task: a PEMS08-like network, then a 2-way contiguous
  //    sensor-range partition with a halo wide enough for STGCN's one
  //    graph-conv hop (+1 hop so fringe degrees stay exact).
  data::DatasetSpec spec =
      data::DatasetSpec::Pems08Like(knobs.node_scale, knobs.sim_days);
  data::TrafficDataset dataset = data::TrafficDataset::Generate(spec);
  train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  std::printf("dataset %s: %lld sensors -> %lld shards\n",
              dataset.name().c_str(),
              static_cast<long long>(task.num_nodes),
              static_cast<long long>(plan.num_shards()));
  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    const graph::ShardSpec& shard = plan.shard(s);
    std::printf("  shard %lld: sensors [%lld, %lld) + %lld halo\n",
                static_cast<long long>(s),
                static_cast<long long>(shard.begin),
                static_cast<long long>(shard.end),
                static_cast<long long>(shard.halo_count()));
  }

  // 2. Train once, globally. STGCN's parameters are node-count
  //    independent, so the same weights serve every shard-scoped model.
  train::ZooConfig zoo;
  zoo.hidden_dim = knobs.hidden_dim;
  std::unique_ptr<train::ForecastModel> stgcn =
      train::MakeNeuralModel("STGCN", task, zoo);
  train::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = knobs.batch_size;
  tc.max_batches_per_epoch = knobs.max_batches_per_epoch;
  tc.learning_rate = 2e-3f;
  train::TrainModel(stgcn.get(), dataset, tc);

  // 3. Write the shard checkpoint family (one DYH2-v3 file per shard,
  //    each stamped with its sensor range and halo count).
  const std::string prefix = "shard_demo_stgcn";
  auto* stgcn_module = dynamic_cast<nn::Module*>(stgcn.get());
  if (stgcn_module == nullptr) {
    std::fprintf(stderr, "STGCN is not checkpointable (not an nn::Module)\n");
    return 1;
  }
  Status saved = train::ShardCheckpointSet::Save(plan, *stgcn_module, prefix);
  if (!saved.ok()) {
    std::fprintf(stderr, "family save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote shard checkpoint family %s.shard{0,1}.ckpt\n",
              prefix.c_str());

  // 4. A second model for mixed-model routing: a small DyHSL served
  //    unsharded from a fresh init (real deployments would load another
  //    trained checkpoint here).
  models::DyHslConfig dyhsl_config;
  dyhsl_config.hidden_dim = knobs.hidden_dim;
  dyhsl_config.prior_layers = 2;
  dyhsl_config.mhce_layers = 1;
  dyhsl_config.num_hyperedges = 8;

  // 5. Router bring-up: one engine per (model, shard). The family is
  //    validated against the plan before any engine loads it.
  auto created = serve::ForecastRouter::Create();
  if (!created.ok()) return 1;
  auto router = std::move(created).ValueOrDie();
  Status added = router->AddShardedModel(
      "stgcn", task, plan, serve::ZooFactory("STGCN", zoo), prefix);
  if (added.ok()) {
    added = router->AddModel("dyhsl", task,
                             serve::DyHslFactory(dyhsl_config));
  }
  if (!added.ok()) {
    std::fprintf(stderr, "router bring-up failed: %s\n",
                 added.ToString().c_str());
    return 1;
  }
  std::printf("router up: %lld stgcn shard engines + 1 dyhsl engine\n",
              static_cast<long long>(router->ShardCountOf("stgcn")));

  // 6. Concurrent mixed-model queries over the test split: all in
  //    flight at once, alternating models per query.
  const int64_t kQueries = 8;
  std::vector<std::future<serve::ForecastResponse>> futures;
  std::vector<std::string> names;
  int64_t start = dataset.test_range().begin;
  for (int64_t q = 0; q < kQueries; ++q) {
    names.push_back(q % 2 == 0 ? "stgcn" : "dyhsl");
    futures.push_back(router->Submit(
        serve::RouterRequest{names.back(), dataset.MakeInput(start + q)}));
  }
  for (int64_t q = 0; q < kQueries; ++q) {
    serve::ForecastResponse response = futures[q].get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "query %lld failed: %s\n",
                   static_cast<long long>(q),
                   response.status.ToString().c_str());
      return 1;
    }
    std::printf("query %lld via %-5s: sensor 0 next hour:",
                static_cast<long long>(q), names[q].c_str());
    for (int64_t t = 0; t < response.forecast.size(0); t += 3) {
      std::printf(" %6.1f", response.forecast.At({t, 0}));
    }
    std::printf("\n");
  }

  // 7. Fleet telemetry: per-engine snapshots plus totals.
  serve::RouterStats stats = router->Stats();
  std::printf("router served %lld requests (%lld engine-requests, "
              "%lld forwards across the fleet)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.total.requests),
              static_cast<long long>(stats.total.batches));
  for (const serve::EngineStatsEntry& e : stats.engines) {
    std::printf("  %-5s shard %lld: %lld requests in %lld forwards\n",
                e.model.c_str(), static_cast<long long>(e.shard_id),
                static_cast<long long>(e.stats.requests),
                static_cast<long long>(e.stats.batches));
  }

  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    std::remove(train::ShardCheckpointSet::ShardPath(prefix, s).c_str());
  }
  return 0;
}
