// Reproduces paper Table V: ablation of the Dynamic Hypergraph Structure
// Learning block — low-rank learned incidence (DHSL) vs no structure
// learning (NSL, frozen random incidence) vs a from-scratch dense learnable
// adjacency (FS) — on SynPEMS03 and SynPEMS04.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace dyhsl::bench {
namespace {

struct Row {
  const char* label;
  models::StructureLearning mode;
  PaperRef paper_mae;
};

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  PrintHeaderLine("Table V: structure-learning ablation (DHSL/NSL/FS)", env);

  const std::vector<Row> rows = {
      {"DHSL", models::StructureLearning::kLowRank, {15.49, 17.66}},
      {"NSL", models::StructureLearning::kFixedRandom, {16.43, 18.19}},
      {"FS", models::StructureLearning::kFromScratch, {18.91, 24.32}},
  };
  const std::vector<data::TrafficDataset> datasets = AblationDatasets(env);
  std::printf("%-6s", "SL");
  for (const auto& ds : datasets) std::printf(" | %-44s", ds.name().c_str());
  std::printf("\n");

  for (const Row& row : rows) {
    std::printf("%-6s", row.label);
    for (const auto& ds : datasets) {
      train::ForecastTask task = train::ForecastTask::FromDataset(ds);
      models::DyHslConfig cfg;
      cfg.hidden_dim = env.zoo_config.hidden_dim;
      cfg.prior_layers = 3;
      cfg.mhce_layers = 2;
      cfg.num_hyperedges = 16;
      cfg.structure_learning = row.mode;
      cfg.seed = env.zoo_config.seed;
      models::DyHsl model(task, cfg);
      train::TrainResult tr = train::TrainModel(&model, ds, AblationTrainConfig(env));
      (void)tr;
      train::EvalResult ev = train::EvaluateModel(
          &model, ds, ds.test_range(), env.knobs.batch_size, 24);
      const double paper = row.paper_mae.For(ds.name());
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "MAE %6.2f RMSE %6.2f MAPE %5.1f%% [paper MAE %.2f]",
                    ev.overall.mae, ev.overall.rmse, ev.overall.mape, paper);
      std::printf(" | %-44s", buf);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): DHSL < NSL < FS in error; learning the\n"
      "low-rank structure beats a frozen one, and a dense from-scratch\n"
      "adjacency is catastrophically over-parameterized.\n");
  return 0;
}

}  // namespace
}  // namespace dyhsl::bench

int main() { return dyhsl::bench::Main(); }
