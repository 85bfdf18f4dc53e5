// Reproduces paper Table VI: ablation of the Interactive Graph Convolution
// block (with vs without) on SynPEMS03 and SynPEMS04.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

namespace dyhsl::bench {
namespace {

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  PrintHeaderLine("Table VI: IGC block ablation (w/ vs w/o)", env);

  struct Row {
    const char* label;
    bool use_igc;
    PaperRef paper_mae, paper_mape;
  };
  const std::vector<Row> rows = {
      {"w/", true, {15.49, 17.66}, {14.38, 12.42}},
      {"w/o", false, {16.95, 17.99}, {17.15, 14.13}},
  };

  const std::vector<data::TrafficDataset> datasets = AblationDatasets(env);
  std::printf("%-5s", "IGC");
  for (const auto& ds : datasets) std::printf(" | %-52s", ds.name().c_str());
  std::printf("\n");

  for (const Row& row : rows) {
    std::printf("%-5s", row.label);
    for (const auto& ds : datasets) {
      train::ForecastTask task = train::ForecastTask::FromDataset(ds);
      models::DyHslConfig cfg;
      cfg.hidden_dim = env.zoo_config.hidden_dim;
      cfg.prior_layers = 3;
      cfg.mhce_layers = 2;
      cfg.num_hyperedges = 16;
      cfg.use_igc = row.use_igc;
      cfg.seed = env.zoo_config.seed;
      models::DyHsl model(task, cfg);
      train::TrainModel(&model, ds, AblationTrainConfig(env));
      train::EvalResult ev = train::EvaluateModel(
          &model, ds, ds.test_range(), env.knobs.batch_size, 24);
      const double pm = row.paper_mae.For(ds.name());
      const double pp = row.paper_mape.For(ds.name());
      char buf[104];
      std::snprintf(
          buf, sizeof(buf),
          "MAE %6.2f RMSE %6.2f MAPE %5.1f%% [paper %.2f/%.1f%%]",
          ev.overall.mae, ev.overall.rmse, ev.overall.mape, pm, pp);
      std::printf(" | %-52s", buf);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): removing IGC raises every metric, with\n"
      "RMSE and MAPE hit hardest (high-order neighborhood interaction\n"
      "prevents large errors and helps low-flow event regimes).\n");
  return 0;
}

}  // namespace
}  // namespace dyhsl::bench

int main() { return dyhsl::bench::Main(); }
