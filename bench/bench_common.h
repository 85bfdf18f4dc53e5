// Shared plumbing for the experiment benches (bench_table*/bench_fig*):
// profile-scaled dataset construction, train-and-evaluate drivers, and
// aligned table printing with the paper's reference numbers.

#ifndef DYHSL_BENCH_BENCH_COMMON_H_
#define DYHSL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/data/dataset.h"
#include "src/metrics/metrics.h"
#include "src/models/dyhsl.h"
#include "src/train/model_zoo.h"
#include "src/train/trainer.h"

namespace dyhsl::bench {

/// \brief Quick/tiny/full knobs resolved once per binary.
struct BenchEnv {
  RunProfile profile;
  ProfileKnobs knobs;
  train::TrainConfig train_config;
  train::ZooConfig zoo_config;

  static BenchEnv FromEnvironment() {
    ConfigureParallelism();
    BenchEnv env;
    env.profile = GetRunProfile();
    env.knobs = GetProfileKnobs(env.profile);
    env.train_config.epochs = env.knobs.train_epochs;
    env.train_config.batch_size = env.knobs.batch_size;
    env.train_config.max_batches_per_epoch = env.knobs.max_batches_per_epoch;
    env.train_config.learning_rate = 2e-3f;
    env.zoo_config.hidden_dim = env.knobs.hidden_dim;
    // Optional overrides for deeper runs without switching profile.
    if (const char* e = std::getenv("DYHSL_EPOCHS")) {
      int v = std::atoi(e);
      if (v > 0) env.train_config.epochs = v;
    }
    if (const char* e = std::getenv("DYHSL_HIDDEN")) {
      int v = std::atoi(e);
      if (v > 0) {
        env.zoo_config.hidden_dim = v;
        env.knobs.hidden_dim = v;
      }
    }
    return env;
  }
};

inline void PrintHeaderLine(const std::string& title, const BenchEnv& env) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("profile=%s  node_scale=%.2f  days=%d  epochs=%d  "
              "hidden=%d  batch=%d\n",
              RunProfileName(env.profile), env.knobs.node_scale,
              env.knobs.sim_days, env.knobs.train_epochs,
              env.knobs.hidden_dim, env.knobs.batch_size);
  std::printf("(paper reference values in brackets; shapes, not absolute "
              "numbers, are the reproduction target)\n\n");
}

/// \brief Builds the profile-scaled SynPEMS dataset by paper name
/// ("SynPEMS03" .. "SynPEMS08").
inline data::TrafficDataset MakeDataset(const std::string& name,
                                        const BenchEnv& env) {
  double s = env.knobs.node_scale;
  int64_t d = env.knobs.sim_days;
  if (name == "SynPEMS03") {
    return data::TrafficDataset::Generate(data::DatasetSpec::Pems03Like(s, d));
  }
  if (name == "SynPEMS04") {
    return data::TrafficDataset::Generate(data::DatasetSpec::Pems04Like(s, d));
  }
  if (name == "SynPEMS07") {
    return data::TrafficDataset::Generate(data::DatasetSpec::Pems07Like(s, d));
  }
  return data::TrafficDataset::Generate(data::DatasetSpec::Pems08Like(s, d));
}

/// \brief Trains a fresh neural model and returns test metrics.
struct ModelRun {
  metrics::ForecastMetrics test;
  train::TrainResult train;
  double test_seconds = 0.0;
  int64_t parameters = 0;
};

inline ModelRun RunNeural(const std::string& key,
                          const data::TrafficDataset& dataset,
                          const BenchEnv& env) {
  train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  std::unique_ptr<train::ForecastModel> model =
      train::MakeNeuralModel(key, task, env.zoo_config);
  ModelRun run;
  run.parameters = model->ParameterCount();
  run.train = train::TrainModel(model.get(), dataset, env.train_config);
  int64_t max_eval = env.profile == RunProfile::kFull ? 0 : 24;
  train::EvalResult eval = train::EvaluateModel(
      model.get(), dataset, dataset.test_range(), env.knobs.batch_size,
      max_eval);
  run.test = eval.overall;
  run.test_seconds = eval.seconds;
  return run;
}

inline metrics::ForecastMetrics RunClassical(
    const std::string& key, const data::TrafficDataset& dataset,
    const BenchEnv& env) {
  std::unique_ptr<baselines::ClassicalModel> model =
      train::MakeClassicalModel(key);
  model->Fit(dataset);
  int64_t max_windows = env.profile == RunProfile::kFull ? 0 : 300;
  return baselines::EvaluateClassical(model.get(), dataset,
                                      dataset.test_range(), max_windows);
}

/// \brief One formatted "MAE RMSE MAPE [paper]" cell.
inline std::string Cell(const metrics::ForecastMetrics& m,
                        const std::string& model_key,
                        const std::string& dataset_name) {
  char buf[128];
  train::PaperRow ref;
  if (train::PaperTable3Reference(model_key, dataset_name, &ref)) {
    std::snprintf(buf, sizeof(buf), "%6.2f %6.2f %5.1f%% [%5.1f/%5.1f/%4.1f%%]",
                  m.mae, m.rmse, m.mape, ref.mae, ref.rmse, ref.mape);
  } else {
    std::snprintf(buf, sizeof(buf), "%6.2f %6.2f %5.1f%%", m.mae, m.rmse,
                  m.mape);
  }
  return buf;
}

/// \brief Ablation benches (Tables V-VII) converge orderings better with a
/// slightly deeper schedule than the zoo sweep.
inline train::TrainConfig AblationTrainConfig(const BenchEnv& env) {
  train::TrainConfig tc = env.train_config;
  tc.epochs = std::max<int64_t>(tc.epochs, 4);
  return tc;
}

/// \brief Comma-separated model/dataset filters from the environment
/// (DYHSL_MODELS / DYHSL_DATASETS); empty = everything.
inline bool EnvListAllows(const char* env_name, const std::string& value) {
  const char* raw = std::getenv(env_name);
  if (raw == nullptr || raw[0] == '\0') return true;
  std::string list(raw);
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (list.substr(pos, comma - pos) == value) return true;
    pos = comma + 1;
  }
  return false;
}

/// \brief SynPEMS03 and SynPEMS04, the datasets of the ablation tables
/// (V-VII), as far as DYHSL_DATASETS allows.
inline std::vector<data::TrafficDataset> AblationDatasets(
    const BenchEnv& env) {
  std::vector<data::TrafficDataset> datasets;
  for (const char* name : {"SynPEMS03", "SynPEMS04"}) {
    if (EnvListAllows("DYHSL_DATASETS", name)) {
      datasets.push_back(MakeDataset(name, env));
    }
  }
  return datasets;
}

/// \brief One paper number per ablation dataset, looked up by dataset
/// name so a DYHSL_DATASETS filter never shifts a column onto the other
/// dataset's reference.
struct PaperRef {
  double pems03;
  double pems04;
  double For(const std::string& dataset) const {
    return dataset == "SynPEMS03" ? pems03 : pems04;
  }
};

}  // namespace dyhsl::bench

#endif  // DYHSL_BENCH_BENCH_COMMON_H_
