// Central registry of every model in the Table III comparison, so benches,
// examples and tests construct identical configurations.

#ifndef DYHSL_TRAIN_MODEL_ZOO_H_
#define DYHSL_TRAIN_MODEL_ZOO_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/classical.h"
#include "src/train/forecast_model.h"

namespace dyhsl::train {

/// \brief Size knobs shared by all zoo models.
struct ZooConfig {
  int64_t hidden_dim = 32;
  uint64_t seed = 77;
};

/// \brief Table III ordering of the classical baselines.
std::vector<std::string> ClassicalModelKeys();

/// \brief Table III ordering of the neural models (baselines then DyHSL).
std::vector<std::string> NeuralModelKeys();

/// \brief Synthetic ForecastTask over a bidirectional ring road of `n`
/// sensors: a dataset-free task with paper-like scaler statistics, used
/// by benches, serving tests and demos that need a model-shaped task
/// without generating traffic data.
ForecastTask RingForecastTask(int64_t n, int64_t history = 12,
                              int64_t horizon = 12);

/// \brief Builds a classical model ("HA", "ARIMA", "VAR", "SVR").
std::unique_ptr<baselines::ClassicalModel> MakeClassicalModel(
    const std::string& key);

/// \brief Builds a neural model by key ("FC-LSTM", "TCN", "TCN(w/o causal)",
/// "GRU-ED", "DSANet", "STGCN", "DCRNN", "GraphWaveNet", "AGCRN", "STSGCN",
/// "HGC-RNN", "DHGNN", "STGODE", "DyHSL"). Aborts on unknown keys.
std::unique_ptr<ForecastModel> MakeNeuralModel(const std::string& key,
                                               const ForecastTask& task,
                                               const ZooConfig& config);

/// \brief Paper Table III reference numbers (MAE, RMSE, MAPE%) for a model
/// key on a dataset name ("SynPEMS03" -> PEMS03 column). Returns false when
/// the paper has no row for the key.
struct PaperRow {
  double mae;
  double rmse;
  double mape;
};
bool PaperTable3Reference(const std::string& model_key,
                          const std::string& dataset_name, PaperRow* row);

}  // namespace dyhsl::train

#endif  // DYHSL_TRAIN_MODEL_ZOO_H_
