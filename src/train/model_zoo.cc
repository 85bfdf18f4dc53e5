#include "src/train/model_zoo.h"

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "src/baselines/gnn_models.h"
#include "src/baselines/seq_models.h"
#include "src/core/check.h"
#include "src/models/dyhsl.h"

namespace dyhsl::train {

ForecastTask RingForecastTask(int64_t n, int64_t history, int64_t horizon) {
  std::vector<tensor::Triplet> edges;
  edges.reserve(2 * n);
  for (int64_t i = 0; i < n; ++i) {
    edges.push_back({i, (i + 1) % n, 1.0f});
    edges.push_back({(i + 1) % n, i, 1.0f});
  }
  ForecastTask task;
  task.num_nodes = n;
  task.input_dim = 3;
  task.history = history;
  task.horizon = horizon;
  task.scaler_mean = 200.0f;
  task.scaler_std = 80.0f;
  task.spatial_adj = tensor::CsrMatrix::FromTriplets(n, n, std::move(edges));
  task.district_labels.resize(n);
  for (int64_t i = 0; i < n; ++i) task.district_labels[i] = i % 4;
  return task;
}

std::vector<std::string> ClassicalModelKeys() {
  return {"HA", "ARIMA", "VAR", "SVR"};
}

std::vector<std::string> NeuralModelKeys() {
  return {"FC-LSTM", "TCN",    "TCN(w/o causal)", "GRU-ED", "DSANet",
          "STGCN",   "DCRNN",  "GraphWaveNet",    "AGCRN",  "STSGCN",
          "HGC-RNN", "DHGNN",  "STGODE",          "DyHSL"};
}

std::unique_ptr<baselines::ClassicalModel> MakeClassicalModel(
    const std::string& key) {
  if (key == "HA") return std::make_unique<baselines::HistoricalAverage>();
  if (key == "ARIMA") return std::make_unique<baselines::Arima>();
  if (key == "VAR") return std::make_unique<baselines::Var>();
  if (key == "SVR") return std::make_unique<baselines::LinearSvr>();
  DYHSL_CHECK_MSG(false, "unknown classical model: " + key);
  return nullptr;
}

std::unique_ptr<ForecastModel> MakeNeuralModel(const std::string& key,
                                               const ForecastTask& task,
                                               const ZooConfig& config) {
  int64_t d = config.hidden_dim;
  uint64_t seed = config.seed;
  if (key == "FC-LSTM") {
    return std::make_unique<baselines::FcLstm>(task, d, seed);
  }
  if (key == "TCN") {
    return std::make_unique<baselines::Tcn>(task, d, /*levels=*/3,
                                            /*causal=*/true, seed);
  }
  if (key == "TCN(w/o causal)") {
    return std::make_unique<baselines::Tcn>(task, d, /*levels=*/3,
                                            /*causal=*/false, seed);
  }
  if (key == "GRU-ED") {
    return std::make_unique<baselines::GruEd>(task, d, seed);
  }
  if (key == "DSANet") {
    return std::make_unique<baselines::DsaNet>(task, d, seed);
  }
  if (key == "STGCN") {
    return std::make_unique<baselines::Stgcn>(task, d, seed);
  }
  if (key == "DCRNN") {
    return std::make_unique<baselines::Dcrnn>(task, d, /*diffusion=*/2,
                                              seed);
  }
  if (key == "GraphWaveNet") {
    return std::make_unique<baselines::GraphWaveNet>(task, d, /*layers=*/3,
                                                     seed);
  }
  if (key == "AGCRN") {
    return std::make_unique<baselines::Agcrn>(task, d, /*embed=*/8, seed);
  }
  if (key == "STSGCN") {
    return std::make_unique<baselines::Stsgcn>(task, d, seed);
  }
  if (key == "HGC-RNN") {
    return std::make_unique<baselines::HgcRnn>(task, d, seed);
  }
  if (key == "DHGNN") {
    return std::make_unique<baselines::Dhgnn>(task, d, /*clusters=*/8,
                                              /*knn=*/4, seed);
  }
  if (key == "STGODE") {
    return std::make_unique<baselines::StgOde>(task, d, /*rk4_steps=*/3,
                                               seed);
  }
  if (key == "DyHSL") {
    models::DyHslConfig cfg;
    cfg.hidden_dim = d;
    cfg.prior_layers = 3;
    cfg.mhce_layers = 2;
    cfg.num_hyperedges = 16;
    cfg.window_sizes = {1, 2, 3, 4, 6, 12};
    cfg.seed = seed;
    return std::make_unique<models::DyHsl>(task, cfg);
  }
  DYHSL_CHECK_MSG(false, "unknown neural model: " + key);
  return nullptr;
}

bool PaperTable3Reference(const std::string& model_key,
                          const std::string& dataset_name, PaperRow* row) {
  // Rows of paper Table III, keyed by model, columns PEMS03/04/07/08.
  static const std::map<std::string, std::array<PaperRow, 4>> kTable = {
      {"HA", {{{31.58, 52.39, 33.78}, {38.03, 59.24, 27.88},
               {45.12, 65.64, 24.51}, {34.86, 59.24, 27.88}}}},
      {"ARIMA", {{{35.41, 47.59, 33.78}, {33.73, 48.80, 24.18},
                  {38.17, 59.27, 19.46}, {31.09, 44.32, 22.73}}}},
      {"VAR", {{{23.65, 38.26, 24.51}, {24.54, 38.61, 17.24},
                {50.22, 75.63, 32.22}, {19.19, 29.81, 13.10}}}},
      {"SVR", {{{21.97, 35.29, 21.51}, {28.70, 44.56, 19.20},
                {32.49, 50.22, 14.26}, {23.25, 36.16, 14.64}}}},
      {"FC-LSTM", {{{21.33, 35.11, 23.33}, {26.77, 40.65, 18.23},
                    {29.98, 45.94, 13.20}, {23.09, 35.17, 14.99}}}},
      {"TCN", {{{19.32, 33.55, 19.93}, {23.22, 37.26, 15.59},
                {32.72, 42.23, 14.26}, {22.72, 35.79, 14.03}}}},
      {"TCN(w/o causal)", {{{18.87, 32.24, 18.63}, {22.81, 36.87, 14.31},
                            {30.53, 41.02, 13.88}, {21.42, 34.03, 13.09}}}},
      {"GRU-ED", {{{19.12, 32.85, 19.31}, {23.68, 39.27, 16.44},
                   {27.66, 43.49, 12.20}, {22.00, 36.22, 13.33}}}},
      {"DSANet", {{{21.29, 34.55, 23.21}, {22.79, 35.77, 16.03},
                   {31.36, 49.11, 14.43}, {17.14, 26.96, 11.32}}}},
      {"STGCN", {{{17.55, 30.42, 17.34}, {21.16, 34.89, 13.83},
                  {25.33, 39.34, 11.21}, {17.50, 27.09, 11.29}}}},
      {"DCRNN", {{{17.99, 30.31, 18.34}, {21.22, 33.44, 14.17},
                  {25.22, 38.61, 11.82}, {16.82, 26.36, 10.92}}}},
      {"GraphWaveNet", {{{19.12, 32.77, 18.89}, {24.89, 39.66, 17.29},
                         {26.39, 41.50, 11.97}, {18.28, 30.05, 12.15}}}},
      {"DHGNN", {{{16.99, 28.16, 17.02}, {20.96, 32.64, 14.55},
                  {22.73, 35.67, 10.27}, {18.10, 28.53, 10.82}}}},
      {"STSGCN", {{{17.48, 29.21, 16.78}, {21.19, 33.65, 13.90},
                   {24.26, 39.03, 10.21}, {17.13, 26.80, 10.96}}}},
      {"AGCRN", {{{15.98, 28.25, 15.23}, {19.83, 32.26, 12.97},
                  {22.37, 36.55, 9.12}, {15.95, 25.22, 10.09}}}},
      {"HGC-RNN", {{{17.04, 28.17, 17.99}, {20.39, 32.42, 13.58},
                    {22.40, 35.37, 9.69}, {16.28, 25.60, 10.68}}}},
      {"STGODE", {{{16.50, 27.84, 16.69}, {20.84, 32.82, 13.77},
                   {22.59, 37.54, 10.14}, {16.81, 25.97, 10.62}}}},
      {"DyHSL", {{{15.49, 27.06, 14.38}, {17.66, 29.46, 12.42},
                  {18.84, 31.65, 8.11}, {14.01, 22.91, 8.60}}}},
  };
  auto it = kTable.find(model_key);
  if (it == kTable.end()) return false;
  int col = -1;
  if (dataset_name == "SynPEMS03" || dataset_name == "PEMS03") col = 0;
  if (dataset_name == "SynPEMS04" || dataset_name == "PEMS04") col = 1;
  if (dataset_name == "SynPEMS07" || dataset_name == "PEMS07") col = 2;
  if (dataset_name == "SynPEMS08" || dataset_name == "PEMS08") col = 3;
  if (col < 0) return false;
  *row = it->second[col];
  return true;
}

}  // namespace dyhsl::train
