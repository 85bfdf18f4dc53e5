// DyHSL: Dynamic Hypergraph Structure Learning for traffic flow forecasting
// (the paper's primary contribution, section IV).

#ifndef DYHSL_MODELS_DYHSL_H_
#define DYHSL_MODELS_DYHSL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/models/blocks.h"
#include "src/nn/layers.h"
#include "src/nn/module.h"
#include "src/train/forecast_model.h"

namespace dyhsl::models {

/// \brief Hyperparameters (paper V-A4 defaults) and ablation switches.
struct DyHslConfig {
  int64_t hidden_dim = 64;       // d
  int64_t prior_layers = 6;      // Lp
  int64_t mhce_layers = 2;       // Ls
  int64_t num_hyperedges = 32;   // I
  /// Temporal pooling windows ε (paper: J = 6 scales). Every entry must
  /// divide the history length.
  std::vector<int64_t> window_sizes = {1, 2, 3, 4, 6, 12};
  float dropout = 0.1f;
  uint64_t seed = 21;

  /// \name Ablation switches (Tables V / VI / VII)
  /// @{
  StructureLearning structure_learning = StructureLearning::kLowRank;
  bool use_igc = true;
  /// @}
};

/// \brief The full model: prior graph encoder -> multi-scale holistic
/// correlation extraction (DHSL + IGC per scale, Eq. 13) -> adaptive scale
/// fusion (Eq. 14) -> prediction head.
class DyHsl : public nn::Module, public train::ForecastModel {
 public:
  DyHsl(const train::ForecastTask& task, const DyHslConfig& config);

  autograd::Variable Forward(const tensor::Tensor& x, bool training) override;

  std::vector<autograd::Variable> Parameters() const override {
    return nn::Module::Parameters();
  }
  int64_t ParameterCount() const override {
    return nn::Module::ParameterCount();
  }
  std::string name() const override { return "DyHSL"; }

  const DyHslConfig& config() const { return config_; }

  /// \brief The DHSL block shared by every scale and MHCE iteration.
  const DhslBlock& dhsl() const { return dhsl_; }

  /// \brief Learned incidence matrix Λ of the finest scale (ε = 1) for the
  /// given input, shape (B, T*N, I). Used by the Fig. 7 analysis.
  tensor::Tensor IncidenceFor(const tensor::Tensor& x);

  /// \brief Softmax-normalized scale fusion weights (Eq. 14), length J.
  std::vector<float> ScaleWeights() const;

 private:
  /// One MHCE branch: pool to scale eps, run Ls iterations of
  /// 0.5 * (DHSL + IGC), mean-pool over time -> (B, N, d).
  autograd::Variable RunScale(const autograd::Variable& h_full, int64_t eps,
                              bool training, Rng* dropout_rng);

  train::ForecastTask task_;
  DyHslConfig config_;
  Rng rng_;

  autograd::SparseConstant prior_temporal_op_;
  /// Normalized temporal-graph operator per pooled length T/ε.
  std::map<int64_t, autograd::SparseConstant> scale_ops_;

  PriorGraphEncoder encoder_;
  DhslBlock dhsl_;
  IgcBlock igc_;
  nn::LayerNorm iter_norm_;
  autograd::Variable scale_logits_;  // (J), Eq. 14 weights
  nn::Linear head_;
};

}  // namespace dyhsl::models

#endif  // DYHSL_MODELS_DYHSL_H_
