// The common contract between trainable forecasting models (DyHSL and every
// neural baseline) and the training / evaluation / benchmark harnesses.

#ifndef DYHSL_TRAIN_FORECAST_MODEL_H_
#define DYHSL_TRAIN_FORECAST_MODEL_H_

#include <string>
#include <vector>

#include "src/autograd/variable.h"
#include "src/data/dataset.h"
#include "src/graph/shard.h"
#include "src/tensor/sparse.h"

namespace dyhsl::train {

/// \brief Everything a model needs to know about the forecasting task,
/// extracted once from a TrafficDataset.
struct ForecastTask {
  int64_t num_nodes = 0;
  int64_t input_dim = 3;
  int64_t history = 12;   // T
  int64_t horizon = 12;   // T'
  /// Training-set flow statistics; models emit raw flow by applying this
  /// affine de-normalization at the head.
  float scaler_mean = 0.0f;
  float scaler_std = 1.0f;
  /// Weighted road adjacency (N x N, no self loops).
  tensor::CsrMatrix spatial_adj;
  /// Latent district id per node (community hyperedges for the
  /// predefined-hypergraph baselines; DyHSL itself never sees these).
  std::vector<int64_t> district_labels;
  int64_t steps_per_day = 288;

  static ForecastTask FromDataset(const data::TrafficDataset& dataset);
};

/// \brief Shard-scoped view of a global task: num_nodes becomes the
/// shard's owned + halo count, the adjacency becomes the induced subgraph
/// (local ids), and district labels are gathered per local node. Scaler
/// statistics, history/horizon and the feature layout carry over, so any
/// ForecastModel built from the result is a drop-in shard model.
ForecastTask ShardTask(const ForecastTask& global,
                       const graph::ShardSpec& shard);

/// \brief A trainable spatio-temporal forecaster.
///
/// Input x is (B, T, N, F) with the scaled-flow/time features produced by
/// TrafficDataset::MakeInput; output is (B, T', N) in *raw* flow units.
class ForecastModel {
 public:
  virtual ~ForecastModel() = default;

  virtual autograd::Variable Forward(const tensor::Tensor& x,
                                     bool training) = 0;
  virtual std::vector<autograd::Variable> Parameters() const = 0;
  virtual int64_t ParameterCount() const = 0;
  virtual std::string name() const = 0;
};

/// \brief Masked mean-absolute-error training loss (PEMS convention: target
/// readings within metrics::kMaskThreshold of 0 are sensor dropouts and
/// carry no gradient).
autograd::Variable MaskedMaeLoss(const autograd::Variable& pred,
                                 const tensor::Tensor& target);

/// \brief De-normalizes a scaled prediction back to raw flow.
autograd::Variable Descale(const autograd::Variable& scaled, float mean,
                           float stddev);

}  // namespace dyhsl::train

#endif  // DYHSL_TRAIN_FORECAST_MODEL_H_
