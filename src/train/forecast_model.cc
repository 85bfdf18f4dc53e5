#include "src/train/forecast_model.h"

#include <cmath>

#include "src/autograd/ops.h"
#include "src/core/check.h"
#include "src/metrics/metrics.h"
#include "src/tensor/ops.h"

namespace dyhsl::train {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

ForecastTask ForecastTask::FromDataset(const data::TrafficDataset& dataset) {
  ForecastTask task;
  task.num_nodes = dataset.num_nodes();
  task.input_dim = dataset.num_features();
  task.history = dataset.history();
  task.horizon = dataset.horizon();
  task.scaler_mean = dataset.scaler().mean();
  task.scaler_std = dataset.scaler().stddev();
  task.spatial_adj = dataset.network().graph.ToAdjacency();
  task.district_labels = dataset.network().district;
  task.steps_per_day = dataset.traffic().steps_per_day;
  return task;
}

ForecastTask ShardTask(const ForecastTask& global,
                       const graph::ShardSpec& shard) {
  DYHSL_CHECK_EQ(global.spatial_adj.rows(), global.num_nodes);
  ForecastTask task = global;
  task.num_nodes = shard.num_local();
  task.spatial_adj = graph::InducedSubgraph(global.spatial_adj, shard);
  task.district_labels.clear();
  if (!global.district_labels.empty()) {
    task.district_labels.reserve(shard.locals.size());
    for (int64_t g : shard.locals) {
      DYHSL_CHECK_MSG(
          g >= 0 && g < static_cast<int64_t>(global.district_labels.size()),
          "ShardTask: shard local id outside the global task");
      task.district_labels.push_back(global.district_labels[g]);
    }
  }
  return task;
}

ag::Variable MaskedMaeLoss(const ag::Variable& pred,
                           const tensor::Tensor& target) {
  DYHSL_CHECK(pred.shape() == target.shape());
  // Constant mask from the target: 1 where |truth| > kMaskThreshold.
  T::Tensor mask(target.shape());
  double active = 0.0;
  for (int64_t i = 0; i < target.numel(); ++i) {
    bool keep = std::fabs(target.data()[i]) > metrics::kMaskThreshold;
    mask.data()[i] = keep ? 1.0f : 0.0f;
    active += keep;
  }
  if (active < 1.0) active = 1.0;
  ag::Variable masked_err =
      ag::Mul(ag::Abs(ag::Sub(pred, ag::Variable(target))),
              ag::Variable(mask));
  return ag::MulScalar(ag::SumAll(masked_err),
                       1.0f / static_cast<float>(active));
}

ag::Variable Descale(const ag::Variable& scaled, float mean, float stddev) {
  return ag::AddScalar(ag::MulScalar(scaled, stddev), mean);
}

}  // namespace dyhsl::train
