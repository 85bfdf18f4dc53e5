#include "src/metrics/metrics.h"

#include <cmath>
#include <sstream>

#include "src/core/check.h"
#include "src/tensor/ops.h"

namespace dyhsl::metrics {

void MetricAccumulator::Add(const tensor::Tensor& pred,
                            const tensor::Tensor& truth) {
  DYHSL_CHECK(tensor::SameShape(pred, truth));
  const float* p = pred.data();
  const float* t = truth.data();
  for (int64_t i = 0; i < pred.numel(); ++i) AddValue(p[i], t[i]);
}

void MetricAccumulator::AddValue(float pred, float truth) {
  if (std::fabs(truth) <= kMaskThreshold) return;  // masked reading
  double err = static_cast<double>(pred) - truth;
  abs_sum_ += std::fabs(err);
  sq_sum_ += err * err;
  ape_sum_ += std::fabs(err) / std::fabs(truth);
  ++count_;
}

double MetricAccumulator::Mae() const {
  return count_ == 0 ? 0.0 : abs_sum_ / count_;
}

double MetricAccumulator::Rmse() const {
  return count_ == 0 ? 0.0 : std::sqrt(sq_sum_ / count_);
}

double MetricAccumulator::Mape() const {
  return count_ == 0 ? 0.0 : 100.0 * ape_sum_ / count_;
}

std::string ForecastMetrics::ToString() const {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "MAE " << mae << "  RMSE " << rmse << "  MAPE " << mape << "%";
  return os.str();
}

}  // namespace dyhsl::metrics
