// Forecast error metrics with the PEMS masking convention.
//
// PEMS sensors report exact zeros during outages; following the standard
// protocol (STSGCN and successors, which the paper adopts), readings whose
// ground truth is ~0 are excluded from MAE/RMSE and MAPE.

#ifndef DYHSL_METRICS_METRICS_H_
#define DYHSL_METRICS_METRICS_H_

#include <cstdint>
#include <string>

#include "src/tensor/tensor.h"

namespace dyhsl::metrics {

/// \brief The masked-zero threshold: a ground-truth reading within this of
/// zero is a sensor outage. Every metric here, the training loss
/// (train::MaskedMaeLoss), the classical baselines' fits and the streaming
/// sessions' rolling statistics skip such readings.
inline constexpr float kMaskThreshold = 1e-3f;

/// \brief Aggregate MAE / RMSE / MAPE over a stream of (pred, truth) pairs;
/// pairs whose |truth| <= kMaskThreshold are skipped.
class MetricAccumulator {
 public:
  /// \brief Adds every element of `pred` vs `truth` (same shape, raw scale).
  void Add(const tensor::Tensor& pred, const tensor::Tensor& truth);

  /// \brief Adds a single raw pair.
  void AddValue(float pred, float truth);

  double Mae() const;
  double Rmse() const;
  /// MAPE in percent (paper reports e.g. "14.38%").
  double Mape() const;
  int64_t count() const { return count_; }

 private:
  double abs_sum_ = 0.0;
  double sq_sum_ = 0.0;
  double ape_sum_ = 0.0;
  int64_t count_ = 0;
};

/// \brief MAE/RMSE/MAPE triple.
struct ForecastMetrics {
  double mae = 0.0;
  double rmse = 0.0;
  double mape = 0.0;  // percent

  std::string ToString() const;
};

}  // namespace dyhsl::metrics

#endif  // DYHSL_METRICS_METRICS_H_
