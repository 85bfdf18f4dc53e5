// Dataset assembly: SynPEMS specs mirroring paper Table II, train/val/test
// splitting, standard scaling, sliding windows and mini-batching.

#ifndef DYHSL_DATA_DATASET_H_
#define DYHSL_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/data/road_network_gen.h"
#include "src/data/traffic_sim.h"
#include "src/tensor/tensor.h"

namespace dyhsl::data {

/// \brief A named synthetic dataset specification.
struct DatasetSpec {
  std::string name;
  RoadNetworkConfig network;
  TrafficSimConfig sim;

  /// \name Table II analogues
  ///
  /// Node/edge counts follow the paper's PEMS03/04/07/08 statistics
  /// multiplied by `node_scale` (1.0 = paper size); `days` controls the
  /// number of simulated days (the papers' datasets span 2-3 months).
  /// @{
  static DatasetSpec Pems03Like(double node_scale, int64_t days,
                                uint64_t seed = 3);
  static DatasetSpec Pems04Like(double node_scale, int64_t days,
                                uint64_t seed = 4);
  static DatasetSpec Pems07Like(double node_scale, int64_t days,
                                uint64_t seed = 7);
  static DatasetSpec Pems08Like(double node_scale, int64_t days,
                                uint64_t seed = 8);
  /// @}
};

/// \brief Z-score normalization fitted on training data (flow channel).
class StandardScaler {
 public:
  void Fit(const tensor::Tensor& series, int64_t fit_steps);
  float Transform(float raw) const { return (raw - mean_) / std_; }
  float Inverse(float scaled) const { return scaled * std_ + mean_; }
  float mean() const { return mean_; }
  float stddev() const { return std_; }

 private:
  float mean_ = 0.0f;
  float std_ = 1.0f;
};

/// \brief Materialized dataset: network + series + split + scaler.
///
/// Windows follow the paper's protocol: 12 history steps -> 12 horizon
/// steps, 60/20/20 chronological split, metrics on raw (inverse-scaled)
/// flow with zero readings masked.
class TrafficDataset {
 public:
  /// \brief Generates network + traffic from a spec.
  static TrafficDataset Generate(const DatasetSpec& spec);

  const std::string& name() const { return name_; }
  const SyntheticRoadNetwork& network() const { return network_; }
  const TrafficData& traffic() const { return traffic_; }
  const StandardScaler& scaler() const { return scaler_; }

  int64_t num_nodes() const { return network_.graph.num_nodes(); }
  int64_t num_steps() const { return traffic_.flow.size(0); }

  int64_t history() const { return history_; }
  int64_t horizon() const { return horizon_; }
  /// Input feature count: scaled flow, time-of-day, day-of-week.
  int64_t num_features() const { return 3; }

  /// \brief Index ranges of window *start* positions per split.
  struct SplitRange {
    int64_t begin;
    int64_t end;  // exclusive
    int64_t size() const { return end - begin; }
  };
  SplitRange train_range() const { return train_; }
  SplitRange val_range() const { return val_; }
  SplitRange test_range() const { return test_; }

  /// \brief Builds input tensor (T, N, F) for the window starting at t0.
  tensor::Tensor MakeInput(int64_t t0) const;
  /// \brief Raw-flow target (T', N) for the window starting at t0.
  tensor::Tensor MakeTarget(int64_t t0) const;

 private:
  std::string name_;
  SyntheticRoadNetwork network_;
  TrafficData traffic_;
  StandardScaler scaler_;
  int64_t history_ = 12;
  int64_t horizon_ = 12;
  SplitRange train_{0, 0}, val_{0, 0}, test_{0, 0};
};

/// \brief Shuffling mini-batch iterator over one split of a dataset.
class BatchIterator {
 public:
  /// One batch: inputs (B, T, N, F) and raw-flow targets (B, T', N).
  struct Batch {
    tensor::Tensor x;
    tensor::Tensor y;
    std::vector<int64_t> window_starts;
  };

  BatchIterator(const TrafficDataset* dataset,
                TrafficDataset::SplitRange range, int64_t batch_size,
                bool shuffle, uint64_t seed);

  /// \brief Restarts an epoch (reshuffles when enabled).
  void Reset();

  /// \brief Fills `batch`; returns false at end of epoch.
  bool Next(Batch* batch);

 private:
  const TrafficDataset* dataset_;
  TrafficDataset::SplitRange range_;
  int64_t batch_size_;
  bool shuffle_;
  Rng rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

}  // namespace dyhsl::data

#endif  // DYHSL_DATA_DATASET_H_
