#include "src/data/dataset.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/core/check.h"

namespace dyhsl::data {
namespace {

DatasetSpec MakeSpec(std::string name, int64_t paper_nodes,
                     int64_t paper_edges, double node_scale, int64_t days,
                     uint64_t seed) {
  DatasetSpec spec;
  spec.name = std::move(name);
  spec.network.num_nodes =
      std::max<int64_t>(12, static_cast<int64_t>(paper_nodes * node_scale));
  // Scale edges by the same factor, preserving the paper's |E|/|V| ratio.
  double ratio = static_cast<double>(paper_edges) / paper_nodes;
  spec.network.target_edges = std::max<int64_t>(
      spec.network.num_nodes - 1,
      static_cast<int64_t>(ratio * spec.network.num_nodes));
  spec.network.num_districts =
      std::max<int64_t>(3, spec.network.num_nodes / 24);
  spec.network.seed = seed;
  spec.sim.num_days = days;
  spec.sim.seed = seed * 1000 + 17;
  return spec;
}

}  // namespace

DatasetSpec DatasetSpec::Pems03Like(double node_scale, int64_t days,
                                    uint64_t seed) {
  return MakeSpec("SynPEMS03", 358, 547, node_scale, days, seed);
}
DatasetSpec DatasetSpec::Pems04Like(double node_scale, int64_t days,
                                    uint64_t seed) {
  return MakeSpec("SynPEMS04", 307, 340, node_scale, days, seed);
}
DatasetSpec DatasetSpec::Pems07Like(double node_scale, int64_t days,
                                    uint64_t seed) {
  return MakeSpec("SynPEMS07", 883, 866, node_scale, days, seed);
}
DatasetSpec DatasetSpec::Pems08Like(double node_scale, int64_t days,
                                    uint64_t seed) {
  return MakeSpec("SynPEMS08", 170, 295, node_scale, days, seed);
}

void StandardScaler::Fit(const tensor::Tensor& series, int64_t fit_steps) {
  DYHSL_CHECK_EQ(series.dim(), 2);
  DYHSL_CHECK_LE(fit_steps, series.size(0));
  int64_t n = series.size(1);
  const float* p = series.data();
  double sum = 0.0, sq = 0.0;
  int64_t count = fit_steps * n;
  for (int64_t i = 0; i < count; ++i) {
    sum += p[i];
    sq += static_cast<double>(p[i]) * p[i];
  }
  mean_ = static_cast<float>(sum / count);
  double var = sq / count - static_cast<double>(mean_) * mean_;
  std_ = static_cast<float>(std::sqrt(std::max(var, 1e-6)));
}

TrafficDataset TrafficDataset::Generate(const DatasetSpec& spec) {
  TrafficDataset ds;
  ds.name_ = spec.name;
  ds.network_ = GenerateRoadNetwork(spec.network);
  ds.traffic_ = SimulateTraffic(ds.network_, spec.sim);

  int64_t steps = ds.traffic_.flow.size(0);
  int64_t window = ds.history_ + ds.horizon_;
  int64_t num_windows = steps - window + 1;
  DYHSL_CHECK_GT(num_windows, 10);
  // Chronological 60/20/20 split over window start positions.
  int64_t train_end = num_windows * 6 / 10;
  int64_t val_end = num_windows * 8 / 10;
  ds.train_ = {0, train_end};
  ds.val_ = {train_end, val_end};
  ds.test_ = {val_end, num_windows};
  // Scaler sees only steps covered by training windows.
  ds.scaler_.Fit(ds.traffic_.flow, train_end + window - 1);
  return ds;
}

tensor::Tensor TrafficDataset::MakeInput(int64_t t0) const {
  int64_t n = num_nodes();
  int64_t spd = traffic_.steps_per_day;
  tensor::Tensor x({history_, n, num_features()});
  const float* flow = traffic_.flow.data();
  float* px = x.data();
  for (int64_t t = 0; t < history_; ++t) {
    int64_t step = t0 + t;
    float tod = static_cast<float>(step % spd) / static_cast<float>(spd);
    float dow = static_cast<float>((step / spd) % 7) / 7.0f;
    for (int64_t i = 0; i < n; ++i) {
      float* f = px + (t * n + i) * num_features();
      f[0] = scaler_.Transform(flow[step * n + i]);
      f[1] = tod;
      f[2] = dow;
    }
  }
  return x;
}

tensor::Tensor TrafficDataset::MakeTarget(int64_t t0) const {
  int64_t n = num_nodes();
  tensor::Tensor y({horizon_, n});
  const float* flow = traffic_.flow.data();
  float* py = y.data();
  for (int64_t t = 0; t < horizon_; ++t) {
    int64_t step = t0 + history_ + t;
    for (int64_t i = 0; i < n; ++i) {
      py[t * n + i] = flow[step * n + i];
    }
  }
  return y;
}

BatchIterator::BatchIterator(const TrafficDataset* dataset,
                             TrafficDataset::SplitRange range,
                             int64_t batch_size, bool shuffle, uint64_t seed)
    : dataset_(dataset),
      range_(range),
      batch_size_(batch_size),
      shuffle_(shuffle),
      rng_(seed) {
  DYHSL_CHECK_GT(batch_size, 0);
  order_.resize(range.size());
  for (int64_t i = 0; i < range.size(); ++i) order_[i] = range.begin + i;
  Reset();
}

void BatchIterator::Reset() {
  cursor_ = 0;
  if (shuffle_) rng_.Shuffle(&order_);
}

bool BatchIterator::Next(Batch* batch) {
  if (cursor_ >= static_cast<int64_t>(order_.size())) return false;
  int64_t b = std::min<int64_t>(batch_size_,
                                static_cast<int64_t>(order_.size()) - cursor_);
  int64_t t_hist = dataset_->history();
  int64_t t_hor = dataset_->horizon();
  int64_t n = dataset_->num_nodes();
  int64_t f = dataset_->num_features();
  batch->x = tensor::Tensor({b, t_hist, n, f});
  batch->y = tensor::Tensor({b, t_hor, n});
  batch->window_starts.clear();
  for (int64_t k = 0; k < b; ++k) {
    int64_t t0 = order_[cursor_ + k];
    batch->window_starts.push_back(t0);
    tensor::Tensor x = dataset_->MakeInput(t0);
    tensor::Tensor y = dataset_->MakeTarget(t0);
    std::copy(x.data(), x.data() + x.numel(),
              batch->x.data() + k * x.numel());
    std::copy(y.data(), y.data() + y.numel(),
              batch->y.data() + k * y.numel());
  }
  cursor_ += b;
  return true;
}

}  // namespace dyhsl::data
