#include "src/baselines/classical.h"

#include <algorithm>
#include <cmath>

#include "src/core/check.h"
#include "src/core/rng.h"

namespace dyhsl::baselines {
namespace {

// Solves (A + ridge * I) x = b in-place for a dense symmetric positive
// definite A (n x n, row-major) by Cholesky; returns x.
std::vector<float> SolveRidge(std::vector<double> a, std::vector<double> b,
                              int64_t n, double ridge) {
  for (int64_t i = 0; i < n; ++i) a[i * n + i] += ridge;
  // Cholesky decomposition A = L L^T.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j];
      for (int64_t k = 0; k < j; ++k) sum -= a[i * n + k] * a[j * n + k];
      if (i == j) {
        a[i * n + i] = std::sqrt(std::max(sum, 1e-9));
      } else {
        a[i * n + j] = sum / a[j * n + j];
      }
    }
  }
  // Forward solve L y = b.
  for (int64_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (int64_t k = 0; k < i; ++k) sum -= a[i * n + k] * b[k];
    b[i] = sum / a[i * n + i];
  }
  // Back solve L^T x = y.
  for (int64_t i = n - 1; i >= 0; --i) {
    double sum = b[i];
    for (int64_t k = i + 1; k < n; ++k) sum -= a[k * n + i] * b[k];
    b[i] = sum / a[i * n + i];
  }
  std::vector<float> x(n);
  for (int64_t i = 0; i < n; ++i) x[i] = static_cast<float>(b[i]);
  return x;
}

// Last training step covered by the training windows.
int64_t TrainSteps(const data::TrafficDataset& dataset) {
  return dataset.train_range().end + dataset.history() +
         dataset.horizon() - 1;
}

}  // namespace

void HistoricalAverage::Fit(const data::TrafficDataset& dataset) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = dataset.num_nodes();
  steps_per_day_ = dataset.traffic().steps_per_day;
  int64_t steps = std::min<int64_t>(TrainSteps(dataset), flow.size(0));
  has_weekend_ = steps > 5 * steps_per_day_;
  int64_t regimes = has_weekend_ ? 2 : 1;
  bucket_mean_.assign(regimes,
                      std::vector<float>(steps_per_day_ * n, 0.0f));
  std::vector<std::vector<int64_t>> counts(
      regimes, std::vector<int64_t>(steps_per_day_ * n, 0));
  const float* p = flow.data();
  for (int64_t s = 0; s < steps; ++s) {
    int64_t tod = s % steps_per_day_;
    int64_t regime =
        has_weekend_ && ((s / steps_per_day_) % 7 >= 5) ? 1 : 0;
    for (int64_t i = 0; i < n; ++i) {
      float v = p[s * n + i];
      if (v <= metrics::kMaskThreshold) continue;  // skip dropout readings
      bucket_mean_[regime][tod * n + i] += v;
      counts[regime][tod * n + i] += 1;
    }
  }
  for (int64_t r = 0; r < regimes; ++r) {
    for (size_t k = 0; k < bucket_mean_[r].size(); ++k) {
      if (counts[r][k] > 0) {
        bucket_mean_[r][k] /= static_cast<float>(counts[r][k]);
      }
    }
  }
}

tensor::Tensor HistoricalAverage::Predict(const data::TrafficDataset& dataset,
                                          int64_t t0) {
  int64_t n = dataset.num_nodes();
  tensor::Tensor out({dataset.horizon(), n});
  for (int64_t h = 0; h < dataset.horizon(); ++h) {
    int64_t step = t0 + dataset.history() + h;
    int64_t tod = step % steps_per_day_;
    int64_t regime =
        has_weekend_ && ((step / steps_per_day_) % 7 >= 5) ? 1 : 0;
    for (int64_t i = 0; i < n; ++i) {
      out.data()[h * n + i] = bucket_mean_[regime][tod * n + i];
    }
  }
  return out;
}

void Arima::Fit(const data::TrafficDataset& dataset) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = dataset.num_nodes();
  int64_t steps = std::min<int64_t>(TrainSteps(dataset), flow.size(0));
  int64_t p = ar_order_;
  coef_.assign(n, std::vector<float>(p, 0.0f));
  intercept_.assign(n, 0.0f);
  const float* f = flow.data();
  // Per-node AR(p) on first differences d_t = x_t - x_{t-1}.
  std::vector<double> diffs(steps - 1);
  for (int64_t node = 0; node < n; ++node) {
    for (int64_t s = 1; s < steps; ++s) {
      diffs[s - 1] = static_cast<double>(f[s * n + node]) -
                     f[(s - 1) * n + node];
    }
    int64_t rows = static_cast<int64_t>(diffs.size()) - p;
    if (rows <= p + 1) continue;
    // Normal equations over lag features (+ intercept handled via mean).
    std::vector<double> xtx((p + 1) * (p + 1), 0.0);
    std::vector<double> xty(p + 1, 0.0);
    for (int64_t r = 0; r < rows; ++r) {
      // Feature vector: [d_{t-1}, ..., d_{t-p}, 1]; target d_t.
      double target = diffs[r + p];
      for (int64_t a = 0; a <= p; ++a) {
        double fa = a < p ? diffs[r + p - 1 - a] : 1.0;
        xty[a] += fa * target;
        for (int64_t b = 0; b <= p; ++b) {
          double fb = b < p ? diffs[r + p - 1 - b] : 1.0;
          xtx[a * (p + 1) + b] += fa * fb;
        }
      }
    }
    std::vector<float> sol =
        SolveRidge(std::move(xtx), std::move(xty), p + 1, ridge_ * rows);
    for (int64_t a = 0; a < p; ++a) coef_[node][a] = sol[a];
    intercept_[node] = sol[p];
  }
}

tensor::Tensor Arima::Predict(const data::TrafficDataset& dataset,
                              int64_t t0) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = dataset.num_nodes();
  int64_t hist = dataset.history();
  int64_t horizon = dataset.horizon();
  tensor::Tensor out({horizon, n});
  const float* f = flow.data();
  int64_t p = ar_order_;
  for (int64_t node = 0; node < n; ++node) {
    // Seed the difference window from the history.
    std::vector<double> d(p, 0.0);
    for (int64_t a = 0; a < p; ++a) {
      int64_t s = t0 + hist - 1 - a;
      if (s >= 1) {
        d[a] = static_cast<double>(f[s * n + node]) - f[(s - 1) * n + node];
      }
    }
    double level = f[(t0 + hist - 1) * n + node];
    for (int64_t h = 0; h < horizon; ++h) {
      double dh = intercept_[node];
      for (int64_t a = 0; a < p; ++a) dh += coef_[node][a] * d[a];
      level = std::max(0.0, level + dh);
      out.data()[h * n + node] = static_cast<float>(level);
      for (int64_t a = p - 1; a > 0; --a) d[a] = d[a - 1];
      if (p > 0) d[0] = dh;
    }
  }
  return out;
}

void Var::Fit(const data::TrafficDataset& dataset) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  num_nodes_ = dataset.num_nodes();
  int64_t n = num_nodes_;
  int64_t steps = std::min<int64_t>(TrainSteps(dataset), flow.size(0));
  int64_t dim = n * order_ + 1;
  const float* f = flow.data();
  // Center the series for numerical stability.
  double sum = 0.0;
  for (int64_t i = 0; i < steps * n; ++i) sum += f[i];
  train_mean_ = static_cast<float>(sum / (steps * n));

  std::vector<double> xtx(dim * dim, 0.0);
  std::vector<double> xty(dim * n, 0.0);
  std::vector<double> feat(dim);
  for (int64_t t = order_; t < steps; ++t) {
    for (int64_t l = 0; l < order_; ++l) {
      for (int64_t i = 0; i < n; ++i) {
        feat[l * n + i] = f[(t - 1 - l) * n + i] - train_mean_;
      }
    }
    feat[dim - 1] = 1.0;
    for (int64_t a = 0; a < dim; ++a) {
      if (feat[a] == 0.0) continue;
      for (int64_t b = 0; b < dim; ++b) {
        xtx[a * dim + b] += feat[a] * feat[b];
      }
      for (int64_t j = 0; j < n; ++j) {
        xty[a * n + j] += feat[a] * (f[t * n + j] - train_mean_);
      }
    }
  }
  // Solve per output column with a shared Cholesky-friendly loop.
  weights_.assign(dim * n, 0.0f);
  for (int64_t j = 0; j < n; ++j) {
    std::vector<double> b(dim);
    for (int64_t a = 0; a < dim; ++a) b[a] = xty[a * n + j];
    std::vector<float> w = SolveRidge(xtx, std::move(b), dim,
                                      ridge_ * (steps - order_));
    for (int64_t a = 0; a < dim; ++a) weights_[a * n + j] = w[a];
  }
}

tensor::Tensor Var::Predict(const data::TrafficDataset& dataset, int64_t t0) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = num_nodes_;
  int64_t hist = dataset.history();
  int64_t horizon = dataset.horizon();
  int64_t dim = n * order_ + 1;
  const float* f = flow.data();
  // Rolling buffer of the last `order_` (centered) observations.
  std::vector<std::vector<double>> lags(order_, std::vector<double>(n));
  for (int64_t l = 0; l < order_; ++l) {
    for (int64_t i = 0; i < n; ++i) {
      lags[l][i] = f[(t0 + hist - 1 - l) * n + i] - train_mean_;
    }
  }
  tensor::Tensor out({horizon, n});
  std::vector<double> next(n);
  for (int64_t h = 0; h < horizon; ++h) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = weights_[(dim - 1) * n + j];  // intercept
      for (int64_t l = 0; l < order_; ++l) {
        for (int64_t i = 0; i < n; ++i) {
          acc += weights_[(l * n + i) * n + j] * lags[l][i];
        }
      }
      next[j] = acc;
      out.data()[h * n + j] =
          std::max(0.0f, static_cast<float>(acc + train_mean_));
    }
    for (int64_t l = order_ - 1; l > 0; --l) lags[l] = lags[l - 1];
    lags[0] = next;
  }
  return out;
}

void LinearSvr::Fit(const data::TrafficDataset& dataset) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = dataset.num_nodes();
  history_ = dataset.history();
  horizon_ = dataset.horizon();
  mean_ = dataset.scaler().mean();
  std_ = dataset.scaler().stddev();
  weights_.assign(history_ * horizon_, 0.0f);
  bias_.assign(horizon_, 0.0f);
  const float* f = flow.data();
  float eps_scaled = epsilon_ / std_;
  Rng rng(17);
  int64_t train_windows = dataset.train_range().end;
  float lr = learning_rate_;
  for (int64_t epoch = 0; epoch < epochs_; ++epoch) {
    for (int64_t it = 0; it < train_windows; ++it) {
      int64_t t0 = static_cast<int64_t>(rng.NextBelow(train_windows));
      int64_t node = static_cast<int64_t>(rng.NextBelow(n));
      // z-scored lag features.
      float x[64];
      DYHSL_CHECK_LE(history_, 64);
      for (int64_t a = 0; a < history_; ++a) {
        x[a] = (f[(t0 + a) * n + node] - mean_) / std_;
      }
      for (int64_t h = 0; h < horizon_; ++h) {
        float target = (f[(t0 + history_ + h) * n + node] - mean_) / std_;
        float pred = bias_[h];
        for (int64_t a = 0; a < history_; ++a) {
          pred += weights_[a * horizon_ + h] * x[a];
        }
        float err = pred - target;
        // Epsilon-insensitive subgradient.
        float g = 0.0f;
        if (err > eps_scaled) g = 1.0f;
        if (err < -eps_scaled) g = -1.0f;
        for (int64_t a = 0; a < history_; ++a) {
          float& w = weights_[a * horizon_ + h];
          w -= lr * (g * x[a] + l2_ * w);
        }
        bias_[h] -= lr * g;
      }
    }
    lr *= 0.7f;
  }
}

tensor::Tensor LinearSvr::Predict(const data::TrafficDataset& dataset,
                                  int64_t t0) {
  const tensor::Tensor& flow = dataset.traffic().flow;
  int64_t n = dataset.num_nodes();
  tensor::Tensor out({horizon_, n});
  const float* f = flow.data();
  for (int64_t node = 0; node < n; ++node) {
    float x[64];
    for (int64_t a = 0; a < history_; ++a) {
      x[a] = (f[(t0 + a) * n + node] - mean_) / std_;
    }
    for (int64_t h = 0; h < horizon_; ++h) {
      float pred = bias_[h];
      for (int64_t a = 0; a < history_; ++a) {
        pred += weights_[a * horizon_ + h] * x[a];
      }
      out.data()[h * n + node] = std::max(0.0f, pred * std_ + mean_);
    }
  }
  return out;
}

metrics::ForecastMetrics EvaluateClassical(
    ClassicalModel* model, const data::TrafficDataset& dataset,
    data::TrafficDataset::SplitRange range, int64_t max_windows) {
  metrics::MetricAccumulator acc;
  int64_t count = 0;
  for (int64_t t0 = range.begin; t0 < range.end; ++t0) {
    if (max_windows > 0 && count >= max_windows) break;
    tensor::Tensor pred = model->Predict(dataset, t0);
    tensor::Tensor truth = dataset.MakeTarget(t0);
    acc.Add(pred, truth);
    ++count;
  }
  return {acc.Mae(), acc.Rmse(), acc.Mape()};
}

}  // namespace dyhsl::baselines
