// Reproduces paper Fig. 6: case study of predictions vs ground truth on
// SynPEMS08. The paper plots four sensors showing (a) regular daily
// patterns, (b) adaptation to a pattern change (weekday -> weekend),
// (c) robustness to noise, (d) an anomalous sensor. We train DyHSL, roll
// 1-step-window predictions across the test days, select sensors by those
// criteria from simulation ground truth, print compact ASCII charts and
// write the full series to CSV for plotting.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/data/io.h"

namespace dyhsl::bench {
namespace {

// Renders two aligned series as a small ASCII chart.
void AsciiChart(const std::vector<float>& truth,
                const std::vector<float>& pred, int64_t width = 96) {
  float lo = 1e30f, hi = -1e30f;
  for (float v : truth) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) hi = lo + 1.0f;
  const int kRows = 12;
  int64_t stride =
      std::max<int64_t>(1, static_cast<int64_t>(truth.size()) / width);
  int64_t cols = static_cast<int64_t>(truth.size()) / stride;
  std::vector<std::string> canvas(kRows, std::string(cols, ' '));
  auto put = [&](const std::vector<float>& s, char ch) {
    for (int64_t c = 0; c < cols; ++c) {
      float v = s[c * stride];
      int row = static_cast<int>((v - lo) / (hi - lo) * (kRows - 1) + 0.5f);
      row = std::clamp(row, 0, kRows - 1);
      char& cell = canvas[kRows - 1 - row][c];
      cell = (cell == ' ' || cell == ch) ? ch : '#';
    }
  };
  put(truth, '.');
  put(pred, '*');
  for (const std::string& line : canvas) std::printf("    |%s\n", line.c_str());
  std::printf("    +%s\n", std::string(cols, '-').c_str());
  std::printf("    truth='.'  prediction='*'  overlap='#'  range=[%.0f, %.0f]\n",
              lo, hi);
}

int Main() {
  BenchEnv env = BenchEnv::FromEnvironment();
  PrintHeaderLine("Fig. 6: prediction case study on SynPEMS08", env);

  data::TrafficDataset ds = MakeDataset("SynPEMS08", env);
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  models::DyHslConfig cfg;
  cfg.hidden_dim = env.zoo_config.hidden_dim;
  cfg.prior_layers = 3;
  cfg.mhce_layers = 2;
  cfg.num_hyperedges = 16;
  cfg.seed = env.zoo_config.seed;
  models::DyHsl model(task, cfg);
  train::TrainModel(&model, ds, env.train_config);

  // Roll 1-step-ahead-window forecasts over a test stretch: use horizon
  // step 0 of consecutive windows.
  auto range = ds.test_range();
  int64_t span = std::min<int64_t>(range.size(),
                                   env.profile == RunProfile::kTiny ? 96
                                                                    : 288);
  int64_t n = ds.num_nodes();
  std::vector<std::vector<float>> truth(n), pred(n);
  data::BatchIterator it(&ds, {range.begin, range.begin + span},
                         env.knobs.batch_size, /*shuffle=*/false, 1);
  data::BatchIterator::Batch batch;
  while (it.Next(&batch)) {
    autograd::Variable out = model.Forward(batch.x, false);
    for (int64_t b = 0; b < batch.x.size(0); ++b) {
      for (int64_t i = 0; i < n; ++i) {
        truth[i].push_back(batch.y.At({b, 0, i}));
        pred[i].push_back(out.value().At({b, 0, i}));
      }
    }
  }

  // Sensor selection per the paper's four panels.
  // (a) regular: sensor with lowest noise-to-profile ratio -> lowest
  //     high-frequency energy; approximate by smallest lag-1 differences.
  auto roughness = [&](const std::vector<float>& s) {
    double acc = 0;
    for (size_t k = 1; k < s.size(); ++k) {
      acc += std::fabs(s[k] - s[k - 1]);
    }
    return acc / s.size();
  };
  int64_t regular = 0, noisy = 0, eventful = 0, anomalous = 0;
  double best_rough = 1e30, worst_rough = -1;
  for (int64_t i = 0; i < n; ++i) {
    double r = roughness(truth[i]);
    if (r < best_rough) {
      best_rough = r;
      regular = i;
    }
    if (r > worst_rough) {
      worst_rough = r;
      noisy = i;
    }
  }
  // (b) pattern change: epicenter of the last test-range event if any.
  if (!ds.traffic().events.empty()) {
    eventful = ds.traffic().events.back().epicenter;
  }
  // (d) anomalous: sensor with most near-zero (dropout) readings.
  int64_t most_zeros = -1;
  for (int64_t i = 0; i < n; ++i) {
    int64_t zeros = 0;
    for (float v : truth[i]) zeros += (v <= metrics::kMaskThreshold);
    if (zeros > most_zeros) {
      most_zeros = zeros;
      anomalous = i;
    }
  }

  struct Panel {
    const char* title;
    int64_t sensor;
  };
  std::vector<Panel> panels = {
      {"(a) regular daily pattern       [paper: sensor 105]", regular},
      {"(b) pattern change / event area [paper: sensor 5]", eventful},
      {"(c) noisy signal                [paper: sensor 49]", noisy},
      {"(d) anomalous sensor            [paper: sensor 78]", anomalous},
  };
  for (const Panel& p : panels) {
    metrics::MetricAccumulator acc;
    for (size_t k = 0; k < truth[p.sensor].size(); ++k) {
      acc.AddValue(pred[p.sensor][k], truth[p.sensor][k]);
    }
    std::printf("\n%s -> SynPEMS08 sensor %lld, 1-step MAE %.2f\n", p.title,
                static_cast<long long>(p.sensor), acc.Mae());
    AsciiChart(truth[p.sensor], pred[p.sensor]);
  }

  // Dump all four panels to CSV (rows: time; cols: truth/pred pairs).
  int64_t len = static_cast<int64_t>(truth[regular].size());
  tensor::Tensor csv({len, 8});
  for (int64_t t = 0; t < len; ++t) {
    int64_t c = 0;
    for (const Panel& p : panels) {
      csv.data()[t * 8 + c++] = truth[p.sensor][t];
      csv.data()[t * 8 + c++] = pred[p.sensor][t];
    }
  }
  std::string path = "fig6_case_study.csv";
  if (data::SaveCsv(csv, path).ok()) {
    std::printf("\nFull series written to %s "
                "(truth/pred pairs for the four panels)\n",
                path.c_str());
  }
  std::printf(
      "\nExpected shape (paper): predictions track daily peaks, adapt to\n"
      "pattern changes, stay reasonable under noise, and degrade gracefully\n"
      "on anomalous sensors.\n");
  return 0;
}

}  // namespace
}  // namespace dyhsl::bench

int main() { return dyhsl::bench::Main(); }
