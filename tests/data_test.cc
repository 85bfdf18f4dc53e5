// Tests for the SynPEMS data substrate: network generation, traffic
// simulation realism properties, dataset windows/splits/scaling, CSV IO,
// and the masked metrics.

#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/dataset.h"
#include "src/data/io.h"
#include "src/data/road_network_gen.h"
#include "src/data/traffic_sim.h"
#include "src/metrics/metrics.h"
#include "tests/testing_utils.h"
#include "src/tensor/ops.h"

namespace dyhsl::data {
namespace {

namespace T = ::dyhsl::tensor;

RoadNetworkConfig SmallNet() {
  RoadNetworkConfig cfg;
  cfg.num_nodes = 30;
  cfg.num_districts = 3;
  cfg.target_edges = 45;
  cfg.seed = 5;
  return cfg;
}

TEST(RoadNetworkGenTest, NodeAndEdgeCounts) {
  SyntheticRoadNetwork net = GenerateRoadNetwork(SmallNet());
  EXPECT_EQ(net.graph.num_nodes(), 30);
  EXPECT_GE(net.graph.UndirectedEdgeCount(), 29);  // at least spanning tree
  EXPECT_LE(net.graph.UndirectedEdgeCount(), 50);
  EXPECT_EQ(static_cast<int64_t>(net.district.size()), 30);
}

TEST(RoadNetworkGenTest, Connected) {
  SyntheticRoadNetwork net = GenerateRoadNetwork(SmallNet());
  std::vector<int64_t> hops = HopDistances(net.graph, 0);
  for (int64_t i = 0; i < 30; ++i) EXPECT_GE(hops[i], 0) << "node " << i;
}

TEST(RoadNetworkGenTest, DeterministicForSeed) {
  SyntheticRoadNetwork a = GenerateRoadNetwork(SmallNet());
  SyntheticRoadNetwork b = GenerateRoadNetwork(SmallNet());
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.district, b.district);
}

TEST(RoadNetworkGenTest, AllDistrictTypesPresent) {
  SyntheticRoadNetwork net = GenerateRoadNetwork(SmallNet());
  std::set<int> types;
  for (DistrictType t : net.district_type) types.insert(static_cast<int>(t));
  EXPECT_EQ(types.size(), 3u);
}

TEST(RoadNetworkGenTest, EdgeWeightsInUnitInterval) {
  SyntheticRoadNetwork net = GenerateRoadNetwork(SmallNet());
  for (const auto& e : net.graph.edges()) {
    EXPECT_GT(e.weight, 0.0f);
    EXPECT_LE(e.weight, 1.0f);
  }
}

TEST(DailyProfileTest, RushHoursPeak) {
  const int64_t spd = 288;
  auto at_hour = [&](DistrictType t, double hour, bool weekend) {
    return DailyProfile(t, static_cast<int64_t>(hour * 12), spd, weekend);
  };
  // Residential weekday: morning peak well above 3am.
  EXPECT_GT(at_hour(DistrictType::kResidential, 8.0, false),
            2.0f * at_hour(DistrictType::kResidential, 3.0, false));
  // Business weekday: evening peak dominates morning.
  EXPECT_GT(at_hour(DistrictType::kBusiness, 17.6, false),
            at_hour(DistrictType::kBusiness, 8.0, false));
  // Weekend flattens the residential morning rush.
  EXPECT_LT(at_hour(DistrictType::kResidential, 8.0, true),
            at_hour(DistrictType::kResidential, 8.0, false));
}

class TrafficSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = GenerateRoadNetwork(SmallNet());
    cfg_.num_days = 3;
    cfg_.seed = 11;
    data_ = SimulateTraffic(net_, cfg_);
  }
  SyntheticRoadNetwork net_;
  TrafficSimConfig cfg_;
  TrafficData data_;
};

TEST_F(TrafficSimTest, ShapeAndNonNegativity) {
  EXPECT_EQ(data_.flow.shape(), (T::Shape{3 * 288, 30}));
  for (float v : data_.flow.ToVector()) EXPECT_GE(v, 0.0f);
}

TEST_F(TrafficSimTest, DailyPeriodicityVisible) {
  // Mean flow at 8am should exceed mean flow at 3am by a wide margin.
  auto mean_at = [&](int64_t tod) {
    double sum = 0.0;
    int64_t cnt = 0;
    for (int64_t day = 0; day < 3; ++day) {
      int64_t s = day * 288 + tod;
      for (int64_t i = 0; i < 30; ++i) {
        sum += data_.flow.At({s, i});
        ++cnt;
      }
    }
    return sum / cnt;
  };
  EXPECT_GT(mean_at(8 * 12), 2.0 * mean_at(3 * 12));
}

TEST_F(TrafficSimTest, DistrictCoMovement) {
  // Nodes in the same district should correlate more strongly than nodes
  // in different districts (the non-pairwise structure DyHSL exploits).
  int64_t steps = data_.flow.size(0);
  auto series = [&](int64_t node) {
    std::vector<double> v(steps);
    for (int64_t s = 0; s < steps; ++s) v[s] = data_.flow.At({s, node});
    return v;
  };
  auto corr = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double ma = 0, mb = 0;
    for (int64_t i = 0; i < steps; ++i) {
      ma += a[i];
      mb += b[i];
    }
    ma /= steps;
    mb /= steps;
    double num = 0, da = 0, db = 0;
    for (int64_t i = 0; i < steps; ++i) {
      num += (a[i] - ma) * (b[i] - mb);
      da += (a[i] - ma) * (a[i] - ma);
      db += (b[i] - mb) * (b[i] - mb);
    }
    return num / std::sqrt(da * db + 1e-9);
  };
  // Average same-district vs cross-district correlation over sampled pairs.
  double same_sum = 0, cross_sum = 0;
  int64_t same_cnt = 0, cross_cnt = 0;
  for (int64_t a = 0; a < 30; ++a) {
    for (int64_t b = a + 1; b < 30; ++b) {
      double c = corr(series(a), series(b));
      if (net_.district[a] == net_.district[b]) {
        same_sum += c;
        ++same_cnt;
      } else {
        cross_sum += c;
        ++cross_cnt;
      }
    }
  }
  ASSERT_GT(same_cnt, 0);
  ASSERT_GT(cross_cnt, 0);
  EXPECT_GT(same_sum / same_cnt, cross_sum / cross_cnt);
}

TEST_F(TrafficSimTest, EventsSuppressFlowAtEpicenter) {
  ASSERT_FALSE(data_.events.empty());
  // Re-simulate without events and compare at event epicenters.
  TrafficSimConfig no_events = cfg_;
  no_events.events_per_day = 0.0f;
  no_events.dropout_prob = 0.0f;
  TrafficSimConfig with_events = cfg_;
  with_events.dropout_prob = 0.0f;
  TrafficData base = SimulateTraffic(net_, no_events);
  TrafficData wd = SimulateTraffic(net_, with_events);
  double suppressed = 0.0;
  int64_t cnt = 0;
  for (const TrafficEvent& e : wd.events) {
    int64_t mid = e.start_step + e.duration_steps / 2;
    if (mid >= wd.flow.size(0)) continue;
    suppressed += base.flow.At({mid, e.epicenter}) -
                  wd.flow.At({mid, e.epicenter});
    ++cnt;
  }
  ASSERT_GT(cnt, 0);
  EXPECT_GT(suppressed / cnt, 0.0);
}

TEST_F(TrafficSimTest, DropoutsProduceZeros) {
  TrafficSimConfig cfg = cfg_;
  cfg.dropout_prob = 5e-3f;  // force plenty of dropouts
  TrafficData d = SimulateTraffic(net_, cfg);
  int64_t zeros = 0;
  for (float v : d.flow.ToVector()) zeros += (v == 0.0f);
  EXPECT_GT(zeros, 50);
}

TEST(DatasetSpecTest, TableTwoRatiosPreserved) {
  DatasetSpec s3 = DatasetSpec::Pems03Like(1.0, 7);
  EXPECT_EQ(s3.network.num_nodes, 358);
  EXPECT_EQ(s3.network.target_edges, 547);
  DatasetSpec s8 = DatasetSpec::Pems08Like(0.2, 7);
  EXPECT_EQ(s8.network.num_nodes, 34);
  // |E|/|V| ratio ~ 295/170.
  EXPECT_NEAR(static_cast<double>(s8.network.target_edges) /
                  s8.network.num_nodes,
              295.0 / 170.0, 0.1);
}

TEST(TrafficDatasetTest, SplitsAreChronologicalAndDisjoint) {
  DatasetSpec spec = DatasetSpec::Pems08Like(0.12, 2);
  TrafficDataset ds = TrafficDataset::Generate(spec);
  auto tr = ds.train_range(), va = ds.val_range(), te = ds.test_range();
  EXPECT_EQ(tr.begin, 0);
  EXPECT_EQ(tr.end, va.begin);
  EXPECT_EQ(va.end, te.begin);
  EXPECT_GT(tr.size(), va.size());
  // 60/20/20 within rounding.
  int64_t total = tr.size() + va.size() + te.size();
  EXPECT_NEAR(static_cast<double>(tr.size()) / total, 0.6, 0.02);
}

TEST(TrafficDatasetTest, InputFeaturesAndScaling) {
  DatasetSpec spec = DatasetSpec::Pems08Like(0.12, 2);
  TrafficDataset ds = TrafficDataset::Generate(spec);
  T::Tensor x = ds.MakeInput(0);
  EXPECT_EQ(x.shape(),
            (T::Shape{ds.history(), ds.num_nodes(), ds.num_features()}));
  // Feature 0 is z-scored flow: recover raw via scaler and compare.
  float raw = ds.traffic().flow.At({0, 0});
  EXPECT_NEAR(ds.scaler().Inverse(x.At({0, 0, 0})), raw, 1e-2f);
  // Time-of-day in [0, 1).
  EXPECT_GE(x.At({5, 0, 1}), 0.0f);
  EXPECT_LT(x.At({5, 0, 1}), 1.0f);
}

TEST(TrafficDatasetTest, TargetIsRawFutureFlow) {
  DatasetSpec spec = DatasetSpec::Pems08Like(0.12, 2);
  TrafficDataset ds = TrafficDataset::Generate(spec);
  T::Tensor y = ds.MakeTarget(10);
  EXPECT_EQ(y.shape(), (T::Shape{ds.horizon(), ds.num_nodes()}));
  EXPECT_FLOAT_EQ(y.At({0, 3}),
                  ds.traffic().flow.At({10 + ds.history(), 3}));
}

TEST(BatchIteratorTest, CoversEpochExactlyOnce) {
  DatasetSpec spec = DatasetSpec::Pems08Like(0.12, 2);
  TrafficDataset ds = TrafficDataset::Generate(spec);
  BatchIterator it(&ds, {0, 50}, 16, /*shuffle=*/true, 3);
  std::set<int64_t> seen;
  BatchIterator::Batch batch;
  int64_t batches = 0;
  while (it.Next(&batch)) {
    ++batches;
    for (int64_t t0 : batch.window_starts) {
      EXPECT_TRUE(seen.insert(t0).second) << "duplicate window " << t0;
    }
    EXPECT_EQ(batch.x.size(0), batch.y.size(0));
  }
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(batches, (50 + 16 - 1) / 16);
  // Reset starts a fresh epoch.
  it.Reset();
  EXPECT_TRUE(it.Next(&batch));
}

TEST(ScalerTest, ZScoreRoundTrip) {
  T::Tensor series = T::Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  StandardScaler scaler;
  scaler.Fit(series, 4);
  EXPECT_NEAR(scaler.mean(), 4.5f, 1e-5f);
  float v = 3.3f;
  EXPECT_NEAR(scaler.Inverse(scaler.Transform(v)), v, 1e-5f);
}

TEST(IoTest, CsvRoundTrip) {
  T::Tensor m = T::Tensor::FromVector({2, 3}, {1.5f, -2, 0, 4, 5.25f, -6});
  std::string path = ::testing::TempDir() + "/io_test.csv";
  ASSERT_TRUE(SaveCsv(m, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TENSOR_EQ(loaded.ValueOrDie(), m);
  std::remove(path.c_str());
}

TEST(IoTest, LoadRejectsMissingAndRagged) {
  EXPECT_FALSE(LoadCsv("/nonexistent/nope.csv").ok());
  std::string path = ::testing::TempDir() + "/ragged.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,2\n3\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dyhsl::data

namespace dyhsl::metrics {
namespace {

namespace T = ::dyhsl::tensor;

TEST(MetricsTest, PerfectPredictionIsZeroError) {
  T::Tensor t = T::Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  MetricAccumulator m;
  m.Add(t, t);
  EXPECT_EQ(m.count(), 4);
  EXPECT_EQ(m.Mae(), 0.0);
  EXPECT_EQ(m.Rmse(), 0.0);
  EXPECT_EQ(m.Mape(), 0.0);
}

TEST(MetricsTest, KnownValues) {
  T::Tensor truth = T::Tensor::FromVector({4}, {10, 10, 10, 10});
  T::Tensor pred = T::Tensor::FromVector({4}, {11, 9, 12, 8});
  MetricAccumulator m;
  m.Add(pred, truth);
  EXPECT_NEAR(m.Mae(), 1.5, 1e-9);
  EXPECT_NEAR(m.Rmse(), std::sqrt((1 + 1 + 4 + 4) / 4.0), 1e-9);
  EXPECT_NEAR(m.Mape(), 15.0, 1e-9);
}

TEST(MetricsTest, ZeroTruthIsMasked) {
  T::Tensor truth = T::Tensor::FromVector({3}, {0, 10, 0});
  T::Tensor pred = T::Tensor::FromVector({3}, {100, 11, 100});
  MetricAccumulator m;
  m.Add(pred, truth);
  EXPECT_EQ(m.count(), 1);
  EXPECT_NEAR(m.Mae(), 1.0, 1e-9);  // only the middle reading counts
  EXPECT_NEAR(m.Mape(), 10.0, 1e-9);
}

TEST(MetricsTest, MaskThresholdIsInclusive) {
  // |truth| <= kMaskThreshold is a dropout, on either side of zero.
  MetricAccumulator m;
  m.AddValue(5.0f, kMaskThreshold);
  m.AddValue(5.0f, -kMaskThreshold);
  EXPECT_EQ(m.count(), 0);
  m.AddValue(5.0f, 2.0f * kMaskThreshold);
  EXPECT_EQ(m.count(), 1);
}

TEST(MetricsTest, MapePenalizesSmallTruthHarder) {
  // Same absolute error, different truth scale (paper's Table VI analysis).
  MetricAccumulator small_truth, large_truth;
  small_truth.AddValue(20.0f, 4.0f);
  large_truth.AddValue(116.0f, 100.0f);
  EXPECT_NEAR(small_truth.Mape(), 400.0, 1e-9);
  EXPECT_NEAR(large_truth.Mape(), 16.0, 1e-9);
}

}  // namespace
}  // namespace dyhsl::metrics
