// Tests for the streaming ingestion path: RingWindow wraparound and
// zero-copy views, TickStream replay, SessionManager lifecycle (strict
// tick sequencing, eviction, TTL, rolling stats), exactness of session
// forecasts against full-window submission for every zoo model, warm
// recurrent-state carry and resync on DCRNN, DHGNN's per-window structure
// served through a session, and the router's pooled gather scratch.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/data/dataset.h"
#include "src/data/stream.h"
#include "src/graph/shard.h"
#include "src/serve/engine.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/tensor/ops.h"
#include "src/tensor/ring.h"
#include "src/tensor/workspace.h"
#include "src/train/model_zoo.h"
#include "tests/testing_utils.h"

namespace dyhsl::serve {
namespace {

namespace T = ::dyhsl::tensor;

using ::dyhsl::testing::TensorEq;
using ::dyhsl::testing::TensorNear;

// One small dataset shared by every test in this file.
const data::TrafficDataset& SharedDataset() {
  static const data::TrafficDataset* dataset = [] {
    data::DatasetSpec spec = data::DatasetSpec::Pems08Like(0.1, 2, 5);
    return new data::TrafficDataset(data::TrafficDataset::Generate(spec));
  }();
  return *dataset;
}

train::ZooConfig TinyZoo(uint64_t seed = 13) {
  train::ZooConfig cfg;
  cfg.hidden_dim = 8;
  cfg.seed = seed;
  return cfg;
}

// Streams ticks [start, start + count) from the shared dataset into a
// session, asserting every Append is accepted.
void StreamTicks(SessionManager* manager, const std::string& id,
                 int64_t start, int64_t count) {
  data::TickStream stream(SharedDataset().traffic(), start, start + count);
  for (; !stream.Done(); stream.Advance()) {
    Status s = manager->Append(id, stream.tick(), stream.Frame());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
}

// ----------------------------------------------------------- RingWindow --

TEST(RingWindowTest, WindowIsContiguousAcrossWraparound) {
  constexpr int64_t kSteps = 5;
  constexpr int64_t kFrame = 3;
  T::RingWindow ring(kSteps, {kFrame});
  // Push 2.5x the capacity so the cursor wraps multiple times.
  for (int64_t tick = 0; tick < 13; ++tick) {
    float frame[kFrame];
    for (int64_t i = 0; i < kFrame; ++i) {
      frame[i] = static_cast<float>(tick * 100 + i);
    }
    ring.Push(frame);
    EXPECT_EQ(ring.total_pushed(), tick + 1);
    EXPECT_EQ(ring.count(), std::min<int64_t>(tick + 1, kSteps));
    if (!ring.full()) continue;
    T::Tensor window = ring.Window();
    ASSERT_EQ(window.shape(), (T::Shape{kSteps, kFrame}));
    // Oldest-first: row r holds tick (tick - kSteps + 1 + r).
    for (int64_t r = 0; r < kSteps; ++r) {
      for (int64_t i = 0; i < kFrame; ++i) {
        EXPECT_EQ(window.data()[r * kFrame + i],
                  static_cast<float>((tick - kSteps + 1 + r) * 100 + i))
            << "tick " << tick << " row " << r;
      }
    }
  }
}

TEST(RingWindowTest, WindowIsZeroCopyAndLastFramesAgree) {
  T::RingWindow ring(4, {2, 3});
  std::vector<float> frame(6);
  for (int64_t tick = 0; tick < 9; ++tick) {
    for (size_t i = 0; i < frame.size(); ++i) {
      frame[i] = static_cast<float>(tick * 10) + static_cast<float>(i);
    }
    ring.Push(frame.data());
  }
  T::Tensor window = ring.Window();
  ASSERT_EQ(window.shape(), (T::Shape{4, 2, 3}));
  // A second view of the same state aliases the same storage — no copy.
  EXPECT_EQ(ring.Window().data(), window.data());
  T::Tensor last2 = ring.LastFrames(2);
  ASSERT_EQ(last2.shape(), (T::Shape{2, 2, 3}));
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(last2.data()[i], window.data()[2 * 6 + i]);
    EXPECT_EQ(last2.data()[6 + i], window.data()[3 * 6 + i]);
  }
  // Views alias the live ring: the next Push is visible through them.
  ring.Clear();
  EXPECT_EQ(ring.count(), 0);
  EXPECT_FALSE(ring.full());
}

// ----------------------------------------------------------- TickStream --

TEST(TickStreamTest, ReplaysRawFlowRowsZeroCopy) {
  const data::TrafficData& traffic = SharedDataset().traffic();
  const int64_t n = traffic.flow.size(1);
  data::TickStream stream(traffic, 3, 8);
  EXPECT_EQ(stream.num_nodes(), n);
  int64_t expected_tick = 3;
  for (; !stream.Done(); stream.Advance()) {
    EXPECT_EQ(stream.tick(), expected_tick);
    T::Tensor frame = stream.Frame();
    ASSERT_EQ(frame.shape(), (T::Shape{n}));
    // Zero-copy: the frame points straight into the series.
    EXPECT_EQ(frame.data(), traffic.flow.data() + expected_tick * n);
    ++expected_tick;
  }
  EXPECT_EQ(expected_tick, 8);
  EXPECT_EQ(stream.remaining(), 0);
}

// ------------------------------------------- Session forecast exactness --

// The headline acceptance: for every model in the zoo, a streamed
// session's forecast is bit-identical to submitting the full window
// through the batch router path.
TEST(StreamSessionTest, SessionForecastMatchesFullWindowSubmitForAllModels) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  for (const std::string& key : train::NeuralModelKeys()) {
    Status s = router->AddModel(key, task, ZooFactory(key, TinyZoo()));
    ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
  }
  SessionManager manager(router.get());

  const int64_t t0 = 17;  // arbitrary stream start inside the series
  for (const std::string& key : train::NeuralModelKeys()) {
    SessionOptions options;
    options.model = key;
    options.start_tick = t0;
    ASSERT_TRUE(manager.Open("s-" + key, options).ok()) << key;
  }
  // Stream past one full window plus a few slides, comparing at each
  // position: the session window must equal MakeInput of the same start.
  const int64_t slides = 3;
  data::TickStream stream(ds.traffic(), t0, t0 + task.history + slides);
  for (; !stream.Done(); stream.Advance()) {
    for (const std::string& key : train::NeuralModelKeys()) {
      Status s =
          manager.Append("s-" + key, stream.tick(), stream.Frame());
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
    }
    const int64_t appended = stream.tick() - t0 + 1;
    if (appended < task.history) continue;
    const int64_t window_start = stream.tick() + 1 - task.history;
    T::Tensor window = ds.MakeInput(window_start);
    for (const std::string& key : train::NeuralModelKeys()) {
      ForecastResponse streamed = manager.Forecast("s-" + key);
      ASSERT_TRUE(streamed.status.ok())
          << key << ": " << streamed.status.ToString();
      ForecastResponse batch =
          router->Submit(RouterRequest{key, window.Clone()}).get();
      ASSERT_TRUE(batch.status.ok())
          << key << ": " << batch.status.ToString();
      EXPECT_TRUE(TensorEq(streamed.forecast, batch.forecast))
          << key << " at window start " << window_start;
    }
  }
  SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.open, static_cast<int64_t>(train::NeuralModelKeys().size()));
  EXPECT_GT(stats.forecasts, 0);
}

TEST(StreamSessionTest, ShardedSessionMatchesShardedRouterSubmit) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(router
                  ->AddShardedModel("stgcn2", task, plan,
                                    ZooFactory("STGCN", TinyZoo()))
                  .ok());
  SessionManager manager(router.get());
  SessionOptions options;
  options.model = "stgcn2";
  ASSERT_TRUE(manager.Open("shardy", options).ok());

  StreamTicks(&manager, "shardy", 0, task.history + 2);
  T::Tensor window = ds.MakeInput(2);
  ForecastResponse streamed = manager.Forecast("shardy");
  ASSERT_TRUE(streamed.status.ok()) << streamed.status.ToString();
  ForecastResponse batch =
      router->Submit(RouterRequest{"stgcn2", window.Clone()}).get();
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  EXPECT_TRUE(TensorEq(streamed.forecast, batch.forecast));
}

// ------------------------------------------------- Warm-state streaming --

TEST(StreamSessionTest, WarmCarryIsBitIdenticalToColdEncoderOverAllTicks) {
  // The carry contract: one carried cell step per tick since open equals a
  // cold encoder pass over the whole stream. Checked by comparing a warm
  // DCRNN session fed S ticks against a *cold* session of a history=S
  // DCRNN built from the same seed (parameter init does not depend on
  // history, so the two models share every weight bit).
  const data::TrafficDataset& ds = SharedDataset();
  const int64_t kStream = 18;
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  train::ForecastTask long_task = task;
  long_task.history = kStream;

  auto warm_router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      warm_router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo()))
          .ok());
  auto long_router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(long_router
                  ->AddModel("dcrnn", long_task,
                             ZooFactory("DCRNN", TinyZoo()))
                  .ok());

  SessionManager warm_manager(warm_router.get());
  SessionOptions warm_options;
  warm_options.warm_state = true;
  ASSERT_TRUE(warm_manager.Open("w", warm_options).ok());
  SessionManager long_manager(long_router.get());
  ASSERT_TRUE(long_manager.Open("c", SessionOptions()).ok());

  data::TickStream stream(ds.traffic(), 0, kStream);
  for (; !stream.Done(); stream.Advance()) {
    ASSERT_TRUE(warm_manager.Append("w", stream.tick(), stream.Frame()).ok());
    ASSERT_TRUE(long_manager.Append("c", stream.tick(), stream.Frame()).ok());
  }
  ForecastResponse warm = warm_manager.Forecast("w");
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ForecastResponse cold = long_manager.Forecast("c");
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_TRUE(TensorEq(warm.forecast, cold.forecast));
}

TEST(StreamSessionTest, ResyncEveryTickMatchesWindowedReferenceExactly) {
  // resync_every=1 rebuilds the carried state from the ring window after
  // every Append, so a warm session must then be bit-identical to the
  // windowed (cold) session at every position.
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo())).ok());
  SessionManager manager(router.get());

  SessionOptions warm_options;
  warm_options.warm_state = true;
  warm_options.resync_every = 1;
  ASSERT_TRUE(manager.Open("warm", warm_options).ok());
  ASSERT_TRUE(manager.Open("cold", SessionOptions()).ok());

  data::TickStream stream(ds.traffic(), 0, task.history + 4);
  for (; !stream.Done(); stream.Advance()) {
    ASSERT_TRUE(manager.Append("warm", stream.tick(), stream.Frame()).ok());
    ASSERT_TRUE(manager.Append("cold", stream.tick(), stream.Frame()).ok());
    if (stream.tick() + 1 < task.history) continue;
    ForecastResponse warm = manager.Forecast("warm");
    ForecastResponse cold = manager.Forecast("cold");
    ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
    ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
    EXPECT_TRUE(TensorEq(warm.forecast, cold.forecast))
        << "at tick " << stream.tick();
  }
  auto info = manager.SessionInfo("warm");
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info.ValueOrDie().resyncs, 4);
  EXPECT_TRUE(info.ValueOrDie().warm);
}

TEST(StreamSessionTest, WarmWithoutResyncDriftsThenResyncRestoresExactness) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo())).ok());
  SessionManager manager(router.get());

  const int64_t kCadence = 8;
  SessionOptions warm_options;
  warm_options.warm_state = true;
  warm_options.resync_every = kCadence;
  ASSERT_TRUE(manager.Open("warm", warm_options).ok());
  ASSERT_TRUE(manager.Open("cold", SessionOptions()).ok());

  // Stream until the ring has been full for exactly one resync cadence:
  // the final Append triggers the rebuild, after which the forecast must
  // again match the windowed reference bit for bit. Forecasts *between*
  // resyncs may drift (the carry remembers pre-window ticks) but must
  // stay finite.
  data::TickStream stream(ds.traffic(), 0, task.history + kCadence);
  bool saw_mid_cadence_forecast = false;
  for (; !stream.Done(); stream.Advance()) {
    ASSERT_TRUE(manager.Append("warm", stream.tick(), stream.Frame()).ok());
    ASSERT_TRUE(manager.Append("cold", stream.tick(), stream.Frame()).ok());
    const int64_t appended = stream.tick() + 1;
    if (appended >= task.history && appended < task.history + kCadence) {
      ForecastResponse warm = manager.Forecast("warm");
      ASSERT_TRUE(warm.status.ok());
      for (int64_t i = 0; i < warm.forecast.numel(); ++i) {
        ASSERT_TRUE(std::isfinite(warm.forecast.data()[i]));
      }
      saw_mid_cadence_forecast = true;
    }
  }
  EXPECT_TRUE(saw_mid_cadence_forecast);
  auto info = manager.SessionInfo("warm");
  ASSERT_TRUE(info.ok());
  // The cadence counts Appends since open, so the first resync fires the
  // moment the ring fills (12 >= 8) and the second one 8 ticks later, on
  // the final Append.
  EXPECT_EQ(info.ValueOrDie().resyncs, 2);
  ForecastResponse warm = manager.Forecast("warm");
  ForecastResponse cold = manager.Forecast("cold");
  ASSERT_TRUE(warm.status.ok());
  ASSERT_TRUE(cold.status.ok());
  EXPECT_TRUE(TensorEq(warm.forecast, cold.forecast));
}

TEST(StreamSessionTest, WarmStateRequiresStreamingModel) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  SessionOptions options;
  options.warm_state = true;
  Status s = manager.Open("nope", options);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.OpenSessions(), 0);
}

// ------------------------------------------------ Lifecycle and policy --

TEST(StreamSessionTest, RejectsDuplicateOutOfOrderAndGappedTicks) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());

  data::TickStream stream(ds.traffic(), 0, 4);
  T::Tensor frame0 = stream.Frame().Clone();
  ASSERT_TRUE(manager.Append("s", 0, frame0).ok());
  // Duplicate.
  Status dup = manager.Append("s", 0, frame0);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  // Out of order (before the stream position).
  Status old = manager.Append("s", -3, frame0);
  EXPECT_EQ(old.code(), StatusCode::kInvalidArgument);
  // Gap (skipping ahead).
  Status gap = manager.Append("s", 5, frame0);
  EXPECT_EQ(gap.code(), StatusCode::kInvalidArgument);
  // Wrong shape.
  Status shape = manager.Append("s", 1, T::Tensor({3}));
  EXPECT_EQ(shape.code(), StatusCode::kInvalidArgument);
  // The session is untouched: the correct next tick still lands.
  ASSERT_TRUE(manager.Append("s", 1, frame0).ok());

  auto info = manager.SessionInfo("s");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().ticks, 2);
  EXPECT_EQ(info.ValueOrDie().rejected_ticks, 3);  // shape is not a tick error
  EXPECT_EQ(info.ValueOrDie().next_tick, 2);
  EXPECT_EQ(manager.Stats().rejected_ticks, 3);
}

TEST(StreamSessionTest, ForecastUnavailableUntilWindowFills) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());

  ForecastResponse empty = manager.Forecast("s");
  EXPECT_EQ(empty.status.code(), StatusCode::kUnavailable);
  StreamTicks(&manager, "s", 0, task.history - 1);
  ForecastResponse short_one = manager.Forecast("s");
  EXPECT_EQ(short_one.status.code(), StatusCode::kUnavailable);
  data::TickStream last(ds.traffic(), task.history - 1, task.history);
  ASSERT_TRUE(manager.Append("s", last.tick(), last.Frame()).ok());
  ForecastResponse full = manager.Forecast("s");
  EXPECT_TRUE(full.status.ok()) << full.status.ToString();
  // Unknown session.
  EXPECT_EQ(manager.Forecast("ghost").status.code(), StatusCode::kNotFound);
}

TEST(StreamSessionTest, OpenValidatesAndCloseRemoves) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());

  EXPECT_EQ(manager.Open("", SessionOptions()).code(),
            StatusCode::kInvalidArgument);
  SessionOptions unknown;
  unknown.model = "nope";
  EXPECT_EQ(manager.Open("s", unknown).code(), StatusCode::kNotFound);
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());
  EXPECT_EQ(manager.Open("s", SessionOptions()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(manager.Close("s").ok());
  EXPECT_EQ(manager.Close("s").code(), StatusCode::kNotFound);
  SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.opened, 1);
  EXPECT_EQ(stats.closed, 1);
  EXPECT_EQ(stats.open, 0);
}

TEST(StreamSessionTest, LruEvictionAtCapacityKeepsRecentlyUsed) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManagerOptions mgr_options;
  mgr_options.max_sessions = 2;
  SessionManager manager(router.get(), mgr_options);

  ASSERT_TRUE(manager.Open("a", SessionOptions()).ok());
  ASSERT_TRUE(manager.Open("b", SessionOptions()).ok());
  // Touch "a" so "b" becomes the LRU victim.
  T::Tensor frame({8});
  frame.Fill(1.0f);
  ASSERT_TRUE(manager.Append("a", 0, frame).ok());
  ASSERT_TRUE(manager.Open("c", SessionOptions()).ok());
  EXPECT_EQ(manager.OpenSessions(), 2);
  EXPECT_TRUE(manager.SessionInfo("a").ok());
  EXPECT_FALSE(manager.SessionInfo("b").ok());
  EXPECT_TRUE(manager.SessionInfo("c").ok());
  EXPECT_EQ(manager.Stats().evicted_lru, 1);
}

TEST(StreamSessionTest, TtlEvictsIdleSessions) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManagerOptions mgr_options;
  mgr_options.ttl_ms = 50;
  SessionManager manager(router.get(), mgr_options);

  ASSERT_TRUE(manager.Open("idle", SessionOptions()).ok());
  EXPECT_EQ(manager.EvictExpired(), 0);  // freshly touched
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(manager.EvictExpired(), 1);
  EXPECT_EQ(manager.OpenSessions(), 0);
  EXPECT_EQ(manager.Stats().evicted_ttl, 1);

  // Open runs the same sweep: an Open after the TTL evicts the idle
  // session before the new one joins.
  ASSERT_TRUE(manager.Open("idle2", SessionOptions()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(manager.Open("fresh", SessionOptions()).ok());
  EXPECT_EQ(manager.OpenSessions(), 1);
  EXPECT_EQ(manager.Stats().evicted_ttl, 2);
  EXPECT_FALSE(manager.SessionInfo("idle2").ok());
  EXPECT_TRUE(manager.SessionInfo("fresh").ok());
}

TEST(StreamSessionTest, RollingStatsTrackMaskedFlowAndDrift) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  SessionOptions options;
  options.stats_alpha = 0.5f;
  ASSERT_TRUE(manager.Open("s", options).ok());

  T::Tensor frame({8});
  frame.Fill(100.0f);
  ASSERT_TRUE(manager.Append("s", 0, frame).ok());
  auto info = manager.SessionInfo("s");
  ASSERT_TRUE(info.ok());
  EXPECT_FLOAT_EQ(info.ValueOrDie().rolling_mean, 100.0f);
  EXPECT_FLOAT_EQ(info.ValueOrDie().rolling_std, 0.0f);
  const float expected_drift =
      std::fabs(100.0f - task.scaler_mean) / task.scaler_std;
  EXPECT_NEAR(info.ValueOrDie().drift_score, expected_drift, 1e-4f);

  // A fully masked tick (sensor dropout everywhere) must not move them.
  T::Tensor zeros({8});
  zeros.Fill(0.0f);
  ASSERT_TRUE(manager.Append("s", 1, zeros).ok());
  auto after = manager.SessionInfo("s");
  ASSERT_TRUE(after.ok());
  EXPECT_FLOAT_EQ(after.ValueOrDie().rolling_mean, 100.0f);

  // A different level pulls the EMA halfway (alpha = 0.5).
  T::Tensor frame2({8});
  frame2.Fill(200.0f);
  ASSERT_TRUE(manager.Append("s", 2, frame2).ok());
  auto moved = manager.SessionInfo("s");
  ASSERT_TRUE(moved.ok());
  EXPECT_FLOAT_EQ(moved.ValueOrDie().rolling_mean, 150.0f);
  EXPECT_GT(moved.ValueOrDie().rolling_std, 0.0f);
}

TEST(StreamSessionTest, ConcurrentAppendAndForecastStaySequenced) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());

  constexpr int64_t kTicks = 40;
  std::atomic<bool> done{false};
  std::atomic<int64_t> ok_forecasts{0};
  std::thread appender([&] {
    data::TickStream stream(ds.traffic(), 0, kTicks);
    for (; !stream.Done(); stream.Advance()) {
      Status s = manager.Append("s", stream.tick(), stream.Frame());
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    done.store(true);
  });
  std::thread forecaster([&] {
    while (!done.load()) {
      ForecastResponse r = manager.Forecast("s");
      // Until the ring fills the only legal failure is Unavailable.
      if (r.status.ok()) {
        ok_forecasts.fetch_add(1);
        ASSERT_EQ(r.forecast.shape(), (T::Shape{task.horizon, task.num_nodes}));
      } else {
        ASSERT_EQ(r.status.code(), StatusCode::kUnavailable)
            << r.status.ToString();
      }
    }
  });
  appender.join();
  forecaster.join();
  ForecastResponse final_forecast = manager.Forecast("s");
  EXPECT_TRUE(final_forecast.status.ok());
  auto info = manager.SessionInfo("s");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.ValueOrDie().ticks, kTicks);
  EXPECT_EQ(info.ValueOrDie().rejected_ticks, 0);
}

// ------------------------------------------- Structure reuse and stats --

// DHGNN rebuilds its hypergraph from every window, so its session
// forecast through router and engine must equal a grad-free Forward of the
// same window on the engine's own model, bit for bit.
TEST(StreamSessionTest, DhgnnSessionForecastBitIdenticalToDirectForward) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dhgnn", task, ZooFactory("DHGNN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());
  const int64_t ticks = task.history + 2;
  StreamTicks(&manager, "s", 0, ticks);
  ForecastResponse first = manager.Forecast("s");
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ForecastResponse second = manager.Forecast("s");
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(TensorEq(second.forecast, first.forecast));

  auto route = router->RouteFor("dhgnn");
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  ForecastEngine* engine = route.ValueOrDie().engines[0];
  T::Tensor window = ds.MakeInput(ticks - task.history);
  T::Tensor direct;
  {
    // The engine's team size: GEMM is bit-deterministic per team.
    core::TeamScope team(engine->team_size());
    autograd::InferenceModeGuard no_grad;
    direct = engine->mutable_model()
                 ->Forward(window.Reshape({1, task.history, task.num_nodes,
                                           task.input_dim}),
                           /*training=*/false)
                 .value();
  }
  EXPECT_TRUE(TensorEq(first.forecast,
                       direct.Reshape({task.horizon, task.num_nodes})));

  RouterStats stats = router->Stats();
  EXPECT_GE(stats.total.streamed, 2);
  ASSERT_EQ(stats.engines.size(), 1u);
  EXPECT_EQ(stats.engines[0].stats.streamed, stats.total.streamed);
}

TEST(StreamSessionTest, EngineSnapshotCountsStreamedRequests) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, ZooFactory("STGCN", TinyZoo())))
          .ValueOrDie();
  Rng rng(3);
  T::Tensor window =
      T::Tensor::Randn({task.history, task.num_nodes, task.input_dim}, &rng,
                       0.5f);
  ForecastResponse now = engine->ForecastNow(window);
  ASSERT_TRUE(now.status.ok()) << now.status.ToString();
  ForecastResponse queued = engine->Submit(ForecastRequest{window.Clone()}).get();
  ASSERT_TRUE(queued.status.ok());
  // The synchronous fast path is bit-identical to the queue path.
  EXPECT_TRUE(TensorEq(now.forecast, queued.forecast));
  EngineStats stats = engine->Snapshot();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.streamed, 1);
  // Shape validation fails fast, without touching the queue.
  EXPECT_EQ(engine->ForecastNow(T::Tensor({2, 2})).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, ForecastDoesNotMutateRingWindow) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dyhsl", task, ZooFactory("DyHSL", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s", SessionOptions()).ok());
  StreamTicks(&manager, "s", 0, task.history);
  // The ring view shares storage, so inference in-place fast paths must
  // leave it untouched: two forecasts from the same window agree bitwise.
  ForecastResponse first = manager.Forecast("s");
  ForecastResponse second = manager.Forecast("s");
  ASSERT_TRUE(first.status.ok());
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(TensorEq(first.forecast, second.forecast));
}

// ------------------------------------------------- Router scratch pools --

TEST(ScratchPoolTest, ReusesBuffersUpToConcurrencyHighWater) {
  ScratchPool pool(6);
  EXPECT_EQ(pool.allocated(), 0);
  {
    T::Tensor a = pool.Acquire({2, 3});
    T::Tensor b = pool.Acquire({6});
    EXPECT_EQ(pool.allocated(), 2);
    EXPECT_EQ(pool.available(), 0);
    a.Fill(1.0f);  // pooled buffers are writable plain tensors
  }
  EXPECT_EQ(pool.available(), 2);
  for (int i = 0; i < 20; ++i) {
    T::Tensor t = pool.Acquire({6});
    EXPECT_EQ(pool.allocated(), 2);  // no growth beyond the high-water mark
  }
  EXPECT_EQ(pool.available(), 2);
}

TEST(ScratchPoolTest, ReleaseAfterPoolDestructionIsSafe) {
  T::Tensor escaped;
  {
    ScratchPool pool(4);
    escaped = pool.Acquire({4});
    escaped.Fill(2.0f);
  }
  // The buffer outlived its pool; dropping it must not crash.
  EXPECT_EQ(escaped.data()[3], 2.0f);
  escaped = T::Tensor();
}

TEST(StreamSessionTest, RouterGatherScratchTracksConcurrencyNotRequests) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(router
                  ->AddShardedModel("stgcn2", task, plan,
                                    ZooFactory("STGCN", TinyZoo()))
                  .ok());
  T::Tensor window = ds.MakeInput(0);
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    ForecastResponse r =
        router->Submit(RouterRequest{"stgcn2", window.Clone()}).get();
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  }
  // Sequential requests keep at most one slice per shard in flight (plus
  // transient overlap with the engine releasing the previous one), so
  // the pools must stay near the shard count — not kRequests * shards.
  EXPECT_GE(router->ScratchAllocated("stgcn2"), plan.num_shards());
  EXPECT_LE(router->ScratchAllocated("stgcn2"), 2 * plan.num_shards());
  EXPECT_EQ(router->ScratchAllocated("unknown"), 0);
}

// -------------------------------------- Cross-session batched forecasts --

TEST(PackBatchTest, SingleItemPassesThroughZeroCopy) {
  T::Tensor item({3, 4});
  item.Fill(2.0f);
  // The satellite regression for the engine's B = 1 flush: packing one
  // item must be a reshape view — same storage, zero arena traffic.
  T::Workspace ws;
  T::WorkspaceScope scope(&ws);
  T::Tensor packed = T::PackBatch({item});
  EXPECT_EQ(packed.shape(), (T::Shape{1, 3, 4}));
  EXPECT_EQ(packed.data(), item.data());
  EXPECT_EQ(ws.live_allocations(), 0);
  EXPECT_EQ(ws.bytes_reserved(), 0);
}

TEST(PackBatchTest, CopiesEachItemIntoBatchSlot) {
  T::Tensor a({2, 3});
  T::Tensor b({2, 3});
  for (int64_t i = 0; i < 6; ++i) {
    a.data()[i] = static_cast<float>(i);
    b.data()[i] = static_cast<float>(100 + i);
  }
  T::Tensor packed = T::PackBatch({a, b});
  ASSERT_EQ(packed.shape(), (T::Shape{2, 2, 3}));
  EXPECT_NE(packed.data(), a.data());
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(packed.data()[i], a.data()[i]);
    EXPECT_EQ(packed.data()[6 + i], b.data()[i]);
  }
}

TEST(StreamSessionTest, SubmitBatchMatchesForecastNowPerItem) {
  train::ForecastTask task = train::RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, ZooFactory("STGCN", TinyZoo())))
          .ValueOrDie();
  Rng rng(7);
  const int64_t b = 3;
  const int64_t window_numel = task.history * task.num_nodes * task.input_dim;
  T::Tensor windows = T::Tensor::Randn(
      {b, task.history, task.num_nodes, task.input_dim}, &rng, 0.5f);
  BatchForecastResponse batch = engine->SubmitBatch(windows);
  ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
  EXPECT_EQ(batch.batch_size, b);
  ASSERT_EQ(batch.forecasts.shape(),
            (T::Shape{b, task.horizon, task.num_nodes}));
  // Batched GEMMs keep each item's accumulation order, so every slice is
  // bit-identical to the single-request fast path.
  for (int64_t i = 0; i < b; ++i) {
    ForecastResponse one = engine->ForecastNow(windows.Alias(
        i * window_numel, {task.history, task.num_nodes, task.input_dim}));
    ASSERT_TRUE(one.status.ok()) << one.status.ToString();
    EXPECT_TRUE(TensorEq(
        batch.forecasts.Alias(i * task.horizon * task.num_nodes,
                              {task.horizon, task.num_nodes}),
        one.forecast))
        << "item " << i;
  }
  EngineStats stats = engine->Snapshot();
  EXPECT_EQ(stats.batched_submits, 1);
  EXPECT_EQ(stats.batched_requests, b);
  EXPECT_EQ(stats.batched_max, b);
  EXPECT_EQ(stats.requests, 2 * b);  // the batch counts per session
  // Shape validation fails fast.
  EXPECT_EQ(engine->SubmitBatch(T::Tensor({2, 2})).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, ForecastBatchMatchesPerSessionForecastAcrossModels) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel("stgcn2", task, plan,
                                    ZooFactory("STGCN", TinyZoo()))
                  .ok());
  SessionManager manager(router.get());

  // A mixed fleet: unsharded and sharded sessions, all on one tick barrier.
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    SessionOptions flat;
    flat.model = "stgcn";
    ASSERT_TRUE(manager.Open("u" + std::to_string(i), flat).ok());
    ids.push_back("u" + std::to_string(i));
    SessionOptions sharded;
    sharded.model = "stgcn2";
    ASSERT_TRUE(manager.Open("h" + std::to_string(i), sharded).ok());
    ids.push_back("h" + std::to_string(i));
  }
  data::TickStream stream(ds.traffic(), 0, task.history + 1);
  for (; !stream.Done(); stream.Advance()) {
    std::vector<T::Tensor> frames(ids.size(), stream.Frame());
    for (const Status& s : manager.AppendMany(ids, stream.tick(), frames)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  std::map<std::string, T::Tensor> reference;
  for (const std::string& id : ids) {
    ForecastResponse r = manager.Forecast(id);
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status.ToString();
    reference.emplace(id, r.forecast);
  }
  // Batched over a shuffled order: bit-identical per session, sharded
  // models included. Each reference Forecast above is itself a group of
  // one, so the counters below are deltas around this one call.
  std::mt19937 gen(99);
  std::shuffle(ids.begin(), ids.end(), gen);
  const SessionManagerStats before = manager.Stats();
  const RouterStats rbefore = router->Stats();
  std::vector<ForecastResponse> batched = manager.ForecastBatch(ids);
  ASSERT_EQ(batched.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok())
        << ids[i] << ": " << batched[i].status.ToString();
    EXPECT_EQ(batched[i].batch_size, 3);  // three sessions per model group
    EXPECT_TRUE(TensorEq(batched[i].forecast, reference.at(ids[i]))) << ids[i];
  }

  // Occupancy: two model groups of three sessions each.
  SessionManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.batch.batched_forecasts - before.batch.batched_forecasts,
            2);
  EXPECT_EQ(stats.batch.batch_size_sum - before.batch.batch_size_sum, 6);
  EXPECT_EQ(stats.batch.batch_size_max, 3);
  EXPECT_EQ(stats.batch_by_model.at("stgcn").batch_size_sum -
                before.batch_by_model.at("stgcn").batch_size_sum,
            3);
  EXPECT_EQ(stats.batch_by_model.at("stgcn2").batch_size_max, 3);
  // The engine-side view surfaces through the router totals: one
  // SubmitBatch on the unsharded engine, one per stgcn2 shard.
  RouterStats rstats = router->Stats();
  EXPECT_EQ(rstats.total.batched_submits - rbefore.total.batched_submits,
            1 + plan.num_shards());
  EXPECT_EQ(rstats.total.batched_max, 3);
}

TEST(StreamSessionTest, BatchedWarmCarryMatchesSequentialWithinTolerance) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo())).ok());
  SessionManager manager(router.get());

  // Twin warm fleets on the same feed with an active resync cadence:
  // "a*" advances per-session, "b*" through tick-barrier AppendMany (one
  // batched cell step per tick, resync members masked out).
  const int kFleet = 3;
  const int64_t kResyncEvery = 7;
  std::vector<std::string> seq_ids;
  std::vector<std::string> batch_ids;
  for (int i = 0; i < kFleet; ++i) {
    SessionOptions warm;
    warm.model = "dcrnn";
    warm.warm_state = true;
    warm.resync_every = kResyncEvery;
    ASSERT_TRUE(manager.Open("a" + std::to_string(i), warm).ok());
    ASSERT_TRUE(manager.Open("b" + std::to_string(i), warm).ok());
    seq_ids.push_back("a" + std::to_string(i));
    batch_ids.push_back("b" + std::to_string(i));
  }
  data::TickStream stream(ds.traffic(), 0, task.history + 9);
  for (; !stream.Done(); stream.Advance()) {
    for (const std::string& id : seq_ids) {
      ASSERT_TRUE(manager.Append(id, stream.tick(), stream.Frame()).ok());
    }
    std::vector<T::Tensor> frames(batch_ids.size(), stream.Frame());
    for (const Status& s :
         manager.AppendMany(batch_ids, stream.tick(), frames)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  for (int i = 0; i < kFleet; ++i) {
    auto info = manager.SessionInfo(batch_ids[i]);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info.ValueOrDie().resyncs, 2);  // cadence fired in the batch
  }

  // The 1e-5 warm-carry contract is stated in normalized model units;
  // forecasts are descaled by the training std, so the absolute
  // tolerance scales with it.
  const float warm_atol = 1e-5f * task.scaler_std;
  std::vector<ForecastResponse> sequential(kFleet);
  std::vector<ForecastResponse> twin(kFleet);
  for (int i = 0; i < kFleet; ++i) {
    sequential[i] = manager.Forecast(seq_ids[i]);
    twin[i] = manager.Forecast(batch_ids[i]);
    ASSERT_TRUE(sequential[i].status.ok());
    ASSERT_TRUE(twin[i].status.ok());
    EXPECT_TRUE(
        TensorNear(twin[i].forecast, sequential[i].forecast, warm_atol))
        << batch_ids[i];
  }
  // Batched decode vs per-session decode of the very same carried state.
  std::vector<ForecastResponse> batched = manager.ForecastBatch(batch_ids);
  for (int i = 0; i < kFleet; ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    EXPECT_EQ(batched[i].batch_size, kFleet);
    EXPECT_TRUE(TensorNear(batched[i].forecast, twin[i].forecast, warm_atol));
  }
  // A one-member warm group decodes bit-identically to a cold forward
  // over the ring window right after a resync tick (the rebuild is the
  // cold encoder pass over that window).
  const int64_t resyncs = manager.SessionInfo(seq_ids[0]).ValueOrDie().resyncs;
  data::TickStream more(ds.traffic(), task.history + 9,
                        task.history + 9 + kResyncEvery);
  for (; !more.Done(); more.Advance()) {
    ASSERT_TRUE(manager.Append(seq_ids[0], more.tick(), more.Frame()).ok());
    if (manager.SessionInfo(seq_ids[0]).ValueOrDie().resyncs > resyncs) break;
  }
  ASSERT_FALSE(more.Done()) << "no resync within one cadence";
  std::vector<ForecastResponse> solo = manager.ForecastBatch({seq_ids[0]});
  ASSERT_TRUE(solo[0].status.ok()) << solo[0].status.ToString();
  EXPECT_EQ(solo[0].batch_size, 1);
  auto route = router->RouteFor("dcrnn");
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  ForecastEngine* engine = route.ValueOrDie().engines[0];
  T::Tensor window = ds.MakeInput(more.tick() + 1 - task.history);
  T::Tensor cold;
  {
    // The engine's team size: GEMM is bit-deterministic per team.
    core::TeamScope team(engine->team_size());
    autograd::InferenceModeGuard no_grad;
    cold = engine->mutable_model()
               ->Forward(window.Reshape({1, task.history, task.num_nodes,
                                         task.input_dim}),
                         /*training=*/false)
               .value();
  }
  EXPECT_TRUE(
      TensorEq(solo[0].forecast, cold.Reshape({task.horizon, task.num_nodes})));
}

// The (T, N, F) ring window of a session opened at tick 0 and fed the
// series shifted by `offset` rows, after tick `first + T - 1`: the flow
// channel of rows first + offset.., the calendar of ticks first...
T::Tensor ShiftedWindow(const data::TrafficDataset& ds, int64_t first,
                        int64_t offset) {
  T::Tensor window = ds.MakeInput(first + offset);
  const T::Tensor calendar = ds.MakeInput(first);
  const int64_t f = window.size(2);
  for (int64_t r = 0; r < window.size(0) * window.size(1); ++r) {
    for (int64_t c = 1; c < f; ++c) {
      window.data()[r * f + c] = calendar.data()[r * f + c];
    }
  }
  return window;
}

TEST(StreamSessionTest, BatchedResyncIsExactPerSession) {
  // Four warm sessions, each fed the series from its own offset, whose
  // cadence fires in the same AppendMany tick: one batched cold replay
  // rebuilds all four, while a fifth warm session without a cadence
  // advances in the same tick. Right after it, each resynced session's
  // one-member forecast equals a cold forward over its own ring window
  // bit for bit: the stacked replay keeps every member's rows and its
  // B = 1 accumulation order.
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo())).ok());
  SessionManager manager(router.get());

  const std::vector<int64_t> offsets = {0, 5, 17, 40, 9};
  const size_t kResynced = 4;
  std::vector<std::string> ids;
  std::vector<data::TickStream> feeds;
  for (size_t i = 0; i < offsets.size(); ++i) {
    SessionOptions warm;
    warm.model = "dcrnn";
    warm.warm_state = true;
    warm.resync_every = i < kResynced ? 4 : 0;
    ids.push_back("s" + std::to_string(i));
    ASSERT_TRUE(manager.Open(ids.back(), warm).ok());
    feeds.emplace_back(ds.traffic(), offsets[i]);
  }
  int64_t tick = 0;
  for (; manager.SessionInfo(ids[0]).ValueOrDie().resyncs < 2; ++tick) {
    ASSERT_LT(tick, 2 * task.history) << "the cadence never fired twice";
    std::vector<T::Tensor> frames;
    for (data::TickStream& feed : feeds) {
      frames.push_back(feed.Frame());
      feed.Advance();
    }
    for (const Status& s : manager.AppendMany(ids, tick, frames)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  for (size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(manager.SessionInfo(ids[i]).ValueOrDie().resyncs,
              i < kResynced ? 2 : 0)
        << ids[i];
  }

  ForecastEngine* engine = router->RouteFor("dcrnn").ValueOrDie().engines[0];
  const int64_t first = tick - task.history;
  for (size_t i = 0; i < kResynced; ++i) {
    std::vector<ForecastResponse> solo = manager.ForecastBatch({ids[i]});
    ASSERT_TRUE(solo[0].status.ok()) << solo[0].status.ToString();
    EXPECT_EQ(solo[0].batch_size, 1);
    T::Tensor window = ShiftedWindow(ds, first, offsets[i]);
    T::Tensor cold;
    {
      // The engine's team size: GEMM is bit-deterministic per team.
      core::TeamScope team(engine->team_size());
      autograd::InferenceModeGuard no_grad;
      cold = engine->mutable_model()
                 ->Forward(window.Reshape({1, task.history, task.num_nodes,
                                           task.input_dim}),
                           /*training=*/false)
                 .value();
    }
    EXPECT_TRUE(TensorEq(solo[0].forecast,
                         cold.Reshape({task.horizon, task.num_nodes})))
        << ids[i];
  }
}

TEST(StreamSessionTest, BatchedWarmAdvanceKeepsEachMembersOwnFeed) {
  // Four warm sessions, each fed the series from its own offset, advance
  // together in one AppendMany per tick with no resync; a twin of each
  // advances alone on the same feed as a batch of one. The members carry
  // different states, so a batched step that mixed up whose hidden state
  // lands in which row would move every member away from its twin.
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("dcrnn", task, ZooFactory("DCRNN", TinyZoo())).ok());
  SessionManager manager(router.get());

  const std::vector<int64_t> offsets = {0, 5, 17, 40};
  std::vector<std::string> batch_ids;
  std::vector<std::string> solo_ids;
  std::vector<data::TickStream> feeds;
  for (size_t i = 0; i < offsets.size(); ++i) {
    SessionOptions warm;
    warm.model = "dcrnn";
    warm.warm_state = true;
    warm.resync_every = 0;
    batch_ids.push_back("b" + std::to_string(i));
    solo_ids.push_back("a" + std::to_string(i));
    ASSERT_TRUE(manager.Open(batch_ids.back(), warm).ok());
    ASSERT_TRUE(manager.Open(solo_ids.back(), warm).ok());
    feeds.emplace_back(ds.traffic(), offsets[i]);
  }
  for (int64_t tick = 0; tick < task.history + 5; ++tick) {
    std::vector<T::Tensor> frames;
    for (size_t i = 0; i < feeds.size(); ++i) {
      frames.push_back(feeds[i].Frame());
      feeds[i].Advance();
      for (const Status& s :
           manager.AppendMany({solo_ids[i]}, tick, {frames.back()})) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
    for (const Status& s : manager.AppendMany(batch_ids, tick, frames)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }

  // BatchedWarmCarryMatchesSequentialWithinTolerance's warm tolerance:
  // 1e-5 in normalized model units, scaled by the training std.
  const float warm_atol = 1e-5f * task.scaler_std;
  for (size_t i = 0; i < offsets.size(); ++i) {
    EXPECT_EQ(manager.SessionInfo(batch_ids[i]).ValueOrDie().resyncs, 0);
    ForecastResponse batched = manager.Forecast(batch_ids[i]);
    ForecastResponse solo = manager.Forecast(solo_ids[i]);
    ASSERT_TRUE(batched.status.ok()) << batched.status.ToString();
    ASSERT_TRUE(solo.status.ok()) << solo.status.ToString();
    EXPECT_TRUE(TensorNear(batched.forecast, solo.forecast, warm_atol))
        << batch_ids[i];
  }
}

TEST(StreamSessionTest, ShardedWarmRouteResyncsPerShardEngine) {
  // Two warm sessions on a 2-shard DCRNN route whose cadence fires in one
  // AppendMany tick: each shard engine rebuilds both from their
  // shard-local rings in one batched replay. Right after that tick each
  // warm forecast equals the windowed session on the same route and feed.
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(router
                  ->AddShardedModel("dcrnn2", task, plan,
                                    ZooFactory("DCRNN", TinyZoo()))
                  .ok());
  SessionManager manager(router.get());

  const std::vector<int64_t> offsets = {0, 23};
  std::vector<std::string> ids;
  std::vector<data::TickStream> feeds;
  for (size_t i = 0; i < offsets.size(); ++i) {
    SessionOptions warm;
    warm.model = "dcrnn2";
    warm.warm_state = true;
    warm.resync_every = 5;
    SessionOptions windowed;
    windowed.model = "dcrnn2";
    ASSERT_TRUE(manager.Open("w" + std::to_string(i), warm).ok());
    ASSERT_TRUE(manager.Open("c" + std::to_string(i), windowed).ok());
    ids.push_back("w" + std::to_string(i));
    ids.push_back("c" + std::to_string(i));
    feeds.emplace_back(ds.traffic(), offsets[i]);
  }
  int64_t tick = 0;
  for (; manager.SessionInfo("w0").ValueOrDie().resyncs < 2; ++tick) {
    ASSERT_LT(tick, 2 * task.history) << "the cadence never fired twice";
    std::vector<T::Tensor> frames;
    for (data::TickStream& feed : feeds) {
      frames.push_back(feed.Frame());
      frames.push_back(feed.Frame());
      feed.Advance();
    }
    for (const Status& s : manager.AppendMany(ids, tick, frames)) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  EXPECT_EQ(manager.SessionInfo("w1").ValueOrDie().resyncs, 2);
  for (size_t i = 0; i < offsets.size(); ++i) {
    ForecastResponse warm = manager.Forecast("w" + std::to_string(i));
    ForecastResponse windowed = manager.Forecast("c" + std::to_string(i));
    ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
    ASSERT_TRUE(windowed.status.ok()) << windowed.status.ToString();
    EXPECT_TRUE(TensorEq(warm.forecast, windowed.forecast)) << "w" << i;
  }
}

TEST(StreamSessionTest, ForecastBatchIsolatesPerSessionErrors) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("ready", SessionOptions()).ok());
  ASSERT_TRUE(manager.Open("empty", SessionOptions()).ok());
  StreamTicks(&manager, "ready", 0, task.history);

  std::vector<ForecastResponse> rs =
      manager.ForecastBatch({"ready", "ghost", "empty", "ready"});
  ASSERT_EQ(rs.size(), 4u);
  ASSERT_TRUE(rs[0].status.ok()) << rs[0].status.ToString();
  EXPECT_EQ(rs[1].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(rs[2].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rs[3].status.code(), StatusCode::kInvalidArgument);  // duplicate
  EXPECT_TRUE(TensorEq(rs[0].forecast, manager.Forecast("ready").forecast));
}

TEST(StreamSessionTest, AppendManyIsolatesErrorsAndRejectsDuplicates) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  ASSERT_TRUE(manager.Open("s0", SessionOptions()).ok());
  ASSERT_TRUE(manager.Open("s1", SessionOptions()).ok());

  data::TickStream stream(ds.traffic(), 0, 1);
  T::Tensor frame = stream.Frame().Clone();
  std::vector<Status> statuses = manager.AppendMany(
      {"s0", "ghost", "s1", "s0"}, 0, {frame, frame, frame, frame});
  ASSERT_EQ(statuses.size(), 4u);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(statuses[1].code(), StatusCode::kNotFound);
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
  EXPECT_EQ(statuses[3].code(), StatusCode::kInvalidArgument);  // duplicate
  // The good sessions ingested exactly one tick.
  EXPECT_EQ(manager.SessionInfo("s0").ValueOrDie().next_tick, 1);
  EXPECT_EQ(manager.SessionInfo("s1").ValueOrDie().next_tick, 1);
  // Mismatched ids/frames arity fails every slot without side effects.
  std::vector<Status> arity = manager.AppendMany({"s0", "s1"}, 1, {frame});
  ASSERT_EQ(arity.size(), 2u);
  EXPECT_EQ(arity[0].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(arity[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(manager.SessionInfo("s0").ValueOrDie().next_tick, 1);
}

TEST(StreamSessionTest, ConcurrentAppendDuringForecastAllStaysConsistent) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManager manager(router.get());
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back("f" + std::to_string(i));
    ASSERT_TRUE(manager.Open(ids.back(), SessionOptions()).ok());
  }

  constexpr int64_t kTicks = 30;
  std::atomic<bool> done{false};
  std::thread appender([&] {
    data::TickStream stream(ds.traffic(), 0, kTicks);
    for (; !stream.Done(); stream.Advance()) {
      std::vector<T::Tensor> frames(ids.size(), stream.Frame());
      for (const Status& s :
           manager.AppendMany(ids, stream.tick(), frames)) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    }
    done.store(true);
  });
  std::thread forecaster([&] {
    while (!done.load()) {
      for (auto& [id, r] : manager.ForecastAll()) {
        if (r.status.ok()) {
          ASSERT_EQ(r.forecast.shape(),
                    (T::Shape{task.horizon, task.num_nodes}));
        } else {
          ASSERT_EQ(r.status.code(), StatusCode::kUnavailable)
              << id << ": " << r.status.ToString();
        }
      }
    }
  });
  appender.join();
  forecaster.join();
  for (auto& [id, r] : manager.ForecastAll()) {
    EXPECT_TRUE(r.status.ok()) << id << ": " << r.status.ToString();
  }
  for (const std::string& id : ids) {
    EXPECT_EQ(manager.SessionInfo(id).ValueOrDie().ticks, kTicks);
  }
}

TEST(StreamSessionTest, EvictionDuringBatchedForecastIsSafe) {
  const data::TrafficDataset& ds = SharedDataset();
  train::ForecastTask task = train::ForecastTask::FromDataset(ds);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", TinyZoo())).ok());
  SessionManagerOptions mgr_options;
  mgr_options.max_sessions = 4;
  SessionManager manager(router.get(), mgr_options);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back("v" + std::to_string(i));
    ASSERT_TRUE(manager.Open(ids.back(), SessionOptions()).ok());
    StreamTicks(&manager, ids.back(), 0, task.history);
  }

  // An opener churns the LRU slots while batched forecasts are in
  // flight: the batch pins its sessions via shared_ptr, so a member
  // evicted mid-batch still serves; later rounds see NotFound.
  std::atomic<bool> done{false};
  std::thread opener([&] {
    for (int i = 0; i < 24; ++i) {
      Status s = manager.Open("churn" + std::to_string(i), SessionOptions());
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    done.store(true);
  });
  std::thread forecaster([&] {
    while (!done.load()) {
      std::vector<ForecastResponse> rs = manager.ForecastBatch(ids);
      for (size_t i = 0; i < rs.size(); ++i) {
        if (rs[i].status.ok()) {
          ASSERT_EQ(rs[i].forecast.shape(),
                    (T::Shape{task.horizon, task.num_nodes}));
        } else {
          ASSERT_EQ(rs[i].status.code(), StatusCode::kNotFound)
              << ids[i] << ": " << rs[i].status.ToString();
        }
      }
    }
  });
  opener.join();
  forecaster.join();
  EXPECT_EQ(manager.Stats().evicted_lru, 24);
}

}  // namespace
}  // namespace dyhsl::serve
