// Tests for the forecast-serving engine: correctness of served responses
// against direct model forwards, per-request serving under concurrent
// load, determinism across batch compositions, checkpoint bring-up, and
// request validation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/data/dataset.h"
#include "src/serve/engine.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/workspace.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"
#include "src/train/streaming.h"
#include "src/train/trainer.h"
#include "tests/testing_utils.h"

namespace dyhsl::serve {
namespace {

namespace T = ::dyhsl::tensor;

using ::dyhsl::testing::TensorEq;
using train::RingForecastTask;

models::DyHslConfig TinyConfig(uint64_t seed = 21) {
  models::DyHslConfig cfg;
  cfg.hidden_dim = 8;
  cfg.prior_layers = 1;
  cfg.mhce_layers = 1;
  cfg.num_hyperedges = 4;
  cfg.window_sizes = {1, 12};
  cfg.dropout = 0.0f;
  cfg.seed = seed;
  return cfg;
}

T::Tensor RandomWindow(const train::ForecastTask& task, uint64_t seed) {
  Rng rng(seed);
  return T::Tensor::Randn({task.history, task.num_nodes, task.input_dim},
                          &rng, 0.5f);
}

using ::dyhsl::testing::TempPath;

TEST(ForecastEngineTest, ServesForecastMatchingDirectForward) {
  train::ForecastTask task = RingForecastTask(16, 12);
  auto created = ForecastEngine::Create(task, TinyConfig());
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ForecastEngine> engine = std::move(created).ValueOrDie();

  T::Tensor window = RandomWindow(task, 7);
  ForecastResponse response =
      engine->Submit(ForecastRequest{window.Clone()}).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.forecast.shape(), (T::Shape{12, 16}));
  EXPECT_GE(response.batch_size, 1);

  // Reference: the engine's own model run directly on a batch of one.
  autograd::InferenceModeGuard no_grad;
  T::Tensor x = window.Reshape({1, 12, 16, 3});
  T::Tensor expected =
      (*engine->mutable_model()).Forward(x, false).value();
  EXPECT_TENSOR_EQ(response.forecast, expected.Reshape({12, 16}));
}

TEST(ForecastEngineTest, ConcurrentSubmitsAreServedOneByOneAndCorrect) {
  train::ForecastTask task = RingForecastTask(12, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();

  T::Tensor window = RandomWindow(task, 11);
  T::Tensor expected;
  {
    autograd::InferenceModeGuard no_grad;
    T::Tensor x = window.Reshape({1, 12, 12, 3});
    expected = (*engine->mutable_model())
                   .Forward(x, false)
                   .value()
                   .Reshape({12, 12});
  }

  constexpr int kClients = 12;
  std::vector<std::future<ForecastResponse>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      futures[i] = engine->Submit(ForecastRequest{window.Clone()});
    });
  }
  for (std::thread& c : clients) c.join();

  for (auto& future : futures) {
    ForecastResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TENSOR_EQ(response.forecast, expected);
    EXPECT_EQ(response.batch_size, 1);
  }
  EngineStats stats = engine->Snapshot();
  EXPECT_EQ(stats.requests, kClients);
  // One forward per request, however many arrived together.
  EXPECT_EQ(stats.batches, kClients);
}

TEST(ForecastEngineTest, ResponsesIdenticalAcrossBatchCompositions) {
  // The same windows served per request through the queue and packed
  // through SubmitBatch must agree bit for bit.
  train::ForecastTask task = RingForecastTask(10, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();

  std::vector<T::Tensor> windows;
  for (uint64_t s = 0; s < 5; ++s) windows.push_back(RandomWindow(task, s));

  std::vector<std::future<ForecastResponse>> futures;
  for (auto& w : windows) {
    futures.push_back(engine->Submit(ForecastRequest{w.Clone()}));
  }
  BatchForecastResponse packed = engine->SubmitBatch(T::PackBatch(windows));
  ASSERT_TRUE(packed.status.ok()) << packed.status.ToString();
  ASSERT_EQ(packed.batch_size, 5);
  const int64_t item_numel = task.horizon * task.num_nodes;
  for (size_t i = 0; i < windows.size(); ++i) {
    ForecastResponse one = futures[i].get();
    ASSERT_TRUE(one.status.ok());
    EXPECT_TENSOR_EQ(one.forecast,
                     packed.forecasts.Alias(static_cast<int64_t>(i) * item_numel,
                                            {task.horizon, task.num_nodes}));
  }
}

TEST(ForecastEngineTest, PaperScaleBatchesMatchSingleForecastsAtEveryTeamSize) {
  // DyHSL at the paper configuration (d = 64, I = 32, J = 6 scales, Lp = 6,
  // Ls = 2) on the PEMS08-like road network (N = 170): every SubmitBatch
  // item must equal ForecastNow on its window bit for bit at every team
  // size. Batching changes the length of every elementwise array, and a
  // team of 3 splits those arrays at boundaries that do not fall on
  // vector-width multiples — so this holds only if no kernel's rounding
  // depends on where an element sits. A tanh whose vector body and scalar
  // tail rounded differently broke it for item 5 of the B = 8 batch of
  // these windows; most windows hide such a one-ulp difference, because
  // the rounding of the head's dot products absorbs it.
  const data::TrafficDataset dataset = data::TrafficDataset::Generate(
      data::DatasetSpec::Pems08Like(1.0, 2, /*seed=*/1));
  const train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  ASSERT_EQ(task.num_nodes, 170);
  models::DyHslConfig config;  // paper defaults
  Rng rng(10);
  std::vector<T::Tensor> windows;
  for (int i = 0; i < 8; ++i) {
    windows.push_back(T::Tensor::Randn(
        {task.history, task.num_nodes, task.input_dim}, &rng, 1.0f));
  }
  for (int team : {1, 2, 3, 4}) {
    EngineOptions options;
    options.team_size = team;
    auto engine =
        std::move(ForecastEngine::Create(task, config, "", options))
            .ValueOrDie();
    std::vector<T::Tensor> single;
    for (const T::Tensor& w : windows) {
      ForecastResponse one = engine->ForecastNow(w);
      ASSERT_TRUE(one.status.ok()) << one.status.ToString();
      single.push_back(one.forecast);
    }
    for (size_t b : {2, 3, 4, 8}) {
      const std::vector<T::Tensor> items(windows.begin(),
                                         windows.begin() + b);
      BatchForecastResponse batch = engine->SubmitBatch(T::PackBatch(items));
      ASSERT_TRUE(batch.status.ok()) << batch.status.ToString();
      const int64_t item_numel = task.horizon * task.num_nodes;
      for (size_t i = 0; i < b; ++i) {
        EXPECT_TRUE(TensorEq(
            batch.forecasts.Alias(static_cast<int64_t>(i) * item_numel,
                                  {task.horizon, task.num_nodes}),
            single[i]))
            << "team " << team << " batch " << b << " item " << i;
      }
    }
  }
}

TEST(ForecastEngineTest, SubmitMatchesForecastNowAtPaperScale) {
  // Paper-config DyHSL on the PEMS08-like network (N = 170): eight
  // Submits in flight at once on a one-worker engine are served one by
  // one, in arrival order, each bit-identical to ForecastNow on its
  // window — at team 1 and at a team of 3, which splits every kernel at
  // boundaries off the vector width.
  const data::TrafficDataset dataset = data::TrafficDataset::Generate(
      data::DatasetSpec::Pems08Like(1.0, 2, /*seed=*/1));
  const train::ForecastTask task = train::ForecastTask::FromDataset(dataset);
  ASSERT_EQ(task.num_nodes, 170);
  models::DyHslConfig config;  // paper defaults
  Rng rng(12);
  std::vector<T::Tensor> windows;
  for (int i = 0; i < 8; ++i) {
    windows.push_back(T::Tensor::Randn(
        {task.history, task.num_nodes, task.input_dim}, &rng, 1.0f));
  }
  using Clock = std::chrono::steady_clock;
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  for (int team : {1, 3}) {
    EngineOptions options;
    options.team_size = team;
    auto engine =
        std::move(ForecastEngine::Create(task, config, "", options))
            .ValueOrDie();
    ASSERT_EQ(engine->team_size(), team);
    std::vector<T::Tensor> single;
    for (const T::Tensor& w : windows) {
      ForecastResponse one = engine->ForecastNow(w);
      ASSERT_TRUE(one.status.ok()) << one.status.ToString();
      single.push_back(one.forecast);
    }
    // Each enqueue instant lies between the test's clock reads around its
    // Submit, offsets in microseconds from t0.
    const Clock::time_point t0 = Clock::now();
    std::vector<double> before(windows.size());
    std::vector<double> after(windows.size());
    std::vector<std::future<ForecastResponse>> futures;
    for (size_t i = 0; i < windows.size(); ++i) {
      before[i] = micros(Clock::now() - t0);
      futures.push_back(engine->Submit(ForecastRequest{windows[i]}));
      after[i] = micros(Clock::now() - t0);
    }
    std::vector<ForecastResponse> responses;
    for (auto& future : futures) {
      responses.push_back(future.get());
      ASSERT_TRUE(responses.back().status.ok())
          << responses.back().status.ToString();
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      const ForecastResponse& r = responses[i];
      EXPECT_TRUE(TensorEq(r.forecast, single[i]))
          << "team " << team << " request " << i;
      EXPECT_EQ(r.batch_size, 1);
      if (i == 0) continue;
      // Request i-1's forward ends no earlier than before[i-1] + queue +
      // compute, and request i's starts no later than after[i] + queue.
      // The bounds are loose by the microseconds a Submit takes; a
      // forward takes milliseconds, so overlapping or reordered forwards
      // fail.
      const ForecastResponse& prev = responses[i - 1];
      const double prev_end_min =
          before[i - 1] + prev.queue_micros + prev.compute_micros;
      const double start_max = after[i] + r.queue_micros;
      EXPECT_LE(prev_end_min, start_max)
          << "team " << team << ": request " << i
          << " started before request " << i - 1 << " finished";
    }
    const EngineStats stats = engine->Snapshot();
    EXPECT_EQ(stats.batches, 8);
    EXPECT_EQ(stats.requests, 16);
  }
}

TEST(ForecastEngineTest, MultipleWorkersServeEveryRequest) {
  train::ForecastTask task = RingForecastTask(8, 12);
  EngineOptions options;
  options.num_workers = 3;
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig(), "", options))
          .ValueOrDie();
  T::Tensor window = RandomWindow(task, 3);
  T::Tensor expected;
  {
    autograd::InferenceModeGuard no_grad;
    expected = (*engine->mutable_model())
                   .Forward(window.Reshape({1, 12, 8, 3}), false)
                   .value()
                   .Reshape({12, 8});
  }
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_TENSOR_EQ(response.forecast, expected);
  }
  EXPECT_EQ(engine->Snapshot().requests, 32);
}

TEST(ForecastEngineTest, LoadsCheckpointAtCreate) {
  train::ForecastTask task = RingForecastTask(9, 12);
  // Source model with a different init seed than the engine's config:
  // only a successful checkpoint load can make their outputs agree.
  models::DyHsl source(task, TinyConfig(/*seed=*/123));
  std::string path = TempPath("engine_load.ckpt");
  ASSERT_TRUE(train::SaveCheckpoint(source, path).ok());

  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig(/*seed=*/321), path))
          .ValueOrDie();
  T::Tensor window = RandomWindow(task, 5);
  ForecastResponse response =
      engine->Submit(ForecastRequest{window.Clone()}).get();
  ASSERT_TRUE(response.status.ok());

  autograd::InferenceModeGuard no_grad;
  T::Tensor expected =
      source.Forward(window.Reshape({1, 12, 9, 3}), false).value();
  EXPECT_TENSOR_EQ(response.forecast, expected.Reshape({12, 9}));
  std::remove(path.c_str());
}

TEST(ForecastEngineTest, CreateFailsOnMissingCheckpoint) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto created =
      ForecastEngine::Create(task, TinyConfig(), "/nonexistent/model.ckpt");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kIoError);
}

TEST(ForecastEngineTest, CreateValidatesOptions) {
  train::ForecastTask task = RingForecastTask(8, 12);
  EngineOptions bad;
  bad.num_workers = 0;
  EXPECT_FALSE(ForecastEngine::Create(task, TinyConfig(), "", bad).ok());
}

TEST(ForecastEngineTest, RejectsMalformedWindow) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();
  ForecastResponse response =
      engine->Submit(ForecastRequest{T::Tensor::Zeros({3, 3})}).get();
  EXPECT_FALSE(response.status.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  ForecastResponse undefined =
      engine->Submit(ForecastRequest{T::Tensor()}).get();
  EXPECT_FALSE(undefined.status.ok());
}

// A draining engine or router answers kUnavailable — the same code as
// overload — so a caller can retry elsewhere instead of treating the
// request as malformed.
TEST(ForecastEngineTest, SubmitAfterShutdownFails) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();
  T::Tensor window = RandomWindow(task, 1);
  ASSERT_TRUE(engine->Submit(ForecastRequest{window.Clone()}).get().status.ok());
  engine->Shutdown();
  ForecastResponse after =
      engine->Submit(ForecastRequest{window.Clone()}).get();
  EXPECT_FALSE(after.status.ok());
  EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
  BatchForecastResponse batch = engine->SubmitBatch(
      window.Reshape({1, task.history, task.num_nodes, task.input_dim}));
  EXPECT_FALSE(batch.status.ok());
  EXPECT_EQ(batch.status.code(), StatusCode::kUnavailable);

  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ASSERT_TRUE(router->AddModel("dyhsl", task, DyHslFactory(TinyConfig())).ok());
  ASSERT_TRUE(
      router->Submit(RouterRequest{"dyhsl", window.Clone()}).get().status.ok());
  router->Shutdown();
  ForecastResponse routed =
      router->Submit(RouterRequest{"dyhsl", window.Clone()}).get();
  EXPECT_FALSE(routed.status.ok());
  EXPECT_EQ(routed.status.code(), StatusCode::kUnavailable);
  // Registration, route lookup and session open answer the same code.
  EXPECT_EQ(router->AddModel("late", task, DyHslFactory(TinyConfig())).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(router->RouteFor("dyhsl").status().code(),
            StatusCode::kUnavailable);
  SessionManager sessions(router.get());
  SessionOptions open;
  open.model = "dyhsl";
  EXPECT_EQ(sessions.Open("s0", open).code(), StatusCode::kUnavailable);
}

// Every forecast call of a shut-down engine answers kUnavailable — the
// synchronous ones and the sessions already open on it, windowed and
// warm alike. The state calls return nothing and touch only the
// caller's state, so they keep working.
TEST(ForecastEngineTest, ForecastCallsAfterShutdownFail) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  train::ZooConfig zoo;
  zoo.hidden_dim = 8;
  ASSERT_TRUE(router->AddModel("dcrnn", task, ZooFactory("DCRNN", zoo)).ok());
  ForecastEngine* engine = router->RouteFor("dcrnn").ValueOrDie().engines[0];
  SessionManager sessions(router.get());
  SessionOptions warm;
  warm.warm_state = true;
  ASSERT_TRUE(sessions.Open("windowed", SessionOptions()).ok());
  ASSERT_TRUE(sessions.Open("warm", warm).ok());
  Rng rng(5);
  for (int64_t t = 0; t < task.history; ++t) {
    T::Tensor raw = T::Tensor::Randn({task.num_nodes}, &rng, 1.0f);
    for (const Status& s :
         sessions.AppendMany({"windowed", "warm"}, t, {raw, raw})) {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  }
  const T::Tensor window = RandomWindow(task, 2);
  std::unique_ptr<train::StreamState> state = engine->NewStreamState();
  engine->ResyncStateBatch(
      {state.get()},
      window.Reshape({1, task.history, task.num_nodes, task.input_dim}));
  ASSERT_TRUE(engine->ForecastNow(window).status.ok());
  ASSERT_TRUE(engine->ForecastFromStateBatch({state.get()}).status.ok());
  for (const char* id : {"windowed", "warm"}) {
    ForecastResponse r = sessions.Forecast(id);
    ASSERT_TRUE(r.status.ok()) << id << ": " << r.status.ToString();
  }

  router->Shutdown();
  EXPECT_EQ(engine->ForecastNow(window).status.code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(engine->ForecastFromStateBatch({state.get()}).status.code(),
            StatusCode::kUnavailable);
  for (const char* id : {"windowed", "warm"}) {
    EXPECT_EQ(sessions.Forecast(id).status.code(), StatusCode::kUnavailable)
        << id;
  }
  std::vector<ForecastResponse> both =
      sessions.ForecastBatch({"windowed", "warm"});
  EXPECT_EQ(both[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(both[1].status.code(), StatusCode::kUnavailable);
  // Ingest and the warm carry still advance the sessions' own state.
  T::Tensor raw = T::Tensor::Randn({task.num_nodes}, &rng, 1.0f);
  EXPECT_TRUE(sessions.Append("warm", task.history, raw).ok());
  engine->ResyncStateBatch(
      {state.get()},
      window.Reshape({1, task.history, task.num_nodes, task.input_dim}));
  engine->AdvanceStateBatch(
      {state.get()},
      window.Alias(0, {1, task.num_nodes, task.input_dim}));
}

// The serving context each model call ran under.
struct CallContext {
  bool inference = false;
  bool prepack = false;
  int team = 0;
  const T::Workspace* arena = nullptr;
};

// A window and recurrent-state model whose every method records the
// context the engine called it under, and returns zeros.
class ContextProbeModel : public train::ForecastModel,
                          public train::RecurrentStreamModel {
 public:
  explicit ContextProbeModel(const train::ForecastTask& task) : task_(task) {}

  autograd::Variable Forward(const T::Tensor& x, bool training) override {
    (void)training;
    Record("Forward");
    return autograd::Variable(
        T::Tensor::Zeros({x.size(0), task_.horizon, task_.num_nodes}));
  }
  std::vector<autograd::Variable> Parameters() const override { return {}; }
  int64_t ParameterCount() const override { return 0; }
  std::string name() const override { return "probe"; }

  std::unique_ptr<train::StreamState> MakeStreamState() const override {
    return std::make_unique<train::StreamState>();
  }
  void ResyncStateBatch(const std::vector<train::StreamState*>& states,
                        const T::Tensor& windows) const override {
    (void)states;
    (void)windows;
    Record("ResyncStateBatch");
  }
  void AdvanceStateBatch(const std::vector<train::StreamState*>& states,
                         const T::Tensor& frames) const override {
    (void)states;
    (void)frames;
    Record("AdvanceStateBatch");
  }
  T::Tensor ForecastFromStateBatch(
      const std::vector<const train::StreamState*>& states) const override {
    Record("ForecastFromStateBatch");
    return T::Tensor::Zeros({static_cast<int64_t>(states.size()),
                             task_.horizon, task_.num_nodes});
  }

  const std::vector<std::pair<std::string, CallContext>>& calls() const {
    return calls_;
  }

 private:
  void Record(const char* method) const {
    calls_.emplace_back(
        method, CallContext{autograd::InferenceModeEnabled(),
                            T::PrepackLookupActive(), core::TeamThreads(),
                            T::Workspace::Current()});
  }

  train::ForecastTask task_;
  mutable std::vector<std::pair<std::string, CallContext>> calls_;
};

TEST(ForecastEngineTest, EveryModelCallRunsUnderTheEngineScopes) {
  train::ForecastTask task = RingForecastTask(6, 12);
  ContextProbeModel* probe = nullptr;
  ModelFactory factory = [&probe](const train::ForecastTask& t) {
    auto model = std::make_unique<ContextProbeModel>(t);
    probe = model.get();
    return std::unique_ptr<train::ForecastModel>(std::move(model));
  };
  EngineOptions options;
  options.team_size = 3;  // distinct from any default team of this thread
  auto engine = std::move(ForecastEngine::Create(task, factory, "", options))
                    .ValueOrDie();
  ASSERT_NE(probe, nullptr);
  ASSERT_TRUE(engine->supports_streaming());

  const T::Tensor window = RandomWindow(task, 4);
  std::unique_ptr<train::StreamState> state = engine->NewStreamState();
  ASSERT_TRUE(engine->ForecastNow(window).status.ok());
  ASSERT_TRUE(engine
                  ->SubmitBatch(window.Reshape({1, task.history,
                                                task.num_nodes,
                                                task.input_dim}))
                  .status.ok());
  engine->ResyncStateBatch(
      {state.get()},
      window.Reshape({1, task.history, task.num_nodes, task.input_dim}));
  engine->AdvanceStateBatch(
      {state.get()}, window.Alias(0, {1, task.num_nodes, task.input_dim}));
  BatchForecastResponse warm = engine->ForecastFromStateBatch({state.get()});
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.forecasts.shape(), (T::Shape{1, 12, 6}));

  // Outside the calls the thread holds none of the scopes.
  EXPECT_FALSE(autograd::InferenceModeEnabled());
  EXPECT_FALSE(T::PrepackLookupActive());
  EXPECT_EQ(T::Workspace::Current(), nullptr);

  const auto& calls = probe->calls();
  ASSERT_EQ(calls.size(), 5u);
  const T::Workspace* arena = calls[0].second.arena;
  EXPECT_NE(arena, nullptr);
  for (const auto& [method, seen] : calls) {
    EXPECT_TRUE(seen.inference) << method;
    EXPECT_TRUE(seen.prepack) << method;
    EXPECT_EQ(seen.team, engine->team_size()) << method;
    EXPECT_EQ(seen.arena, arena) << method << ": one warm arena per thread";
  }
}

TEST(ForecastEngineTest, SubmitThenHandsTheResponseToItsCallback) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();
  T::Tensor window = RandomWindow(task, 3);
  const ForecastResponse expected =
      engine->Submit(ForecastRequest{window.Clone()}).get();
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();

  std::promise<ForecastResponse> served;
  engine->SubmitThen(ForecastRequest{window.Clone()},
                     [&served](ForecastResponse response) {
                       served.set_value(std::move(response));
                     });
  ForecastResponse response = served.get_future().get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.batch_size, 1);
  EXPECT_TENSOR_EQ(response.forecast, expected.forecast);

  // A refusal completes on the submitting thread, before SubmitThen
  // returns: a malformed window, then an engine that is shut down.
  int calls = 0;
  Status refused;
  auto record = [&](ForecastResponse r) {
    calls += 1;
    refused = r.status;
  };
  engine->SubmitThen(ForecastRequest{T::Tensor({2, 2})}, record);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  engine->Shutdown();
  engine->SubmitThen(ForecastRequest{window.Clone()}, record);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
}

TEST(ForecastEngineTest, CreateValidatesMaxQueue) {
  train::ForecastTask task = RingForecastTask(8, 12);
  EngineOptions bad;
  bad.max_queue = -1;
  EXPECT_FALSE(ForecastEngine::Create(task, TinyConfig(), "", bad).ok());
}

TEST(ForecastEngineTest, MaxQueueShedsLoadWithUnavailable) {
  train::ForecastTask task = RingForecastTask(8, 12);
  EngineOptions options;
  options.max_queue = 3;
  // A 50 ms forward keeps the queue full while this thread floods past
  // the admission limit.
  ModelFactory slow = [](const train::ForecastTask& t) {
    return std::make_unique<testing::SlowForecastModel>(
        t, std::chrono::milliseconds(50));
  };
  auto engine = std::move(ForecastEngine::Create(task, slow, "", options))
                    .ValueOrDie();
  T::Tensor window = RandomWindow(task, 3);
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  int64_t rejected = 0;
  int64_t served = 0;
  engine->Shutdown();  // flush the admitted requests
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    if (response.status.ok()) {
      ++served;
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  // A worker may have drained some of the queue between submits, so the
  // exact split varies — but admitted requests are served and everything
  // past the limit is shed with kUnavailable, never a broken promise.
  EXPECT_GT(served, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(served + rejected, 8);
  EXPECT_EQ(engine->Snapshot().rejected, rejected);
}

TEST(ForecastEngineTest, SnapshotIsConsistentUnderLoad) {
  // Snapshot() must hand back one coherent view: after a drained run,
  // requests and batches agree with what was served, and the queue depth
  // is zero.
  train::ForecastTask task = RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();
  T::Tensor window = RandomWindow(task, 9);
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.batch_size, 1);
  }
  EngineStats stats = engine->Snapshot();
  EXPECT_EQ(stats.requests, 10);
  EXPECT_EQ(stats.batches, 10);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.rejected, 0);
}

TEST(ForecastEngineTest, ServesZooModelThroughFactory) {
  // The engine is model-agnostic: a zoo factory (here STGCN) serves
  // responses matching the model's direct grad-free forward.
  train::ForecastTask task = RingForecastTask(10, 12);
  train::ZooConfig zoo;
  zoo.hidden_dim = 8;
  zoo.seed = 3;
  auto engine =
      std::move(ForecastEngine::Create(task, ZooFactory("STGCN", zoo)))
          .ValueOrDie();
  EXPECT_EQ(engine->model().name(), "STGCN");
  T::Tensor window = RandomWindow(task, 12);
  ForecastResponse response =
      engine->Submit(ForecastRequest{window.Clone()}).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  autograd::InferenceModeGuard no_grad;
  T::Tensor expected =
      engine->mutable_model()
          ->Forward(window.Reshape({1, 12, 10, 3}), false)
          .value()
          .Reshape({12, 10});
  EXPECT_TENSOR_EQ(response.forecast, expected);
}

// ------------------------------------------------------ thread budgeting --

// A model whose Forward runs an OpenMP concurrency probe instead of math:
// it records (through shared atomics) how many kernel threads were live at
// once across every worker of every engine using it.
class ProbeModel : public train::ForecastModel {
 public:
  ProbeModel(train::ForecastTask task, std::atomic<int>* live,
             std::atomic<int>* peak)
      : task_(std::move(task)), live_(live), peak_(peak) {}

  autograd::Variable Forward(const tensor::Tensor& x, bool) override {
    const int ran = ::dyhsl::testing::TeamConcurrencyProbe(live_, peak_,
                                               /*spin_micros=*/300);
    team_seen_.store(std::max(team_seen_.load(), ran));
    return autograd::Variable(
        T::Tensor({x.shape()[0], task_.horizon, task_.num_nodes}));
  }
  std::vector<autograd::Variable> Parameters() const override { return {}; }
  int64_t ParameterCount() const override { return 0; }
  std::string name() const override { return "Probe"; }
  int team_seen() const { return team_seen_.load(); }

 private:
  train::ForecastTask task_;
  std::atomic<int>* live_;
  std::atomic<int>* peak_;
  std::atomic<int> team_seen_{0};
};

TEST(EngineThreadingTest, AutoTeamPartitionsTheCreatorsBudget) {
  train::ForecastTask task = RingForecastTask(8, 12);
  core::TeamScope budget(4);  // the thread creating the engines owns 4
  EngineOptions two_workers;
  two_workers.num_workers = 2;
  auto split =
      std::move(ForecastEngine::Create(task, TinyConfig(), "", two_workers))
          .ValueOrDie();
  EXPECT_EQ(split->team_size(), 2);  // 4 threads / 2 workers

  EngineOptions solo;  // one worker keeps the whole budget
  auto whole = std::move(ForecastEngine::Create(task, TinyConfig(), "", solo))
                   .ValueOrDie();
  EXPECT_EQ(whole->team_size(), 4);

  EngineOptions pinned_team;  // an explicit team_size wins over auto
  pinned_team.num_workers = 2;
  pinned_team.team_size = 1;
  auto narrow =
      std::move(ForecastEngine::Create(task, TinyConfig(), "", pinned_team))
          .ValueOrDie();
  EXPECT_EQ(narrow->team_size(), 1);
}

TEST(EngineThreadingTest, CreateValidatesTeamSizeAndPinCores) {
  train::ForecastTask task = RingForecastTask(8, 12);
  EngineOptions bad;
  bad.team_size = -1;
  EXPECT_EQ(ForecastEngine::Create(task, TinyConfig(), "", bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad = EngineOptions();
  bad.pin_cores = {0, -1};
  EXPECT_EQ(ForecastEngine::Create(task, TinyConfig(), "", bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineThreadingTest, WorkersNeverOversubscribeTheBudget) {
  // The regression this PR fixes: a multi-worker engine used to let every
  // worker fork a machine-wide OpenMP team (workers x machine threads).
  // With the budget scoped per worker, total live kernel threads across
  // all workers must never exceed the creator's budget.
  train::ForecastTask task = RingForecastTask(8, 12);
  const core::ThreadBudget budget = core::ThreadBudget::Partition(4, 2);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  auto* probe = new ProbeModel(task, &live, &peak);
  ModelFactory factory = [probe](const train::ForecastTask&) {
    return std::unique_ptr<train::ForecastModel>(probe);
  };
  core::TeamScope creator(budget.total);
  EngineOptions options;
  options.num_workers = budget.num_workers;
  auto engine = std::move(ForecastEngine::Create(task, factory, "", options))
                    .ValueOrDie();
  ASSERT_EQ(engine->team_size(), budget.team_size);

  T::Tensor window = RandomWindow(task, 17);
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().status.ok());
  }
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), budget.total)
      << "workers' teams oversubscribed the budget";
  EXPECT_LE(probe->team_seen(), budget.team_size);
}

TEST(EngineThreadingTest, PinnedWorkersServeCorrectly) {
  // Pinning confines the workers but must not change a single bit of the
  // served forecasts (kernels are thread-count and placement invariant).
  train::ForecastTask task = RingForecastTask(10, 12);
  EngineOptions pinned;
  pinned.num_workers = 2;
  pinned.pin_cores = {core::AvailableCores().front()};
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig(), "", pinned))
          .ValueOrDie();
  T::Tensor window = RandomWindow(task, 23);
  T::Tensor expected;
  {
    autograd::InferenceModeGuard no_grad;
    expected = (*engine->mutable_model())
                   .Forward(window.Reshape({1, 12, 10, 3}), false)
                   .value()
                   .Reshape({12, 10});
  }
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TENSOR_EQ(response.forecast, expected);
  }
}

TEST(ForecastEngineTest, ShutdownDrainsQueuedRequests) {
  train::ForecastTask task = RingForecastTask(8, 12);
  auto engine =
      std::move(ForecastEngine::Create(task, TinyConfig())).ValueOrDie();
  T::Tensor window = RandomWindow(task, 2);
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(engine->Submit(ForecastRequest{window.Clone()}));
  }
  engine->Shutdown();  // must serve what is queued, not strand it
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().status.ok());
  }
}

}  // namespace
}  // namespace dyhsl::serve
