// Serving benchmark: grad-free vs taped forward latency, engine
// single-stream latency, and closed-loop multi-client throughput.
//
//   $ ./build/bench_serve                          # prints a table
//   $ DYHSL_BENCH_OUT=BENCH_serve.json ./build/bench_serve
//
// Scale: DYHSL_PROFILE=tiny|quick|full adjusts iteration counts only —
// the model is always the paper-default DyHSL (d=64, Lp=6, Ls=2, I=32,
// J=6) on an N=207 sensor network, so numbers are comparable across
// profiles and CI runs. Results are written to the JSON file named by
// DYHSL_BENCH_OUT (default BENCH_serve.json in the working directory),
// replacing any previous contents.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/models/dyhsl.h"
#include "src/serve/engine.h"
#include "src/tensor/workspace.h"
#include "src/train/model_zoo.h"

namespace dyhsl::bench {
namespace {

namespace T = ::dyhsl::tensor;
using Clock = std::chrono::steady_clock;

constexpr int64_t kNodes = 207;
constexpr int64_t kHistory = 12;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(pct / 100.0 *
                                   static_cast<double>(values.size() - 1));
  return values[idx];
}

// One timed burst of `iters` forwards (fresh scope + arena reset each).
double TimeForwardOnce(models::DyHsl* model, const T::Tensor& x,
                       T::Workspace* workspace, bool grad_free, int iters) {
  Clock::time_point start = Clock::now();
  for (int i = 0; i < iters; ++i) {
    T::WorkspaceScope scope(workspace);
    if (grad_free) {
      autograd::InferenceModeGuard no_grad;
      volatile float sink = model->Forward(x, false).value().data()[0];
      (void)sink;
    } else {
      volatile float sink = model->Forward(x, false).value().data()[0];
      (void)sink;
    }
    workspace->Reset();
  }
  return MsSince(start) / iters;
}

struct ForwardTimes {
  double taped_ms = 0.0;
  double gradfree_ms = 0.0;
};

// Interleaved taped / grad-free rounds (best-of per mode): alternating
// bursts keep machine-state drift (frequency, cache pressure from
// neighbors) from biasing one mode's number.
ForwardTimes TimeForwardPair(models::DyHsl* model, const T::Tensor& x,
                             int iters, int rounds) {
  T::Workspace taped_ws;
  T::Workspace gradfree_ws;
  // Warm both arenas before the timed rounds.
  TimeForwardOnce(model, x, &taped_ws, false, 1);
  TimeForwardOnce(model, x, &gradfree_ws, true, 1);
  ForwardTimes best{1e30, 1e30};
  for (int r = 0; r < rounds; ++r) {
    best.taped_ms = std::min(
        best.taped_ms, TimeForwardOnce(model, x, &taped_ws, false, iters));
    best.gradfree_ms = std::min(
        best.gradfree_ms, TimeForwardOnce(model, x, &gradfree_ws, true, iters));
  }
  return best;
}

struct LoadResult {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// Closed loop: `clients` threads each submit `per_client` requests
// back-to-back and wait for each response before sending the next.
LoadResult RunLoad(serve::ForecastEngine* engine, const T::Tensor& window,
                   int clients, int per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Clock::time_point start = Clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        Clock::time_point sent = Clock::now();
        serve::ForecastResponse response =
            engine->Submit(serve::ForecastRequest{window.Clone()}).get();
        latencies[c].push_back(MsSince(sent));
        if (!response.status.ok()) {
          std::fprintf(stderr, "serve error: %s\n",
                       response.status.ToString().c_str());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_ms = MsSince(start);

  LoadResult result;
  std::vector<double> all;
  for (int c = 0; c < clients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
  }
  result.throughput_rps =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(all.size()) / wall_ms : 0.0;
  result.p50_ms = Percentile(all, 50.0);
  result.p99_ms = Percentile(all, 99.0);
  return result;
}

}  // namespace
}  // namespace dyhsl::bench

int main() {
  using namespace dyhsl;
  using namespace dyhsl::bench;
  ConfigureParallelism();
  RunProfile profile = GetRunProfile();
  int fwd_iters = profile == RunProfile::kTiny ? 5 : 20;
  int per_client = profile == RunProfile::kTiny ? 4 : 16;

  train::ForecastTask task = train::RingForecastTask(kNodes, kHistory);
  models::DyHslConfig config;  // paper defaults: d=64 Lp=6 Ls=2 I=32 J=6
  config.dropout = 0.0f;
  models::DyHsl model(task, config);
  Rng rng(1);
  T::Tensor x1 = T::Tensor::Randn({1, kHistory, kNodes, 3}, &rng, 0.5f);
  T::Tensor window = x1.Reshape({kHistory, kNodes, 3}).Clone();

  std::printf("=== bench_serve (N=%lld, paper-default DyHSL) ===\n",
              static_cast<long long>(kNodes));

  // 1. Single-window forward: taped vs grad-free (interleaved rounds).
  ForwardTimes times = TimeForwardPair(&model, x1, fwd_iters, 6);
  double taped_ms = times.taped_ms;
  double gradfree_ms = times.gradfree_ms;
  double speedup = gradfree_ms > 0.0 ? taped_ms / gradfree_ms : 0.0;
  std::printf("forward (B=1): taped %.2f ms, grad-free %.2f ms  -> %.2fx\n",
              taped_ms, gradfree_ms, speedup);

  // 2. Engine under closed-loop load at 1 / 4 / 16 clients.
  serve::EngineOptions options;
  auto created = serve::ForecastEngine::Create(task, config, "", options);
  if (!created.ok()) {
    std::fprintf(stderr, "engine: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<serve::ForecastEngine> engine =
      std::move(created).ValueOrDie();
  // Warm the worker (the first forwards pay arena growth).
  RunLoad(engine.get(), window, 2, 4);

  std::vector<int> client_counts = {1, 4, 16};
  std::vector<LoadResult> loads;
  for (int clients : client_counts) {
    LoadResult load = RunLoad(engine.get(), window, clients, per_client);
    loads.push_back(load);
    std::printf(
        "clients=%-3d  %8.1f req/s   p50 %7.2f ms   p99 %7.2f ms\n",
        clients, load.throughput_rps, load.p50_ms, load.p99_ms);
  }

  // 3. JSON artifact for CI trend tracking.
  const char* out_env = std::getenv("DYHSL_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_serve.json";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"model\": \"DyHSL\",\n");
  std::fprintf(out, "  \"nodes\": %lld,\n", static_cast<long long>(kNodes));
  std::fprintf(out, "  \"profile\": \"%s\",\n", RunProfileName(profile));
  std::fprintf(out, "  \"forward_taped_ms\": %.4f,\n", taped_ms);
  std::fprintf(out, "  \"forward_gradfree_ms\": %.4f,\n", gradfree_ms);
  std::fprintf(out, "  \"gradfree_speedup\": %.4f,\n", speedup);
  std::fprintf(out, "  \"engine\": {\"num_workers\": %lld},\n",
               static_cast<long long>(options.num_workers));
  std::fprintf(out, "  \"load\": [\n");
  for (size_t i = 0; i < loads.size(); ++i) {
    std::fprintf(out,
                 "    {\"clients\": %d, \"throughput_rps\": %.2f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                 client_counts[i], loads[i].throughput_rps, loads[i].p50_ms,
                 loads[i].p99_ms,
                 i + 1 < loads.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
