// Streaming-session benchmark: per-forecast latency and sustained tick
// rate of stateful sessions vs full-window resubmission.
//
//   $ ./build/bench_stream                    # prints a table
//   $ ./build/bench_stream --check-floor=2.5  # CI guard (see below)
//   $ DYHSL_BENCH_OUT=BENCH_stream.json ./build/bench_stream
//
// Scenario: an N=1024 sensor network ticking once per simulated 5-minute
// bin, with a forecast wanted after every tick.
//
//  * Baseline ("resubmit"): the client keeps the (T, N, F) window,
//    shifts it by one frame per tick, and submits the full window
//    through ForecastRouter::Submit — the queue path re-reads all
//    T x N x F floats and re-runs the model end to end every tick.
//  * Streamed ("session"): a warm SessionManager session. Append hands
//    the server N raw floats; the session advances the carried DCRNN
//    encoder one cell step and Forecast runs only the T'-step decoder
//    against the server-side ring. Per tick that is 1 + T' cell steps
//    instead of T + T', plus none of the window materialization.
//  * A stateless STGCN pair (windowed session vs resubmission) isolates
//    the transport/queue savings alone — no recurrent carry, the model
//    work is identical, so the gap is window assembly + the queue.
//
// The engines serve every queued request at once as its own forward, so
// the baseline pays no batching delay — the comparison is fast path vs
// fast path. DCRNN uses horizon T'=3 (nowcasting), the regime streaming
// targets; history is the paper's T=12.
//
// Fleet phase: many sessions of one model ticking in lock-step — a
// sensor fleet with one forecast per member per tick. Per (model, B in
// {64, 256}) the same feed runs both ways, alternating in repeated short
// phases, on a district-sized N=24 subgraph
// (the cross-session batching regime: fleets of many SMALL per-model
// sessions, where a B=1 forward is dispatch- and packing-dominated; a
// single metro-scale session already saturates a core on its own and
// gains little from batching):
//
//  * Sequential: per tick, B x Append then B x Forecast — one engine
//    forward per session (each call a batch of one).
//  * Batched: per tick, one AppendMany (one batched cell step for the
//    whole warm fleet) then one ForecastBatch (one (B, ...) forward).
//
// The metric is session-ticks/s (sessions x ticks / wall), reported
// overall; the batched/sequential ratios, overall and split into the
// ingest (Append) and forecast halves, are medians over the phases. The
// batched DCRNN fleet amortizes the per-call overhead of B tiny
// recurrent forwards into one batched GEMM per tick, which is where
// cross-session batching pays.
//
// --check-floor=R exits non-zero if the warm-session p50 per-forecast
// latency is not at least R x better than full-window resubmission.
// --check-batch-floor=R does the same for the batched-vs-sequential
// fleet throughput ratio at DCRNN B=64 (the median over the phases).
//
// DYHSL_PROFILE=tiny|quick|full scales tick and phase counts only; model
// and network sizes are fixed so numbers are comparable across profiles.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/core/rng.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/tensor/tensor.h"
#include "src/train/model_zoo.h"

namespace dyhsl::bench {
namespace {

namespace T = ::dyhsl::tensor;
using Clock = std::chrono::steady_clock;

constexpr int64_t kNodes = 1024;
constexpr int64_t kHistory = 12;
constexpr int64_t kHorizon = 3;
constexpr int64_t kHidden = 16;
constexpr int64_t kFeatures = 3;
/// Fleet phase: district-sized subgraph (a corridor of ~two dozen
/// sensors). Cross-session batching targets fleets of many small
/// per-model sessions; one metro-scale session saturates a core by
/// itself, so its fleet ratio is bounded by memory bandwidth instead of
/// the per-call overheads batching removes.
constexpr int64_t kFleetNodes = 24;

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

struct PhaseResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ticks_per_s = 0.0;
  int64_t bytes_per_tick = 0;
};

// Simulated raw readings for one tick (client side of both loops).
void FillRawFrame(const train::ForecastTask& task, Rng* rng, float* out) {
  for (int64_t i = 0; i < task.num_nodes; ++i) {
    out[i] = task.scaler_mean + task.scaler_std * rng->Gaussian();
  }
}

// Client-side window maintenance for the resubmission baseline: shift
// one frame out, derive the MakeInput features of the new tick into the
// last row. This is work the baseline client cannot avoid — the request
// needs the materialized (T, N, F) window.
void SlideWindow(const train::ForecastTask& task, int64_t tick,
                 const float* raw, T::Tensor* window) {
  float* data = window->data();
  const int64_t frame = task.num_nodes * kFeatures;
  std::memmove(data, data + frame,
               static_cast<size_t>((kHistory - 1) * frame) * sizeof(float));
  const int64_t spd = task.steps_per_day;
  const float tod = static_cast<float>(tick % spd) / static_cast<float>(spd);
  const float dow = static_cast<float>((tick / spd) % 7) / 7.0f;
  float* last = data + (kHistory - 1) * frame;
  for (int64_t i = 0; i < task.num_nodes; ++i) {
    last[i * kFeatures + 0] =
        (raw[i] - task.scaler_mean) / task.scaler_std;
    last[i * kFeatures + 1] = tod;
    last[i * kFeatures + 2] = dow;
  }
}

// Full-window resubmission: one Submit per tick, latency is window
// update + submit + response.
bool RunResubmit(serve::ForecastRouter* router, const std::string& model,
                 const train::ForecastTask& task, int ticks, uint64_t seed,
                 PhaseResult* result) {
  Rng rng(seed);
  std::vector<float> raw(static_cast<size_t>(task.num_nodes));
  T::Tensor window({kHistory, task.num_nodes, kFeatures});
  window.Fill(0.0f);
  for (int64_t t = 0; t < kHistory; ++t) {
    FillRawFrame(task, &rng, raw.data());
    SlideWindow(task, t, raw.data(), &window);
  }
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(ticks));
  Clock::time_point start = Clock::now();
  for (int t = 0; t < ticks; ++t) {
    Clock::time_point sent = Clock::now();
    FillRawFrame(task, &rng, raw.data());
    SlideWindow(task, kHistory + t, raw.data(), &window);
    serve::ForecastResponse response =
        router->Submit(serve::RouterRequest{model, window.Clone()}).get();
    if (!response.status.ok()) {
      std::fprintf(stderr, "resubmit error: %s\n",
                   response.status.ToString().c_str());
      return false;
    }
    latencies.push_back(MsSince(sent));
  }
  const double wall_ms = MsSince(start);
  result->p50_ms = Percentile(latencies, 50.0);
  result->p99_ms = Percentile(latencies, 99.0);
  result->ticks_per_s =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(ticks) / wall_ms : 0.0;
  result->bytes_per_tick =
      kHistory * task.num_nodes * kFeatures * static_cast<int64_t>(sizeof(float));
  return true;
}

// Streamed session: one Append + one Forecast per tick; latency covers
// both (the full per-tick serving cost).
bool RunSession(serve::SessionManager* manager, const std::string& id,
                const train::ForecastTask& task, int64_t first_tick,
                int ticks, uint64_t seed, PhaseResult* result) {
  Rng rng(seed);
  T::Tensor raw({task.num_nodes});
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(ticks));
  Clock::time_point start = Clock::now();
  for (int t = 0; t < ticks; ++t) {
    Clock::time_point sent = Clock::now();
    FillRawFrame(task, &rng, raw.data());
    Status appended = manager->Append(id, first_tick + t, raw);
    if (!appended.ok()) {
      std::fprintf(stderr, "append error: %s\n", appended.ToString().c_str());
      return false;
    }
    serve::ForecastResponse response = manager->Forecast(id);
    if (!response.status.ok()) {
      std::fprintf(stderr, "session error: %s\n",
                   response.status.ToString().c_str());
      return false;
    }
    latencies.push_back(MsSince(sent));
  }
  const double wall_ms = MsSince(start);
  result->p50_ms = Percentile(latencies, 50.0);
  result->p99_ms = Percentile(latencies, 99.0);
  result->ticks_per_s =
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(ticks) / wall_ms : 0.0;
  result->bytes_per_tick =
      task.num_nodes * static_cast<int64_t>(sizeof(float));
  return true;
}

struct FleetResult {
  int sessions = 0;
  double sequential_sticks_per_s = 0.0;  // over all phases
  double batched_sticks_per_s = 0.0;
  // Medians over the phases of each phase's sequential / batched ratio.
  double speedup = 0.0;
  double ingest_speedup = 0.0;    // B x Append vs one AppendMany
  double forecast_speedup = 0.0;  // B x Forecast vs one ForecastBatch
};

// One (model, fleet-size) comparison: a fresh fleet of B lock-step
// sessions, primed together, then `phases` repetitions of the same
// measurement: `ticks` ticks sequentially (B Appends + B Forecasts per
// tick), then `ticks` ticks batched (one AppendMany + one ForecastBatch
// per tick). The ratios are medians over the phases, so one scheduling
// stall in one short phase cannot decide them.
bool RunFleet(serve::ForecastRouter* router, const std::string& model,
              bool warm, const train::ForecastTask& task, int sessions,
              int phases, int ticks, uint64_t seed, FleetResult* result) {
  serve::SessionManager manager(router);
  serve::SessionOptions options;
  options.model = model;
  options.warm_state = warm;
  std::vector<std::string> ids;
  ids.reserve(static_cast<size_t>(sessions));
  for (int i = 0; i < sessions; ++i) {
    ids.push_back("fleet-" + std::to_string(i));
    if (!manager.Open(ids.back(), options).ok()) return false;
  }

  Rng rng(seed);
  T::Tensor raw({task.num_nodes});
  // The whole fleet reads the same sensors: every member gets the same
  // frame, which Tensor shares by storage — no per-session copies.
  std::vector<T::Tensor> frames(static_cast<size_t>(sessions), raw);
  int64_t tick = 0;
  auto barrier_ok = [&](const std::vector<Status>& statuses) {
    for (const Status& s : statuses) {
      if (!s.ok()) {
        std::fprintf(stderr, "fleet append error: %s\n", s.ToString().c_str());
        return false;
      }
    }
    return true;
  };
  // Prime: fill every ring, warm every carry, touch both compute paths.
  for (; tick < kHistory; ++tick) {
    FillRawFrame(task, &rng, raw.data());
    if (!barrier_ok(manager.AppendMany(ids, tick, frames))) return false;
  }
  for (const serve::ForecastResponse& r : manager.ForecastBatch(ids)) {
    if (!r.status.ok()) return false;
  }
  if (!manager.Forecast(ids[0]).status.ok()) return false;

  result->sessions = sessions;
  auto ratio = [](double num, double den) {
    return num > 0.0 && den > 0.0 ? num / den : 0.0;
  };
  std::vector<double> speedups, ingest_speedups, forecast_speedups;
  double seq_total_ms = 0.0, bat_total_ms = 0.0;
  for (int phase = 0; phase < phases; ++phase) {
    // Sequential: one engine forward per session per tick. Ingest and
    // forecast halves are timed separately so the report shows where the
    // batched tick earns its ratio.
    double seq_ingest_ms = 0.0, seq_forecast_ms = 0.0;
    for (int t = 0; t < ticks; ++t, ++tick) {
      FillRawFrame(task, &rng, raw.data());
      Clock::time_point start = Clock::now();
      for (const std::string& id : ids) {
        if (!manager.Append(id, tick, raw).ok()) return false;
      }
      seq_ingest_ms += MsSince(start);
      start = Clock::now();
      for (const std::string& id : ids) {
        if (!manager.Forecast(id).status.ok()) return false;
      }
      seq_forecast_ms += MsSince(start);
    }
    // Batched: one tick barrier, one batched forward per tick.
    double bat_ingest_ms = 0.0, bat_forecast_ms = 0.0;
    for (int t = 0; t < ticks; ++t, ++tick) {
      FillRawFrame(task, &rng, raw.data());
      Clock::time_point start = Clock::now();
      if (!barrier_ok(manager.AppendMany(ids, tick, frames))) return false;
      bat_ingest_ms += MsSince(start);
      start = Clock::now();
      for (const serve::ForecastResponse& r : manager.ForecastBatch(ids)) {
        if (!r.status.ok()) {
          std::fprintf(stderr, "fleet forecast error: %s\n",
                       r.status.ToString().c_str());
          return false;
        }
      }
      bat_forecast_ms += MsSince(start);
    }
    const double seq_ms = seq_ingest_ms + seq_forecast_ms;
    const double bat_ms = bat_ingest_ms + bat_forecast_ms;
    seq_total_ms += seq_ms;
    bat_total_ms += bat_ms;
    speedups.push_back(ratio(seq_ms, bat_ms));
    ingest_speedups.push_back(ratio(seq_ingest_ms, bat_ingest_ms));
    forecast_speedups.push_back(ratio(seq_forecast_ms, bat_forecast_ms));
  }

  const double session_ticks = static_cast<double>(sessions) * phases * ticks;
  result->sequential_sticks_per_s = ratio(1000.0 * session_ticks, seq_total_ms);
  result->batched_sticks_per_s = ratio(1000.0 * session_ticks, bat_total_ms);
  result->speedup = Percentile(speedups, 50.0);
  result->ingest_speedup = Percentile(ingest_speedups, 50.0);
  result->forecast_speedup = Percentile(forecast_speedups, 50.0);
  return true;
}

// Streams kHistory warm-up ticks so the session ring is full and every
// arena / cache is hot before measurement.
bool PrimeSession(serve::SessionManager* manager, const std::string& id,
                  const train::ForecastTask& task, uint64_t seed) {
  Rng rng(seed);
  T::Tensor raw({task.num_nodes});
  for (int64_t t = 0; t < kHistory; ++t) {
    FillRawFrame(task, &rng, raw.data());
    if (!manager->Append(id, t, raw).ok()) return false;
  }
  return manager->Forecast(id).status.ok();
}

}  // namespace
}  // namespace dyhsl::bench

int main(int argc, char** argv) {
  using namespace dyhsl;
  using namespace dyhsl::bench;
  double check_floor = 0.0;
  double check_batch_floor = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--check-floor=", 14) == 0) {
      check_floor = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--check-batch-floor=", 20) == 0) {
      check_batch_floor = std::atof(argv[i] + 20);
    }
  }
  ConfigureParallelism();
  RunProfile profile = GetRunProfile();
  const int ticks = profile == RunProfile::kTiny
                        ? 30
                        : (profile == RunProfile::kQuick ? 100 : 300);
  // Fleet phases stay short: one sequential 256-session tick costs ~512
  // engine forwards. The ratios are medians over the phases, so they
  // need several phases rather than many ticks.
  const int fleet_ticks = 2;
  const int fleet_phases = profile == RunProfile::kFull ? 15 : 9;

  train::ForecastTask task =
      train::RingForecastTask(kNodes, kHistory, kHorizon);
  train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;

  auto created = serve::ForecastRouter::Create();
  if (!created.ok()) return 1;
  auto router = std::move(created).ValueOrDie();
  if (!router->AddModel("dcrnn", task, serve::ZooFactory("DCRNN", zoo)).ok() ||
      !router->AddModel("stgcn", task, serve::ZooFactory("STGCN", zoo)).ok()) {
    std::fprintf(stderr, "fleet bring-up failed\n");
    return 1;
  }
  serve::SessionManager manager(router.get());
  serve::SessionOptions warm;
  warm.model = "dcrnn";
  warm.warm_state = true;
  serve::SessionOptions windowed;
  windowed.model = "stgcn";
  if (!manager.Open("warm", warm).ok() ||
      !manager.Open("windowed", windowed).ok()) {
    std::fprintf(stderr, "session open failed\n");
    return 1;
  }

  std::printf(
      "=== bench_stream (N=%lld, T=%lld, T'=%lld, DCRNN/STGCN d=%lld, "
      "%d ticks) ===\n",
      static_cast<long long>(kNodes), static_cast<long long>(kHistory),
      static_cast<long long>(kHorizon), static_cast<long long>(kHidden),
      ticks);

  // Warm-up: fill rings, touch every arena and cache on both paths.
  PhaseResult scratch;
  if (!PrimeSession(&manager, "warm", task, 11) ||
      !PrimeSession(&manager, "windowed", task, 12) ||
      !RunResubmit(router.get(), "dcrnn", task, std::max(4, ticks / 8), 13,
                   &scratch) ||
      !RunResubmit(router.get(), "stgcn", task, std::max(4, ticks / 8), 14,
                   &scratch)) {
    std::fprintf(stderr, "warm-up failed\n");
    return 1;
  }

  PhaseResult dcrnn_resubmit, dcrnn_session, stgcn_resubmit, stgcn_session;
  if (!RunResubmit(router.get(), "dcrnn", task, ticks, 21, &dcrnn_resubmit) ||
      !RunSession(&manager, "warm", task, kHistory, ticks, 22,
                  &dcrnn_session) ||
      !RunResubmit(router.get(), "stgcn", task, ticks, 23, &stgcn_resubmit) ||
      !RunSession(&manager, "windowed", task, kHistory, ticks, 24,
                  &stgcn_session)) {
    return 1;
  }

  auto print_row = [](const char* name, const PhaseResult& r) {
    std::printf("%-22s p50 %8.3f ms   p99 %8.3f ms   %8.1f ticks/s   "
                "%7lld B/tick\n",
                name, r.p50_ms, r.p99_ms, r.ticks_per_s,
                static_cast<long long>(r.bytes_per_tick));
  };
  print_row("DCRNN resubmit", dcrnn_resubmit);
  print_row("DCRNN warm session", dcrnn_session);
  print_row("STGCN resubmit", stgcn_resubmit);
  print_row("STGCN windowed session", stgcn_session);

  // ------------------------------------------------------- Fleet phase --
  train::ForecastTask fleet_task =
      train::RingForecastTask(kFleetNodes, kHistory, kHorizon);
  auto fleet_created = serve::ForecastRouter::Create();
  if (!fleet_created.ok()) return 1;
  auto fleet_router = std::move(fleet_created).ValueOrDie();
  if (!fleet_router
           ->AddModel("dcrnn", fleet_task, serve::ZooFactory("DCRNN", zoo))
           .ok() ||
      !fleet_router
           ->AddModel("stgcn", fleet_task, serve::ZooFactory("STGCN", zoo))
           .ok()) {
    std::fprintf(stderr, "fleet bring-up failed\n");
    return 1;
  }
  std::printf(
      "--- fleet phase (N=%lld, median of %d phases x %d ticks, batched vs "
      "sequential) ---\n",
      static_cast<long long>(kFleetNodes), fleet_phases, fleet_ticks);
  struct FleetRun {
    const char* key;
    const char* model;
    bool warm;
    int sessions;
    FleetResult result;
  };
  FleetRun fleet_runs[] = {
      {"fleet_dcrnn_64", "dcrnn", true, 64, {}},
      {"fleet_dcrnn_256", "dcrnn", true, 256, {}},
      {"fleet_stgcn_64", "stgcn", false, 64, {}},
      {"fleet_stgcn_256", "stgcn", false, 256, {}},
  };
  uint64_t fleet_seed = 31;
  for (FleetRun& run : fleet_runs) {
    if (!RunFleet(fleet_router.get(), run.model, run.warm, fleet_task,
                  run.sessions, fleet_phases, fleet_ticks, fleet_seed++,
                  &run.result)) {
      std::fprintf(stderr, "fleet run %s failed\n", run.key);
      return 1;
    }
    std::printf("%-22s B=%3d   seq %9.1f st/s   batched %9.1f st/s   "
                "%5.2fx  (ingest %.2fx, forecast %.2fx)\n",
                run.key, run.sessions,
                run.result.sequential_sticks_per_s,
                run.result.batched_sticks_per_s, run.result.speedup,
                run.result.ingest_speedup, run.result.forecast_speedup);
  }
  const double batch_speedup_64 = fleet_runs[0].result.speedup;

  const double warm_speedup = dcrnn_session.p50_ms > 0.0
                                  ? dcrnn_resubmit.p50_ms / dcrnn_session.p50_ms
                                  : 0.0;
  const double windowed_speedup =
      stgcn_session.p50_ms > 0.0
          ? stgcn_resubmit.p50_ms / stgcn_session.p50_ms
          : 0.0;
  std::printf("warm-session per-forecast speedup:     %.2fx\n", warm_speedup);
  std::printf("windowed-session per-forecast speedup: %.2fx\n",
              windowed_speedup);

  const char* out_env = std::getenv("DYHSL_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_stream.json";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  auto phase_json = [out](const char* name, const PhaseResult& r,
                          bool trailing_comma) {
    std::fprintf(out,
                 "    \"%s\": {\"p50_ms\": %.4f, \"p99_ms\": %.4f, "
                 "\"ticks_per_s\": %.2f, \"bytes_per_tick\": %lld}%s\n",
                 name, r.p50_ms, r.p99_ms, r.ticks_per_s,
                 static_cast<long long>(r.bytes_per_tick),
                 trailing_comma ? "," : "");
  };
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"stream\",\n");
  std::fprintf(out, "  \"profile\": \"%s\",\n", RunProfileName(profile));
  std::fprintf(out, "  \"nodes\": %lld,\n", static_cast<long long>(kNodes));
  std::fprintf(out, "  \"history\": %lld,\n",
               static_cast<long long>(kHistory));
  std::fprintf(out, "  \"horizon\": %lld,\n",
               static_cast<long long>(kHorizon));
  std::fprintf(out, "  \"hidden_dim\": %lld,\n",
               static_cast<long long>(kHidden));
  std::fprintf(out, "  \"ticks\": %d,\n", ticks);
  std::fprintf(out, "  \"phases\": {\n");
  phase_json("dcrnn_resubmit", dcrnn_resubmit, true);
  phase_json("dcrnn_warm_session", dcrnn_session, true);
  phase_json("stgcn_resubmit", stgcn_resubmit, true);
  phase_json("stgcn_windowed_session", stgcn_session, false);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"fleet\": {\n");
  std::fprintf(out, "    \"nodes\": %lld,\n",
               static_cast<long long>(kFleetNodes));
  std::fprintf(out, "    \"phases\": %d,\n", fleet_phases);
  std::fprintf(out, "    \"ticks_per_phase\": %d,\n", fleet_ticks);
  for (size_t i = 0; i < 4; ++i) {
    const FleetRun& run = fleet_runs[i];
    std::fprintf(out,
                 "    \"%s\": {\"sessions\": %d, "
                 "\"sequential_session_ticks_per_s\": %.2f, "
                 "\"batched_session_ticks_per_s\": %.2f, "
                 "\"speedup\": %.4f, \"ingest_speedup\": %.4f, "
                 "\"forecast_speedup\": %.4f}%s\n",
                 run.key, run.result.sessions,
                 run.result.sequential_sticks_per_s,
                 run.result.batched_sticks_per_s,
                 run.result.speedup, run.result.ingest_speedup,
                 run.result.forecast_speedup, i + 1 < 4 ? "," : "");
  }
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"warm_session_speedup\": %.4f,\n", warm_speedup);
  std::fprintf(out, "  \"windowed_session_speedup\": %.4f,\n",
               windowed_speedup);
  std::fprintf(out, "  \"batch_speedup_64\": %.4f\n", batch_speedup_64);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_floor > 0.0 && warm_speedup < check_floor) {
    std::fprintf(stderr,
                 "FLOOR VIOLATION: warm-session speedup %.2fx < required "
                 "%.2fx\n",
                 warm_speedup, check_floor);
    return 1;
  }
  if (check_batch_floor > 0.0 && batch_speedup_64 < check_batch_floor) {
    std::fprintf(stderr,
                 "FLOOR VIOLATION: batched fleet speedup %.2fx at B=64 < "
                 "required %.2fx\n",
                 batch_speedup_64, check_batch_floor);
    return 1;
  }
  return 0;
}
