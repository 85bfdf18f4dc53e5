// Thread-scaling study: req/s and latency percentiles vs thread budget
// for (a) a single engine with multi-worker parallelism and (b) 2- and
// 4-shard router fleets under the kPinned placement policy.
//
//   $ ./build/bench_scaling                      # prints a table
//   $ ./build/bench_scaling --check-floor=1.6    # CI guard (see below)
//   $ DYHSL_BENCH_OUT=BENCH_scaling.json ./build/bench_scaling
//
// Every phase runs in a forked child pinned to min(threads, cores)
// cores *before* any engine exists, so "threads=1" is genuinely one
// core's worth of execution even on a multi-core host (engine workers
// and their OpenMP teams all inherit the mask). Inside
// that envelope the router's kPinned placement divides the cores among
// a model's engines and core::ThreadBudget splits each engine's slice
// between workers and OpenMP teams — total live compute threads never
// exceed max(threads, engines).
//
// --check-floor=R exits non-zero if the 2-shard fleet's aggregate req/s
// at a 2-thread budget falls below R x its own 1-thread aggregate. The
// floor only means something when a second core exists: on a
// single-core host the bench downgrades to a 0.85x no-regression floor
// (threads time-slice; parallelism cannot pay) and records
// "single-core-no-regression" as the floor mode in the JSON so the
// downgrade is never silent.
//
// Scale: DYHSL_PROFILE=tiny|quick|full adjusts request counts only; the
// model is always an STGCN (hidden 16) on the N=1024 ring network, so
// numbers are comparable with BENCH_shard.json and across CI runs.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/graph/shard.h"
#include "src/serve/router.h"
#include "src/train/model_zoo.h"

namespace dyhsl::bench {
namespace {

namespace T = ::dyhsl::tensor;
using Clock = std::chrono::steady_clock;

constexpr int64_t kNodes = 1024;
constexpr int64_t kHistory = 12;
constexpr int64_t kHalo = 2;  // STGCN: 1 conv hop + 1 fringe-degree hop
constexpr int64_t kHidden = 16;
constexpr int kClients = 4;

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
  std::string name;
  int threads = 0;
  int64_t shards = 0;
  int64_t workers_per_engine = 0;
  int64_t team_per_engine = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

// Closed loop against the router: kClients threads, each submitting
// back-to-back and waiting for every response. Returns false if any
// request failed — failures are fast, so counting them as served
// traffic would let a broken fleet *beat* the scaling floor.
bool RunLoad(serve::ForecastRouter* router, const T::Tensor& window,
             int per_client, double* rps, double* p50, double* p99) {
  std::vector<std::vector<double>> latencies(kClients);
  std::vector<int64_t> failures(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  Clock::time_point start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        Clock::time_point sent = Clock::now();
        serve::ForecastResponse response =
            router->Submit(serve::RouterRequest{"m", window.Clone()}).get();
        if (!response.status.ok()) {
          failures[c] += 1;
          std::fprintf(stderr, "serve error: %s\n",
                       response.status.ToString().c_str());
          continue;
        }
        latencies[c].push_back(MsSince(sent));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_ms = MsSince(start);
  std::vector<double> all;
  int64_t failed = 0;
  for (int c = 0; c < kClients; ++c) {
    all.insert(all.end(), latencies[c].begin(), latencies[c].end());
    failed += failures[c];
  }
  *rps = wall_ms > 0.0 ? 1000.0 * static_cast<double>(all.size()) / wall_ms
                       : 0.0;
  *p50 = Percentile(all, 50.0);
  *p99 = Percentile(all, 99.0);
  return failed == 0;
}

// Builds the fleet for (shards, threads) and runs the closed loop.
// shards == 1 is the single-engine configuration: num_workers = threads
// behind the router, so dispatch overhead is identical across phases.
int RunPhaseInChild(int64_t shards, int threads, int per_client, int out_fd) {
  // Confine the whole phase to min(threads, cores) cores. Everything
  // spawned below (workers and their OpenMP teams) inherits the mask,
  // so a 1-thread phase really runs on one core and thread counts past
  // the core count honestly time-slice.
  std::vector<int> cores = core::AvailableCores();
  if (static_cast<int>(cores.size()) > threads) {
    cores.resize(static_cast<size_t>(threads));
  }
  Status pinned = core::PinCurrentThread(cores);
  if (!pinned.ok()) {
    std::fprintf(stderr, "phase pin: %s\n", pinned.ToString().c_str());
    return 1;
  }
  // The phase's thread budget, visible to engine auto-partitioning
  // (ForecastEngine reads core::TeamThreads() at Create time).
  core::TeamScope budget(threads);

  train::ForecastTask task = train::RingForecastTask(kNodes, kHistory);
  train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;
  serve::EngineOptions options;
  serve::RouterOptions router_options;
  if (shards > 1) {
    router_options.placement = serve::Placement::kPinned;
    router_options.thread_budget = threads;
  }
  auto created = serve::ForecastRouter::Create(router_options);
  if (!created.ok()) return 1;
  auto router = std::move(created).ValueOrDie();
  Status added;
  if (shards == 1) {
    options.num_workers = threads;  // team auto-partitions to 1 apiece
    added = router->AddModel("m", task, serve::ZooFactory("STGCN", zoo), "",
                             options);
  } else {
    options.num_workers = 1;  // one worker per shard engine, team = slice
    added = router->AddShardedModel(
        "m", task, graph::ShardPlan::Build(task.spatial_adj, shards, kHalo),
        serve::ZooFactory("STGCN", zoo), "", options);
  }
  if (!added.ok()) {
    std::fprintf(stderr, "fleet bring-up: %s\n", added.ToString().c_str());
    return 1;
  }
  serve::RouterStats placed = router->Stats();
  const int64_t workers =
      placed.engines.empty() ? 0 : placed.engines[0].num_workers;
  const int64_t team =
      placed.engines.empty() ? 0 : placed.engines[0].team_size;

  Rng rng(1);
  T::Tensor window = T::Tensor::Randn({kHistory, kNodes, 3}, &rng, 0.5f);
  double rps = 0.0, p50 = 0.0, p99 = 0.0;
  if (!RunLoad(router.get(), window, std::max(2, per_client / 4), &rps, &p50,
               &p99)) {  // warm the worker arenas
    return 1;
  }
  if (!RunLoad(router.get(), window, per_client, &rps, &p50, &p99)) return 1;
  char line[160];
  int len = std::snprintf(line, sizeof(line), "%.3f %.4f %.4f %lld %lld\n",
                          rps, p50, p99, static_cast<long long>(workers),
                          static_cast<long long>(team));
  if (write(out_fd, line, static_cast<size_t>(len)) != len) return 1;
  return 0;
}

// Forks the phase so its pinning and OpenMP state die with it.
bool RunPhase(const std::string& name, int64_t shards, int threads,
              int per_client, PhaseResult* result) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    int code = RunPhaseInChild(shards, threads, per_client, fds[1]);
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  char buffer[160];
  ssize_t got = 0;
  size_t used = 0;
  while (used + 1 < sizeof(buffer) &&
         (got = read(fds[0], buffer + used, sizeof(buffer) - 1 - used)) > 0) {
    used += static_cast<size_t>(got);
  }
  buffer[used] = '\0';
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  result->name = name;
  result->threads = threads;
  result->shards = shards;
  long long workers = 0, team = 0;
  if (std::sscanf(buffer, "%lf %lf %lf %lld %lld", &result->throughput_rps,
                  &result->p50_ms, &result->p99_ms, &workers, &team) != 5) {
    return false;
  }
  result->workers_per_engine = workers;
  result->team_per_engine = team;
  return true;
}

const PhaseResult* Find(const std::vector<PhaseResult>& results,
                        int64_t shards, int threads) {
  for (const PhaseResult& r : results) {
    if (r.shards == shards && r.threads == threads) return &r;
  }
  return nullptr;
}

double Ratio(const std::vector<PhaseResult>& results, int64_t shards,
             int threads_num, int threads_den) {
  const PhaseResult* num = Find(results, shards, threads_num);
  const PhaseResult* den = Find(results, shards, threads_den);
  if (num == nullptr || den == nullptr || den->throughput_rps <= 0.0) {
    return 0.0;
  }
  return num->throughput_rps / den->throughput_rps;
}

}  // namespace
}  // namespace dyhsl::bench

int main(int argc, char** argv) {
  using namespace dyhsl;
  using namespace dyhsl::bench;
  double check_floor = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--check-floor=", 14) == 0) {
      check_floor = std::atof(argv[i] + 14);
    }
  }
  RunProfile profile = GetRunProfile();
  int per_client = profile == RunProfile::kTiny
                       ? 8
                       : (profile == RunProfile::kQuick ? 24 : 48);
  const int cores = core::HardwareThreads();

  std::printf("=== bench_scaling (N=%lld, STGCN d=%lld, halo=%lld, "
              "%d clients x %d requests, %d core(s)) ===\n",
              static_cast<long long>(kNodes),
              static_cast<long long>(kHidden), static_cast<long long>(kHalo),
              kClients, per_client, cores);

  const int thread_counts[] = {1, 2, 4};
  const int64_t shard_counts[] = {1, 2, 4};
  std::vector<PhaseResult> results;
  for (int64_t shards : shard_counts) {
    for (int threads : thread_counts) {
      char name[32];
      std::snprintf(name, sizeof(name), "%s_t%d",
                    shards == 1 ? "engine" : (shards == 2 ? "x2" : "x4"),
                    threads);
      PhaseResult result;
      if (!RunPhase(name, shards, threads, per_client, &result)) {
        std::fprintf(stderr, "phase %s failed\n", name);
        return 1;
      }
      std::printf("%-10s %lld shard(s) x %lld worker(s) x team %lld  "
                  "%8.1f req/s   p50 %7.2f ms   p99 %7.2f ms\n",
                  result.name.c_str(), static_cast<long long>(result.shards),
                  static_cast<long long>(result.workers_per_engine),
                  static_cast<long long>(result.team_per_engine),
                  result.throughput_rps, result.p50_ms, result.p99_ms);
      results.push_back(std::move(result));
    }
  }

  // The headline number: the 2-shard fleet's aggregate at a 2-thread
  // budget over its own 1-thread aggregate.
  const double x2_scale = Ratio(results, 2, 2, 1);
  const double x2_scale4 = Ratio(results, 2, 4, 1);
  const double x4_scale4 = Ratio(results, 4, 4, 1);
  const double engine_scale2 = Ratio(results, 1, 2, 1);
  const double engine_scale4 = Ratio(results, 1, 4, 1);
  std::printf("2-shard fleet 2-thread vs 1-thread aggregate: %.2fx\n",
              x2_scale);
  std::printf("2-shard fleet 4-thread vs 1-thread aggregate: %.2fx\n",
              x2_scale4);
  std::printf("4-shard fleet 4-thread vs 1-thread aggregate: %.2fx\n",
              x4_scale4);
  std::printf("single engine 2/4 workers vs 1: %.2fx / %.2fx\n",
              engine_scale2, engine_scale4);

  // A 2x speedup needs a second core; on a single-core host threads
  // time-slice and the only honest check is no-regression. The JSON
  // records which floor applied so a downgraded run can never pass for
  // a scaling result.
  const bool can_scale = cores >= 2;
  const char* floor_mode =
      can_scale ? "multi-core-scaling" : "single-core-no-regression";
  const double effective_floor =
      check_floor > 0.0 ? (can_scale ? check_floor : 0.85) : 0.0;
  if (!can_scale && check_floor > 0.0) {
    std::printf("NOTE: single core visible — scaling floor %.2f downgraded "
                "to %.2f no-regression floor\n",
                check_floor, effective_floor);
  }

  const char* out_env = std::getenv("DYHSL_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_scaling.json";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"model\": \"STGCN\",\n");
  std::fprintf(out, "  \"nodes\": %lld,\n", static_cast<long long>(kNodes));
  std::fprintf(out, "  \"hidden_dim\": %lld,\n",
               static_cast<long long>(kHidden));
  std::fprintf(out, "  \"halo_hops\": %lld,\n", static_cast<long long>(kHalo));
  std::fprintf(out, "  \"profile\": \"%s\",\n", RunProfileName(profile));
  std::fprintf(out, "  \"clients\": %d,\n", kClients);
  std::fprintf(out, "  \"requests_per_client\": %d,\n", per_client);
  std::fprintf(out, "  \"cores\": %d,\n", cores);
  std::fprintf(out, "  \"floor_mode\": \"%s\",\n", floor_mode);
  std::fprintf(out, "  \"x2_2t_vs_1t\": %.4f,\n", x2_scale);
  std::fprintf(out, "  \"x2_4t_vs_1t\": %.4f,\n", x2_scale4);
  std::fprintf(out, "  \"x4_4t_vs_1t\": %.4f,\n", x4_scale4);
  std::fprintf(out, "  \"engine_2w_vs_1w\": %.4f,\n", engine_scale2);
  std::fprintf(out, "  \"engine_4w_vs_1w\": %.4f,\n", engine_scale4);
  std::fprintf(out, "  \"phases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"shards\": %lld, \"threads\": %d, "
                 "\"workers_per_engine\": %lld, \"team_per_engine\": %lld, "
                 "\"throughput_rps\": %.2f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f}%s\n",
                 results[i].name.c_str(),
                 static_cast<long long>(results[i].shards),
                 results[i].threads,
                 static_cast<long long>(results[i].workers_per_engine),
                 static_cast<long long>(results[i].team_per_engine),
                 results[i].throughput_rps, results[i].p50_ms,
                 results[i].p99_ms, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (effective_floor > 0.0 && x2_scale < effective_floor) {
    std::fprintf(stderr,
                 "FAIL: 2-shard 2-thread scaling %.3f below %s floor %.3f\n",
                 x2_scale, floor_mode, effective_floor);
    return 1;
  }
  return 0;
}
