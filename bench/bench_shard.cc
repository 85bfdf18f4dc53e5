// Sharded-serving benchmark: single engine vs 2- and 4-way ForecastRouter
// fleets over an N=1024 synthetic network — closed-loop throughput,
// latency percentiles, and peak RSS per configuration.
//
//   $ ./build/bench_shard                       # prints a table
//   $ ./build/bench_shard --check-floor=0.9     # CI guard (see below)
//   $ DYHSL_BENCH_OUT=BENCH_shard.json ./build/bench_shard
//
// Each configuration runs in a forked child process so its peak RSS
// (wait4 -> ru_maxrss) is attributable to that configuration alone —
// peak RSS is monotonic within a process, so measuring three fleets
// in-process would charge the first one's high-water mark to all three.
//
// --check-floor=R exits non-zero if the 2-shard router's aggregate req/s
// falls below R x the single-engine baseline: sharding pays halo
// recompute and stitching, but on one core it must stay within that
// margin of the monolith (its win is memory footprint per engine and the
// ability to spread shards across processes/hosts).
//
// Scale: DYHSL_PROFILE=tiny|quick|full adjusts request counts only; the
// model is always an STGCN (hidden 16) on the N=1024 ring network, so
// numbers are comparable across profiles and CI runs.

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
constexpr int64_t kHalo = 2;       // STGCN: 1 conv hop + 1 fringe-degree hop
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
  int64_t shards = 0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;
};

// Closed loop against the router: kClients threads, each submitting
// back-to-back and waiting for every response. Returns false if any
// request failed — failures are fast, so counting them as served
// traffic would let a broken fleet *beat* the throughput floor.
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
  *rps = wall_ms > 0.0
             ? 1000.0 * static_cast<double>(all.size()) / wall_ms
             : 0.0;
  *p50 = Percentile(all, 50.0);
  *p99 = Percentile(all, 99.0);
  return failed == 0;
}

// Builds the fleet for `shards` (1 = unsharded engine behind the router,
// so dispatch overhead is identical across configurations), runs the
// closed loop, and reports through `out`.
int RunPhaseInChild(int64_t shards, int per_client, int out_fd) {
  ConfigureParallelism();
  train::ForecastTask task = train::RingForecastTask(kNodes, kHistory);
  train::ZooConfig zoo;
  zoo.hidden_dim = kHidden;
  auto created = serve::ForecastRouter::Create();
  if (!created.ok()) return 1;
  auto router = std::move(created).ValueOrDie();
  Status added =
      shards == 1
          ? router->AddModel("m", task, serve::ZooFactory("STGCN", zoo))
          : router->AddShardedModel(
                "m", task,
                graph::ShardPlan::Build(task.spatial_adj, shards, kHalo),
                serve::ZooFactory("STGCN", zoo));
  if (!added.ok()) {
    std::fprintf(stderr, "fleet bring-up: %s\n", added.ToString().c_str());
    return 1;
  }
  Rng rng(1);
  T::Tensor window =
      T::Tensor::Randn({kHistory, kNodes, 3}, &rng, 0.5f);
  double rps = 0.0, p50 = 0.0, p99 = 0.0;
  if (!RunLoad(router.get(), window, std::max(2, per_client / 4), &rps, &p50,
               &p99)) {  // warm the worker arenas
    return 1;
  }
  if (!RunLoad(router.get(), window, per_client, &rps, &p50, &p99)) return 1;
  char line[128];
  int len = std::snprintf(line, sizeof(line), "%.3f %.4f %.4f\n", rps, p50,
                          p99);
  if (write(out_fd, line, static_cast<size_t>(len)) != len) return 1;
  return 0;
}

// Forks the phase so the parent can attribute ru_maxrss to it alone.
bool RunPhase(const std::string& name, int64_t shards, int per_client,
              PhaseResult* result) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    int code = RunPhaseInChild(shards, per_client, fds[1]);
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  char buffer[128];
  ssize_t got = 0;
  size_t used = 0;
  while (used + 1 < sizeof(buffer) &&
         (got = read(fds[0], buffer + used, sizeof(buffer) - 1 - used)) > 0) {
    used += static_cast<size_t>(got);
  }
  buffer[used] = '\0';
  close(fds[0]);
  int status = 0;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (wait4(pid, &status, 0, &usage) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  result->name = name;
  result->shards = shards;
  if (std::sscanf(buffer, "%lf %lf %lf", &result->throughput_rps,
                  &result->p50_ms, &result->p99_ms) != 3) {
    return false;
  }
  result->peak_rss_mb =
      static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB -> MB on Linux
  return true;
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
  int per_client =
      profile == RunProfile::kTiny ? 8 : (profile == RunProfile::kQuick ? 24 : 48);

  std::printf("=== bench_shard (N=%lld, STGCN d=%lld, halo=%lld, "
              "%d clients x %d requests) ===\n",
              static_cast<long long>(kNodes),
              static_cast<long long>(kHidden),
              static_cast<long long>(kHalo), kClients, per_client);

  struct PhaseSpec {
    const char* name;
    int64_t shards;
  };
  const PhaseSpec specs[] = {{"single", 1}, {"x2", 2}, {"x4", 4}};
  std::vector<PhaseResult> results;
  for (const PhaseSpec& spec : specs) {
    PhaseResult result;
    if (!RunPhase(spec.name, spec.shards, per_client, &result)) {
      std::fprintf(stderr, "phase %s failed\n", spec.name);
      return 1;
    }
    std::printf("%-7s %lld shard(s)  %8.1f req/s   p50 %7.2f ms   "
                "p99 %7.2f ms   peak RSS %7.1f MB\n",
                result.name.c_str(), static_cast<long long>(result.shards),
                result.throughput_rps, result.p50_ms, result.p99_ms,
                result.peak_rss_mb);
    results.push_back(std::move(result));
  }
  double ratio_x2 = results[0].throughput_rps > 0.0
                        ? results[1].throughput_rps / results[0].throughput_rps
                        : 0.0;
  std::printf("2-shard aggregate throughput: %.2fx of single-engine\n",
              ratio_x2);

  const char* out_env = std::getenv("DYHSL_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_shard.json";
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
  std::fprintf(out, "  \"x2_vs_single_throughput\": %.4f,\n", ratio_x2);
  std::fprintf(out, "  \"phases\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"shards\": %lld, "
                 "\"throughput_rps\": %.2f, \"p50_ms\": %.3f, "
                 "\"p99_ms\": %.3f, \"peak_rss_mb\": %.1f}%s\n",
                 results[i].name.c_str(),
                 static_cast<long long>(results[i].shards),
                 results[i].throughput_rps, results[i].p50_ms,
                 results[i].p99_ms, results[i].peak_rss_mb,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_floor > 0.0 && ratio_x2 < check_floor) {
    std::fprintf(stderr,
                 "FAIL: 2-shard router throughput ratio %.3f below floor "
                 "%.3f\n",
                 ratio_x2, check_floor);
    return 1;
  }
  return 0;
}
