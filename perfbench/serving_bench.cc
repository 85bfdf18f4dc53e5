// End-to-end serving benchmark: three named workloads against the public
// serving API, with a correctness check against a reference computed here,
// a host/build record, and (with --trace 1) per-layer spans timed around
// the calls into each layer.
//
//   serving_bench --workload requests_dyhsl|requests_metro|fleet_tick
//                 --seed N --seconds S --trace 0|1
//                 [--out-dir DIR] [--git-sha SHA] [--calibrate]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The full run record (host, configuration, every metric,
// sample counts) goes to DIR/<workload>-s<seed>-t<trace>.json and, when
// traced, the spans to DIR/<workload>-s<seed>.spans.json. See
// perfbench/README.md for the metric definitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/data/dataset.h"
#include "src/graph/shard.h"
#include "src/graph/temporal_graph.h"
#include "src/models/blocks.h"
#include "src/models/dyhsl.h"
#include "src/serve/router.h"
#include "src/serve/session.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/simd.h"
#include "src/tensor/sparse.h"
#include "src/tensor/workspace.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace dyhsl::perfbench {
namespace {

namespace ag = ::dyhsl::autograd;
namespace tn = ::dyhsl::tensor;
using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------------------
// Workload constants. Rates are fixed per workload (not derived from the
// host) so two runs on one host offer the same load; they are recorded in
// every run record and in README.md.
// --------------------------------------------------------------------------
/// requests_dyhsl: ~35% of the saturated closed-loop throughput of the
/// one-thread engine (~87 req/s with --calibrate on a 4-core host), busy
/// about a third of the time at B=1 cost. README.md says why not more.
constexpr double kDyhslRate = 30.0;
/// requests_metro: ~28% of the saturated throughput (~32 req/s) on the
/// same host, light enough that almost every request is served at batch 1.
constexpr double kMetroRate = 9.0;
/// STGCN width for requests_metro (the bench/bench_shard.cc size).
constexpr int64_t kMetroHidden = 16;
/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Requests per correctness sample in the request workloads.
constexpr int64_t kCheckStride = 37;
/// Fleet: sessions, district size, horizon, warm resync cadence.
constexpr int kFleetSessions = 256;
constexpr int kFleetWarmEvery = 4;  // sessions i % 4 != 0 are warm DCRNN
constexpr int64_t kFleetNodes = 24;
constexpr int64_t kFleetHorizon = 3;
constexpr int64_t kResyncEvery = 12;
constexpr int64_t kFleetHidden = 16;
constexpr int kFleetCheckEvery = 6;
/// A run whose generator is later than this at p99 is invalid: it exits
/// non-zero and prints no result.
constexpr double kLatenessLimitMs = 2.0;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// {"p10": ..., ..., "p99.9": ...} of `v`, for the run record.
std::string QuantilesJson(const std::vector<double>& v) {
  std::string out = "{";
  const std::pair<const char*, double> qs[] = {
      {"p10", 0.10}, {"p25", 0.25}, {"p50", 0.50},  {"p75", 0.75},
      {"p90", 0.90}, {"p95", 0.95}, {"p99", 0.99}, {"p99.9", 0.999}};
  for (const auto& [name, q] : qs) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f",
                  out.size() > 1 ? ", " : "", name, Quantile(v, q));
    out += buf;
  }
  return out + "}";
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// A kB field of /proc/self/status ("VmHWM:", "VmRSS:"), in MB; -1 when
/// the field is missing.
double StatusMb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return -1.0;
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  const double hwm = StatusMb("VmHWM:");
  if (hwm >= 0.0) return hwm;
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Times `reps` calls of `fn` after one untimed warm call; median in ms.
double MedianMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Clock::time_point start = Clock::now();
    fn();
    ms.push_back(MsBetween(start, Clock::now()));
  }
  return Median(ms);
}

// --------------------------------------------------------------------------
// JSON output.
// --------------------------------------------------------------------------
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// --------------------------------------------------------------------------
// Spans: name, start, end and parent, sharing a request or tick id. Kept
// in memory and written when the benchmark ends.
// --------------------------------------------------------------------------
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int64_t Add(const char* name, int64_t trace_id, int64_t parent,
              Clock::time_point start, Clock::time_point end) {
    return AddUs(name, trace_id, parent, Us(start), Us(end));
  }
  int64_t AddUs(const char* name, int64_t trace_id, int64_t parent,
                double start_us, double end_us) {
    spans_.push_back({name, trace_id, static_cast<int64_t>(spans_.size()),
                      parent, start_us, end_us});
    return spans_.back().id;
  }
  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_us - s.start_us) / 1000.0);
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"trace_id\": %lld, \"id\": %lld, "
                   "\"parent\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}"
                   "%s\n",
                   s.name, static_cast<long long>(s.trace_id),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.start_us, s.end_us,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    int64_t trace_id;
    int64_t id;
    int64_t parent;
    double start_us;
    double end_us;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --------------------------------------------------------------------------
// Arguments, host record, run outcome.
// --------------------------------------------------------------------------
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  bool calibrate = false;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;      // non-OK statuses + reference mismatches
  int64_t checked = 0;     // forecasts compared against the reference
  int64_t bit_exact = 0;   // ... of which bit-identical to it
  int64_t mismatches = 0;
  bool valid = true;       // generator kept to its schedule
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  /// Extra run-record fields: key -> raw JSON value.
  std::vector<std::pair<std::string, std::string>> detail;
  std::unique_ptr<SpanLog> spans;
};

/// Resident and peak resident set just before the first set-up, into the
/// run record: the benchmark's own share of rss_mb (inputs, reference
/// model, checkpoint writing).
void RecordMemoryBaseline(Outcome* outcome) {
  outcome->detail.push_back(
      {"rss_before_setup_mb", JsonNumber(StatusMb("VmRSS:"))});
  outcome->detail.push_back(
      {"peak_rss_before_setup_mb", JsonNumber(PeakRssMb())});
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string EnvJson(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "null" : JsonString(v);
}

std::string HostJson(const Args& args, int omp_threads) {
  std::ostringstream os;
  std::vector<int> cores = core::AvailableCores();
  std::string core_list = "[";
  for (size_t i = 0; i < cores.size(); ++i) {
    core_list += (i > 0 ? ", " : "") + std::to_string(cores[i]);
  }
  core_list += "]";
  os << "{\"nproc\": " << core::HardwareThreads()
     << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"available_cores\": " << core_list
     << ", \"omp_default_threads\": " << omp_threads << ", \"simd\": "
     << JsonString(tn::simd::LevelName(tn::simd::ActiveLevel()))
     << ", \"compiler\": " << JsonString(CompilerName())
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
     << ", \"env\": {\"OMP_NUM_THREADS\": " << EnvJson("OMP_NUM_THREADS")
     << ", \"DYHSL_THREADS\": " << EnvJson("DYHSL_THREADS")
     << ", \"DYHSL_SIMD\": " << EnvJson("DYHSL_SIMD") << "}"
     << ", \"git_sha\": " << JsonString(args.git_sha)
     << ", \"seed\": " << args.seed << "}";
  return os.str();
}

/// Compares a served forecast against its reference. tol == 0 demands
/// bit-identity; otherwise |got - ref| <= tol elementwise.
bool Matches(const tn::Tensor& got, const tn::Tensor& ref, double tol) {
  if (!got.defined() || got.numel() != ref.numel()) return false;
  if (tol == 0.0) {
    return std::memcmp(got.data(), ref.data(),
                       static_cast<size_t>(got.numel()) * sizeof(float)) == 0;
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    const double diff = std::fabs(static_cast<double>(got.data()[i]) -
                                  static_cast<double>(ref.data()[i]));
    if (!(diff <= tol)) return false;
  }
  return true;
}

double MaxAbsDiff(const tn::Tensor& a, const tn::Tensor& b) {
  if (!a.defined() || a.numel() != b.numel()) return INFINITY;
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(static_cast<double>(a.data()[i]) -
                                            static_cast<double>(b.data()[i])));
  }
  return max_diff;
}

/// Grad-free B=1 reference forward of `model` over `window` (T, N, F), on
/// the calling thread under the serving engine's team size.
tn::Tensor ReferenceForward(train::ForecastModel* model,
                            const tn::Tensor& window, int team) {
  core::TeamScope scope(team);
  ag::InferenceModeGuard no_grad;
  tn::Tensor x = window.Reshape(
      {1, window.size(0), window.size(1), window.size(2)});
  tn::Tensor out = model->Forward(x, false).value();
  return out.Reshape({out.size(1), out.size(2)}).Clone();
}

// --------------------------------------------------------------------------
// Set-up: checkpoints written in an untimed pre-step, and the load steps
// replayed one by one for the setup.* per-layer metrics.
// --------------------------------------------------------------------------
std::vector<const float*> EnrollWeights(const nn::Module& module) {
  std::vector<const float*> ptrs;
  for (const auto& named :
       {module.NamedParameters(), module.NamedConstants()}) {
    for (const auto& [name, var] : named) {
      if (var.value().dim() != 2) continue;
      tn::PrepackCache::Instance().Enroll(var.value());
      ptrs.push_back(var.value().data());
    }
  }
  return ptrs;
}

struct SetupSteps {
  double model_build_s = 0.0;
  double checkpoint_load_s = 0.0;
  double prepack_enroll_s = 0.0;
};

/// Replays what ForecastEngine::Create does per engine — build, load,
/// enroll — through the public functions, median of kSetupRepeats.
SetupSteps ReplaySetupSteps(
    const std::vector<std::pair<train::ForecastTask, std::string>>& engines,
    const serve::ModelFactory& factory) {
  std::vector<double> build, load, enroll;
  for (int r = 0; r < kSetupRepeats; ++r) {
    double b = 0.0, l = 0.0, e = 0.0;
    for (const auto& [task, path] : engines) {
      Clock::time_point t0 = Clock::now();
      std::unique_ptr<train::ForecastModel> model = factory(task);
      Clock::time_point t1 = Clock::now();
      auto* module = dynamic_cast<nn::Module*>(model.get());
      if (module == nullptr || !train::LoadCheckpoint(module, path).ok()) {
        std::fprintf(stderr, "setup replay: cannot load %s\n", path.c_str());
        return {};
      }
      Clock::time_point t2 = Clock::now();
      std::vector<const float*> ptrs = EnrollWeights(*module);
      Clock::time_point t3 = Clock::now();
      for (const float* p : ptrs) tn::PrepackCache::Instance().Release(p);
      b += MsBetween(t0, t1);
      l += MsBetween(t1, t2);
      e += MsBetween(t2, t3);
    }
    build.push_back(b / 1000.0);
    load.push_back(l / 1000.0);
    enroll.push_back(e / 1000.0);
  }
  return {Median(build), Median(load), Median(enroll)};
}

Status SaveModule(const train::ForecastModel& model, const std::string& path) {
  const auto* module = dynamic_cast<const nn::Module*>(&model);
  if (module == nullptr) return Status::InvalidArgument("not checkpointable");
  return train::SaveCheckpoint(*module, path);
}

// --------------------------------------------------------------------------
// Tensor-layer replays at a workload's dominant shapes.
// --------------------------------------------------------------------------
struct TensorReplay {
  double gemm_us = 0.0;
  double spmm_us = 0.0;
  double flops = 0.0;  // computed from tensor sizes
  double bytes = 0.0;  // computed from tensor sizes
};

/// One prepacked GEMM (m x k) * (k x n) and one SpMM `op` * X (op.cols x f,
/// or batched (batch, op.cols, f)), timed under the serving scopes.
TensorReplay ReplayTensor(int64_t m, int64_t k, int64_t n,
                          const tn::CsrMatrix& op, int64_t batch, int64_t f,
                          int team, uint64_t seed) {
  Rng rng(seed);
  tn::Tensor a = tn::Tensor::Randn({m, k}, &rng, 0.5f);
  tn::Tensor w = tn::Tensor::Randn({k, n}, &rng, 0.5f);
  tn::Tensor x = batch > 0 ? tn::Tensor::Randn({batch, op.cols(), f}, &rng)
                           : tn::Tensor::Randn({op.cols(), f}, &rng);
  tn::PrepackCache::Instance().Enroll(w);
  tn::Workspace workspace;
  core::TeamScope scope(team);
  ag::InferenceModeGuard no_grad;
  TensorReplay out;
  out.gemm_us = 1000.0 * MedianMs(30, [&] {
    tn::WorkspaceScope ws(&workspace);
    tn::PrepackLookupScope prepack;
    volatile float sink = tn::MatMul(a, w).data()[0];
    (void)sink;
    workspace.Reset();
  });
  out.spmm_us = 1000.0 * MedianMs(30, [&] {
    tn::WorkspaceScope ws(&workspace);
    volatile float sink = tn::SpMM(op, x).data()[0];
    (void)sink;
    workspace.Reset();
  });
  tn::PrepackCache::Instance().Release(w.data());
  const double items = static_cast<double>(std::max<int64_t>(batch, 1));
  const double nnz = static_cast<double>(op.nnz());
  const double rows = static_cast<double>(op.rows());
  out.flops = 2.0 * m * k * n + 2.0 * nnz * f * items;
  // GEMM: read A and W, write C. SpMM: values + column ids + row pointers
  // once, one X row per nonzero and one output row per row, per item.
  out.bytes = 4.0 * (m * k + k * n + m * n) + nnz * (4.0 + 8.0) +
              8.0 * (rows + 1) + items * 4.0 * f * (nnz + rows);
  return out;
}

void AddTensorMetrics(const TensorReplay& t, double pack_ms,
                      std::vector<Metric>* layer) {
  layer->push_back({"tensor.pack_batch_ms", pack_ms, "ms"});
  layer->push_back({"tensor.gemm_us", t.gemm_us, "us"});
  layer->push_back({"tensor.spmm_us", t.spmm_us, "us"});
  layer->push_back({"tensor.flops_per_unit", t.flops, "flop.computed"});
  layer->push_back({"tensor.bytes_per_unit", t.bytes, "B.computed"});
}

/// PackBatch of `b` copies of `window` under an arena scope (median ms).
double ReplayPackBatch(const tn::Tensor& window, int64_t b) {
  std::vector<tn::Tensor> items(static_cast<size_t>(std::max<int64_t>(b, 1)),
                                window);
  tn::Workspace workspace;
  return MedianMs(30, [&] {
    tn::WorkspaceScope ws(&workspace);
    volatile float sink = tn::PackBatch(items).data()[0];
    (void)sink;
    workspace.Reset();
  });
}

// --------------------------------------------------------------------------
// Request workloads (requests_dyhsl, requests_metro).
// --------------------------------------------------------------------------
struct RequestWorkload {
  std::string model;  // router model name
  double rate = 0.0;
  bool sharded = false;
  data::TrafficDataset dataset;
  train::ForecastTask task;
  /// Requests cycle through the consecutive test-split inputs, built when
  /// a request is about to be sent so they do not count in rss_mb.
  int64_t first_window = 0;
  int64_t num_windows = 0;
  serve::ModelFactory factory;
  std::string checkpoint;           // unsharded file / shard family prefix
  graph::ShardPlan plan;
  /// Reference model (B=1, unsharded) loaded from the same weights.
  std::unique_ptr<train::ForecastModel> reference;
  /// Allowed forecast difference, in units of the training std.
  double tolerance = 0.0;
  /// Warm-up bursts. Each must form one batch within max_delay_us, so the
  /// arenas, and with them rss_mb, come out the same on every run.
  std::vector<int> warm_bursts;

  /// The (T, N, F) input of request window i (any i; wraps around).
  tn::Tensor Window(size_t i) const {
    return dataset.MakeInput(first_window +
                             static_cast<int64_t>(i) % num_windows);
  }
};

// --------------------------------------------------------------------------
// Open-loop request generation. One thread both sends on a seeded Poisson
// schedule and collects. It spins, pinned to the last available core while
// the engines are pinned from the first: a sleeping thread, or one that
// shares a core with an engine, can be late by milliseconds, which would
// show as generator lateness and as latency the server did not cause.
// Between sends it polls the oldest outstanding future, so a completion is
// stamped when it happens and a send is never held up by a slow response.
// --------------------------------------------------------------------------
struct RequestSample {
  int64_t id = 0;
  size_t window = 0;
  Clock::time_point due, sent, submitted, ready;
  bool ok = false;
  int64_t batch_size = 0;
  double queue_us = 0.0;
  double compute_us = 0.0;
};

struct OpenLoopRun {
  std::vector<RequestSample> samples;
  /// Forecasts kept for the correctness check.
  struct Kept {
    size_t window;
    int64_t batch_size;
    tn::Tensor forecast;
  };
  std::vector<Kept> kept;
};

/// Arrival offsets (seconds) of a Poisson process of `rate` conditioned on
/// its count over `seconds`: sorted uniforms. The count is fixed so the
/// offered load is exactly `rate`; the gaps stay exponential.
std::vector<double> PoissonSchedule(double rate, double seconds, Rng* rng) {
  const int64_t count =
      std::max<int64_t>(1, std::llround(rate * seconds));
  std::vector<double> offsets(static_cast<size_t>(count));
  for (double& o : offsets) o = rng->NextDouble() * seconds;
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

OpenLoopRun RunOpenLoop(serve::ForecastRouter* router,
                        const RequestWorkload& w, double seconds,
                        uint64_t seed, int64_t first_id, size_t first_window,
                        SpanLog* spans) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  const std::vector<double> offsets = PoissonSchedule(w.rate, seconds, &rng);
  struct Pending {
    RequestSample sample;
    std::future<serve::ForecastResponse> future;
  };
  OpenLoopRun run;
  run.samples.reserve(offsets.size());
  std::deque<Pending> outstanding;
  auto finish = [&](Pending* p, Clock::time_point ready) {
    serve::ForecastResponse response = p->future.get();
    RequestSample& s = p->sample;
    s.ready = ready;
    s.ok = response.status.ok();
    s.batch_size = response.batch_size;
    s.queue_us = response.queue_micros;
    s.compute_us = response.compute_micros;
    if (s.ok && s.id % kCheckStride == 0) {
      run.kept.push_back({s.window, s.batch_size,
                          std::move(response.forecast)});
    }
    if (spans != nullptr) {
      const int64_t root = spans->Add("request", s.id, -1, s.due, s.ready);
      spans->Add("gen.lateness", s.id, root, s.due, s.sent);
      spans->Add("router.submit", s.id, root, s.sent, s.submitted);
      const double q0 = spans->Us(s.submitted);
      spans->AddUs("engine.queue", s.id, root, q0, q0 + s.queue_us);
      spans->AddUs("engine.compute", s.id, root, q0 + s.queue_us,
                   q0 + s.queue_us + s.compute_us);
      spans->AddUs("router.handoff", s.id, root,
                   std::min(q0 + s.queue_us + s.compute_us, spans->Us(ready)),
                   spans->Us(ready));
    }
    run.samples.push_back(s);
  };

  const std::vector<int> cores = core::AvailableCores();
  (void)core::PinCurrentThread({cores.back()});
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  size_t next = 0;
  tn::Tensor upcoming;  // the next request's window, built before it is due
  while (next < offsets.size() || !outstanding.empty()) {
    if (!outstanding.empty() &&
        outstanding.front().future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      finish(&outstanding.front(), Clock::now());
      outstanding.pop_front();
      continue;
    }
    if (next == offsets.size()) {
      std::this_thread::yield();
      continue;
    }
    const size_t window =
        (first_window + next) % static_cast<size_t>(w.num_windows);
    if (!upcoming.defined()) upcoming = w.Window(window);
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets[next]));
    const Clock::time_point now = Clock::now();
    if (now < due) {
      std::this_thread::yield();
      continue;
    }
    Pending p;
    p.sample.id = first_id + static_cast<int64_t>(next);
    p.sample.window = window;
    p.sample.due = due;
    p.sample.sent = now;
    p.future = router->Submit(serve::RouterRequest{w.model, upcoming});
    p.sample.submitted = Clock::now();
    upcoming = tn::Tensor();
    outstanding.push_back(std::move(p));
    ++next;
  }
  (void)core::PinCurrentThread(cores);
  return run;
}

/// Saturated closed-loop throughput (requests/s) with `inflight` requests
/// always outstanding — the capacity the fixed rates are a share of.
double Saturate(serve::ForecastRouter* router, const RequestWorkload& w,
                double seconds, int inflight) {
  std::deque<std::future<serve::ForecastResponse>> outstanding;
  size_t next = 0;
  int64_t done = 0;
  const Clock::time_point start = Clock::now();
  while (MsBetween(start, Clock::now()) < 1000.0 * seconds) {
    while (static_cast<int>(outstanding.size()) < inflight) {
      outstanding.push_back(
          router->Submit(serve::RouterRequest{w.model, w.Window(next++)}));
    }
    outstanding.front().get();
    outstanding.pop_front();
    ++done;
  }
  while (!outstanding.empty()) {
    outstanding.front().get();
    outstanding.pop_front();
  }
  return static_cast<double>(done) / (MsBetween(start, Clock::now()) / 1000.0);
}

/// Warm-up before the window (counted in setup_s): the first burst sizes
/// the engine arenas for the largest batch, smaller bursts and single
/// requests touch the other batch shapes.
bool WarmUp(serve::ForecastRouter* router, const RequestWorkload& w) {
  size_t next = 0;
  for (int burst : w.warm_bursts) {
    std::vector<tn::Tensor> inputs;
    for (int i = 0; i < burst; ++i) inputs.push_back(w.Window(next++));
    std::vector<std::future<serve::ForecastResponse>> futures;
    for (const tn::Tensor& input : inputs) {
      futures.push_back(router->Submit(serve::RouterRequest{w.model, input}));
    }
    for (auto& f : futures) {
      if (!f.get().status.ok()) return false;
    }
  }
  return true;
}

/// End-to-end metrics of one open-loop run.
struct RequestMetrics {
  std::vector<double> latency_ms;  // due -> ready, OK requests
  std::vector<double> lateness_ms;
  int64_t failed = 0;
  /// OK requests per second of engine busy time (see BusySeconds).
  double throughput = 0.0;
};

/// Seconds during which at least one OK request was being computed: the
/// union of the compute intervals from the response telemetry. Requests of
/// one batch share an interval; on sharded requests it is the slowest
/// shard's.
double BusySeconds(const std::vector<RequestSample>& samples) {
  std::vector<std::pair<double, double>> spans;  // ms since the first due
  for (const RequestSample& s : samples) {
    if (!s.ok) continue;
    const double begin =
        MsBetween(samples.front().due, s.submitted) + s.queue_us / 1000.0;
    spans.push_back({begin, begin + s.compute_us / 1000.0});
  }
  if (spans.empty()) return 0.0;
  std::sort(spans.begin(), spans.end());
  double busy_ms = 0.0;
  auto [open, close] = spans.front();
  for (const auto& [begin, end] : spans) {
    if (begin > close) {
      busy_ms += close - open;
      open = begin;
    }
    close = std::max(close, end);
  }
  return (busy_ms + close - open) / 1000.0;
}

RequestMetrics Summarize(const OpenLoopRun& run) {
  RequestMetrics m;
  for (const RequestSample& s : run.samples) {
    m.lateness_ms.push_back(MsBetween(s.due, s.sent));
    if (!s.ok) {
      m.failed += 1;
      continue;
    }
    m.latency_ms.push_back(MsBetween(s.due, s.ready));
  }
  const double busy_s = BusySeconds(run.samples);
  m.throughput =
      busy_s > 0.0 ? static_cast<double>(m.latency_ms.size()) / busy_s : 0.0;
  return m;
}

/// One thread per engine, engine i pinned to the i-th available core.
/// Multi-threaded engines ran a fork-join per kernel, and on a host with
/// CPU steal any preempted team member stalled the whole forward: the
/// 3-thread DyHSL engine's run-to-run p50 spread 21-29%. One more thread is
/// the load generator + collector, so generator + engine threads <= nproc
/// for up to nproc - 1 engines.
serve::RouterOptions RequestRouterOptions(int64_t engines) {
  serve::RouterOptions options;
  options.num_stitchers = 1;
  options.placement = serve::Placement::kPinned;
  options.thread_budget = engines;
  return options;
}

int64_t EngineCount(const RequestWorkload& w) {
  return w.sharded ? w.plan.num_shards() : 1;
}

std::unique_ptr<serve::ForecastRouter> SetUpRequestRouter(
    const RequestWorkload& w) {
  auto created =
      serve::ForecastRouter::Create(RequestRouterOptions(EngineCount(w)));
  if (!created.ok()) return nullptr;
  std::unique_ptr<serve::ForecastRouter> router =
      std::move(created).ValueOrDie();
  Status added =
      w.sharded
          ? router->AddShardedModel(w.model, w.task, w.plan, w.factory,
                                    w.checkpoint, serve::EngineOptions())
          : router->AddModel(w.model, w.task, w.factory, w.checkpoint,
                             serve::EngineOptions());
  if (!added.ok()) {
    std::fprintf(stderr, "router bring-up: %s\n", added.ToString().c_str());
    return nullptr;
  }
  if (!WarmUp(router.get(), w)) {
    return nullptr;
  }
  return router;
}

/// Checks every kept forecast against the reference; returns mismatches.
int64_t CheckRequests(RequestWorkload* w, const OpenLoopRun& run, int team,
                      Outcome* outcome) {
  int64_t mismatches = 0;
  for (const OpenLoopRun::Kept& k : run.kept) {
    tn::Tensor ref =
        ReferenceForward(w->reference.get(), w->Window(k.window), team);
    outcome->checked += 1;
    outcome->bit_exact += Matches(k.forecast, ref, 0.0) ? 1 : 0;
    if (!Matches(k.forecast, ref, w->tolerance * w->task.scaler_std)) {
      mismatches += 1;
      std::fprintf(stderr,
                   "mismatch: window %zu served at batch %lld, max |diff| "
                   "%.3g\n",
                   k.window, static_cast<long long>(k.batch_size),
                   MaxAbsDiff(k.forecast, ref));
    }
  }
  return mismatches;
}

train::ZooConfig MetroZoo() {
  train::ZooConfig zoo;
  zoo.hidden_dim = kMetroHidden;
  return zoo;
}

bool PrepareRequestWorkload(const Args& args, const std::string& ckpt_dir,
                            RequestWorkload* w) {
  const bool metro = args.workload == "requests_metro";
  data::DatasetSpec spec =
      metro ? data::DatasetSpec::Pems07Like(1.0, 7, args.seed)
            : data::DatasetSpec::Pems08Like(1.0, 7, args.seed);
  w->dataset = data::TrafficDataset::Generate(spec);
  w->task = train::ForecastTask::FromDataset(w->dataset);
  const auto range = w->dataset.test_range();
  w->first_window = range.begin;
  w->num_windows = range.end - range.begin;
  std::unique_ptr<train::ForecastModel> model;
  if (metro) {
    w->model = "stgcn";
    w->rate = kMetroRate;
    w->sharded = true;
    // One graph-conv hop plus one hop so fringe degrees stay exact.
    w->plan = graph::ShardPlan::Build(w->task.spatial_adj, 2, 2);
    w->factory = serve::ZooFactory("STGCN", MetroZoo());
    model = train::MakeNeuralModel("STGCN", w->task, MetroZoo());
    w->checkpoint = ckpt_dir + "/stgcn";
    const auto* module = dynamic_cast<const nn::Module*>(model.get());
    if (module == nullptr ||
        !train::ShardCheckpointSet::Save(w->plan, *module, w->checkpoint)
             .ok()) {
      return false;
    }
    w->tolerance = 1e-5;
    // A metro Submit gathers both shard slices (~0.1 ms), so a burst of
    // 16 outlasts max_delay_us and splits unpredictably; 4 always forms
    // one batch, and at 9 req/s the run rarely batches more.
    w->warm_bursts = {4, 2, 1, 1};
  } else {
    w->model = "dyhsl";
    w->rate = kDyhslRate;
    models::DyHslConfig config;  // paper defaults: d=64 Lp=6 Ls=2 I=32 J=6
    w->factory = serve::DyHslFactory(config);
    model = w->factory(w->task);
    w->checkpoint = ckpt_dir + "/dyhsl.ckpt";
    if (!SaveModule(*model, w->checkpoint).ok()) return false;
    // Batched forecasts differ from B=1 by up to ~1 ulp on some windows
    // (README.md, "Known deviations"); bit-exact matches are counted.
    w->tolerance = 1e-5;
    w->warm_bursts = {16, 8, 4, 2, 1, 1};
  }
  // The reference loads the same weights from an unsharded file.
  const std::string ref_path = ckpt_dir + "/reference.ckpt";
  if (!SaveModule(*model, ref_path).ok()) return false;
  w->reference = w->factory(w->task);
  auto* ref_module = dynamic_cast<nn::Module*>(w->reference.get());
  return ref_module != nullptr &&
         train::LoadCheckpoint(ref_module, ref_path).ok();
}

/// Per-layer metrics of the DyHSL model at the workload's shapes.
void ReplayDyhsl(RequestWorkload* w, serve::ForecastEngine* engine,
                 double mean_batch, int team, std::vector<Metric>* layer) {
  auto* model = dynamic_cast<models::DyHsl*>(engine->mutable_model());
  const models::DyHslConfig& config = model->config();
  const int64_t n = w->task.num_nodes;
  const int64_t t_hist = w->task.history;
  const int64_t d = config.hidden_dim;
  const int64_t batch = std::max<int64_t>(1, std::llround(mean_batch));
  const tn::Tensor window = w->Window(0);
  std::vector<tn::Tensor> items(static_cast<size_t>(batch), window);
  tn::Tensor x1 = window.Reshape({1, t_hist, n, 3});
  tn::Tensor xb = tn::PackBatch(items);

  Rng rng(5);
  models::PriorGraphEncoder encoder(
      n, t_hist, w->task.input_dim, d, config.prior_layers,
      graph::BuildNormalizedTemporalOp(w->task.spatial_adj, t_hist), &rng);
  models::IgcBlock igc(d, &rng);
  // Served weights are prepacked; enroll the stand-ins' weights likewise.
  std::vector<const float*> enrolled = EnrollWeights(encoder);
  for (const float* p : EnrollWeights(igc)) enrolled.push_back(p);
  tn::Workspace workspace;
  core::TeamScope scope(team);
  ag::InferenceModeGuard no_grad;
  tn::PrepackLookupScope prepack;
  auto timed = [&](const std::function<float()>& fn) {
    return MedianMs(9, [&] {
      tn::WorkspaceScope ws(&workspace);
      volatile float sink = fn();
      (void)sink;
      workspace.Reset();
    });
  };
  const double fwd1 =
      timed([&] { return model->Forward(x1, false).value().data()[0]; });
  const double fwdb =
      timed([&] { return model->Forward(xb, false).value().data()[0]; });
  const double enc = timed(
      [&] { return encoder.Forward(ag::Variable(x1)).value().data()[0]; });
  double dhsl = 0.0, igc_ms = 0.0;
  for (int64_t eps : config.window_sizes) {
    const int64_t steps = t_hist / eps;
    ag::Variable h(tn::Tensor::Randn({1, steps * n, d}, &rng, 0.5f));
    ag::SparseConstant adj =
        graph::BuildNormalizedTemporalOp(w->task.spatial_adj, steps);
    dhsl += config.mhce_layers *
            timed([&] { return model->dhsl().Forward(h).value().data()[0]; });
    igc_ms += config.mhce_layers *
              timed([&] { return igc.Forward(adj, h).value().data()[0]; });
  }
  layer->push_back({"dyhsl.forward_b1_ms", fwd1, "ms"});
  layer->push_back({"dyhsl.forward_batch_ms", fwdb, "ms"});
  layer->push_back({"dyhsl.encoder_ms", enc, "ms"});
  layer->push_back({"dyhsl.dhsl_ms", dhsl, "ms"});
  layer->push_back({"dyhsl.igc_ms", igc_ms, "ms"});
  layer->push_back(
      {"dyhsl.coverage", fwd1 > 0.0 ? (enc + dhsl + igc_ms) / fwd1 : 0.0,
       "ratio"});
  for (const float* p : enrolled) tn::PrepackCache::Instance().Release(p);
}

/// B=1 forward of each shard engine's model on its gathered slice; the
/// slowest shard (the request's critical path).
double ReplayShards(RequestWorkload* w, serve::ForecastRouter* router,
                    int team, std::string* per_shard_json) {
  auto route = router->RouteFor(w->model);
  if (!route.ok()) return 0.0;
  const serve::StreamRoute& r = route.ValueOrDie();
  const tn::Tensor window = w->Window(0);
  const int64_t t_hist = window.size(0), n = window.size(1),
                f = window.size(2);
  double slowest = 0.0;
  *per_shard_json = "[";
  for (size_t s = 0; s < r.engines.size(); ++s) {
    const graph::ShardSpec& shard = (*r.shards)[s];
    tn::Tensor slice({1, t_hist, shard.num_local(), f});
    for (int64_t t = 0; t < t_hist; ++t) {
      for (int64_t j = 0; j < shard.num_local(); ++j) {
        std::memcpy(slice.data() + (t * shard.num_local() + j) * f,
                    window.data() + (t * n + shard.locals[j]) * f,
                    static_cast<size_t>(f) * sizeof(float));
      }
    }
    train::ForecastModel* model = r.engines[s]->mutable_model();
    tn::Workspace workspace;
    core::TeamScope scope(team);
    ag::InferenceModeGuard no_grad;
    tn::PrepackLookupScope prepack;
    const double ms = MedianMs(15, [&] {
      tn::WorkspaceScope ws(&workspace);
      volatile float sink = model->Forward(slice, false).value().data()[0];
      (void)sink;
      workspace.Reset();
    });
    slowest = std::max(slowest, ms);
    *per_shard_json += (s > 0 ? ", " : "") + std::string("{\"locals\": ") +
                       std::to_string(shard.num_local()) +
                       ", \"forward_ms\": " + JsonNumber(ms) + "}";
  }
  *per_shard_json += "]";
  return slowest;
}

bool RunRequestWorkload(const Args& args, const std::string& ckpt_dir,
                        Outcome* outcome) {
  RequestWorkload w;
  if (!PrepareRequestWorkload(args, ckpt_dir, &w)) {
    std::fprintf(stderr, "workload preparation failed\n");
    return false;
  }

  // Set-up: router creation, checkpoint load with prepack enrolment,
  // warm-up. This router serves the run; the other set-ups are timed
  // after the run, so they cannot inflate its peak RSS.
  RecordMemoryBaseline(outcome);
  std::vector<double> setup_s;
  std::unique_ptr<serve::ForecastRouter> router;
  auto set_up = [&] {
    router.reset();
    Clock::time_point t0 = Clock::now();
    router = SetUpRequestRouter(w);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    return router != nullptr;
  };
  if (!set_up()) return false;
  const serve::RouterStats fleet = router->Stats();
  const int team = static_cast<int>(fleet.engines[0].team_size);

  if (args.calibrate) {
    const double sat = Saturate(router.get(), w, args.seconds, 32);
    std::printf("calibrate %s: saturated %.2f req/s (fixed rate %.1f = "
                "%.0f%%)\n",
                args.workload.c_str(), sat, w.rate, 100.0 * w.rate / sat);
    return true;
  }

  // Untraced: the whole window. Traced: half untraced, half traced on the
  // same arrival schedule, so the tracing overhead is measured in the
  // same process against the same load.
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  OpenLoopRun run =
      RunOpenLoop(router.get(), w, untraced_s, args.seed, 0, 0, nullptr);
  RequestMetrics m = Summarize(run);
  const double rss_mb = PeakRssMb();
  outcome->attempted += static_cast<int64_t>(run.samples.size());
  outcome->failed += m.failed;
  outcome->mismatches += CheckRequests(&w, run, team, outcome);

  const double lateness_p99 = Quantile(m.lateness_ms, 0.99);
  outcome->valid = lateness_p99 <= kLatenessLimitMs;
  outcome->detail.push_back({"rate_rps", JsonNumber(w.rate)});
  outcome->detail.push_back(
      {"latency_samples", std::to_string(m.latency_ms.size())});
  outcome->detail.push_back({"latency_ms", QuantilesJson(m.latency_ms)});
  outcome->detail.push_back(
      {"engine_team_size", std::to_string(team)});
  outcome->detail.push_back(
      {"thread_budget",
       std::to_string(RequestRouterOptions(EngineCount(w)).thread_budget)});

  if (!args.trace) {
    for (int r = 1; r < kSetupRepeats; ++r) {
      if (!set_up()) return false;
    }
    outcome->e2e = {
        {"p50_ms", Median(m.latency_ms), "ms"},
        {"p90_ms", Quantile(m.latency_ms, 0.90), "ms"},
        {"throughput", m.throughput, "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", rss_mb, "MB"},
    };
    outcome->detail.push_back(
        {"gen_lateness_p99_ms", JsonNumber(lateness_p99)});
    outcome->detail.push_back(
        {"gen_lateness_max_ms", JsonNumber(MaxOf(m.lateness_ms))});
    return true;
  }

  // Traced half.
  const serve::RouterStats before = router->Stats();
  const tn::PrepackCache::Stats prepack_before = before.total.prepack;
  outcome->spans = std::make_unique<SpanLog>(Clock::now());
  SpanLog* spans = outcome->spans.get();
  OpenLoopRun traced = RunOpenLoop(
      router.get(), w, args.seconds - untraced_s,
      args.seed, static_cast<int64_t>(run.samples.size()),
      run.samples.size(), spans);
  const serve::RouterStats after = router->Stats();
  RequestMetrics tm = Summarize(traced);
  outcome->attempted += static_cast<int64_t>(traced.samples.size());
  outcome->failed += tm.failed;
  outcome->mismatches += CheckRequests(&w, traced, team, outcome);

  std::vector<double> batch_sizes;
  for (const RequestSample& s : traced.samples) {
    if (s.ok) batch_sizes.push_back(static_cast<double>(s.batch_size));
  }
  const double mean_batch = Mean(batch_sizes);
  const std::vector<double> queue = spans->DurationsMs("engine.queue");
  const std::vector<double> compute = spans->DurationsMs("engine.compute");
  const std::vector<double> handoff = spans->DurationsMs("router.handoff");
  const std::vector<double> lateness = spans->DurationsMs("gen.lateness");
  const double hits = static_cast<double>(after.total.prepack.hits -
                                          prepack_before.hits);
  const double misses = static_cast<double>(after.total.prepack.misses -
                                            prepack_before.misses);
  std::vector<Metric>& layer = outcome->layer;
  layer.push_back({"router.submit_us",
                   1000.0 * Median(spans->DurationsMs("router.submit")),
                   "us"});
  layer.push_back(
      {"router.stitch_ms", w.sharded ? Median(handoff) : 0.0, "ms"});
  layer.push_back({"router.scratch_buffers",
                   static_cast<double>(router->ScratchAllocated(w.model)),
                   "count"});
  layer.push_back({"engine.queue_wait_p50_ms", Median(queue), "ms"});
  layer.push_back({"engine.queue_wait_p99_ms", Quantile(queue, 0.99), "ms"});
  layer.push_back({"engine.compute_p50_ms", Median(compute), "ms"});
  layer.push_back({"engine.compute_p99_ms", Quantile(compute, 0.99), "ms"});
  layer.push_back({"engine.batch_size_mean", mean_batch, "count"});
  layer.push_back({"engine.batch_size_max", MaxOf(batch_sizes), "count"});
  layer.push_back({"engine.batches",
                   static_cast<double>(after.total.batches -
                                       before.total.batches),
                   "count"});
  layer.push_back(
      {"engine.handoff_ms", w.sharded ? 0.0 : Median(handoff), "ms"});
  layer.push_back({"engine.prepack_hit_ratio",
                   hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                   "ratio"});
  layer.push_back({"engine.prepack_bytes",
                   static_cast<double>(after.total.prepack.bytes), "B"});
  for (const char* name : {"engine.advance_batch_ms",
                           "engine.forecast_state_batch_ms",
                           "engine.submit_batch_ms"}) {
    layer.push_back({name, 0.0, "ms"});
  }
  for (const char* name :
       {"session.append_many_p50_ms", "session.append_many_p99_ms",
        "session.forecast_all_p50_ms", "session.forecast_all_p99_ms",
        "session.append_self_ms", "session.forecast_self_ms"}) {
    layer.push_back({name, 0.0, "ms"});
  }
  layer.push_back({"session.batch_occupancy", 0.0, "count"});
  layer.push_back({"session.resyncs_per_tick", 0.0, "count"});

  auto route = router->RouteFor(w.model);
  const tn::Tensor window = w.Window(0);
  const int64_t n_nodes = w.task.num_nodes;
  if (!w.sharded) {
    ReplayDyhsl(&w, route.ValueOrDie().engines[0], mean_batch, team, &layer);
    layer.push_back({"stgcn.shard_forward_ms", 0.0, "ms"});
    // Dominant shapes: the encoder's (T*N, d) x (d, d) projection and the
    // prior temporal operator over (T*N, d).
    const int64_t d = models::DyHslConfig().hidden_dim;
    const int64_t rows = w.task.history * n_nodes;
    tn::CsrMatrix op =
        graph::BuildNormalizedTemporalOp(w.task.spatial_adj, w.task.history)
            .matrix();
    AddTensorMetrics(ReplayTensor(rows, d, d, op, 0, d, team, args.seed),
                     ReplayPackBatch(window,
                                     std::max<int64_t>(
                                         1, std::llround(mean_batch))),
                     &layer);
  } else {
    for (const char* name :
         {"dyhsl.forward_b1_ms", "dyhsl.forward_batch_ms", "dyhsl.encoder_ms",
          "dyhsl.dhsl_ms", "dyhsl.igc_ms"}) {
      layer.push_back({name, 0.0, "ms"});
    }
    layer.push_back({"dyhsl.coverage", 0.0, "ratio"});
    std::string per_shard;
    layer.push_back({"stgcn.shard_forward_ms",
                     ReplayShards(&w, router.get(), team, &per_shard), "ms"});
    outcome->detail.push_back({"stgcn_shards", per_shard});
    // Dominant shapes: the STGCN graph-conv projection over the larger
    // shard's (T*L, d) rows and its normalized adjacency over (L, T*d).
    const graph::ShardSpec& shard = w.plan.shard(0);
    const int64_t hidden = kMetroHidden;
    tn::CsrMatrix op = graph::InducedSubgraph(w.task.spatial_adj, shard)
                           .WithSelfLoops()
                           .SymNormalized();
    AddTensorMetrics(
        ReplayTensor(w.task.history * shard.num_local(), hidden, hidden, op,
                     0, w.task.history * hidden, team, args.seed),
        ReplayPackBatch(window, 1), &layer);
  }

  // setup.* and generator validity.
  std::vector<std::pair<train::ForecastTask, std::string>> engines;
  if (w.sharded) {
    for (int64_t s = 0; s < w.plan.num_shards(); ++s) {
      engines.emplace_back(
          train::ShardTask(w.task, w.plan.shard(s)),
          train::ShardCheckpointSet::ShardPath(w.checkpoint, s));
    }
  } else {
    engines.emplace_back(w.task, w.checkpoint);
  }
  const SetupSteps steps = ReplaySetupSteps(engines, w.factory);
  layer.push_back({"setup.model_build_s", steps.model_build_s, "s"});
  layer.push_back({"setup.checkpoint_load_s", steps.checkpoint_load_s, "s"});
  layer.push_back({"setup.prepack_enroll_s", steps.prepack_enroll_s, "s"});
  layer.push_back({"gen.lateness_p99_ms", Quantile(lateness, 0.99), "ms"});
  layer.push_back({"gen.lateness_max_ms", MaxOf(lateness), "ms"});

  // Coverage: the directly timed spans (submit, queue, compute) over the
  // request's wall time from send to ready.
  double covered = 0.0, wall = 0.0;
  for (const RequestSample& s : traced.samples) {
    if (!s.ok) continue;
    covered += MsBetween(s.sent, s.submitted) +
               (s.queue_us + s.compute_us) / 1000.0;
    wall += MsBetween(s.sent, s.ready);
  }
  layer.push_back({"trace.coverage", wall > 0.0 ? covered / wall : 0.0,
                   "ratio"});
  const double base = Median(m.latency_ms);
  layer.push_back(
      {"trace.overhead_pct",
       base > 0.0 ? 100.0 * (Median(tm.latency_ms) - base) / base : 0.0,
       "%"});
  outcome->valid =
      outcome->valid && Quantile(lateness, 0.99) <= kLatenessLimitMs;
  return true;
}

// --------------------------------------------------------------------------
// fleet_tick: 256 district sessions on one router, closed tick loop.
// --------------------------------------------------------------------------
struct Fleet {
  // Declared before the manager: the router must outlive it.
  std::unique_ptr<serve::ForecastRouter> router;
  std::unique_ptr<serve::SessionManager> manager;
};

struct FleetWorkload {
  data::TrafficDataset dataset;
  train::ForecastTask task;
  std::vector<std::string> ids;
  std::vector<int64_t> offsets;    // series row of tick 0, per session
  std::vector<int64_t> open_tick;  // tick the session joins at
  std::vector<bool> warm;
  std::unordered_map<std::string, size_t> index;
  std::string dcrnn_ckpt, stgcn_ckpt;
  std::unique_ptr<train::ForecastModel> dcrnn_ref;
  int64_t steps = 0;

  /// Raw (N,) frame of session i at absolute tick `tick` (zero-copy).
  tn::Tensor Frame(size_t i, int64_t tick) const {
    const int64_t row = (offsets[i] + tick) % steps;
    return dataset.traffic().flow.Alias(row * task.num_nodes,
                                        {task.num_nodes});
  }

  /// The (T, N, F) window session i holds after ingesting `tick`, built
  /// with the session's own feature derivation.
  tn::Tensor Window(size_t i, int64_t tick) const {
    const int64_t n = task.num_nodes, t_hist = task.history;
    const int64_t spd = task.steps_per_day;
    tn::Tensor x({t_hist, n, 3});
    for (int64_t s = 0; s < t_hist; ++s) {
      const int64_t abs_tick = tick - t_hist + 1 + s;
      const float tod =
          static_cast<float>(abs_tick % spd) / static_cast<float>(spd);
      const float dow = static_cast<float>((abs_tick / spd) % 7) / 7.0f;
      const float* raw = Frame(i, abs_tick).data();
      for (int64_t j = 0; j < n; ++j) {
        float* dst = x.data() + (s * n + j) * 3;
        dst[0] = (raw[j] - task.scaler_mean) / task.scaler_std;
        dst[1] = tod;
        dst[2] = dow;
      }
    }
    return x;
  }
};

train::ZooConfig FleetZoo() {
  train::ZooConfig zoo;
  zoo.hidden_dim = kFleetHidden;
  return zoo;
}

bool PrepareFleet(const Args& args, const std::string& ckpt_dir,
                  FleetWorkload* w) {
  data::DatasetSpec spec = data::DatasetSpec::Pems08Like(
      static_cast<double>(kFleetNodes) / 170.0 + 1e-6, 14, args.seed);
  w->dataset = data::TrafficDataset::Generate(spec);
  w->task = train::ForecastTask::FromDataset(w->dataset);
  w->task.horizon = kFleetHorizon;
  w->steps = w->dataset.num_steps();
  Rng rng(args.seed * 7919 + 3);
  for (int i = 0; i < kFleetSessions; ++i) {
    w->ids.push_back("district-" + std::to_string(i));
    w->offsets.push_back(static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(w->steps))));
    // Sessions join over the first kResyncEvery ticks, which spreads the
    // warm resyncs evenly over the ticks instead of firing them at once.
    w->open_tick.push_back(i % kResyncEvery);
    w->warm.push_back(i % kFleetWarmEvery != 0);
    w->index[w->ids.back()] = static_cast<size_t>(i);
  }
  const train::ZooConfig zoo = FleetZoo();
  auto dcrnn = train::MakeNeuralModel("DCRNN", w->task, zoo);
  auto stgcn = train::MakeNeuralModel("STGCN", w->task, zoo);
  w->dcrnn_ckpt = ckpt_dir + "/dcrnn.ckpt";
  w->stgcn_ckpt = ckpt_dir + "/stgcn.ckpt";
  if (!SaveModule(*dcrnn, w->dcrnn_ckpt).ok() ||
      !SaveModule(*stgcn, w->stgcn_ckpt).ok()) {
    return false;
  }
  w->dcrnn_ref = train::MakeNeuralModel("DCRNN", w->task, zoo);
  return train::LoadCheckpoint(dynamic_cast<nn::Module*>(w->dcrnn_ref.get()),
                               w->dcrnn_ckpt)
      .ok();
}

/// First tick after priming: every session's ring is full.
constexpr int64_t kPrimeTicks = 2 * kResyncEvery;

/// Router + models + sessions, primed through kPrimeTicks ticks and one
/// ForecastAll. Returns an empty fleet on failure.
Fleet SetUpFleet(const FleetWorkload& w) {
  Fleet fleet;
  serve::RouterOptions options;
  options.num_stitchers = 1;
  options.placement = serve::Placement::kPartition;
  options.thread_budget = core::HardwareThreads();
  auto created = serve::ForecastRouter::Create(options);
  if (!created.ok()) return {};
  fleet.router = std::move(created).ValueOrDie();
  const train::ZooConfig zoo = FleetZoo();
  if (!fleet.router
           ->AddModel("dcrnn", w.task, serve::ZooFactory("DCRNN", zoo),
                      w.dcrnn_ckpt)
           .ok() ||
      !fleet.router
           ->AddModel("stgcn", w.task, serve::ZooFactory("STGCN", zoo),
                      w.stgcn_ckpt)
           .ok()) {
    return {};
  }
  fleet.manager = std::make_unique<serve::SessionManager>(fleet.router.get());
  std::vector<std::string> open;
  std::vector<size_t> open_idx;
  for (int64_t tick = 0; tick < kPrimeTicks; ++tick) {
    for (size_t i = 0; i < w.ids.size(); ++i) {
      if (w.open_tick[i] != tick) continue;
      serve::SessionOptions so;
      so.model = w.warm[i] ? "dcrnn" : "stgcn";
      so.start_tick = tick;
      so.warm_state = w.warm[i];
      so.resync_every = w.warm[i] ? kResyncEvery : 0;
      if (!fleet.manager->Open(w.ids[i], so).ok()) return {};
      open.push_back(w.ids[i]);
      open_idx.push_back(i);
    }
    std::vector<tn::Tensor> frames;
    for (size_t i : open_idx) frames.push_back(w.Frame(i, tick));
    for (const Status& s : fleet.manager->AppendMany(open, tick, frames)) {
      if (!s.ok()) return {};
    }
  }
  for (const auto& [id, r] : fleet.manager->ForecastAll()) {
    if (!r.status.ok()) return {};
  }
  return fleet;
}

int64_t TotalResyncs(const FleetWorkload& w, serve::SessionManager* manager) {
  int64_t total = 0;
  for (const std::string& id : w.ids) {
    auto info = manager->SessionInfo(id);
    if (info.ok()) total += info.ValueOrDie().resyncs;
  }
  return total;
}

struct TickLog {
  std::vector<double> tick_ms, append_ms, forecast_ms;
};

/// Runs closed ticks from *tick for `seconds` of wall time (checks
/// included, tick timing excluded from them). A session fails a tick when
/// its append or its forecast fails; failures land in `outcome`.
void RunTicks(const FleetWorkload& w, Fleet* fleet, int team, double seconds,
              int64_t* tick, SpanLog* spans, TickLog* log, Outcome* outcome) {
  serve::SessionManager* manager = fleet->manager.get();
  const Clock::time_point start = Clock::now();
  std::vector<tn::Tensor> frames(w.ids.size());
  while (MsBetween(start, Clock::now()) < 1000.0 * seconds) {
    for (size_t i = 0; i < w.ids.size(); ++i) frames[i] = w.Frame(i, *tick);
    const Clock::time_point t0 = Clock::now();
    std::vector<Status> statuses = manager->AppendMany(w.ids, *tick, frames);
    const Clock::time_point t1 = Clock::now();
    auto results = manager->ForecastAll();
    const Clock::time_point t2 = Clock::now();
    log->tick_ms.push_back(MsBetween(t0, t2));
    log->append_ms.push_back(MsBetween(t0, t1));
    log->forecast_ms.push_back(MsBetween(t1, t2));
    if (spans != nullptr) {
      const int64_t root = spans->Add("tick", *tick, -1, t0, t2);
      spans->Add("session.append_many", *tick, root, t0, t1);
      spans->Add("session.forecast_all", *tick, root, t1, t2);
    }
    const size_t n = w.ids.size();
    std::vector<const serve::ForecastResponse*> by_index(n, nullptr);
    for (const auto& [id, r] : results) by_index[w.index.at(id)] = &r;
    outcome->attempted += static_cast<int64_t>(n);
    for (size_t i = 0; i < n; ++i) {
      const bool ok = statuses[i].ok() && by_index[i] != nullptr &&
                      by_index[i]->status.ok();
      outcome->failed += ok ? 0 : 1;
    }

    if (*tick % kFleetCheckEvery == 0) {
      // Off the timed path: one windowed session against a per-session
      // Forecast, and two warm sessions whose resync fired this tick
      // against a cold full-window forward.
      const size_t windowed =
          static_cast<size_t>(*tick / kFleetCheckEvery * kFleetWarmEvery) % n;
      std::vector<size_t> warm_checks;
      for (size_t i = 0; i < n && warm_checks.size() < 2; ++i) {
        const size_t k = (i + static_cast<size_t>(*tick) * 5) % n;
        if (w.warm[k] && (*tick - w.open_tick[k] + 1) % kResyncEvery == 0) {
          warm_checks.push_back(k);
        }
      }
      auto check = [&](size_t i, const tn::Tensor& ref, double tol) {
        outcome->checked += 1;
        const serve::ForecastResponse* got = by_index[i];
        if (got == nullptr || !got->status.ok() ||
            !Matches(got->forecast, ref, tol * w.task.scaler_std)) {
          outcome->mismatches += 1;
        }
      };
      serve::ForecastResponse single = manager->Forecast(w.ids[windowed]);
      check(windowed, single.forecast, 0.0);
      for (size_t k : warm_checks) {
        check(k,
                 ReferenceForward(w.dcrnn_ref.get(), w.Window(k, *tick), team),
                 1e-5);
      }
    }
    *tick += 1;
  }
}

bool RunFleetWorkload(const Args& args, const std::string& ckpt_dir,
                      Outcome* outcome) {
  FleetWorkload w;
  if (!PrepareFleet(args, ckpt_dir, &w)) {
    std::fprintf(stderr, "fleet preparation failed\n");
    return false;
  }
  // As in the request workloads, the first set-up serves the run and
  // the rest are timed after it.
  RecordMemoryBaseline(outcome);
  std::vector<double> setup_s;
  Fleet fleet;
  auto set_up = [&] {
    fleet = Fleet();
    Clock::time_point t0 = Clock::now();
    fleet = SetUpFleet(w);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (fleet.manager == nullptr) {
      std::fprintf(stderr, "fleet bring-up failed\n");
    }
    return fleet.manager != nullptr;
  };
  if (!set_up()) return false;
  const serve::RouterStats fleet_stats = fleet.router->Stats();
  const int team = static_cast<int>(fleet_stats.engines[0].team_size);
  const int64_t warm_count =
      std::count(w.warm.begin(), w.warm.end(), true);
  const int64_t windowed_count =
      static_cast<int64_t>(w.ids.size()) - warm_count;
  outcome->detail.push_back({"sessions", std::to_string(w.ids.size())});
  outcome->detail.push_back({"warm_sessions", std::to_string(warm_count)});
  outcome->detail.push_back({"engine_team_size", std::to_string(team)});

  int64_t tick = kPrimeTicks;
  const double untraced_s = args.trace ? args.seconds / 2.0 : args.seconds;
  TickLog log;
  RunTicks(w, &fleet, team, untraced_s, &tick, nullptr, &log, outcome);
  const double rss_mb = PeakRssMb();
  auto session_ticks_per_s = [&](const TickLog& l) {
    double total_ms = 0.0;
    for (double ms : l.tick_ms) total_ms += ms;
    return total_ms > 0.0 ? 1000.0 * static_cast<double>(w.ids.size()) *
                                static_cast<double>(l.tick_ms.size()) /
                                total_ms
                          : 0.0;
  };
  outcome->detail.push_back(
      {"tick_samples", std::to_string(log.tick_ms.size())});
  outcome->detail.push_back({"tick_ms", QuantilesJson(log.tick_ms)});
  if (!args.trace) {
    for (int r = 1; r < kSetupRepeats; ++r) {
      if (!set_up()) return false;
    }
    outcome->e2e = {
        {"p50_ms", Median(log.tick_ms), "ms"},
        {"p90_ms", Quantile(log.tick_ms, 0.90), "ms"},
        {"throughput", session_ticks_per_s(log), "1/s"},
        {"setup_s", Median(setup_s), "s"},
        {"rss_mb", rss_mb, "MB"},
    };
    return true;
  }

  // Traced half, then the replays of the tick's batches on the route's
  // engines.
  serve::SessionManager* manager = fleet.manager.get();
  const serve::SessionManagerStats stats_before = manager->Stats();
  const serve::RouterStats router_before = fleet.router->Stats();
  const int64_t resyncs_before = TotalResyncs(w, manager);
  outcome->spans = std::make_unique<SpanLog>(Clock::now());
  SpanLog* spans = outcome->spans.get();
  TickLog traced;
  RunTicks(w, &fleet, team, args.seconds - untraced_s, &tick, spans, &traced,
           outcome);
  const serve::SessionManagerStats stats_after = manager->Stats();
  const serve::RouterStats router_after = fleet.router->Stats();
  const int64_t ticks = static_cast<int64_t>(traced.tick_ms.size());

  auto dcrnn_route = fleet.router->RouteFor("dcrnn");
  auto stgcn_route = fleet.router->RouteFor("stgcn");
  serve::ForecastEngine* dcrnn = dcrnn_route.ValueOrDie().engines[0];
  serve::ForecastEngine* stgcn = stgcn_route.ValueOrDie().engines[0];
  std::vector<std::unique_ptr<train::StreamState>> states;
  std::vector<train::StreamState*> state_ptrs;
  std::vector<const train::StreamState*> const_ptrs;
  const int64_t n = w.task.num_nodes;
  tn::Tensor frames({warm_count, n, 3});
  std::vector<tn::Tensor> windows;
  for (size_t i = 0, k = 0; i < w.ids.size(); ++i) {
    tn::Tensor window = w.Window(i, tick - 1);
    if (!w.warm[i]) {
      windows.push_back(window);
      continue;
    }
    states.push_back(dcrnn->NewStreamState());
    state_ptrs.push_back(states.back().get());
    const_ptrs.push_back(states.back().get());
    std::memcpy(frames.data() + static_cast<int64_t>(k++) * n * 3,
                window.data() + (w.task.history - 1) * n * 3,
                static_cast<size_t>(n * 3) * sizeof(float));
  }
  const int reps = 9;
  const double advance = MedianMs(reps, [&] {
    dcrnn->AdvanceStateBatch(state_ptrs, frames);
  });
  const double forecast_state = MedianMs(reps, [&] {
    volatile bool ok = dcrnn->ForecastFromStateBatch(const_ptrs).status.ok();
    (void)ok;
  });
  tn::Tensor packed = tn::PackBatch(windows);
  const double submit_batch = MedianMs(reps, [&] {
    volatile bool ok = stgcn->SubmitBatch(packed).status.ok();
    (void)ok;
  });
  const double pack_ms = ReplayPackBatch(windows[0], windowed_count);

  const double append_p50 = Median(spans->DurationsMs("session.append_many"));
  const double forecast_p50 =
      Median(spans->DurationsMs("session.forecast_all"));
  const std::vector<double> append = spans->DurationsMs("session.append_many");
  const std::vector<double> forecast =
      spans->DurationsMs("session.forecast_all");
  const double batched = static_cast<double>(
      stats_after.batch.batched_forecasts -
      stats_before.batch.batched_forecasts);
  const double batch_sum = static_cast<double>(
      stats_after.batch.batch_size_sum - stats_before.batch.batch_size_sum);
  const double hits = static_cast<double>(router_after.total.prepack.hits -
                                          router_before.total.prepack.hits);
  const double misses =
      static_cast<double>(router_after.total.prepack.misses -
                          router_before.total.prepack.misses);

  std::vector<Metric>& layer = outcome->layer;
  layer.push_back({"router.submit_us", 0.0, "us"});
  layer.push_back({"router.stitch_ms", 0.0, "ms"});
  layer.push_back({"router.scratch_buffers", 0.0, "count"});
  for (const char* name :
       {"engine.queue_wait_p50_ms", "engine.queue_wait_p99_ms",
        "engine.compute_p50_ms", "engine.compute_p99_ms"}) {
    layer.push_back({name, 0.0, "ms"});
  }
  layer.push_back({"engine.batch_size_mean", 0.0, "count"});
  layer.push_back({"engine.batch_size_max", 0.0, "count"});
  layer.push_back({"engine.batches",
                   static_cast<double>(router_after.total.batches -
                                       router_before.total.batches),
                   "count"});
  layer.push_back({"engine.handoff_ms", 0.0, "ms"});
  layer.push_back({"engine.prepack_hit_ratio",
                   hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
                   "ratio"});
  layer.push_back({"engine.prepack_bytes",
                   static_cast<double>(router_after.total.prepack.bytes),
                   "B"});
  layer.push_back({"engine.advance_batch_ms", advance, "ms"});
  layer.push_back({"engine.forecast_state_batch_ms", forecast_state, "ms"});
  layer.push_back({"engine.submit_batch_ms", submit_batch, "ms"});
  layer.push_back({"session.append_many_p50_ms", append_p50, "ms"});
  layer.push_back({"session.append_many_p99_ms", Quantile(append, 0.99),
                   "ms"});
  layer.push_back({"session.forecast_all_p50_ms", forecast_p50, "ms"});
  layer.push_back({"session.forecast_all_p99_ms", Quantile(forecast, 0.99),
                   "ms"});
  layer.push_back({"session.append_self_ms", append_p50 - advance, "ms"});
  layer.push_back({"session.forecast_self_ms",
                   forecast_p50 - (forecast_state + submit_batch + pack_ms),
                   "ms"});
  layer.push_back({"session.batch_occupancy",
                   batched > 0.0 ? batch_sum / batched : 0.0, "count"});
  layer.push_back(
      {"session.resyncs_per_tick",
       ticks > 0 ? static_cast<double>(TotalResyncs(w, manager) -
                                       resyncs_before) /
                       static_cast<double>(ticks)
                 : 0.0,
       "count"});
  for (const char* name :
       {"dyhsl.forward_b1_ms", "dyhsl.forward_batch_ms", "dyhsl.encoder_ms",
        "dyhsl.dhsl_ms", "dyhsl.igc_ms"}) {
    layer.push_back({name, 0.0, "ms"});
  }
  layer.push_back({"dyhsl.coverage", 0.0, "ratio"});
  layer.push_back({"stgcn.shard_forward_ms", 0.0, "ms"});
  // Dominant shapes: a DCRNN diffusion-conv projection over the warm
  // fleet's (B*N, F+H) rows and the forward transition over (B, N, F+H).
  const int64_t in_dim = 3 + kFleetHidden;
  AddTensorMetrics(
      ReplayTensor(warm_count * n, in_dim, 2 * kFleetHidden,
                   w.task.spatial_adj.RowNormalized(), warm_count, in_dim,
                   team, args.seed),
      pack_ms, &layer);
  std::vector<std::pair<train::ForecastTask, std::string>> engines = {
      {w.task, w.dcrnn_ckpt}};
  SetupSteps steps =
      ReplaySetupSteps(engines, serve::ZooFactory("DCRNN", FleetZoo()));
  const SetupSteps stgcn_steps = ReplaySetupSteps(
      {{w.task, w.stgcn_ckpt}}, serve::ZooFactory("STGCN", FleetZoo()));
  layer.push_back({"setup.model_build_s",
                   steps.model_build_s + stgcn_steps.model_build_s, "s"});
  layer.push_back(
      {"setup.checkpoint_load_s",
       steps.checkpoint_load_s + stgcn_steps.checkpoint_load_s, "s"});
  layer.push_back(
      {"setup.prepack_enroll_s",
       steps.prepack_enroll_s + stgcn_steps.prepack_enroll_s, "s"});
  layer.push_back({"gen.lateness_p99_ms", 0.0, "ms"});
  layer.push_back({"gen.lateness_max_ms", 0.0, "ms"});
  // Coverage: the engine calls replayed at the tick's shapes over the
  // tick they sit in.
  const double engine_ms = advance + forecast_state + submit_batch + pack_ms;
  const double tick_p50 = Median(traced.tick_ms);
  layer.push_back({"trace.coverage",
                   tick_p50 > 0.0 ? engine_ms / tick_p50 : 0.0, "ratio"});
  const double base = Median(log.tick_ms);
  layer.push_back(
      {"trace.overhead_pct",
       base > 0.0 ? 100.0 * (tick_p50 - base) / base : 0.0, "%"});
  outcome->detail.push_back(
      {"traced_throughput", JsonNumber(session_ticks_per_s(traced))});
  return true;
}

// --------------------------------------------------------------------------
// Entry point.
// --------------------------------------------------------------------------
bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--calibrate") {
      args->calibrate = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return (args->workload == "requests_dyhsl" ||
          args->workload == "requests_metro" ||
          args->workload == "fleet_tick") &&
         args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload requests_dyhsl|"
                 "requests_metro|fleet_tick --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--git-sha SHA] [--calibrate]\n");
    return 2;
  }
  const int omp_threads = ConfigureParallelism();
  namespace fs = std::filesystem;
  const std::string ckpt_dir =
      args.out_dir + "/ckpt-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(ckpt_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", ckpt_dir.c_str());
    return 1;
  }

  Outcome outcome;
  const bool ran = args.workload == "fleet_tick"
                       ? RunFleetWorkload(args, ckpt_dir, &outcome)
                       : RunRequestWorkload(args, ckpt_dir, &outcome);
  fs::remove_all(ckpt_dir, ec);
  if (!ran) return 1;
  if (args.calibrate) return 0;

  outcome.failed += outcome.mismatches;
  const bool correct = outcome.checked > 0 && outcome.mismatches == 0;
  if (!args.trace) {
    const double attempted =
        static_cast<double>(std::max<int64_t>(outcome.attempted, 1));
    outcome.e2e.push_back(
        {"success_rate",
         1.0 - static_cast<double>(outcome.failed) / attempted, "ratio"});
  }

  // Run record.
  const std::string stem = args.out_dir + "/" + args.workload + "-s" +
                           std::to_string(args.seed) + "-t" +
                           (args.trace ? "1" : "0");
  std::string record = "{\"workload\": " + JsonString(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + JsonNumber(args.seconds) +
                       ", \"trace\": " + (args.trace ? "true" : "false") +
                       ", \"host\": " + HostJson(args, omp_threads) +
                       ", \"correct\": " + (correct ? "true" : "false") +
                       ", \"valid\": " + (outcome.valid ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(outcome.attempted) +
                       ", \"failed\": " + std::to_string(outcome.failed) +
                       ", \"checked\": " + std::to_string(outcome.checked) +
                       ", \"bit_exact\": " + std::to_string(outcome.bit_exact) +
                       ", \"mismatches\": " +
                       std::to_string(outcome.mismatches);
  for (const auto& [key, value] : outcome.detail) {
    record += ", " + JsonString(key) + ": " + value;
  }
  record += ", \"metrics\": " +
            MetricsJson(args.trace ? outcome.layer : outcome.e2e) + "}\n";
  if (std::FILE* out = std::fopen((stem + ".json").c_str(), "w")) {
    std::fputs(record.c_str(), out);
    std::fclose(out);
  }
  if (outcome.spans != nullptr) {
    outcome.spans->Write(args.out_dir + "/" + args.workload + "-s" +
                         std::to_string(args.seed) + ".spans.json");
  }

  if (!outcome.valid) {
    std::fprintf(stderr,
                 "the generator fell behind its schedule (p99 lateness > "
                 "%.1f ms): run invalid, no result\n",
                 kLatenessLimitMs);
    return 3;
  }
  const std::vector<Metric>& metrics = args.trace ? outcome.layer : outcome.e2e;
  std::printf("%s seed=%llu %s: checked %lld forecasts, %lld mismatches\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced",
              static_cast<long long>(outcome.checked),
              static_cast<long long>(outcome.mismatches));
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(outcome.attempted, 1)),
              static_cast<long long>(outcome.failed),
              MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace dyhsl::perfbench

int main(int argc, char** argv) { return dyhsl::perfbench::Main(argc, argv); }
