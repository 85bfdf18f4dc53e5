#include "src/serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/core/logging.h"
#include "src/core/parallel.h"
#include "src/tensor/ops.h"
#include "src/tensor/workspace.h"

namespace dyhsl::serve {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - start).count();
}

// The calling thread's warm inference arena, shared by every engine the
// thread serves: queue workers and session threads alike run
// allocation-free once it has grown to their largest model call.
tensor::Workspace* ThreadArena() {
  thread_local tensor::Workspace arena;
  return &arena;
}

// Heap-backed copy of a model result: responses outlive the call, so they
// must not pin (or be recycled with) an arena slab.
tensor::Tensor HeapCopy(const tensor::Tensor& result) {
  tensor::Tensor copy;
  {
    tensor::WorkspaceBypass bypass;
    copy = tensor::Tensor(result.shape());
  }
  std::memcpy(copy.data(), result.data(),
              static_cast<size_t>(result.numel()) * sizeof(float));
  return copy;
}

}  // namespace

// The one preamble of every model call. Every call runs under the same
// team size — GEMM is bit-deterministic per thread count, so ForecastNow,
// SubmitBatch and the state calls reproduce the queue path exactly — and
// tape-less, with prepacked-weight lookups, allocating from the calling
// thread's warm arena. Tensors the call allocates must die before the
// scope does (results are HeapCopy'd out): leaving resets the arena and
// adds the thread's prepack hit/miss growth into this engine's stats —
// exact per-engine attribution even when one thread serves many engines.
class ForecastEngine::InferenceScope {
 public:
  explicit InferenceScope(ForecastEngine* engine)
      : engine_(engine),
        prepack_before_(tensor::PrepackCache::ThreadCounters()),
        team_(engine->worker_team_),
        workspace_(ThreadArena()) {}

  ~InferenceScope() {
    ThreadArena()->Reset();
    const tensor::PrepackCache::Stats now =
        tensor::PrepackCache::ThreadCounters();
    std::lock_guard<std::mutex> lock(engine_->mu_);
    engine_->stats_.prepack.hits += now.hits - prepack_before_.hits;
    engine_->stats_.prepack.misses += now.misses - prepack_before_.misses;
  }

  InferenceScope(const InferenceScope&) = delete;
  InferenceScope& operator=(const InferenceScope&) = delete;

 private:
  ForecastEngine* engine_;
  tensor::PrepackCache::Stats prepack_before_;
  core::TeamScope team_;
  autograd::InferenceModeGuard no_grad_;
  tensor::PrepackLookupScope prepack_;
  tensor::WorkspaceScope workspace_;
};

ModelFactory DyHslFactory(const models::DyHslConfig& config) {
  return [config](const train::ForecastTask& task) {
    return std::make_unique<models::DyHsl>(task, config);
  };
}

ModelFactory ZooFactory(const std::string& key,
                        const train::ZooConfig& config) {
  return [key, config](const train::ForecastTask& task) {
    return train::MakeNeuralModel(key, task, config);
  };
}

class ForecastEngine::Pool {
 public:
  explicit Pool(const std::vector<std::vector<int>>& pins) {
    threads_.reserve(pins.size());
    for (const std::vector<int>& cores : pins) {
      threads_.emplace_back([this, cores] { WorkerLoop(cores); });
    }
  }
  ~Pool() { Shutdown(); }
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void Push(ForecastEngine* engine, Pending pending) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(Job{engine, std::move(pending)});
    }
    cv_.notify_one();
  }

  /// Serves every queued job, then joins the workers. Idempotent.
  void Shutdown() {
    std::vector<std::thread> claimed;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      claimed.swap(threads_);
    }
    cv_.notify_all();
    for (std::thread& worker : claimed) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  struct Job {
    ForecastEngine* engine = nullptr;
    Pending pending;
  };

  void WorkerLoop(const std::vector<int>& cores) {
    // Engine-to-core placement: pin before the first kernel so the lazily
    // spawned OpenMP team inherits the mask. A failed pin is a
    // performance event, not a correctness one — log and serve unpinned.
    if (!cores.empty()) {
      Status pinned = core::PinCurrentThread(cores);
      if (!pinned.ok()) {
        DYHSL_LOG(Warning) << "engine worker pin failed: "
                           << pinned.ToString();
      }
    }
    while (true) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
        // Shutdown serves everything already queued before the exit.
        if (jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job.engine->Serve(std::move(job.pending));
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

Result<std::unique_ptr<ForecastEngine>> ForecastEngine::Create(
    const train::ForecastTask& task, const ModelFactory& factory,
    const std::string& checkpoint_path, const EngineOptions& options) {
  auto built = Build(task, factory, checkpoint_path, options);
  if (!built.ok()) return built.status();
  std::unique_ptr<ForecastEngine> engine = std::move(built).ValueOrDie();
  engine->Attach(
      NewPool(std::vector<std::vector<int>>(
          static_cast<size_t>(options.num_workers), options.pin_cores)),
      /*owned=*/true);
  return engine;
}

std::shared_ptr<ForecastEngine::Pool> ForecastEngine::NewPool(
    const std::vector<std::vector<int>>& pins) {
  return std::make_shared<Pool>(pins);
}

void ForecastEngine::ShutdownPool(Pool* pool) { pool->Shutdown(); }

void ForecastEngine::Attach(std::shared_ptr<Pool> pool, bool owned) {
  pool_ = std::move(pool);
  owns_pool_ = owned;
}

Result<std::unique_ptr<ForecastEngine>> ForecastEngine::Build(
    const train::ForecastTask& task, const ModelFactory& factory,
    const std::string& checkpoint_path, const EngineOptions& options) {
  if (options.num_workers < 1) {
    return Status::InvalidArgument("EngineOptions.num_workers must be >= 1");
  }
  if (options.max_queue < 0) {
    return Status::InvalidArgument("EngineOptions.max_queue must be >= 0");
  }
  if (options.team_size < 0) {
    return Status::InvalidArgument("EngineOptions.team_size must be >= 0");
  }
  for (int c : options.pin_cores) {
    if (c < 0) {
      return Status::InvalidArgument("EngineOptions.pin_cores has core id " +
                                     std::to_string(c) + " < 0");
    }
  }
  if (!factory) {
    return Status::InvalidArgument("ForecastEngine needs a model factory");
  }
  // The factory builds the model, which pre-computes its sparse structure
  // operators — the expensive part of bring-up, paid exactly once.
  std::unique_ptr<train::ForecastModel> model = factory(task);
  if (model == nullptr) {
    return Status::InvalidArgument("model factory returned null");
  }
  std::unique_ptr<ForecastEngine> engine(
      new ForecastEngine(task, std::move(model), options));
  if (!checkpoint_path.empty()) {
    auto* module = dynamic_cast<nn::Module*>(engine->model_.get());
    if (module == nullptr) {
      return Status::InvalidArgument(
          "model '" + engine->model_->name() +
          "' is not an nn::Module; cannot load " + checkpoint_path);
    }
    DYHSL_RETURN_NOT_OK(
        train::LoadCheckpoint(module, checkpoint_path, &engine->shard_meta_));
  }
  // Build the inference plan once, after the weights reached their final
  // bytes: every 2-D weight is prepacked before the first request.
  engine->EnrollPrepack();
  return engine;
}

Result<std::unique_ptr<ForecastEngine>> ForecastEngine::Create(
    const train::ForecastTask& task, const models::DyHslConfig& config,
    const std::string& checkpoint_path, const EngineOptions& options) {
  return Create(task, DyHslFactory(config), checkpoint_path, options);
}

ForecastEngine::ForecastEngine(const train::ForecastTask& task,
                               std::unique_ptr<train::ForecastModel> model,
                               const EngineOptions& options)
    : task_(task), options_(options), model_(std::move(model)) {
  // Capability probe, once per engine: warm-state streaming.
  streaming_ = dynamic_cast<const train::RecurrentStreamModel*>(model_.get());
  if (options_.team_size > 0) {
    worker_team_ = static_cast<int>(options_.team_size);
  } else {
    // Auto partition: the creating thread's own team budget — the
    // ConfigureParallelism default, or the enclosing TeamScope when a
    // router is placing this engine into a slice — is split across the
    // workers. One worker keeps the whole budget (legacy single-worker
    // behavior); N workers get budget/N each, never a full team apiece.
    worker_team_ = core::ThreadBudget::Partition(
                       core::TeamThreads(),
                       static_cast<int>(options_.num_workers))
                       .team_size;
  }
}

ForecastEngine::~ForecastEngine() {
  Shutdown();
  // Drop this engine's inference plan: the cache entries keep the weight
  // storage alive, so without the release a destroyed engine would pin
  // its model's weights (and their packed panels) forever.
  for (const float* ptr : prepack_ptrs_) {
    tensor::PrepackCache::Instance().Release(ptr);
  }
}

void ForecastEngine::EnrollPrepack() {
  const auto* module = dynamic_cast<const nn::Module*>(model_.get());
  if (module == nullptr) return;
  tensor::PrepackCache& cache = tensor::PrepackCache::Instance();
  // Every 2-D parameter and registered constant is a GEMM weight
  // candidate; higher-rank tensors (embeddings indexed per row, conv
  // stacks) never reach MatMul as a whole operand and are skipped.
  auto enroll = [&](const std::vector<std::pair<std::string, autograd::Variable>>&
                        named) {
    for (const auto& [name, var] : named) {
      if (!var.value().defined() || var.value().dim() != 2) continue;
      cache.Enroll(var.value());
      prepack_ptrs_.push_back(var.value().data());
    }
  };
  enroll(module->NamedParameters());
  enroll(module->NamedConstants());
}

void ForecastEngine::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    // Every request accepted before the flip is still served.
    drained_.wait(lock, [this] { return unfinished_ == 0; });
  }
  if (owns_pool_ && pool_ != nullptr) pool_->Shutdown();
}

std::future<ForecastResponse> ForecastEngine::Submit(ForecastRequest request) {
  Pending pending;
  pending.window = std::move(request.window);
  std::future<ForecastResponse> future = pending.promise.get_future();
  Enqueue(std::move(pending));
  return future;
}

void ForecastEngine::SubmitThen(ForecastRequest request,
                                ForecastCallback done) {
  DYHSL_CHECK(done != nullptr);
  Pending pending;
  pending.window = std::move(request.window);
  pending.done = std::move(done);
  Enqueue(std::move(pending));
}

void ForecastEngine::Complete(Pending* pending, ForecastResponse response) {
  if (pending->done != nullptr) {
    pending->done(std::move(response));
  } else {
    pending->promise.set_value(std::move(response));
  }
}

void ForecastEngine::Enqueue(Pending pending) {
  Status refused = CheckWindow(pending.window);
  if (refused.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      refused = Status::Unavailable("ForecastEngine is shut down");
    } else if (options_.max_queue > 0 && queued_ >= options_.max_queue) {
      // Admission control: shed load now rather than queueing past the
      // point where every response is late. The request still completes —
      // callers always get a Status, never a broken promise.
      stats_.rejected += 1;
      refused = Status::Unavailable(
          "queue full (" + std::to_string(queued_) + " waiting, "
          "max_queue " + std::to_string(options_.max_queue) + ")");
    } else {
      // Pushed under mu_, so Shutdown's wait counts it.
      queued_ += 1;
      unfinished_ += 1;
      pending.enqueued = Clock::now();
      pool_->Push(this, std::move(pending));
      return;
    }
  }
  // Outside mu_: a callback must never run under the engine lock.
  ForecastResponse response;
  response.status = std::move(refused);
  Complete(&pending, std::move(response));
}

void ForecastEngine::Serve(Pending pending) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queued_ -= 1;
    stats_.batches += 1;
    stats_.requests += 1;
  }
  const double queue_micros = MicrosSince(pending.enqueued, Clock::now());
  ForecastResponse response = ForecastOne(pending.window);
  response.queue_micros = queue_micros;
  Complete(&pending, std::move(response));
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    unfinished_ -= 1;
    drained = stopping_ && unfinished_ == 0;
  }
  if (drained) drained_.notify_all();
}

EngineStats ForecastEngine::Snapshot() const {
  // Pack inventory first, outside mu_: prepack_ptrs_ is immutable once
  // the workers start, and StatsFor takes the cache's own lock.
  const tensor::PrepackCache::Stats inventory =
      tensor::PrepackCache::Instance().StatsFor(prepack_ptrs_);
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats snapshot = stats_;
  snapshot.queue_depth = queued_;
  snapshot.prepack.panels = inventory.panels;
  snapshot.prepack.bytes = inventory.bytes;
  snapshot.prepack.invalidations = inventory.invalidations;
  return snapshot;
}

Status ForecastEngine::CheckServing() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stopping_ ? Status::Unavailable("ForecastEngine is shut down")
                   : Status::OK();
}

Status ForecastEngine::CheckWindow(const tensor::Tensor& window) const {
  const tensor::Shape expected = {task_.history, task_.num_nodes,
                                  task_.input_dim};
  if (window.defined() && window.shape() == expected) return Status::OK();
  return Status::InvalidArgument(
      "window shape " +
      (window.defined() ? tensor::ShapeToString(window.shape())
                        : std::string("<undefined>")) +
      " != expected " + tensor::ShapeToString(expected));
}

tensor::Tensor ForecastEngine::ForwardGradFree(const tensor::Tensor& windows) {
  InferenceScope scope(this);
  autograd::Variable pred = model_->Forward(windows, /*training=*/false);
  DYHSL_CHECK_EQ(pred.value().size(0), windows.size(0));
  return HeapCopy(pred.value());  // (B, T', N)
}

ForecastResponse ForecastEngine::ForecastOne(const tensor::Tensor& window) {
  ForecastResponse response;
  const Clock::time_point started = Clock::now();
  // Reshape shares the window's storage (it may be a live ring view) —
  // the forward only reads it.
  const tensor::Tensor forecasts = ForwardGradFree(
      window.Reshape({1, task_.history, task_.num_nodes, task_.input_dim}));
  response.forecast =
      forecasts.Reshape({forecasts.size(1), forecasts.size(2)});
  response.batch_size = 1;
  response.compute_micros = MicrosSince(started, Clock::now());
  return response;
}

ForecastResponse ForecastEngine::ForecastNow(const tensor::Tensor& window) {
  ForecastResponse response;
  response.status = CheckWindow(window);
  if (response.status.ok()) response.status = CheckServing();
  if (!response.status.ok()) return response;
  response = ForecastOne(window);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.requests += 1;
    stats_.streamed += 1;
  }
  return response;
}

BatchForecastResponse ForecastEngine::SubmitBatch(
    const tensor::Tensor& windows) {
  BatchForecastResponse response;
  if (!windows.defined() || windows.dim() != 4 || windows.size(0) < 1 ||
      windows.size(1) != task_.history || windows.size(2) != task_.num_nodes ||
      windows.size(3) != task_.input_dim) {
    response.status = Status::InvalidArgument(
        "batch windows shape " +
        (windows.defined() ? tensor::ShapeToString(windows.shape())
                           : std::string("<undefined>")) +
        " != expected (B, " + std::to_string(task_.history) + ", " +
        std::to_string(task_.num_nodes) + ", " +
        std::to_string(task_.input_dim) + ")");
    return response;
  }
  response.status = CheckServing();
  if (!response.status.ok()) return response;
  const Clock::time_point started = Clock::now();
  // The batch is already packed (possibly sharing ring storage at
  // B = 1) — one forward, no queue, no per-request repacking.
  response.forecasts = ForwardGradFree(windows);
  CountBatch(&response, started);
  return response;
}

std::unique_ptr<train::StreamState> ForecastEngine::NewStreamState() const {
  DYHSL_CHECK(streaming_ != nullptr);
  return streaming_->MakeStreamState();
}

void ForecastEngine::ResyncStateBatch(
    const std::vector<train::StreamState*>& states,
    const tensor::Tensor& windows) {
  DYHSL_CHECK(streaming_ != nullptr);
  if (states.empty()) return;
  InferenceScope scope(this);
  streaming_->ResyncStateBatch(states, windows);
}

void ForecastEngine::AdvanceStateBatch(
    const std::vector<train::StreamState*>& states,
    const tensor::Tensor& frames) {
  DYHSL_CHECK(streaming_ != nullptr);
  if (states.empty()) return;
  InferenceScope scope(this);
  streaming_->AdvanceStateBatch(states, frames);
}

BatchForecastResponse ForecastEngine::ForecastFromStateBatch(
    const std::vector<const train::StreamState*>& states) {
  DYHSL_CHECK(streaming_ != nullptr);
  BatchForecastResponse response;
  if (states.empty()) {
    response.status = Status::InvalidArgument("empty stream-state batch");
    return response;
  }
  response.status = CheckServing();
  if (!response.status.ok()) return response;
  const Clock::time_point started = Clock::now();
  {
    // One stacked decoder rollout; the model's result lives in the
    // arena, so it is copied onto the heap before the scope resets it.
    InferenceScope scope(this);
    response.forecasts = HeapCopy(streaming_->ForecastFromStateBatch(states));
  }
  DYHSL_CHECK_EQ(response.forecasts.size(0),
                 static_cast<int64_t>(states.size()));
  CountBatch(&response, started);
  return response;
}

void ForecastEngine::CountBatch(BatchForecastResponse* response,
                                Clock::time_point started) {
  const int64_t b = response->forecasts.size(0);
  response->batch_size = b;
  response->compute_micros = MicrosSince(started, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  stats_.requests += b;
  stats_.streamed += b;
  stats_.batched_submits += 1;
  stats_.batched_requests += b;
  stats_.batched_max = std::max(stats_.batched_max, b);
}

}  // namespace dyhsl::serve
