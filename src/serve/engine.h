// Forecast-serving engine.
//
// ForecastEngine is the query-time counterpart of the training harness:
// it builds one ForecastModel through a ModelFactory (model construction
// pre-computes and caches the sparse structure operators), loads a
// checkpoint once, keeps the ForecastTask scaler for de-normalization,
// and serves Submit() requests from a FIFO queue. Each worker thread pops
// the oldest request the moment one is waiting and serves it as its own
// grad-free B = 1 forward — tape-less (autograd::InferenceModeGuard),
// over a zero-copy view of the request's window, allocated from the
// worker's warm Workspace arena — and completes that request (its
// future, or its SubmitThen callback) as soon as its forward ends.
// Nothing waits for batch slots to fill: at one thread per forward a
// packed DyHSL or STGCN batch costs no less than its items run one by
// one (see README "Serving"; that basis is measured at team 1 only), so
// packing is left to callers that already hold several windows
// (SubmitBatch, and the batched warm carry of ForecastFromStateBatch).
// DCRNN is the exception: its packed B = 4 forward costs ~0.87x of four
// B = 1 forwards, so DCRNN callers should pack with SubmitBatch or serve
// through sessions rather than Submit.
//
// Model forwards are read-only in inference mode, so any number of
// workers may share the one model; every per-request quantity lives in
// the request/response structs. Responses are heap-backed (never
// arena-backed) so they stay valid for as long as the caller keeps them.
//
// Threading: each forward scopes its kernels to an OpenMP team of
// team_size() threads (core::TeamScope), so num_workers engines never
// multiply into workers x machine-wide teams; with
// EngineOptions::pin_cores the workers additionally pin to the engine's
// core set, making the engine the unit of placement (see
// src/core/parallel.h and the RouterOptions placement policies).
//
// An engine serves exactly one (model, sensor range); a fleet of engines
// behind a ForecastRouter (src/serve/router.h) serves many models and
// sharded networks.
//
// Status codes, and whether a caller may retry:
//  * kUnavailable: admission control shed the request (retry later) or
//    the engine is shut down (retry on another engine).
//  * kInvalidArgument: the window, batch or EngineOptions are malformed;
//    not retryable until the caller fixes them.
//  * kIoError / kNotFound from Create: the checkpoint could not be read;
//    not retryable until the file is fixed.

#ifndef DYHSL_SERVE_ENGINE_H_
#define DYHSL_SERVE_ENGINE_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/models/dyhsl.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor.h"
#include "src/train/checkpoint.h"
#include "src/train/forecast_model.h"
#include "src/train/model_zoo.h"
#include "src/train/streaming.h"

namespace dyhsl::serve {

/// \brief Builds the model an engine owns, given the (possibly
/// shard-scoped) task it must serve. The factory is invoked exactly once
/// per engine, at Create time.
using ModelFactory = std::function<std::unique_ptr<train::ForecastModel>(
    const train::ForecastTask&)>;

/// \brief Factory for a DyHSL model with the given config.
ModelFactory DyHslFactory(const models::DyHslConfig& config);

/// \brief Factory for any model-zoo key ("STGCN", "DCRNN", "DyHSL", ...;
/// see train::MakeNeuralModel).
ModelFactory ZooFactory(const std::string& key,
                        const train::ZooConfig& config = train::ZooConfig());

/// \brief One forecast query: a single scaled input window (T, N, F) in
/// the feature layout produced by TrafficDataset::MakeInput.
struct ForecastRequest {
  tensor::Tensor window;
};

/// \brief The served forecast plus per-request telemetry. `status` is
/// checked first: on failure `forecast` is undefined.
struct ForecastResponse {
  Status status;
  /// Raw-flow forecast (T', N).
  tensor::Tensor forecast;
  /// Windows in the forward that served the request: 1 from Submit and
  /// ForecastNow (SessionManager::Forecast/ForecastBatch report their
  /// pack size).
  int64_t batch_size = 0;
  /// Time from enqueue to the start of the request's forward (0 for
  /// ForecastNow, which skips the queue).
  double queue_micros = 0.0;
  /// Wall time of the request's own forward.
  double compute_micros = 0.0;
};

/// \brief Completion hook of ForecastEngine::SubmitThen. Runs exactly
/// once per request: on the worker thread that served it, or on the
/// submitting thread when the request is refused up front.
using ForecastCallback = std::function<void(ForecastResponse)>;

/// \brief Response of the pre-packed batch fast paths (SubmitBatch /
/// ForecastFromStateBatch): one status and one stacked forecast tensor
/// for the whole batch. On failure `forecasts` is undefined.
struct BatchForecastResponse {
  Status status;
  /// Raw-flow forecasts (B, T', N), heap-backed.
  tensor::Tensor forecasts;
  int64_t batch_size = 0;
  /// Wall time of the one batched forward that served the batch.
  double compute_micros = 0.0;
};

/// \brief Queueing and threading knobs.
struct EngineOptions {
  /// Worker threads, each with its own warm Workspace arena.
  int64_t num_workers = 1;
  /// Admission control: with `max_queue` > 0, a Submit() arriving while
  /// that many requests are already waiting is rejected immediately with a
  /// kUnavailable Status instead of growing the queue without bound.
  /// 0 keeps the queue unbounded.
  int64_t max_queue = 0;
  /// OpenMP team size each worker scopes its kernels to (core::TeamScope).
  /// 0 = auto: the creating thread's own team budget (core::TeamThreads()
  /// at Create time) is partitioned evenly across num_workers, so with
  /// one worker the engine keeps today's whole-machine kernels and with
  /// N workers the workers split the budget instead of each forking a
  /// full team (num_workers x team <= budget — no oversubscription).
  int64_t team_size = 0;
  /// Optional engine-to-core placement: when non-empty, every worker
  /// thread pins itself to exactly this core set before its first kernel
  /// (OpenMP team threads inherit the mask, so the whole engine is
  /// confined). A router partitioning shards across the machine fills
  /// this per engine; a failed pin logs a warning and serves unpinned.
  std::vector<int> pin_cores;
};

/// \brief Aggregate serving counters (monotonic since engine start except
/// where noted). Always read as one consistent Snapshot() — the fields
/// are updated together under the engine mutex and must never be observed
/// mid-update.
struct EngineStats {
  int64_t requests = 0;
  /// Forwards run by the queue workers: one per Submit served.
  int64_t batches = 0;
  /// Submissions rejected by max_queue admission control.
  int64_t rejected = 0;
  /// Requests waiting at snapshot time (not monotonic).
  int64_t queue_depth = 0;
  /// Requests served on the calling thread instead of the queue:
  /// ForecastNow, SubmitBatch and ForecastFromStateBatch items (counted in
  /// `requests` too). Every session forecast lands here.
  int64_t streamed = 0;
  /// Pre-packed batch fast-path calls (SubmitBatch and the batched warm
  /// forecasts), the requests they carried (counted in `requests` and
  /// `streamed` too), and the largest such batch observed.
  int64_t batched_submits = 0;
  int64_t batched_requests = 0;
  int64_t batched_max = 0;
  /// Inference-plan (weight prepack) counters for this engine's weights:
  /// `panels`/`bytes` inventory the packed panels currently held (bytes is
  /// ~the engine's 2-D weight bytes once warm), `hits`/`misses` count
  /// prepacked-operand lookups from this engine's serving calls, and
  /// `invalidations` counts checkpoint-reload drops of this engine's
  /// panels. See tensor::PrepackCache.
  tensor::PrepackCache::Stats prepack;
};

/// \brief Loads a model + checkpoint once and serves grad-free
/// forecasts. Thread-safe: Submit may be called from any thread.
class ForecastEngine {
 public:
  /// \brief Builds the model for `task` through `factory` and, when
  /// `checkpoint_path` is non-empty, restores its parameters from disk
  /// (the model must then be an nn::Module). Fails (rather than aborts)
  /// on unreadable or mismatched checkpoints.
  static Result<std::unique_ptr<ForecastEngine>> Create(
      const train::ForecastTask& task, const ModelFactory& factory,
      const std::string& checkpoint_path = "",
      const EngineOptions& options = EngineOptions());

  /// \brief Convenience overload: a DyHSL model from `config` (whose
  /// constructor pre-computes the normalized temporal operator of every
  /// pooling scale).
  static Result<std::unique_ptr<ForecastEngine>> Create(
      const train::ForecastTask& task, const models::DyHslConfig& config,
      const std::string& checkpoint_path = "",
      const EngineOptions& options = EngineOptions());

  /// Serves every accepted request, then joins the workers (if the
  /// engine owns them).
  ~ForecastEngine();

  ForecastEngine(const ForecastEngine&) = delete;
  ForecastEngine& operator=(const ForecastEngine&) = delete;

  /// \brief Enqueues one window for the next free worker, which serves
  /// it as its own B = 1 forward (bit-identical to ForecastNow over the
  /// same window). The future is always fulfilled — with a failed Status for malformed requests or
  /// an engine shutting down, never with a broken promise.
  std::future<ForecastResponse> Submit(ForecastRequest request);

  /// \brief Submit with a completion callback instead of a future: the
  /// serving worker hands the response straight to `done`, so a caller
  /// that fans one request out to several engines (ForecastRouter) joins
  /// the results without a thread of its own waiting on futures. Same
  /// queue, validation and admission control as Submit; `done` must not
  /// block, since it runs on the engine's worker.
  void SubmitThen(ForecastRequest request, ForecastCallback done);

  /// \brief Synchronous streaming fast path: one grad-free forward over
  /// `window` (T, N, F) on the *calling* thread, skipping the queue. The
  /// window may be (and in the session path is) a zero-copy ring view —
  /// it is only read. It runs the very forward the queue workers run, so
  /// the result is bit-identical to a Submit of the same window.
  /// Thread-safe and usable concurrently with Submit.
  ForecastResponse ForecastNow(const tensor::Tensor& window);

  /// \brief Synchronous pre-packed batch fast path: one grad-free
  /// forward over `windows` (B, T, N, F) on the calling thread,
  /// bypassing the queue — for callers that already hold several
  /// windows packed together. `windows` is
  /// only read (it may be a zero-copy pack of live ring views). Each
  /// batch item's forecast is bit-identical to ForecastNow over the same
  /// window: the batched kernels process every item with the same
  /// accumulation order as at B = 1. Thread-safe, usable concurrently
  /// with Submit/ForecastNow.
  BatchForecastResponse SubmitBatch(const tensor::Tensor& windows);

  /// \name Warm recurrent-state serving
  ///
  /// Available when the model implements train::RecurrentStreamModel
  /// (supports_streaming()); the calls abort otherwise. All run on the
  /// calling thread through the same preamble as ForecastNow — a
  /// ResyncStateBatch followed by a ForecastFromStateBatch of that one
  /// state is bit-identical to ForecastNow over the same window. Every
  /// call is batched: a single session resyncs or advances as a batch of
  /// one, and a session tick runs one batched resync and one batched
  /// advance per engine.
  ///
  /// ResyncStateBatch and AdvanceStateBatch return nothing and touch only
  /// the caller-owned states (the model is read-only), so they keep
  /// working after Shutdown; ForecastFromStateBatch, which serves a
  /// forecast, fails with kUnavailable then, like ForecastNow and
  /// SubmitBatch.
  /// @{
  bool supports_streaming() const { return streaming_ != nullptr; }
  std::unique_ptr<train::StreamState> NewStreamState() const;
  /// Batched cold replay: rebuilds states[i] from window i of the
  /// (B, T, N, F) stack `windows` (the layout SubmitBatch takes) in one
  /// stacked encoder pass.
  void ResyncStateBatch(const std::vector<train::StreamState*>& states,
                        const tensor::Tensor& windows);
  /// Batched warm carry: one stacked cell step / decoder rollout for B
  /// sessions ready at the same tick (train::RecurrentStreamModel's
  /// batched methods). `frames` is the (B, N, F) stack pairing frames[i]
  /// with states[i].
  void AdvanceStateBatch(const std::vector<train::StreamState*>& states,
                         const tensor::Tensor& frames);
  BatchForecastResponse ForecastFromStateBatch(
      const std::vector<const train::StreamState*>& states);
  /// @}

  /// \brief Stops accepting new requests, serves everything already
  /// queued, and joins the worker threads (the shard engines of a router
  /// share their model's workers, which the router joins). Requests made
  /// afterwards fail with kUnavailable. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  const train::ForecastTask& task() const { return task_; }
  const train::ForecastModel& model() const { return *model_; }
  /// Non-const access for analysis paths (Forward is a non-const
  /// override); do not mutate parameters while serving.
  train::ForecastModel* mutable_model() { return model_.get(); }
  const EngineOptions& options() const { return options_; }
  /// The resolved per-worker OpenMP team size (EngineOptions::team_size,
  /// or the auto partition when that was 0). Workers hold a
  /// core::TeamScope of exactly this size for their whole lifetime;
  /// num_workers * team_size() never exceeds the budget the engine was
  /// created under.
  int team_size() const { return worker_team_; }
  /// Shard metadata of the loaded checkpoint (unsharded when the engine
  /// was created without one, or from a version-1/2 file).
  const train::ShardMeta& shard_meta() const { return shard_meta_; }

  /// \brief One consistent view of every counter, taken under the engine
  /// mutex — a reader can never observe a request's `requests` increment
  /// without its `batches` increment.
  EngineStats Snapshot() const;

 private:
  struct Pending {
    tensor::Tensor window;
    /// The response goes to `done` when it is set, else to `promise`.
    std::promise<ForecastResponse> promise;
    ForecastCallback done;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// The FIFO of accepted requests and the worker threads that serve
  /// it. An engine from Create owns one; the shard engines of a sharded
  /// model share one (ForecastRouter::AddShardedModel), so while any
  /// shard of the model has a request waiting no worker of the model
  /// idles, and a stalled or slower core cannot hold the other shards'
  /// requests back.
  class Pool;
  /// RAII preamble of every model call (team size, inference mode,
  /// prepack lookup, the thread's warm arena); see engine.cc.
  class InferenceScope;
  friend class ForecastRouter;

  ForecastEngine(const train::ForecastTask& task,
                 std::unique_ptr<train::ForecastModel> model,
                 const EngineOptions& options);

  /// Create without a pool: validates `options`, builds the model, loads
  /// the checkpoint and enrolls the inference plan. The engine serves
  /// nothing queued until Attach gives it a pool.
  static Result<std::unique_ptr<ForecastEngine>> Build(
      const train::ForecastTask& task, const ModelFactory& factory,
      const std::string& checkpoint_path, const EngineOptions& options);
  /// A pool of one worker per entry of `pins`, each pinned to that core
  /// set before its first kernel (unpinned when the set is empty).
  static std::shared_ptr<Pool> NewPool(
      const std::vector<std::vector<int>>& pins);
  /// Pool::Shutdown for holders of the incomplete type (the router).
  static void ShutdownPool(Pool* pool);
  /// Sends this engine's queued requests to `pool`; an owned pool is
  /// shut down by Shutdown, a shared one by whoever shares it.
  void Attach(std::shared_ptr<Pool> pool, bool owned);
  /// Validates and enqueues `pending` (Submit and SubmitThen), or
  /// completes it at once with the refusal.
  void Enqueue(Pending pending);
  /// Hands `response` to the pending request's callback or promise.
  static void Complete(Pending* pending, ForecastResponse response);
  /// Serves one dequeued request through ForecastOne on the calling pool
  /// worker and completes it.
  void Serve(Pending pending);
  /// One forward of already validated (B, T, N, F) `windows` under the
  /// InferenceScope. Returns the heap-backed (B, T', N) forecasts;
  /// touches no counter but the prepack deltas.
  tensor::Tensor ForwardGradFree(const tensor::Tensor& windows);
  /// The B = 1 forward behind both ForecastNow and the queue workers:
  /// ForwardGradFree over a zero-copy (1, T, N, F) view of `window`.
  /// Fills `forecast`, `batch_size` and `compute_micros`.
  ForecastResponse ForecastOne(const tensor::Tensor& window);
  /// InvalidArgument unless `window` is defined with shape (T, N, F).
  Status CheckWindow(const tensor::Tensor& window) const;
  /// Unavailable once Shutdown has begun: the gate of every synchronous
  /// forecast call.
  Status CheckServing() const;
  /// Fills the batch size and compute time of a served batch `response`
  /// timed from `started`, and counts it in the stats.
  void CountBatch(BatchForecastResponse* response,
                  std::chrono::steady_clock::time_point started);
  /// Enrolls every 2-D parameter/constant of the model in the process
  /// PrepackCache (called once at Create, after the checkpoint load) and
  /// remembers the pointers for stats attribution and Release.
  void EnrollPrepack();

  train::ForecastTask task_;
  EngineOptions options_;
  std::unique_ptr<train::ForecastModel> model_;
  /// Set when model_ implements the streaming capability (DCRNN-style).
  const train::RecurrentStreamModel* streaming_ = nullptr;
  train::ShardMeta shard_meta_;
  /// Resolved OpenMP team size per worker (see team_size()).
  int worker_team_ = 1;
  /// Storage pointers of the weights this engine enrolled in the
  /// PrepackCache. Immutable once the workers start; released (and the
  /// packed panels with them) in the destructor.
  std::vector<const float*> prepack_ptrs_;

  std::shared_ptr<Pool> pool_;
  bool owns_pool_ = false;

  mutable std::mutex mu_;
  /// Signalled when the last accepted request completes after stopping_.
  std::condition_variable drained_;
  /// Accepted requests not yet picked up by a worker (admission control
  /// and EngineStats::queue_depth), and accepted requests not yet
  /// completed (Shutdown waits for 0).
  int64_t queued_ = 0;
  int64_t unfinished_ = 0;
  bool stopping_ = false;
  EngineStats stats_;
};

}  // namespace dyhsl::serve

#endif  // DYHSL_SERVE_ENGINE_H_
