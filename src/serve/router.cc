#include "src/serve/router.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/workspace.h"
#include "src/train/checkpoint.h"

namespace dyhsl::serve {

ScratchPool::ScratchPool(int64_t numel) : state_(std::make_shared<State>()) {
  DYHSL_CHECK_GE(numel, 1);
  state_->numel = numel;
}

tensor::Tensor ScratchPool::Acquire(tensor::Shape shape) {
  DYHSL_CHECK_EQ(tensor::NumElements(shape), state_->numel);
  std::shared_ptr<float[]> base;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (!state_->free_list.empty()) {
      base = std::move(state_->free_list.back());
      state_->free_list.pop_back();
    } else {
      state_->allocated += 1;
    }
  }
  if (base == nullptr) {
    // Always heap: pooled buffers outlive any step scope by design.
    tensor::WorkspaceBypass bypass;
    base = tensor::AllocateStorage(state_->numel);
  }
  // Hand out a fresh handle whose deleter returns the buffer. It captures
  // the pool state (not the pool object), so a return that races pool
  // destruction lands in a free list that is simply freed afterwards.
  std::shared_ptr<State> state = state_;
  std::shared_ptr<float[]> handle(
      base.get(), [state, base](float*) mutable {
        std::lock_guard<std::mutex> lock(state->mu);
        state->free_list.push_back(std::move(base));
      });
  return tensor::Tensor::FromStorage(std::move(handle), std::move(shape));
}

int64_t ScratchPool::allocated() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->allocated;
}

int64_t ScratchPool::available() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return static_cast<int64_t>(state_->free_list.size());
}

Result<std::unique_ptr<ForecastRouter>> ForecastRouter::Create(
    const RouterOptions& options) {
  if (options.num_stitchers < 1) {
    return Status::InvalidArgument("RouterOptions.num_stitchers must be >= 1");
  }
  if (options.thread_budget < 0) {
    return Status::InvalidArgument("RouterOptions.thread_budget must be >= 0");
  }
  std::unique_ptr<ForecastRouter> router(new ForecastRouter(options));
  for (int64_t s = 0; s < options.num_stitchers; ++s) {
    router->stitchers_.emplace_back(
        [raw = router.get()] { raw->StitcherLoop(); });
  }
  return router;
}

ForecastRouter::ForecastRouter(const RouterOptions& options)
    : options_(options) {}

ForecastRouter::~ForecastRouter() { Shutdown(); }

void ForecastRouter::Shutdown() {
  // Stop accepting requests, then shut the engines down *first*: every
  // already-fanned-out request was accepted by its engines before
  // stopping_ flipped (Submit fans out under mu_), and Engine::Shutdown
  // serves what its queue holds before it returns. The
  // stitchers then drain the job queue against already-resolved futures —
  // no in-flight promise is ever abandoned.
  std::vector<std::thread> claimed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    claimed.swap(stitchers_);
    for (auto& [name, entry] : models_) {
      for (auto& engine : entry.engines) engine->Shutdown();
    }
  }
  cv_.notify_all();
  for (std::thread& stitcher : claimed) {
    if (stitcher.joinable()) stitcher.join();
  }
}

EngineOptions ForecastRouter::PlaceEngineOptions(const EngineOptions& base,
                                                 int64_t engine_index,
                                                 int64_t num_engines) const {
  EngineOptions placed = base;
  if (options_.placement == Placement::kInherit) {
    // A model's shards run concurrently, so an auto-sized engine takes
    // an equal slice of the creator's team rather than the whole team:
    // two shards on four threads run two-thread teams side by side
    // instead of time-slicing two four-thread teams.
    if (placed.team_size == 0) {
      const int slice =
          std::max<int>(1, core::TeamThreads() / static_cast<int>(num_engines));
      placed.team_size = core::ThreadBudget::Partition(
                             slice, static_cast<int>(base.num_workers))
                             .team_size;
    }
    return placed;
  }
  const int budget =
      options_.thread_budget > 0 ? static_cast<int>(options_.thread_budget)
                                 : core::HardwareThreads();
  // Shards are the parallel unit: each engine gets an equal slice of the
  // budget, and its workers split the slice (workers x team <= slice).
  const int slice = std::max<int>(1, budget / static_cast<int>(num_engines));
  const core::ThreadBudget engine_budget = core::ThreadBudget::Partition(
      slice, static_cast<int>(base.num_workers));
  placed.num_workers = engine_budget.num_workers;
  if (placed.team_size == 0) placed.team_size = engine_budget.team_size;
  if (options_.placement == Placement::kPinned) {
    // Engine i owns the i-th contiguous slice of the cores this process
    // may run on. More engines than cores wraps around — engines then
    // share cores but still never oversubscribe their slices.
    const std::vector<int> cores = core::AvailableCores();
    placed.pin_cores.clear();
    placed.pin_cores.reserve(static_cast<size_t>(slice));
    for (int c = 0; c < slice; ++c) {
      placed.pin_cores.push_back(
          cores[static_cast<size_t>(engine_index * slice + c) % cores.size()]);
    }
  }
  return placed;
}

Status ForecastRouter::AddEntry(const std::string& name, ModelEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return Status::Unavailable("ForecastRouter is shut down");
  }
  if (!models_.emplace(name, std::move(entry)).second) {
    return Status::AlreadyExists("model '" + name + "' already registered");
  }
  return Status::OK();
}

Status ForecastRouter::AddModel(const std::string& name,
                                const train::ForecastTask& task,
                                const ModelFactory& factory,
                                const std::string& checkpoint_path,
                                const EngineOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  auto created = ForecastEngine::Create(
      task, factory, checkpoint_path,
      PlaceEngineOptions(options, /*engine_index=*/0, /*num_engines=*/1));
  if (!created.ok()) return created.status();

  ModelEntry entry;
  entry.name = name;
  entry.num_nodes = task.num_nodes;
  entry.history = task.history;
  entry.horizon = task.horizon;
  entry.input_dim = task.input_dim;
  entry.sharded = false;
  // A well-formed single "shard" owning every sensor with no halo, so
  // the ShardSpec invariants (locals/owned_offset) hold even though the
  // unsharded fast paths never gather or stitch through it.
  graph::ShardSpec whole;
  whole.shard_id = 0;
  whole.begin = 0;
  whole.end = task.num_nodes;
  whole.locals.resize(task.num_nodes);
  for (int64_t i = 0; i < task.num_nodes; ++i) whole.locals[i] = i;
  whole.owned_offset = 0;
  entry.shards.push_back(std::move(whole));
  entry.engines.push_back(std::move(created).ValueOrDie());
  return AddEntry(name, std::move(entry));
}

Status ForecastRouter::AddShardedModel(const std::string& name,
                                       const train::ForecastTask& task,
                                       const graph::ShardPlan& plan,
                                       const ModelFactory& factory,
                                       const std::string& checkpoint_prefix,
                                       const EngineOptions& options) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (plan.num_nodes() != task.num_nodes) {
    return Status::InvalidArgument(
        "shard plan covers " + std::to_string(plan.num_nodes()) +
        " sensors, task has " + std::to_string(task.num_nodes));
  }
  if (!checkpoint_prefix.empty()) {
    // Refuse an inconsistent family up front, before any engine exists.
    auto validated = train::ShardCheckpointSet::Validate(checkpoint_prefix,
                                                         plan);
    if (!validated.ok()) return validated.status();
  }

  ModelEntry entry;
  entry.name = name;
  entry.num_nodes = task.num_nodes;
  entry.history = task.history;
  entry.horizon = task.horizon;
  entry.input_dim = task.input_dim;
  entry.sharded = true;
  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    const graph::ShardSpec& shard = plan.shard(s);
    const std::string path =
        checkpoint_prefix.empty()
            ? std::string()
            : train::ShardCheckpointSet::ShardPath(checkpoint_prefix, s);
    auto created = ForecastEngine::Create(
        train::ShardTask(task, shard), factory, path,
        PlaceEngineOptions(options, s, plan.num_shards()));
    if (!created.ok()) return created.status();
    entry.slice_pools.emplace_back(task.history * shard.num_local() *
                                   task.input_dim);
    entry.shards.push_back(shard);
    entry.engines.push_back(std::move(created).ValueOrDie());
  }
  return AddEntry(name, std::move(entry));
}

namespace {

// Gathers one shard's local columns of a global (T, N, F) window into the
// (T, L, F) slice `out` (a pooled scratch buffer): the owned block is one
// contiguous copy per step, the halo columns (before and after it) follow
// one node at a time.
void GatherShardWindow(const tensor::Tensor& window,
                       const graph::ShardSpec& shard, tensor::Tensor* out) {
  const int64_t t_steps = window.size(0);
  const int64_t n = window.size(1);
  const int64_t f = window.size(2);
  const int64_t local = shard.num_local();
  const int64_t owned = shard.owned_count();
  const int64_t offset = shard.owned_offset;
  const float* src = window.data();
  float* dst = out->data();
  for (int64_t t = 0; t < t_steps; ++t) {
    const float* src_t = src + t * n * f;
    float* dst_t = dst + t * local * f;
    for (int64_t j = 0; j < offset; ++j) {
      std::memcpy(dst_t + j * f, src_t + shard.locals[j] * f,
                  static_cast<size_t>(f) * sizeof(float));
    }
    std::memcpy(dst_t + offset * f, src_t + shard.begin * f,
                static_cast<size_t>(owned * f) * sizeof(float));
    for (int64_t j = offset + owned; j < local; ++j) {
      std::memcpy(dst_t + j * f, src_t + shard.locals[j] * f,
                  static_cast<size_t>(f) * sizeof(float));
    }
  }
}

}  // namespace

std::future<ForecastResponse> ForecastRouter::Submit(RouterRequest request) {
  std::promise<ForecastResponse> promise;
  std::future<ForecastResponse> future = promise.get_future();
  auto fail = [&promise](Status status) {
    ForecastResponse response;
    response.status = std::move(status);
    promise.set_value(std::move(response));
  };

  // Phase 1, under the lock: resolve and validate. Entry pointers are
  // stable (std::map nodes) and a registered entry is immutable, so the
  // pointer stays usable after the lock drops.
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      fail(Status::Unavailable("ForecastRouter is shut down"));
      return future;
    }
    if (!request.model.empty()) {
      auto it = models_.find(request.model);
      if (it == models_.end()) {
        routing_errors_ += 1;
        fail(Status::NotFound("no model '" + request.model + "' registered"));
        return future;
      }
      entry = &it->second;
    } else if (models_.size() == 1) {
      entry = &models_.begin()->second;
    } else {
      routing_errors_ += 1;
      fail(Status::InvalidArgument(
          models_.empty() ? "no models registered"
                          : "request must name one of the " +
                                std::to_string(models_.size()) +
                                " registered models"));
      return future;
    }
    const tensor::Shape expected = {entry->history, entry->num_nodes,
                                    entry->input_dim};
    if (!request.window.defined() || request.window.shape() != expected) {
      routing_errors_ += 1;
      fail(Status::InvalidArgument(
          "request window shape " +
          (request.window.defined()
               ? tensor::ShapeToString(request.window.shape())
               : std::string("<undefined>")) +
          " != expected " + tensor::ShapeToString(expected)));
      return future;
    }
    requests_ += 1;
  }

  // Phase 2, unlocked: the per-shard column gathers are the memcpy-heavy
  // part of routing — keeping them outside mu_ lets concurrent clients
  // slice their windows in parallel. Slice buffers come from the
  // per-shard scratch pools and return there when the engines finish
  // with them, so steady-state routing allocates nothing.
  std::vector<tensor::Tensor> slices;
  if (entry->sharded) {
    slices.reserve(entry->shards.size());
    for (size_t s = 0; s < entry->shards.size(); ++s) {
      const graph::ShardSpec& shard = entry->shards[s];
      slices.push_back(entry->slice_pools[s].Acquire(
          {entry->history, shard.num_local(), entry->input_dim}));
      GatherShardWindow(request.window, shard, &slices.back());
    }
  }

  // Phase 3, under the lock again: fan out and enqueue. Shutdown also
  // takes mu_, so a job is either fully enqueued before the stitchers
  // start draining or rejected here — a promise can never be stranded.
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    requests_ -= 1;  // counted in phase 1, never fanned out
    fail(Status::Unavailable("ForecastRouter is shut down"));
    return future;
  }
  StitchJob job;
  job.entry = entry;
  job.promise = std::move(promise);
  job.shard_futures.reserve(entry->engines.size());
  if (!entry->sharded) {
    job.shard_futures.push_back(
        entry->engines[0]->Submit(ForecastRequest{std::move(request.window)}));
  } else {
    for (size_t s = 0; s < entry->engines.size(); ++s) {
      job.shard_futures.push_back(
          entry->engines[s]->Submit(ForecastRequest{std::move(slices[s])}));
    }
  }
  jobs_.push_back(std::move(job));
  cv_.notify_one();
  return future;
}

void ForecastRouter::StitcherLoop() {
  while (true) {
    StitchJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    // Waiting on engine futures must happen outside the lock, or one slow
    // shard would stall every Submit.
    Stitch(&job);
  }
}

void ForecastRouter::Stitch(StitchJob* job) {
  const ModelEntry& entry = *job->entry;
  if (!entry.sharded) {
    // Single engine: the shard response *is* the global response.
    job->promise.set_value(job->shard_futures[0].get());
    return;
  }
  ForecastResponse out;
  out.forecast = tensor::Tensor({entry.horizon, entry.num_nodes});
  for (size_t s = 0; s < job->shard_futures.size(); ++s) {
    ForecastResponse shard_response = job->shard_futures[s].get();
    if (!shard_response.status.ok()) {
      // Per-request error surfacing: this request fails with the shard's
      // Status (e.g. kUnavailable from admission control); every other
      // request keeps its own fate.
      ForecastResponse failed;
      failed.status = std::move(shard_response.status);
      job->promise.set_value(std::move(failed));
      return;
    }
    const graph::ShardSpec& shard = entry.shards[s];
    const tensor::Tensor& f = shard_response.forecast;  // (T', local)
    DYHSL_CHECK_EQ(f.size(0), entry.horizon);
    DYHSL_CHECK_EQ(f.size(1), shard.num_local());
    const int64_t owned = shard.owned_count();
    // The owned block is contiguous inside the local id space, so
    // dropping halo columns and scattering back to global order is one
    // contiguous copy per step.
    for (int64_t t = 0; t < entry.horizon; ++t) {
      std::memcpy(out.forecast.data() + t * entry.num_nodes + shard.begin,
                  f.data() + t * shard.num_local() + shard.owned_offset,
                  static_cast<size_t>(owned) * sizeof(float));
    }
    // The request's critical path: the slowest shard on every axis.
    out.batch_size = std::max(out.batch_size, shard_response.batch_size);
    out.queue_micros = std::max(out.queue_micros, shard_response.queue_micros);
    out.compute_micros =
        std::max(out.compute_micros, shard_response.compute_micros);
  }
  job->promise.set_value(std::move(out));
}

std::vector<std::string> ForecastRouter::ModelNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, entry] : models_) names.push_back(name);
  return names;
}

int64_t ForecastRouter::ShardCountOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  return it == models_.end()
             ? 0
             : static_cast<int64_t>(it->second.engines.size());
}

Result<StreamRoute> ForecastRouter::RouteFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    return Status::Unavailable("ForecastRouter is shut down");
  }
  const ModelEntry* entry = nullptr;
  if (!name.empty()) {
    auto it = models_.find(name);
    if (it == models_.end()) {
      return Status::NotFound("no model '" + name + "' registered");
    }
    entry = &it->second;
  } else if (models_.size() == 1) {
    entry = &models_.begin()->second;
  } else {
    return Status::InvalidArgument(
        models_.empty() ? "no models registered"
                        : "route must name one of the " +
                              std::to_string(models_.size()) +
                              " registered models");
  }
  StreamRoute route;
  route.model = entry->name;
  route.sharded = entry->sharded;
  route.num_nodes = entry->num_nodes;
  route.history = entry->history;
  route.horizon = entry->horizon;
  route.input_dim = entry->input_dim;
  route.shards = &entry->shards;
  route.engines.reserve(entry->engines.size());
  for (const auto& engine : entry->engines) route.engines.push_back(engine.get());
  return route;
}

int64_t ForecastRouter::ScratchAllocated(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = models_.find(name);
  if (it == models_.end()) return 0;
  int64_t total = 0;
  for (const ScratchPool& pool : it->second.slice_pools) {
    total += pool.allocated();
  }
  return total;
}

RouterStats ForecastRouter::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RouterStats stats;
  stats.requests = requests_;
  stats.routing_errors = routing_errors_;
  for (const auto& [name, entry] : models_) {
    for (size_t s = 0; s < entry.engines.size(); ++s) {
      EngineStatsEntry e;
      e.model = name;
      e.shard_id = entry.shards[s].shard_id;
      e.shard = entry.engines[s]->shard_meta();
      e.num_workers = entry.engines[s]->options().num_workers;
      e.team_size = entry.engines[s]->team_size();
      e.stats = entry.engines[s]->Snapshot();
      stats.total.requests += e.stats.requests;
      stats.total.batches += e.stats.batches;
      stats.total.rejected += e.stats.rejected;
      stats.total.queue_depth += e.stats.queue_depth;
      stats.total.streamed += e.stats.streamed;
      stats.total.batched_submits += e.stats.batched_submits;
      stats.total.batched_requests += e.stats.batched_requests;
      stats.total.batched_max =
          std::max(stats.total.batched_max, e.stats.batched_max);
      // Prepack counters sum cleanly: every engine enrolls its own
      // weights, so no panel or lookup is attributed twice.
      stats.total.prepack.panels += e.stats.prepack.panels;
      stats.total.prepack.bytes += e.stats.prepack.bytes;
      stats.total.prepack.hits += e.stats.prepack.hits;
      stats.total.prepack.misses += e.stats.prepack.misses;
      stats.total.prepack.invalidations += e.stats.prepack.invalidations;
      stats.engines.push_back(std::move(e));
    }
  }
  return stats;
}

}  // namespace dyhsl::serve
