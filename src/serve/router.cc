#include "src/serve/router.h"

#include <algorithm>
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
  return std::unique_ptr<ForecastRouter>(new ForecastRouter(options));
}

ForecastRouter::ForecastRouter(const RouterOptions& options)
    : options_(options) {}

ForecastRouter::~ForecastRouter() { Shutdown(); }

void ForecastRouter::Shutdown() {
  // Stop accepting requests, then shut the engines down: every
  // already-fanned-out request was accepted by its engines before
  // stopping_ flipped (Submit fans out under mu_), and Engine::Shutdown
  // serves what its queue holds before it returns, so the last shard of
  // every sharded request still runs its join — no in-flight promise is
  // ever abandoned.
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  for (auto& [name, entry] : models_) {
    for (auto& engine : entry.engines) engine->Shutdown();
    if (entry.pool != nullptr) ForecastEngine::ShutdownPool(entry.pool.get());
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
  // Every shard engine brings its placed workers (pinned to its slice
  // under kPinned) into one pool the model's shards share: a worker
  // whose own shard has nothing waiting serves another shard's request.
  std::vector<std::vector<int>> pins;
  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    const graph::ShardSpec& shard = plan.shard(s);
    const std::string path =
        checkpoint_prefix.empty()
            ? std::string()
            : train::ShardCheckpointSet::ShardPath(checkpoint_prefix, s);
    const EngineOptions placed =
        PlaceEngineOptions(options, s, plan.num_shards());
    auto built = ForecastEngine::Build(train::ShardTask(task, shard), factory,
                                       path, placed);
    if (!built.ok()) return built.status();
    pins.insert(pins.end(), static_cast<size_t>(placed.num_workers),
                placed.pin_cores);
    entry.slice_pools.emplace_back(task.history * shard.num_local() *
                                   task.input_dim);
    entry.shards.push_back(shard);
    entry.engines.push_back(std::move(built).ValueOrDie());
  }
  entry.pool = ForecastEngine::NewPool(pins);
  for (auto& engine : entry.engines) engine->Attach(entry.pool, false);
  return AddEntry(name, std::move(entry));
}

// One sharded request in flight. Each shard's completion copies its
// owned columns into `out` (disjoint per shard, so outside the lock); the
// last shard to finish resolves the promise on its own worker thread.
struct ForecastRouter::FanIn {
  const ModelEntry* entry = nullptr;
  std::promise<ForecastResponse> promise;
  ForecastResponse out;
  std::mutex mu;
  int64_t pending = 0;
  /// Lowest shard index that failed, or -1; its Status fails the request.
  int64_t failed_shard = -1;
  Status failure;

  void Join(size_t s, ForecastResponse shard_response) {
    if (shard_response.status.ok()) {
      graph::StitchOwnedColumns(entry->shards[s], shard_response.forecast,
                                &out.forecast);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!shard_response.status.ok() &&
          (failed_shard < 0 || static_cast<int64_t>(s) < failed_shard)) {
        failed_shard = static_cast<int64_t>(s);
        failure = std::move(shard_response.status);
      }
      // The request's critical path: the slowest shard on every axis.
      out.batch_size = std::max(out.batch_size, shard_response.batch_size);
      out.queue_micros =
          std::max(out.queue_micros, shard_response.queue_micros);
      out.compute_micros =
          std::max(out.compute_micros, shard_response.compute_micros);
      if (--pending > 0) return;
    }
    if (failed_shard >= 0) {
      // Per-request error surfacing: this request fails with the shard's
      // Status (e.g. kUnavailable from admission control); every other
      // request keeps its own fate.
      ForecastResponse failed;
      failed.status = std::move(failure);
      promise.set_value(std::move(failed));
    } else {
      promise.set_value(std::move(out));
    }
  }
};

std::future<ForecastResponse> ForecastRouter::Submit(RouterRequest request) {
  auto fail = [](Status status) {
    std::promise<ForecastResponse> promise;
    ForecastResponse response;
    response.status = std::move(status);
    promise.set_value(std::move(response));
    return promise.get_future();
  };

  // Phase 1, under the lock: resolve and validate. Entry pointers are
  // stable (std::map nodes) and a registered entry is immutable, so the
  // pointer stays usable after the lock drops.
  ModelEntry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return fail(Status::Unavailable("ForecastRouter is shut down"));
    if (!request.model.empty()) {
      auto it = models_.find(request.model);
      if (it == models_.end()) {
        routing_errors_ += 1;
        return fail(
            Status::NotFound("no model '" + request.model + "' registered"));
      }
      entry = &it->second;
    } else if (models_.size() == 1) {
      entry = &models_.begin()->second;
    } else {
      routing_errors_ += 1;
      return fail(Status::InvalidArgument(
          models_.empty() ? "no models registered"
                          : "request must name one of the " +
                                std::to_string(models_.size()) +
                                " registered models"));
    }
    const tensor::Shape expected = {entry->history, entry->num_nodes,
                                    entry->input_dim};
    if (!request.window.defined() || request.window.shape() != expected) {
      routing_errors_ += 1;
      return fail(Status::InvalidArgument(
          "request window shape " +
          (request.window.defined()
               ? tensor::ShapeToString(request.window.shape())
               : std::string("<undefined>")) +
          " != expected " + tensor::ShapeToString(expected)));
    }
    requests_ += 1;
  }

  // Phase 2, unlocked: the per-shard column gathers are the memcpy-heavy
  // part of routing — keeping them outside mu_ lets concurrent clients
  // slice their windows in parallel. Slice buffers come from the
  // per-shard scratch pools and return there when the engines finish
  // with them, so steady-state routing allocates nothing.
  std::vector<tensor::Tensor> slices;
  std::shared_ptr<FanIn> fan;
  if (entry->sharded) {
    slices.reserve(entry->shards.size());
    for (size_t s = 0; s < entry->shards.size(); ++s) {
      const graph::ShardSpec& shard = entry->shards[s];
      slices.push_back(entry->slice_pools[s].Acquire(
          {entry->history, shard.num_local(), entry->input_dim}));
      graph::GatherLocalNodes(shard, request.window, &slices.back());
    }
    fan = std::make_shared<FanIn>();
    fan->entry = entry;
    fan->pending = static_cast<int64_t>(entry->engines.size());
    // Responses outlive any step scope the caller may hold.
    tensor::WorkspaceBypass bypass;
    fan->out.forecast = tensor::Tensor({entry->horizon, entry->num_nodes});
  }

  // Phase 3, under the lock again: fan out. Shutdown also takes mu_, so a
  // request is either accepted by all of its engines before they drain or
  // rejected here — a promise can never be stranded.
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    requests_ -= 1;  // counted in phase 1, never fanned out
    return fail(Status::Unavailable("ForecastRouter is shut down"));
  }
  if (!entry->sharded) {
    // Single engine: the engine's response *is* the global response.
    return entry->engines[0]->Submit(
        ForecastRequest{std::move(request.window)});
  }
  std::future<ForecastResponse> future = fan->promise.get_future();
  for (size_t s = 0; s < entry->engines.size(); ++s) {
    entry->engines[s]->SubmitThen(
        ForecastRequest{std::move(slices[s])},
        [fan, s](ForecastResponse response) {
          fan->Join(s, std::move(response));
        });
  }
  return future;
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
