#include "src/serve/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/core/check.h"
#include "src/metrics/metrics.h"
#include "src/tensor/ops.h"
#include "src/train/forecast_model.h"

namespace dyhsl::serve {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's scratch for the frame and window stacks handed to
// the engines: slabs recycle at the batch high-water mark across ticks.
tensor::Workspace* PackArena() {
  thread_local tensor::Workspace arena;
  return &arena;
}

}  // namespace

/// One open session. `mu` serializes Append against Forecast (a Push
/// overwrites the oldest frame of a live window view); everything below
/// it is guarded by `mu` except the lock-free recency stamps.
struct SessionManager::Session {
  std::mutex mu;

  SessionOptions options;
  StreamRoute route;
  /// Scaling / calendar constants, copied once from the engine task so
  /// the per-tick feature derivation never touches shared state.
  float scaler_mean = 0.0f;
  float scaler_std = 1.0f;
  int64_t steps_per_day = 288;

  int64_t next_tick = 0;
  int64_t ticks = 0;
  int64_t forecasts = 0;
  int64_t resyncs = 0;
  int64_t rejected = 0;
  int64_t since_resync = 0;

  /// One ring per engine: (N, F) frames unsharded, shard-local (L, F)
  /// frames per shard. Ring storage lives in the manager arena.
  std::vector<tensor::RingWindow> rings;
  /// Per-tick feature staging, (N, F): the Push source for unsharded
  /// sessions and the gather source for sharded ones.
  tensor::Tensor staging;
  /// Per-shard gathered frames, (L, F) in shard-local id order.
  std::vector<tensor::Tensor> shard_frames;
  /// Carried recurrent state per engine (warm sessions only).
  std::vector<std::unique_ptr<train::StreamState>> states;

  /// Rolling masked raw-flow moments (EMA of per-tick mean / mean-square
  /// over unmasked readings).
  bool stats_init = false;
  double ema_mean = 0.0;
  double ema_sq = 0.0;

  /// Recency stamps, written through the shared_ptr outside `mu`.
  std::atomic<uint64_t> last_used{0};
  std::atomic<int64_t> last_touch_ns{0};
};

SessionManager::SessionManager(ForecastRouter* router,
                               const SessionManagerOptions& options)
    : router_(router), options_(options) {
  DYHSL_CHECK(router_ != nullptr);
  DYHSL_CHECK_GE(options_.max_sessions, 0);
  DYHSL_CHECK_GE(options_.ttl_ms, 0);
}

SessionManager::~SessionManager() = default;

std::shared_ptr<SessionManager::Session> SessionManager::Find(
    const std::string& session_id) const {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return nullptr;
    session = it->second;
  }
  session->last_used.store(use_seq_.fetch_add(1) + 1,
                           std::memory_order_relaxed);
  session->last_touch_ns.store(NowNs(), std::memory_order_relaxed);
  return session;
}

int64_t SessionManager::EvictExpiredLocked() {
  if (options_.ttl_ms <= 0) return 0;
  const int64_t cutoff = NowNs() - options_.ttl_ms * 1'000'000;
  int64_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second->last_touch_ns.load(std::memory_order_relaxed) < cutoff) {
      it = sessions_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  evicted_ttl_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void SessionManager::EvictLocked() {
  // TTL first: an expired session should not survive just because it is
  // also the LRU candidate someone else would have paid for.
  EvictExpiredLocked();
  while (options_.max_sessions > 0 &&
         static_cast<int64_t>(sessions_.size()) >= options_.max_sessions) {
    auto victim = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second->last_used.load(std::memory_order_relaxed) <
          victim->second->last_used.load(std::memory_order_relaxed)) {
        victim = it;
      }
    }
    sessions_.erase(victim);
    evicted_lru_.fetch_add(1, std::memory_order_relaxed);
  }
}

Status SessionManager::Open(const std::string& session_id,
                            const SessionOptions& options) {
  if (session_id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  if (options.start_tick < 0) {
    return Status::InvalidArgument("SessionOptions.start_tick must be >= 0");
  }
  if (options.resync_every < 0) {
    return Status::InvalidArgument("SessionOptions.resync_every must be >= 0");
  }
  auto routed = router_->RouteFor(options.model);
  if (!routed.ok()) return routed.status();
  StreamRoute route = std::move(routed).ValueOrDie();
  if (route.input_dim != 3) {
    return Status::InvalidArgument(
        "streaming sessions require the 3-feature MakeInput layout; model '" +
        route.model + "' has input_dim " + std::to_string(route.input_dim));
  }
  if (options.warm_state) {
    for (ForecastEngine* engine : route.engines) {
      if (!engine->supports_streaming()) {
        return Status::InvalidArgument(
            "model '" + route.model +
            "' does not implement warm-state streaming "
            "(train::RecurrentStreamModel)");
      }
    }
  }

  auto session = std::make_shared<Session>();
  session->options = options;
  session->route = std::move(route);
  const train::ForecastTask& task = session->route.engines[0]->task();
  session->scaler_mean = task.scaler_mean;
  session->scaler_std = task.scaler_std;
  session->steps_per_day = task.steps_per_day;
  session->next_tick = options.start_tick;
  if (options.warm_state) {
    session->states.reserve(session->route.engines.size());
    for (ForecastEngine* engine : session->route.engines) {
      session->states.push_back(engine->NewStreamState());
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(session_id) != 0) {
    return Status::AlreadyExists("session '" + session_id +
                                 "' is already open");
  }
  EvictLocked();
  {
    // Ring and staging storage lands in the manager arena; allocation is
    // serialized by mu_, satisfying the Workspace threading contract.
    tensor::WorkspaceScope scope(&arena_);
    const StreamRoute& r = session->route;
    if (r.sharded) {
      session->rings.reserve(r.shards->size());
      session->shard_frames.reserve(r.shards->size());
      for (const graph::ShardSpec& shard : *r.shards) {
        session->rings.emplace_back(
            r.history, tensor::Shape{shard.num_local(), r.input_dim});
        session->shard_frames.emplace_back(
            tensor::Shape{shard.num_local(), r.input_dim});
      }
    } else {
      session->rings.emplace_back(
          r.history, tensor::Shape{r.num_nodes, r.input_dim});
    }
    session->staging = tensor::Tensor({session->route.num_nodes,
                                       session->route.input_dim});
  }
  session->last_used.store(use_seq_.fetch_add(1) + 1,
                           std::memory_order_relaxed);
  session->last_touch_ns.store(NowNs(), std::memory_order_relaxed);
  sessions_.emplace(session_id, std::move(session));
  opened_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status SessionManager::Append(const std::string& session_id, int64_t tick,
                              const tensor::Tensor& raw_flow) {
  return AppendMany({session_id}, tick, {raw_flow})[0];
}

Status SessionManager::IngestFrameLocked(Session* s, int64_t tick,
                                         const tensor::Tensor& raw_flow) {
  const StreamRoute& route = s->route;
  const tensor::Shape expected = {route.num_nodes};
  if (!raw_flow.defined() || raw_flow.shape() != expected) {
    return Status::InvalidArgument(
        "tick frame shape " +
        (raw_flow.defined() ? tensor::ShapeToString(raw_flow.shape())
                            : std::string("<undefined>")) +
        " != expected " + tensor::ShapeToString(expected));
  }
  if (tick != s->next_tick) {
    s->rejected += 1;
    rejected_ticks_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        (tick < s->next_tick
             ? std::string("duplicate or out-of-order tick ")
             : std::string("gapped tick ")) +
        std::to_string(tick) + ": session expects tick " +
        std::to_string(s->next_tick));
  }

  // Derive the MakeInput feature layout from the absolute tick, with the
  // training scaler — bit-identical to TrafficDataset::MakeInput, which
  // is what makes windowed session forecasts match batch submissions.
  const int64_t n = route.num_nodes;
  const int64_t f = route.input_dim;
  const int64_t spd = s->steps_per_day;
  const float tod =
      static_cast<float>(tick % spd) / static_cast<float>(spd);
  const float dow =
      static_cast<float>((tick / spd) % 7) / 7.0f;
  const float* raw = raw_flow.data();
  float* staged = s->staging.data();
  for (int64_t i = 0; i < n; ++i) {
    float* dst = staged + i * f;
    dst[0] = (raw[i] - s->scaler_mean) / s->scaler_std;
    dst[1] = tod;
    dst[2] = dow;
  }

  if (!route.sharded) {
    s->rings[0].Push(staged);
  } else {
    for (size_t k = 0; k < route.shards->size(); ++k) {
      graph::GatherLocalNodes((*route.shards)[k], s->staging,
                              &s->shard_frames[k]);
      s->rings[k].Push(s->shard_frames[k].data());
    }
  }

  // Rolling masked raw-flow moments (drift monitor; serving keeps the
  // training scaler).
  double sum = 0.0;
  double sum_sq = 0.0;
  int64_t unmasked = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float v = raw[i];
    if (v > metrics::kMaskThreshold) {
      sum += v;
      sum_sq += static_cast<double>(v) * v;
      unmasked += 1;
    }
  }
  if (unmasked > 0) {
    const double mean = sum / static_cast<double>(unmasked);
    const double sq = sum_sq / static_cast<double>(unmasked);
    if (!s->stats_init) {
      s->ema_mean = mean;
      s->ema_sq = sq;
      s->stats_init = true;
    } else {
      const double a = kSessionStatsAlpha;
      s->ema_mean += a * (mean - s->ema_mean);
      s->ema_sq += a * (sq - s->ema_sq);
    }
  }

  s->next_tick += 1;
  s->ticks += 1;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

bool SessionManager::ResyncDueLocked(Session* s) {
  if (s->options.resync_every <= 0 || !s->rings[0].full() ||
      s->since_resync + 1 < s->options.resync_every) {
    return false;
  }
  s->since_resync = 0;
  s->resyncs += 1;
  return true;
}

std::vector<Status> SessionManager::AppendMany(
    const std::vector<std::string>& session_ids, int64_t tick,
    const std::vector<tensor::Tensor>& raw_flows) {
  std::vector<Status> statuses(session_ids.size(), Status::OK());
  if (session_ids.size() != raw_flows.size()) {
    const Status bad = Status::InvalidArgument(
        "AppendMany got " + std::to_string(session_ids.size()) +
        " session ids but " + std::to_string(raw_flows.size()) + " frames");
    std::fill(statuses.begin(), statuses.end(), bad);
    return statuses;
  }
  const size_t n = session_ids.size();
  std::vector<std::shared_ptr<Session>> pinned(n);
  // std::map keys double as the distinct-session set in address order —
  // the lock order every multi-session path uses, so overlapping
  // AppendMany / ForecastBatch calls can never deadlock.
  std::map<Session*, size_t> distinct;
  for (size_t i = 0; i < n; ++i) {
    pinned[i] = Find(session_ids[i]);
    if (pinned[i] == nullptr) {
      statuses[i] =
          Status::NotFound("no open session '" + session_ids[i] + "'");
      continue;
    }
    if (!distinct.emplace(pinned[i].get(), i).second) {
      statuses[i] = Status::InvalidArgument(
          "duplicate session '" + session_ids[i] +
          "' in one AppendMany call: a session cannot ingest tick " +
          std::to_string(tick) + " twice");
      pinned[i] = nullptr;
    }
  }
  for (auto& entry : distinct) entry.first->mu.lock();

  // Phase 1: per-session ingest with per-session error isolation.
  for (size_t i = 0; i < n; ++i) {
    if (pinned[i] == nullptr || !statuses[i].ok()) continue;
    statuses[i] = IngestFrameLocked(pinned[i].get(), tick, raw_flows[i]);
  }

  // Phase 2: warm carry. Per model, members whose resync cadence fires
  // this tick rebuild from their ring windows in ONE batched cold replay
  // per engine; the rest advance in ONE batched cell step per engine.
  struct WarmGroup {
    std::vector<Session*> advance;
    std::vector<Session*> resync;
  };
  std::map<std::string, WarmGroup> warm_groups;
  for (size_t i = 0; i < n; ++i) {
    if (pinned[i] == nullptr || !statuses[i].ok()) continue;
    Session* s = pinned[i].get();
    if (!s->options.warm_state) continue;
    WarmGroup& group = warm_groups[s->route.model];
    (ResyncDueLocked(s) ? group.resync : group.advance).push_back(s);
  }
  if (!warm_groups.empty()) {
    tensor::Workspace* pack_arena = PackArena();
    tensor::WorkspaceScope scope(pack_arena);
    std::vector<train::StreamState*> states;
    std::vector<tensor::Tensor> stack;
    for (const auto& entry : warm_groups) {
      const WarmGroup& group = entry.second;
      const StreamRoute& route =
          (group.advance.empty() ? group.resync : group.advance)[0]->route;
      for (size_t k = 0; k < route.engines.size(); ++k) {
        if (!group.advance.empty()) {
          states.clear();
          stack.clear();
          for (Session* s : group.advance) {
            states.push_back(s->states[k].get());
            stack.push_back(route.sharded ? s->shard_frames[k] : s->staging);
          }
          route.engines[k]->AdvanceStateBatch(states,
                                              tensor::PackBatch(stack));
        }
        if (!group.resync.empty()) {
          states.clear();
          stack.clear();
          for (Session* s : group.resync) {
            states.push_back(s->states[k].get());
            stack.push_back(s->rings[k].Window());
          }
          route.engines[k]->ResyncStateBatch(states, tensor::PackBatch(stack));
        }
      }
      for (Session* s : group.advance) s->since_resync += 1;
      pack_arena->Reset();
    }
  }

  for (auto it = distinct.rbegin(); it != distinct.rend(); ++it) {
    it->first->mu.unlock();
  }
  return statuses;
}

ForecastResponse SessionManager::Forecast(const std::string& session_id) {
  return std::move(ForecastBatch({session_id})[0]);
}

std::vector<ForecastResponse> SessionManager::ForecastBatch(
    const std::vector<std::string>& session_ids) {
  std::vector<std::shared_ptr<Session>> pinned(session_ids.size());
  for (size_t i = 0; i < session_ids.size(); ++i) {
    pinned[i] = Find(session_ids[i]);
  }
  return ForecastPinned(session_ids, pinned);
}

std::vector<std::pair<std::string, ForecastResponse>>
SessionManager::ForecastAll() {
  std::vector<std::string> ids;
  std::vector<std::shared_ptr<Session>> pinned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.reserve(sessions_.size());
    pinned.reserve(sessions_.size());
    for (const auto& entry : sessions_) {
      ids.push_back(entry.first);
      pinned.push_back(entry.second);
    }
  }
  // A fleet forecast is a use: stamp recency like Find() so the tick
  // scheduler keeps its own sessions alive.
  for (const std::shared_ptr<Session>& s : pinned) {
    s->last_used.store(use_seq_.fetch_add(1) + 1, std::memory_order_relaxed);
    s->last_touch_ns.store(NowNs(), std::memory_order_relaxed);
  }
  std::vector<ForecastResponse> responses = ForecastPinned(ids, pinned);
  std::vector<std::pair<std::string, ForecastResponse>> out;
  out.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out.emplace_back(std::move(ids[i]), std::move(responses[i]));
  }
  return out;
}

std::vector<ForecastResponse> SessionManager::ForecastPinned(
    const std::vector<std::string>& session_ids,
    const std::vector<std::shared_ptr<Session>>& pinned) {
  const size_t n = session_ids.size();
  std::vector<ForecastResponse> out(n);
  std::vector<bool> active(n, false);
  std::map<Session*, size_t> distinct;  // address order = lock order
  for (size_t i = 0; i < n; ++i) {
    if (pinned[i] == nullptr) {
      out[i].status =
          Status::NotFound("no open session '" + session_ids[i] + "'");
      continue;
    }
    if (!distinct.emplace(pinned[i].get(), i).second) {
      out[i].status = Status::InvalidArgument(
          "duplicate session '" + session_ids[i] + "' in one batched forecast");
      continue;
    }
    active[i] = true;
  }
  // Hold every distinct session's mutex across the batched compute so
  // each response is a consistent snapshot of that session's window: a
  // concurrent Append of a member waits for the forecast.
  for (auto& entry : distinct) entry.first->mu.lock();

  // Group the ready sessions per (model, warm-path). Warm and windowed
  // sessions of one model take different engine entry points, so they
  // batch separately.
  std::map<std::pair<std::string, bool>, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    Session* s = pinned[i].get();
    if (!s->rings[0].full()) {
      out[i].status = Status::Unavailable(
          "session has " + std::to_string(s->rings[0].count()) + " of " +
          std::to_string(s->route.history) + " ticks buffered");
      active[i] = false;
      continue;
    }
    groups[{s->route.model, s->options.warm_state}].push_back(i);
  }

  {
    tensor::Workspace* pack_arena = PackArena();
    tensor::WorkspaceScope scope(pack_arena);
    for (auto& group : groups) {
      const bool warm = group.first.second;
      const std::vector<size_t>& idxs = group.second;
      const StreamRoute& route = pinned[idxs[0]]->route;
      const int64_t b = static_cast<int64_t>(idxs.size());

      // One grad-free batched forward per shard engine.
      Status group_status = Status::OK();
      std::vector<BatchForecastResponse> per_shard(route.engines.size());
      for (size_t k = 0; k < route.engines.size() && group_status.ok(); ++k) {
        if (warm) {
          std::vector<const train::StreamState*> states;
          states.reserve(idxs.size());
          for (size_t i : idxs) states.push_back(pinned[i]->states[k].get());
          per_shard[k] = route.engines[k]->ForecastFromStateBatch(states);
        } else {
          // Ring windows gather zero-copy: Window() is a live view of
          // ring storage and a one-member group passes that view through
          // PackBatch without a copy.
          std::vector<tensor::Tensor> windows;
          windows.reserve(idxs.size());
          for (size_t i : idxs) windows.push_back(pinned[i]->rings[k].Window());
          per_shard[k] =
              route.engines[k]->SubmitBatch(tensor::PackBatch(windows));
        }
        if (!per_shard[k].status.ok()) group_status = per_shard[k].status;
      }
      if (!group_status.ok()) {
        // Engine failure fails this group only; other groups still serve.
        for (size_t i : idxs) {
          out[i] = ForecastResponse{};
          out[i].status = group_status;
        }
        continue;
      }
      double micros = 0.0;
      for (const BatchForecastResponse& r : per_shard) {
        micros += r.compute_micros;
      }

      // Scatter the (B, T', L) shard outputs back into per-session heap
      // responses, dropping halos exactly like the router's stitch.
      for (size_t j = 0; j < idxs.size(); ++j) {
        const size_t i = idxs[j];
        ForecastResponse& r = out[i];
        {
          tensor::WorkspaceBypass bypass;
          r.forecast = tensor::Tensor({route.horizon, route.num_nodes});
        }
        r.batch_size = b;
        r.compute_micros = micros;
        if (!route.sharded) {
          const tensor::Tensor& fc = per_shard[0].forecasts;  // (B, T', N)
          DYHSL_CHECK_EQ(fc.size(1), route.horizon);
          DYHSL_CHECK_EQ(fc.size(2), route.num_nodes);
          std::memcpy(
              r.forecast.data(),
              fc.data() + static_cast<int64_t>(j) * route.horizon *
                              route.num_nodes,
              static_cast<size_t>(route.horizon * route.num_nodes) *
                  sizeof(float));
        } else {
          for (size_t k = 0; k < route.engines.size(); ++k) {
            const graph::ShardSpec& shard = (*route.shards)[k];
            const int64_t local = shard.num_local();
            const tensor::Tensor& fc = per_shard[k].forecasts;  // (B, T', L)
            graph::StitchOwnedColumns(
                shard,
                fc.Alias(static_cast<int64_t>(j) * route.horizon * local,
                         {route.horizon, local}),
                &r.forecast);
          }
        }
        pinned[i]->forecasts += 1;
        forecasts_.fetch_add(1, std::memory_order_relaxed);
      }
      RecordBatch(route.model, b);
      pack_arena->Reset();
    }
  }

  for (auto it = distinct.rbegin(); it != distinct.rend(); ++it) {
    it->first->mu.unlock();
  }
  return out;
}

void SessionManager::RecordBatch(const std::string& model,
                                 int64_t batch_size) {
  std::lock_guard<std::mutex> lock(batch_mu_);
  batch_stats_.batched_forecasts += 1;
  batch_stats_.batch_size_sum += batch_size;
  batch_stats_.batch_size_max =
      std::max(batch_stats_.batch_size_max, batch_size);
  SessionBatchStats& per_model = batch_by_model_[model];
  per_model.batched_forecasts += 1;
  per_model.batch_size_sum += batch_size;
  per_model.batch_size_max = std::max(per_model.batch_size_max, batch_size);
}

Status SessionManager::Close(const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("no open session '" + session_id + "'");
  }
  sessions_.erase(it);
  closed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

int64_t SessionManager::EvictExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictExpiredLocked();
}

Result<SessionStats> SessionManager::SessionInfo(
    const std::string& session_id) const {
  std::shared_ptr<Session> session;
  {
    // Deliberately not Find(): monitoring must not refresh recency and
    // keep an idle session alive forever.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("no open session '" + session_id + "'");
    }
    session = it->second;
  }
  std::lock_guard<std::mutex> lock(session->mu);
  SessionStats stats;
  stats.model = session->route.model;
  stats.warm = session->options.warm_state;
  stats.next_tick = session->next_tick;
  stats.ticks = session->ticks;
  stats.forecasts = session->forecasts;
  stats.resyncs = session->resyncs;
  stats.rejected_ticks = session->rejected;
  stats.buffered = session->rings[0].count();
  stats.rolling_mean = static_cast<float>(session->ema_mean);
  const double var = session->ema_sq - session->ema_mean * session->ema_mean;
  stats.rolling_std = static_cast<float>(std::sqrt(var > 0.0 ? var : 0.0));
  if (session->scaler_std > 0.0f) {
    stats.drift_score =
        std::fabs(stats.rolling_mean - session->scaler_mean) /
        session->scaler_std;
  }
  return stats;
}

SessionManagerStats SessionManager::Stats() const {
  SessionManagerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.open = static_cast<int64_t>(sessions_.size());
  }
  stats.opened = opened_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  stats.evicted_lru = evicted_lru_.load(std::memory_order_relaxed);
  stats.evicted_ttl = evicted_ttl_.load(std::memory_order_relaxed);
  stats.ticks = ticks_.load(std::memory_order_relaxed);
  stats.forecasts = forecasts_.load(std::memory_order_relaxed);
  stats.rejected_ticks = rejected_ticks_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    stats.batch = batch_stats_;
    stats.batch_by_model = batch_by_model_;
  }
  return stats;
}

}  // namespace dyhsl::serve
