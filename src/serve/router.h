// Sharded, multi-model forecast routing.
//
// A ForecastRouter owns a fleet of ForecastEngines — one per registered
// (model, shard) — and presents the same Submit -> future<Response>
// surface over the *global* sensor space. For a sharded model the router
// splits an incoming (T, N, F) window by sensor range (gathering each
// shard's owned + halo columns in the shard-local id order), fans the
// slices out to the shard engines, and stitches the shard responses back
// into one globally ordered (T', N) forecast, dropping every halo column.
// Requests name the model they want ("STGCN", "dyhsl-v2", ...); a router
// hosting exactly one model also accepts an empty name.
//
// Error surfacing is per-request: a shard engine shedding load with
// kUnavailable (or failing in any other way) fails that one request's
// future with the shard's Status — other in-flight requests, and other
// shards of the same request's batch, are unaffected.
//
// Status codes, and whether a caller may retry (engine codes pass through
// unchanged; see src/serve/engine.h):
//  * kUnavailable: a shard shed load (retry later) or the router is shut
//    down (retry on another router); Submit, AddModel, AddShardedModel and
//    RouteFor all answer it after Shutdown().
//  * kNotFound: no model of that name is registered; not retryable until
//    it is added.
//  * kAlreadyExists: the model name is taken; not retryable.
//  * kInvalidArgument: the request, name or options are malformed; not
//    retryable until the caller fixes them.
//
// The router runs no threads of its own. A sharded request's shards
// complete through ForecastEngine::SubmitThen: each shard's worker copies
// its owned columns into the global forecast, and the last one to finish
// resolves the request's future — no thread waits on shard futures, and
// a response reaches its caller with one cross-thread wakeup.

#ifndef DYHSL_SERVE_ROUTER_H_
#define DYHSL_SERVE_ROUTER_H_

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/status.h"
#include "src/graph/shard.h"
#include "src/serve/engine.h"
#include "src/train/forecast_model.h"

namespace dyhsl::serve {

/// \brief One forecast query against a router: a scaled (T, N, F) window
/// over the *global* sensor space, plus the name of the model to serve it
/// with (optional only when a single model is registered).
struct RouterRequest {
  std::string model;
  tensor::Tensor window;
};

/// \brief Recycles fixed-size tensor buffers across requests. The router
/// allocates one (T, L, F) slice per shard per Submit; at steady load
/// that is pure allocator churn, since the slice count in flight is
/// bounded by the engine queues. Acquire() hands out a pooled buffer
/// whose deleter returns it to the free list — the pool only ever
/// heap-allocates up to the high-water mark of concurrent slices.
///
/// Thread-safe. Copies share the pool. The deleter captures the shared
/// pool state, so buffers released after the owning router is gone are
/// still returned (to a free list that then just gets destroyed).
class ScratchPool {
 public:
  explicit ScratchPool(int64_t numel);

  /// \brief A pooled tensor of `shape` (its element count must equal the
  /// pool's buffer size). Contents are uninitialized.
  tensor::Tensor Acquire(tensor::Shape shape);

  /// Buffers ever heap-allocated (the churn observable; tests assert it
  /// stays at the concurrency high-water mark, not the request count).
  int64_t allocated() const;
  /// Buffers currently in the free list.
  int64_t available() const;

 private:
  struct State {
    std::mutex mu;
    int64_t numel = 0;
    int64_t allocated = 0;
    std::vector<std::shared_ptr<float[]>> free_list;
  };
  std::shared_ptr<State> state_;
};

/// \brief Routing metadata for one registered model, resolved once per
/// streaming session instead of per request: engine pointers and shard
/// specs so a SessionManager can split ticks by shard range at Append
/// time and hit the engines' synchronous fast paths at Forecast time.
/// Pointers stay valid until ForecastRouter::Shutdown (entries are
/// immutable after registration and map nodes are stable).
struct StreamRoute {
  std::string model;
  bool sharded = false;
  int64_t num_nodes = 0;
  int64_t history = 0;
  int64_t horizon = 0;
  int64_t input_dim = 0;
  const std::vector<graph::ShardSpec>* shards = nullptr;
  std::vector<ForecastEngine*> engines;
};

/// \brief Per-engine stats snapshot, tagged with its fleet position and
/// resolved threading (workers x team as actually placed).
struct EngineStatsEntry {
  std::string model;
  int64_t shard_id = 0;  // 0 for unsharded models
  train::ShardMeta shard;
  /// Worker threads and per-worker OpenMP team the engine runs with
  /// (after any router placement override).
  int64_t num_workers = 1;
  int64_t team_size = 1;
  EngineStats stats;
};

/// \brief Aggregated fleet statistics: the router's own counters plus a
/// per-engine Snapshot() of every engine.
///
/// Consistency: all engine snapshots are taken in one pass under the
/// router lock, and each snapshot is internally consistent (engine
/// mutex), but engines keep serving while the pass walks the fleet — so
/// `total` sums counters sampled microseconds apart. The monotonic
/// counters (requests/batches/rejected) can therefore disagree with the
/// router's own `requests` by at most the number of requests in flight
/// during the pass, and `total.queue_depth` is an instant-by-instant
/// approximation while traffic is moving. The totals are exact whenever
/// the fleet is quiescent; in particular Shutdown() drains every engine,
/// so post-shutdown stats always report queue_depth == 0 and stable
/// totals — never a transient or inflated figure.
struct RouterStats {
  /// Requests accepted by the router (fanned out to engines).
  int64_t requests = 0;
  /// Requests failed before fan-out (unknown model, bad window shape).
  int64_t routing_errors = 0;
  /// Sum of every engine's counters (see consistency note above).
  EngineStats total;
  std::vector<EngineStatsEntry> engines;
};

/// \brief How the router spends the machine's cores across a model's
/// engines (shards are the natural parallel unit).
enum class Placement {
  /// Engines keep the EngineOptions they were registered with, except
  /// that an auto-sized team (team_size 0) is the creator's team
  /// (core::TeamThreads()) divided by the model's engine count, then
  /// split across the engine's workers. A single engine keeps the whole
  /// team; the shards of one model never oversubscribe it. No pinning.
  kInherit,
  /// Divide `thread_budget` evenly across a model's engines: each engine
  /// gets a budget/num_engines slice, its workers split the slice via
  /// core::ThreadBudget (workers x team <= slice). Engines then run
  /// concurrently without oversubscribing — a 2-shard fleet on 2 cores
  /// runs both shard forwards in parallel.
  kPartition,
  /// kPartition plus engine-to-core pinning: engine i's workers (and
  /// their OpenMP teams, which inherit the mask) are confined to the
  /// i-th contiguous slice of core::AvailableCores(), so shards stop
  /// migrating across each other's caches.
  kPinned,
};

/// \brief Threading knobs for the router itself (engine knobs live in
/// EngineOptions, passed per model).
struct RouterOptions {
  /// Accepted for existing callers and still validated (>= 1), but
  /// unused: the router has no stitcher threads (the last shard to
  /// finish stitches its request).
  int64_t num_stitchers = 2;
  /// Engine-to-core placement policy applied at AddModel /
  /// AddShardedModel time (registration order is placement order).
  Placement placement = Placement::kInherit;
  /// Threads divided among a model's engines under kPartition/kPinned;
  /// 0 = core::HardwareThreads(). Each *model* gets the full budget
  /// (models time-share the machine; shards within a model split it).
  int64_t thread_budget = 0;
};

/// \brief Hosts one ForecastEngine per (model, shard) and routes global
/// requests across the fleet. Thread-safe: Submit may be called from any
/// thread; models must be registered before the first Submit.
class ForecastRouter {
 public:
  static Result<std::unique_ptr<ForecastRouter>> Create(
      const RouterOptions& options = RouterOptions());

  /// Drains in-flight requests and shuts down every engine.
  ~ForecastRouter();

  ForecastRouter(const ForecastRouter&) = delete;
  ForecastRouter& operator=(const ForecastRouter&) = delete;

  /// \brief Registers an unsharded model under `name`: one engine serving
  /// the full task, optionally restored from `checkpoint_path`.
  Status AddModel(const std::string& name, const train::ForecastTask& task,
                  const ModelFactory& factory,
                  const std::string& checkpoint_path = "",
                  const EngineOptions& options = EngineOptions());

  /// \brief Registers a sharded model under `name`: one engine per shard
  /// of `plan`, each built from the shard-scoped task. With a non-empty
  /// `checkpoint_prefix` the shard checkpoint family is validated against
  /// the plan (ShardCheckpointSet::Validate) and each engine loads its
  /// shard's file; otherwise every shard starts from the factory's
  /// initialization.
  Status AddShardedModel(const std::string& name,
                         const train::ForecastTask& task,
                         const graph::ShardPlan& plan,
                         const ModelFactory& factory,
                         const std::string& checkpoint_prefix = "",
                         const EngineOptions& options = EngineOptions());

  /// \brief Routes one global window to the named model's engines. The
  /// future is always fulfilled; failures (unknown model, wrong shape, a
  /// shard's Status) arrive as a failed ForecastResponse::status.
  std::future<ForecastResponse> Submit(RouterRequest request);

  /// \brief Stops accepting requests and shuts down every engine,
  /// draining their queues, so everything in flight is still answered. A Submit made
  /// afterwards fails with kUnavailable. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// Engines hosted for `name` (1 for unsharded models), 0 if unknown.
  int64_t ShardCountOf(const std::string& name) const;

  /// \brief Resolves the routing metadata for `name` (or the single
  /// registered model when empty) — the once-per-session lookup the
  /// streaming path uses instead of a per-request map walk. See
  /// StreamRoute for the pointer-validity contract.
  Result<StreamRoute> RouteFor(const std::string& name) const;

  /// \brief Buffers the gather pools of `name` ever heap-allocated,
  /// summed over its shards (0 for unknown or unsharded models). Tests
  /// assert this tracks concurrency, not request count.
  int64_t ScratchAllocated(const std::string& name) const;

  /// \brief Consistent per-engine snapshots plus fleet totals.
  RouterStats Stats() const;

 private:
  struct ModelEntry {
    std::string name;
    int64_t num_nodes = 0;   // global sensor count
    int64_t history = 0;
    int64_t horizon = 0;
    int64_t input_dim = 0;
    bool sharded = false;
    /// Shard specs (one identity-like spec for unsharded models).
    std::vector<graph::ShardSpec> shards;
    /// The worker pool a sharded model's engines share (null for
    /// unsharded models, whose engine owns its workers). Declared before
    /// `engines`, so it outlives them.
    std::shared_ptr<ForecastEngine::Pool> pool;
    std::vector<std::unique_ptr<ForecastEngine>> engines;
    /// Per-shard gather scratch pools (sharded models only): Submit
    /// acquires each request's (T, L, F) slices here instead of
    /// allocating fresh windows every request.
    std::vector<ScratchPool> slice_pools;
  };

  struct FanIn;

  explicit ForecastRouter(const RouterOptions& options);

  /// Applies the placement policy to one engine's options: under
  /// kPartition/kPinned, engine `engine_index` of `num_engines` gets an
  /// equal thread_budget slice (workers clamped into it, team auto
  /// unless explicitly set) and, when pinned, the matching contiguous
  /// core slice. kInherit only resolves an auto team_size to the
  /// creator's team divided by `num_engines`.
  EngineOptions PlaceEngineOptions(const EngineOptions& base,
                                   int64_t engine_index,
                                   int64_t num_engines) const;

  Status AddEntry(const std::string& name, ModelEntry entry);

  RouterOptions options_;

  mutable std::mutex mu_;
  /// Registered models; pointers into the map stay valid (std::map nodes
  /// are stable) for requests in flight.
  std::map<std::string, ModelEntry> models_;
  bool stopping_ = false;
  int64_t requests_ = 0;
  int64_t routing_errors_ = 0;
};

}  // namespace dyhsl::serve

#endif  // DYHSL_SERVE_ROUTER_H_
