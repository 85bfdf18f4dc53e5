// Stateful streaming sessions: per-client ring buffers, incremental
// window updates and online forecasting.
//
// The batch path (ForecastEngine::Submit / ForecastRouter::Submit)
// treats every request as independent: the client re-materializes and
// re-sends the full (T, N, F) window each time, and the server re-packs
// and re-routes it from scratch. Under a tick stream that is almost all
// redundant work — consecutive windows share T-1 frames. A
// SessionManager instead keeps the window *server-side*:
//
//  * Open() resolves the model's route once (ForecastRouter::RouteFor)
//    and allocates per-engine ring buffers (tensor::RingWindow) in the
//    manager's Workspace arena — for a sharded model, one ring of
//    shard-local (L, F) frames per shard, gathered at Append time, so
//    routing work happens once per tick instead of once per request.
//  * Append() ingests one tick of raw flow (N floats), derives the
//    MakeInput feature layout (scaled flow, time-of-day, day-of-week)
//    bit-identically from the absolute tick index, and pushes the frame
//    into every ring. Ticks are strictly sequential: a duplicate,
//    out-of-order or gapped tick is rejected with kInvalidArgument and
//    the session stays on its last consistent state.
//  * Forecast() serves from the hot window with zero window assembly:
//    each ring's contiguous (T, L, F) view feeds the shard engine's
//    synchronous SubmitBatch as a batch of one on the calling thread (no
//    queue, no window copy), and the shard forecasts are stitched into
//    the global (T', N) exactly like the router does.
//  * Append() and Forecast() are AppendMany() and ForecastBatch() of one
//    session: a single serving path, whatever the batch size.
//
// Exactness. A default (windowed) session forecast is bit-identical to
// submitting the same window through ForecastRouter::Submit: the ring
// view holds the same floats MakeInput would produce, and ForecastNow
// runs under the engine's worker team size. With
// SessionOptions::warm_state (models implementing
// train::RecurrentStreamModel), an Append additionally advances a
// carried encoder state by one cell step and a Forecast runs only the
// T'-step decoder; the carry equals a cold encoder pass over *every* tick since
// the session opened (bit-identical by construction), and is therefore
// drift-bounded relative to the last-T-window reference — it remembers
// what the window forgot. resync_every bounds that drift by periodically
// rebuilding the state from the ring window, after which the next
// forecast is again bit-identical to the windowed reference.
//
// Sessions also maintain rolling (EMA) statistics of the masked raw
// flow. Serving always normalizes with the *training* scaler — swapping
// scalers would silently change every forecast — so the rolling stats
// are a drift monitor: drift_score measures how far live traffic has
// moved from the training distribution in training-std units.
//
// Concurrency. The manager map is guarded by a manager mutex; each
// session has its own mutex held for the whole Append or Forecast (a
// Push overwrites the oldest frame of the window view a concurrent
// Forecast would read, so the two must serialize per session; distinct
// sessions proceed in parallel). Sessions are shared_ptr-pinned by
// in-flight calls, so Close/eviction never pulls memory out from under
// a running Forecast — the evicted session simply finishes detached.
// Capacity is bounded by max_sessions (least-recently-used eviction at
// Open) and ttl_ms (idle expiry, swept at Open or via EvictExpired).
//
// The router must outlive the manager (StreamRoute pointer contract).

#ifndef DYHSL_SERVE_SESSION_H_
#define DYHSL_SERVE_SESSION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/serve/router.h"
#include "src/tensor/ring.h"
#include "src/tensor/workspace.h"
#include "src/train/streaming.h"

namespace dyhsl::serve {

/// \brief Per-session knobs, fixed at Open().
struct SessionOptions {
  /// Model to serve (ForecastRouter::RouteFor semantics: may be empty
  /// when the router hosts exactly one model).
  std::string model;
  /// Absolute tick index of the first Append — the stream's position in
  /// calendar time, driving the time-of-day / day-of-week features.
  int64_t start_tick = 0;
  /// Carry recurrent encoder state across ticks and serve decoder-only
  /// forecasts. Requires every engine on the route to support streaming
  /// (train::RecurrentStreamModel); Open fails otherwise.
  bool warm_state = false;
  /// With warm_state, rebuild the carried state from the ring window
  /// every this many ticks (0 = never): bounds drift relative to the
  /// windowed reference at the cost of one T-step replay per cadence.
  int64_t resync_every = 0;
  /// EMA weight of the rolling raw-flow statistics.
  float stats_alpha = 0.05f;
  /// Readings at or below this are sensor dropouts, excluded from the
  /// rolling statistics (PEMS masking convention).
  float mask_threshold = 1e-3f;
};

/// \brief Manager-wide knobs.
struct SessionManagerOptions {
  /// Maximum concurrently open sessions; opening past the cap evicts the
  /// least-recently-used session. 0 = unbounded.
  int64_t max_sessions = 0;
  /// Idle time-to-live in milliseconds: a session untouched for longer
  /// is evicted by the sweep at Open() / EvictExpired(). 0 = never.
  int64_t ttl_ms = 0;
};

/// \brief Point-in-time view of one session's counters.
struct SessionStats {
  std::string model;
  bool warm = false;
  /// The tick the next Append must carry.
  int64_t next_tick = 0;
  int64_t ticks = 0;
  int64_t forecasts = 0;
  /// Warm-state rebuilds performed by the resync cadence.
  int64_t resyncs = 0;
  /// Appends rejected for tick-sequence violations.
  int64_t rejected_ticks = 0;
  /// Frames currently buffered, in [0, history].
  int64_t buffered = 0;
  /// Rolling (EMA) mean / stddev of masked raw readings.
  float rolling_mean = 0.0f;
  float rolling_std = 0.0f;
  /// |rolling_mean - training_mean| / training_std: how far live traffic
  /// has drifted from the distribution the scaler was fitted on.
  float drift_score = 0.0f;
};

/// \brief Batch-scheduler occupancy counters: how efficiently the
/// cross-session path is packing. One "batched forecast" is one group
/// forward — all sessions of one (model, warm-path) group served by a
/// single ForecastBatch/ForecastAll call, or the one session of a
/// Forecast — so the mean occupancy is batch_size_sum / batched_forecasts.
struct SessionBatchStats {
  int64_t batched_forecasts = 0;
  /// Sessions served across those group forwards.
  int64_t batch_size_sum = 0;
  int64_t batch_size_max = 0;
};

/// \brief Manager-level counters (monotonic except `open`).
struct SessionManagerStats {
  int64_t open = 0;
  int64_t opened = 0;
  int64_t closed = 0;
  /// Evictions by the max_sessions LRU policy / by TTL expiry.
  int64_t evicted_lru = 0;
  int64_t evicted_ttl = 0;
  int64_t ticks = 0;
  int64_t forecasts = 0;
  int64_t rejected_ticks = 0;
  /// Cross-session batch occupancy, fleet-wide and per model. The
  /// engine-side view (EngineStats::batched_*) additionally surfaces
  /// through RouterStats totals.
  SessionBatchStats batch;
  std::map<std::string, SessionBatchStats> batch_by_model;
};

/// \brief Hosts streaming sessions over a ForecastRouter's fleet.
/// Thread-safe; see the file comment for the locking model.
class SessionManager {
 public:
  /// \brief `router` is borrowed and must outlive the manager.
  explicit SessionManager(ForecastRouter* router,
                          const SessionManagerOptions& options =
                              SessionManagerOptions());
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// \brief Opens a session. Fails with kAlreadyExists on a live id,
  /// kNotFound / kInvalidArgument on an unroutable model, kUnavailable
  /// once the router is shut down, and kInvalidArgument when warm_state
  /// is requested for a model that does not stream.
  Status Open(const std::string& session_id,
              const SessionOptions& options = SessionOptions());

  /// \brief Ingests one tick: `raw_flow` is the (N,) raw readings at
  /// absolute tick `tick`, which must be exactly the session's next
  /// expected tick — duplicates, reorders and gaps are rejected with
  /// kInvalidArgument without touching the window. AppendMany of one.
  Status Append(const std::string& session_id, int64_t tick,
                const tensor::Tensor& raw_flow);

  /// \brief Tick-barrier ingest: appends raw_flows[i] to session
  /// session_ids[i], all at the same absolute tick. Per-session
  /// validation and error isolation match Append (statuses align with
  /// session_ids; one bad session fails only itself), but warm sessions
  /// of the same model advance their carried state in ONE batched cell
  /// step per engine instead of one step per session. Sessions whose
  /// resync cadence fires this tick are masked out of that step and
  /// rebuilt from their rings instead, together, in ONE batched cold
  /// replay per engine (the rebuild overwrites the carried state
  /// completely, so the result equals advance-then-resync).
  /// Duplicate ids within one call are rejected with kInvalidArgument —
  /// a session cannot ingest the same tick twice.
  std::vector<Status> AppendMany(const std::vector<std::string>& session_ids,
                                 int64_t tick,
                                 const std::vector<tensor::Tensor>& raw_flows);

  /// \brief Serves a forecast from the session's current window. Fails
  /// with kUnavailable until `history` ticks have been appended, or once
  /// the router is shut down. The response's forecast is heap-backed,
  /// valid after the session dies. ForecastBatch of one.
  ForecastResponse Forecast(const std::string& session_id);

  /// \brief Cross-session batched forecasting: groups the ready sessions
  /// per (model, warm-path), packs each group's ring windows into one
  /// (B, T, L, F) tensor per shard engine (B = 1 passes the ring view
  /// through zero-copy), runs ONE grad-free batched forward per
  /// (group, shard), and scatters the (T', N) responses back per session.
  /// Responses align with session_ids and are heap-backed. Error
  /// isolation: an unknown or not-yet-full session fails only itself; an
  /// engine failure fails only that group's members. Each forecast is
  /// bit-identical to the session's own Forecast (its group of one) for
  /// windowed sessions and within 1e-5 of it for batched warm carry.
  /// Duplicate ids are rejected with kInvalidArgument.
  std::vector<ForecastResponse> ForecastBatch(
      const std::vector<std::string>& session_ids);

  /// \brief ForecastBatch over every open session — the tick-barrier
  /// fan-in a scheduler calls once per tick. Pair order is unspecified.
  std::vector<std::pair<std::string, ForecastResponse>> ForecastAll();

  /// \brief Closes a session; kNotFound if it is not open.
  Status Close(const std::string& session_id);

  /// \brief Sweeps idle sessions past ttl_ms; returns how many were
  /// evicted (always 0 with ttl_ms == 0).
  int64_t EvictExpired();

  Result<SessionStats> SessionInfo(const std::string& session_id) const;
  SessionManagerStats Stats() const;
  int64_t OpenSessions() const;

 private:
  struct Session;

  /// Looks up and pins a session (nullptr if unknown), stamping its
  /// LRU/TTL recency.
  std::shared_ptr<Session> Find(const std::string& session_id) const;
  /// Under mu_: erases the sessions idle past ttl_ms; returns how many.
  int64_t EvictExpiredLocked();
  /// Under mu_: TTL sweep + LRU eviction down to max_sessions - 1.
  void EvictLocked();
  /// Under s->mu: validates and ingests one tick frame — feature
  /// staging, ring pushes, rolling stats, tick accounting — everything
  /// except the warm-state advance, which AppendMany runs batched across
  /// sessions.
  Status IngestFrameLocked(Session* s, int64_t tick,
                           const tensor::Tensor& raw_flow);
  /// Under s->mu: whether the resync cadence fires this tick, counting
  /// the resync when it does. A due session joins this tick's batched
  /// replay instead of its encoder advance — safe because the rebuild
  /// overwrites the carried state completely.
  static bool ResyncDueLocked(Session* s);
  /// ForecastBatch over already-pinned sessions (nullptr = unknown id).
  std::vector<ForecastResponse> ForecastPinned(
      const std::vector<std::string>& session_ids,
      const std::vector<std::shared_ptr<Session>>& pinned);
  /// Accumulates one group forward into the occupancy counters.
  void RecordBatch(const std::string& model, int64_t batch_size);

  ForecastRouter* router_;
  SessionManagerOptions options_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  /// Arena backing every session's ring storage; allocation happens only
  /// under mu_ (Open), so the single-threaded-allocation contract of
  /// Workspace holds by serialization.
  tensor::Workspace arena_;
  /// Global recency clock for LRU stamps.
  mutable std::atomic<uint64_t> use_seq_{0};

  std::atomic<int64_t> opened_{0};
  std::atomic<int64_t> closed_{0};
  std::atomic<int64_t> evicted_lru_{0};
  std::atomic<int64_t> evicted_ttl_{0};
  std::atomic<int64_t> ticks_{0};
  std::atomic<int64_t> forecasts_{0};
  std::atomic<int64_t> rejected_ticks_{0};

  /// Batch occupancy counters (fleet-wide + per model), under their own
  /// mutex so hot Append/Forecast paths never contend on them.
  mutable std::mutex batch_mu_;
  SessionBatchStats batch_stats_;
  std::map<std::string, SessionBatchStats> batch_by_model_;
};

}  // namespace dyhsl::serve

#endif  // DYHSL_SERVE_SESSION_H_
