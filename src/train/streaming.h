// Capability interface for warm recurrent-state streaming.
//
// Window models recompute their forecast from the full (T, N, F) history
// every request. Recurrent encoder-decoder models (DCRNN-style) can do
// strictly better under a tick stream: carry the encoder hidden state
// across ticks, advance it one cell step per Append, and serve a
// forecast by running only the T'-step decoder — skipping the T-step
// encoder replay entirely. A model opts in by additionally deriving from
// RecurrentStreamModel; serve::SessionManager detects the capability
// with a dynamic_cast and routes warm-state sessions through it.
//
// Exactness contract (asserted in stream_test):
//  * StreamStep applied to every tick since the session opened is
//    bit-identical to a cold Forward over the same full stream — the
//    carry IS the encoder, not an approximation of it.
//  * Relative to the *windowed* reference (a cold Forward over only the
//    last T ticks), carried state is drift-bounded: it remembers ticks
//    the window has forgotten. ResyncState rebuilds the state from a
//    window, after which the next forecast is bit-identical to the
//    windowed reference; SessionOptions::resync_every sets the cadence.

#ifndef DYHSL_TRAIN_STREAMING_H_
#define DYHSL_TRAIN_STREAMING_H_

#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace dyhsl::train {

/// \brief Opaque per-session recurrent state. Created, advanced and read
/// only by the model that owns the derived type; sessions just hold it.
class StreamState {
 public:
  virtual ~StreamState() = default;
};

/// \brief Implemented by models whose forecast decomposes into a
/// per-tick encoder step plus a window-free decoder rollout.
///
/// All methods are const (the model is shared read-only across sessions
/// and engine workers); the mutable part is the StreamState. State
/// tensors are heap-backed by contract, so states survive the per-step
/// Workspace resets of whatever arena the calling thread has installed.
class RecurrentStreamModel {
 public:
  virtual ~RecurrentStreamModel() = default;

  /// \brief A fresh state, equal to the encoder state before any input
  /// (zero hidden state, no decoder seed).
  virtual std::unique_ptr<StreamState> MakeStreamState() const = 0;

  /// \brief Advances the encoder by one tick. `frame` is (N, F) in the
  /// MakeInput feature layout (scaled flow, time-of-day, day-of-week).
  virtual void StreamStep(StreamState* state,
                          const tensor::Tensor& frame) const = 0;

  /// \brief Rebuilds the state by cold-replaying a full (T, N, F)
  /// window from zeros — afterwards the state matches what Forward's
  /// encoder would hold, bit-identically.
  virtual void ResyncState(StreamState* state,
                           const tensor::Tensor& window) const = 0;

  /// \brief Decoder-only rollout from the current state: raw-flow
  /// forecast (T', N). Does not advance or mutate `state` (each call
  /// rolls a private copy of the hidden state).
  virtual tensor::Tensor StreamForecast(const StreamState& state) const = 0;

  /// \name Cross-session batching
  ///
  /// The batched forms amortize one cell step / decoder rollout across B
  /// sessions that are ready at the same tick: an implementation stacks
  /// per-session state into (B, N, d) and runs one batched step (DCRNN).
  /// Contract: per-session results equal the sequential methods —
  /// bit-identically at B == 1, and within 1e-5 for B > 1 (the stacked
  /// kernels process each batch item with the same accumulation order,
  /// so implementations are typically bit-identical too).
  /// @{

  /// \brief Advances states[i] by one tick using frames slice i, where
  /// `frames` is the (B, frame_shape...) stack of per-session frames.
  virtual void AdvanceStateBatch(const std::vector<StreamState*>& states,
                                 const tensor::Tensor& frames) const = 0;

  /// \brief Decoder-only rollout for every state: stacked raw-flow
  /// forecasts (B, T', N). Mutates no state. The result is allocated
  /// through the caller's current allocation path (arena inside a
  /// WorkspaceScope) — copy it out before any reset.
  virtual tensor::Tensor ForecastFromStateBatch(
      const std::vector<const StreamState*>& states) const = 0;
  /// @}
};

}  // namespace dyhsl::train

#endif  // DYHSL_TRAIN_STREAMING_H_
