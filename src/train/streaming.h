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
//  * A state advanced (as a batch of one) by every tick since the session
//    opened is bit-identical to a cold Forward over the same full stream — the
//    carry IS the encoder, not an approximation of it.
//  * Relative to the *windowed* reference (a cold Forward over only the
//    last T ticks), carried state is drift-bounded: it remembers ticks
//    the window has forgotten. A resync rebuilds the state by a cold
//    replay of the window, after which the next forecast is bit-identical
//    to the windowed reference; SessionOptions::resync_every sets the
//    cadence. Resyncs are batched like every other state call: at B = 1
//    the replay is Forward's encoder over that window, and for DCRNN a
//    B > 1 replay is bit-identical per session too (measured, not only
//    within tolerance).
//  * A single session is a batch of one: at B = 1 the batched methods
//    are bit-identical to the per-session computation (one cell step,
//    one decoder rollout of Forward); for B > 1 each item is within 1e-5
//    of its B = 1 result.

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
/// The state-advancing and forecasting methods run under the caller's
/// autograd::InferenceModeGuard (serve::ForecastEngine's preamble holds
/// one); implementations do not install their own.
class RecurrentStreamModel {
 public:
  virtual ~RecurrentStreamModel() = default;

  /// \brief A fresh state, equal to the encoder state before any input
  /// (zero hidden state, no decoder seed).
  virtual std::unique_ptr<StreamState> MakeStreamState() const = 0;

  /// \name Cross-session batching
  ///
  /// One cell step / replay / decoder rollout serves B sessions that are
  /// ready at the same tick: an implementation stacks per-session state into
  /// (B, N, d) and runs one batched step (DCRNN). Contract: at B == 1 the
  /// result is bit-identical to the per-session computation (one encoder
  /// cell step of Forward; Forward's decoder from the state), and for
  /// B > 1 each item is within 1e-5 of its B == 1 result (the stacked
  /// kernels process each batch item with the same accumulation order,
  /// so implementations are typically bit-identical too).
  /// @{

  /// \brief Rebuilds states[i] by cold-replaying window slice i from
  /// zeros, where `windows` is the (B, T, N, F) stack SubmitBatch also
  /// takes — afterwards each state holds what Forward's encoder would
  /// hold over that window, bit-identically at B == 1.
  virtual void ResyncStateBatch(const std::vector<StreamState*>& states,
                                const tensor::Tensor& windows) const = 0;

  /// \brief Advances states[i] by one tick using frames slice i, where
  /// `frames` is the (B, N, F) stack of per-session frames in the
  /// MakeInput feature layout (scaled flow, time-of-day, day-of-week).
  virtual void AdvanceStateBatch(const std::vector<StreamState*>& states,
                                 const tensor::Tensor& frames) const = 0;

  /// \brief Decoder-only rollout for every state: stacked raw-flow
  /// forecasts (B, T', N). Mutates no state (each call rolls private
  /// copies of the hidden states). The result is allocated
  /// through the caller's current allocation path (arena inside a
  /// WorkspaceScope) — copy it out before any reset.
  virtual tensor::Tensor ForecastFromStateBatch(
      const std::vector<const StreamState*>& states) const = 0;
  /// @}
};

}  // namespace dyhsl::train

#endif  // DYHSL_TRAIN_STREAMING_H_
