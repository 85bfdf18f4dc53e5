// Wraparound-safe sliding-window ring buffer for streaming ingestion.
//
// A streaming session appends one (frame_shape) frame per tick and
// forecasts from the most recent `steps` frames as one contiguous
// (steps, frame_shape...) tensor. A naive ring would make that window
// non-contiguous once the write cursor wraps, forcing a copy-out per
// forecast. RingWindow instead doubles the buffer: every frame is
// written twice, at slot q and slot q + steps, so the window starting at
// the oldest live slot is always contiguous and Window() is a zero-copy
// aliased view (Tensor::FromStorage) into the ring — the forecast path
// never re-materializes history.
//
// The doubled buffer costs 2x the window in memory (frames * numel — a
// few KB per session at city scale) and one extra frame memcpy per tick,
// in exchange for O(0) window assembly on the latency-critical path.
//
// Storage is allocated through AllocateStorage, so a SessionManager that
// installs a WorkspaceScope at construction places its rings in the
// arena. Not thread-safe: callers (the per-session lock in
// serve::SessionManager) serialize Push against Window/view consumers —
// a Push may overwrite the oldest frame of a still-live view.

#ifndef DYHSL_TENSOR_RING_H_
#define DYHSL_TENSOR_RING_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace dyhsl::tensor {

/// \brief Double-written ring of `steps` most-recent frames with a
/// zero-copy contiguous window view.
class RingWindow {
 public:
  /// \brief Rings hold `steps` frames of shape `frame_shape` each.
  RingWindow(int64_t steps, Shape frame_shape);

  /// \brief Appends one frame (frame_numel() floats), overwriting the
  /// oldest once the ring is full.
  void Push(const float* frame);

  int64_t steps() const { return steps_; }
  int64_t frame_numel() const { return frame_numel_; }
  /// Frames currently buffered, in [0, steps].
  int64_t count() const { return count_; }
  bool full() const { return count_ == steps_; }
  /// Total frames ever pushed (monotonic).
  int64_t total_pushed() const { return total_pushed_; }

  /// \brief The hot (steps, frame_shape...) window, oldest frame first,
  /// as a zero-copy view aliasing the ring's storage. Requires full().
  /// The view reflects — and is invalidated by — subsequent Push() calls.
  Tensor Window() const;

  /// \brief Like Window() but for the most recent `last` frames, shape
  /// (last, frame_shape...). Requires count() >= last.
  Tensor LastFrames(int64_t last) const;

 private:
  int64_t steps_;
  Shape frame_shape_;
  int64_t frame_numel_;
  /// Next write slot in [0, steps).
  int64_t cursor_ = 0;
  int64_t count_ = 0;
  int64_t total_pushed_ = 0;
  /// 2 * steps frames; slot q mirrors at q + steps.
  Tensor buffer_;
};

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_RING_H_
