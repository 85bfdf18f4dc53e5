#include "src/tensor/ring.h"

#include <cstring>
#include <utility>

#include "src/core/check.h"

namespace dyhsl::tensor {

namespace {

Shape DoubledShape(int64_t steps, const Shape& frame_shape) {
  Shape shape;
  shape.reserve(frame_shape.size() + 1);
  shape.push_back(2 * steps);
  for (int64_t d : frame_shape) shape.push_back(d);
  return shape;
}

}  // namespace

RingWindow::RingWindow(int64_t steps, Shape frame_shape)
    : steps_(steps),
      frame_shape_(std::move(frame_shape)),
      frame_numel_(NumElements(frame_shape_)),
      buffer_(DoubledShape(steps, frame_shape_)) {
  DYHSL_CHECK_GE(steps_, 1);
  DYHSL_CHECK_GE(frame_numel_, 1);
}

void RingWindow::Push(const float* frame) {
  const size_t bytes = static_cast<size_t>(frame_numel_) * sizeof(float);
  float* base = buffer_.data();
  // The double write: slot q and its mirror q + steps. Any window of
  // `steps` consecutive slots starting in [0, steps) is then contiguous.
  std::memcpy(base + cursor_ * frame_numel_, frame, bytes);
  std::memcpy(base + (cursor_ + steps_) * frame_numel_, frame, bytes);
  cursor_ = (cursor_ + 1) % steps_;
  count_ = std::min(count_ + 1, steps_);
  total_pushed_ += 1;
}

Tensor RingWindow::Window() const {
  DYHSL_CHECK(full());
  return LastFrames(steps_);
}

Tensor RingWindow::LastFrames(int64_t last) const {
  DYHSL_CHECK_GE(last, 1);
  DYHSL_CHECK_LE(last, count_);
  // cursor_ is the next write slot == the oldest live slot once full; the
  // newest frame sits at cursor_ - 1 (mod steps), so the last `last`
  // frames start `last` slots before the mirror of the cursor.
  const int64_t start = cursor_ - last < 0 ? cursor_ - last + steps_
                                           : cursor_ - last;
  Shape view_shape;
  view_shape.reserve(frame_shape_.size() + 1);
  view_shape.push_back(last);
  for (int64_t d : frame_shape_) view_shape.push_back(d);
  // Zero-copy alias into the doubled buffer. The view shares the ring's
  // storage (UniqueStorage() false on both sides), so inference in-place
  // fast paths can never write through the view into the ring.
  return buffer_.Alias(start * frame_numel_, std::move(view_shape));
}

}  // namespace dyhsl::tensor
