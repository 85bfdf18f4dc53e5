#include "src/tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <sstream>

#include "src/tensor/workspace.h"

namespace dyhsl::tensor {

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    DYHSL_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  numel_ = NumElements(shape_);
  // Arena-backed when a WorkspaceScope is active, heap otherwise.
  storage_ = AllocateStorage(numel_);
}

Tensor Tensor::Zeros(Shape shape) {
  Tensor t(std::move(shape));
  t.Fill(0.0f);
  return t;
}

Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, const std::vector<float>& values) {
  Tensor t(std::move(shape));
  DYHSL_CHECK_EQ(t.numel(), static_cast<int64_t>(values.size()));
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng->Gaussian() * stddev;
  return t;
}

Tensor Tensor::Uniform(Shape shape, Rng* rng, float lo, float hi) {
  Tensor t(std::move(shape));
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] = rng->Uniform(lo, hi);
  return t;
}

Tensor Tensor::Scalar(float value) { return Full({1}, value); }

Tensor Tensor::FromStorage(std::shared_ptr<float[]> storage, Shape shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.numel_ = NumElements(t.shape_);
  DYHSL_CHECK(storage != nullptr || t.numel_ == 0);
  t.storage_ = std::move(storage);
  return t;
}

Tensor Tensor::Alias(int64_t offset_floats, Shape new_shape) const {
  DYHSL_CHECK(defined());
  DYHSL_CHECK_GE(offset_floats, 0);
  const int64_t view_numel = NumElements(new_shape);
  DYHSL_CHECK_LE(offset_floats + view_numel, numel_);
  // Aliasing constructor: shares this storage's control block but points
  // at the offset — the view pins the whole buffer.
  std::shared_ptr<float[]> view(storage_, storage_.get() + offset_floats);
  return FromStorage(std::move(view), std::move(new_shape));
}

int64_t Tensor::size(int64_t axis) const {
  if (axis < 0) axis += dim();
  DYHSL_CHECK_GE(axis, 0);
  DYHSL_CHECK_LT(axis, dim());
  return shape_[axis];
}

float Tensor::At(std::initializer_list<int64_t> index) const {
  std::vector<int64_t> idx(index);
  return data()[FlatIndex(shape_, idx)];
}

void Tensor::Set(std::initializer_list<int64_t> index, float value) {
  std::vector<int64_t> idx(index);
  data()[FlatIndex(shape_, idx)] = value;
}

Tensor Tensor::Reshape(Shape new_shape) const {
  int64_t inferred_axis = -1;
  int64_t known = 1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      DYHSL_CHECK_MSG(inferred_axis == -1, "at most one -1 axis in Reshape");
      inferred_axis = static_cast<int64_t>(i);
    } else {
      known *= new_shape[i];
    }
  }
  if (inferred_axis >= 0) {
    DYHSL_CHECK_GT(known, 0);
    DYHSL_CHECK_EQ(numel_ % known, 0);
    new_shape[inferred_axis] = numel_ / known;
  }
  DYHSL_CHECK_MSG(NumElements(new_shape) == numel_,
                  "Reshape " + ShapeToString(shape_) + " -> " +
                      ShapeToString(new_shape));
  Tensor out;
  out.storage_ = storage_;
  out.shape_ = std::move(new_shape);
  out.numel_ = numel_;
  return out;
}

Tensor Tensor::Clone() const {
  Tensor out(shape_);
  if (numel_ > 0) std::memcpy(out.data(), data(), numel_ * sizeof(float));
  return out;
}

void Tensor::Fill(float value) {
  float* p = data();
  std::fill(p, p + numel_, value);
}

void Tensor::CopyDataFrom(const Tensor& other) {
  DYHSL_CHECK_EQ(numel_, other.numel_);
  if (numel_ > 0) std::memcpy(data(), other.data(), numel_ * sizeof(float));
}

std::vector<float> Tensor::ToVector() const {
  return std::vector<float>(data(), data() + numel_);
}

int64_t FlatIndex(const Shape& shape, const std::vector<int64_t>& index) {
  DYHSL_CHECK_EQ(shape.size(), index.size());
  int64_t flat = 0;
  for (size_t i = 0; i < shape.size(); ++i) {
    DYHSL_CHECK_GE(index[i], 0);
    DYHSL_CHECK_LT(index[i], shape[i]);
    flat = flat * shape[i] + index[i];
  }
  return flat;
}

}  // namespace dyhsl::tensor
