// Dense float32 N-dimensional tensor.
//
// Design notes
//  * Row-major and always contiguous: Reshape shares storage, every other
//    movement op copies. This rules out an entire class of stride bugs at a
//    small cost in copies, which profiling shows are dwarfed by matmuls for
//    the workloads in this repository.
//  * Storage is shared (shared_ptr), so Tensor is a cheap value type; Clone()
//    makes a deep copy when isolation is required. Allocation goes through
//    AllocateStorage (src/tensor/workspace.h): heap by default, arena-backed
//    inside a WorkspaceScope (the training loop installs one per step).
//  * Only float32 is supported: every model and kernel in the paper operates
//    on float features; index arrays use std::vector<int64_t> directly.

#ifndef DYHSL_TENSOR_TENSOR_H_
#define DYHSL_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/core/check.h"
#include "src/core/rng.h"

namespace dyhsl::tensor {

/// \brief Dimension sizes of a tensor, outermost first.
using Shape = std::vector<int64_t>;

/// \brief Number of elements implied by a shape (1 for rank-0).
int64_t NumElements(const Shape& shape);

/// \brief "[2, 3, 4]"-style rendering for error messages.
std::string ShapeToString(const Shape& shape);

/// \brief Contiguous row-major float tensor with shared storage.
class Tensor {
 public:
  /// Creates an empty (rank-0, zero-element) tensor.
  Tensor() = default;

  /// Creates an uninitialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// \name Factories
  /// @{
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  /// Wraps a copy of `values`; total size must match the shape.
  static Tensor FromVector(Shape shape, const std::vector<float>& values);
  /// Standard-normal entries scaled by `stddev`.
  static Tensor Randn(Shape shape, Rng* rng, float stddev = 1.0f);
  /// Uniform entries in [lo, hi).
  static Tensor Uniform(Shape shape, Rng* rng, float lo, float hi);
  /// Rank-0-like scalar represented as shape {1}.
  static Tensor Scalar(float value);
  /// Wraps existing storage without copying — the zero-copy view factory
  /// used by ring buffers (src/tensor/ring.h), which alias a window inside
  /// a larger buffer via the shared_ptr aliasing constructor. The wrapped
  /// pointer must stay valid for the storage's lifetime; because the view
  /// shares ownership, UniqueStorage() is false on both sides, which is
  /// exactly what keeps the in-place inference fast paths from mutating
  /// the underlying buffer through the view.
  static Tensor FromStorage(std::shared_ptr<float[]> storage, Shape shape);
  /// @}

  const Shape& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  int64_t size(int64_t axis) const;
  int64_t numel() const { return numel_; }
  bool defined() const { return storage_ != nullptr; }

  float* data() { return storage_.get(); }
  const float* data() const { return storage_.get(); }

  /// \brief Element access by multi-index (test/debug convenience, slow).
  float At(std::initializer_list<int64_t> index) const;
  void Set(std::initializer_list<int64_t> index, float value);

  /// \brief Returns a tensor sharing this storage with a new shape.
  /// One dimension may be -1 (inferred). Element count must match.
  Tensor Reshape(Shape new_shape) const;

  /// \brief Zero-copy view of `new_shape` starting `offset_floats` into
  /// this storage (shared_ptr aliasing constructor: the view keeps the
  /// whole buffer alive). The window [offset, offset + numel) must lie
  /// inside this tensor. Like Reshape, the view stays contiguous
  /// row-major; unlike Reshape it may cover a strict sub-range.
  Tensor Alias(int64_t offset_floats, Shape new_shape) const;

  /// \brief Deep copy.
  Tensor Clone() const;

  /// \brief Sets every element to `value`.
  void Fill(float value);

  /// \brief Copies the contents of `other` (same numel) into this storage.
  void CopyDataFrom(const Tensor& other);

  /// \brief True if both tensors share the same underlying buffer.
  bool SharesStorageWith(const Tensor& other) const {
    return storage_ == other.storage_;
  }

  /// \brief True if no other Tensor (e.g. a Reshape view) references this
  /// storage — the precondition for safe in-place mutation.
  bool UniqueStorage() const {
    return storage_ != nullptr && storage_.use_count() == 1;
  }

  /// \brief All elements as a vector (test convenience).
  std::vector<float> ToVector() const;

 private:
  std::shared_ptr<float[]> storage_;
  Shape shape_;
  int64_t numel_ = 0;
};

/// \brief Flat offset of a multi-index in a row-major tensor of `shape`.
int64_t FlatIndex(const Shape& shape, const std::vector<int64_t>& index);

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_TENSOR_H_
