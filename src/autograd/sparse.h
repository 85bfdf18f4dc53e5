// Sparse matrices on the autograd tape.
//
// A SparseConstant has its structure AND values fixed (road adjacencies,
// temporal graphs, hypergraph propagation operators). It never carries
// gradient; SpMM only differentiates through the dense side, pulling the
// gradient back through the precomputed transpose.
//
// SpMM is finite-difference gradchecked in tests/sparse_kernels_test.cc;
// keep that suite in sync when extending.

#ifndef DYHSL_AUTOGRAD_SPARSE_H_
#define DYHSL_AUTOGRAD_SPARSE_H_

#include <memory>
#include <utility>

#include "src/autograd/variable.h"
#include "src/tensor/sparse.h"

namespace dyhsl::autograd {

/// \brief A CSR matrix entering the tape as a constant: cheap to copy
/// (shares the underlying SparseOp), never differentiated. Wraps the
/// kernel-level forward + transpose pair so both the forward product and
/// the backward pull run without rebuilding structure.
class SparseConstant {
 public:
  SparseConstant() = default;
  /// Takes ownership of the matrix and precomputes its transpose.
  explicit SparseConstant(tensor::CsrMatrix matrix)
      : op_(tensor::SparseOp::Create(std::move(matrix))) {}
  /// Wraps an existing kernel-level op (implicit: the kernel and tape
  /// representations are the same object at different layers).
  SparseConstant(std::shared_ptr<tensor::SparseOp> op)  // NOLINT
      : op_(std::move(op)) {}

  bool defined() const { return op_ != nullptr; }
  int64_t rows() const { return op_->forward.rows(); }
  int64_t cols() const { return op_->forward.cols(); }
  int64_t nnz() const { return op_->forward.nnz(); }

  const tensor::CsrMatrix& matrix() const { return op_->forward; }
  const tensor::CsrMatrix& transpose() const { return op_->transpose; }
  const std::shared_ptr<tensor::SparseOp>& op() const { return op_; }

 private:
  std::shared_ptr<tensor::SparseOp> op_;
};

/// \brief Sparse constant times dense variable: op(A) X with X 2-D or 3-D
/// batched. The sparse matrix carries no gradient; the dense gradient is
/// pulled back through the precomputed transpose and accumulates straight
/// into the parent's grad buffer (SpMMInto beta path, no temporaries).
Variable SpMM(const SparseConstant& a, const Variable& x,
              bool trans_a = false);

}  // namespace dyhsl::autograd

#endif  // DYHSL_AUTOGRAD_SPARSE_H_
