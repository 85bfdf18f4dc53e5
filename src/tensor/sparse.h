// Compressed-sparse-row matrices and the sparse kernel family.
//
// The fixed structure operators of DyHSL are sparse at heart: the temporal
// graph Ā of paper Eq. 4–5 is a normalized road adjacency, and the
// predefined hypergraph propagation G = D_v⁻¹ Λ D_e⁻¹ Λᵀ is a product of
// sparse incidences. This header provides the kernels the execution stack
// runs those operators on without densifying:
//
//  * CsrMatrix        — immutable structure + values (graphs, hypergraphs)
//  * SpMM / SpMMInto  — sparse × dense with batch support and beta
//                       accumulate modes (beta=1 writes straight into
//                       autograd gradient buffers)
//
// All kernels parallelize over output rows only, so results are
// bit-identical for every OpenMP thread count; outputs are allocated
// through Tensor and therefore land on the step Workspace arena whenever a
// scope is active.

#ifndef DYHSL_TENSOR_SPARSE_H_
#define DYHSL_TENSOR_SPARSE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/tensor.h"

namespace dyhsl::tensor {

/// \brief One (row, col, value) entry used to build a CSR matrix.
struct Triplet {
  int64_t row;
  int64_t col;
  float value;
};

/// \brief Immutable CSR sparse matrix of float values.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// \brief Builds from triplets; duplicate (row, col) entries are summed.
  static CsrMatrix FromTriplets(int64_t rows, int64_t cols,
                                std::vector<Triplet> triplets);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  /// \brief Transposed copy (CSR of A^T).
  CsrMatrix Transposed() const;

  /// \brief Returns a copy whose rows sum to 1 (zero rows left untouched).
  /// This is the normalization the paper uses for the temporal graph
  /// (sum_j A_bar(v, u) = 1 below Eq. 5).
  CsrMatrix RowNormalized() const;

  /// \brief Symmetric normalization D^-1/2 (A) D^-1/2 (for GCN baselines).
  CsrMatrix SymNormalized() const;

  /// \brief Returns A + I (self loops added; existing diagonal summed).
  CsrMatrix WithSelfLoops(float weight = 1.0f) const;

  /// \brief Dense copy (tests / small matrices only).
  Tensor ToDense() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int64_t> col_idx_;
  std::vector<float> values_;
};

/// \brief Sparse-dense product  A (rows x cols)  *  X (cols x f)  ->
/// (rows x f). X may also be 3-D (batch, cols, f) giving (batch, rows, f).
Tensor SpMM(const CsrMatrix& a, const Tensor& x);

/// \brief out = A X + beta * out. `out` must be preallocated to the SpMM
/// result shape; beta 0 overwrites (out may be uninitialized), any other
/// beta scales the existing contents first. beta=1 accumulates straight
/// into autograd gradient buffers, mirroring the dense MatMulInto path.
void SpMMInto(const CsrMatrix& a, const Tensor& x, float beta, Tensor* out);

/// \brief CSR matrix bundled with its transpose so autograd can run the
/// backward product without rebuilding structure every step.
struct SparseOp {
  CsrMatrix forward;
  CsrMatrix transpose;

  static std::shared_ptr<SparseOp> Create(CsrMatrix matrix) {
    auto op = std::make_shared<SparseOp>();
    op->transpose = matrix.Transposed();
    op->forward = std::move(matrix);
    return op;
  }
};

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_SPARSE_H_
