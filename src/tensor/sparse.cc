#include "src/tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/check.h"
#include "src/core/parallel.h"

namespace dyhsl::tensor {

namespace {

// Shared CSR × dense core: out(b, r, :) = beta * out + sum_k v_k x(b, c_k, :)
// for the structure given by row_ptr/col_idx. Parallelism is over
// (batch, row) only — each output row is accumulated sequentially in CSR
// order, so results are bit-identical for every OpenMP thread count.
void SpMMCore(int64_t batch, int64_t rows, const int64_t* row_ptr,
              const int64_t* col_idx, const float* vals, const float* px,
              int64_t x_rows, int64_t f, float beta, float* po) {
  const int64_t x_step = x_rows * f;
  const int64_t o_step = rows * f;
  const int64_t nnz = row_ptr[rows];
  // Scoped to the calling thread's ThreadBudget slice (see
  // core::TeamScope): engine workers' sparse products stay inside their
  // partition of the machine instead of each forking a full team.
  const int team = core::TeamThreads();
  (void)team;  // consumed only by the pragma; unused without OpenMP
#pragma omp parallel for collapse(2) num_threads(team) \
    if (batch * nnz * f > 16384)
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t r = 0; r < rows; ++r) {
      float* orow = po + b * o_step + r * f;
      const int64_t k0 = row_ptr[r], k1 = row_ptr[r + 1];
      int64_t k = k0;
      if (beta == 0.0f) {
        // The first nonzero initializes the row (out may be uninitialized).
        if (k0 == k1) {
          for (int64_t c = 0; c < f; ++c) orow[c] = 0.0f;
          continue;
        }
        const float v = vals[k0];
        const float* xrow = px + b * x_step + col_idx[k0] * f;
        for (int64_t c = 0; c < f; ++c) orow[c] = v * xrow[c];
        k = k0 + 1;
      } else if (beta != 1.0f) {
        for (int64_t c = 0; c < f; ++c) orow[c] *= beta;
      }
      for (; k < k1; ++k) {
        const float v = vals[k];
        const float* xrow = px + b * x_step + col_idx[k] * f;
        for (int64_t c = 0; c < f; ++c) orow[c] += v * xrow[c];
      }
    }
  }
}

struct DenseDims {
  int64_t batch;
  int64_t rows;
  int64_t f;
};

DenseDims CheckDense(const Tensor& x, int64_t expected_rows,
                     const char* what) {
  DYHSL_CHECK_MSG(x.dim() == 2 || x.dim() == 3,
                  std::string(what) + ": dense operand must be 2-D or 3-D");
  bool batched = x.dim() == 3;
  DenseDims d;
  d.batch = batched ? x.size(0) : 1;
  d.rows = batched ? x.size(1) : x.size(0);
  d.f = batched ? x.size(2) : x.size(1);
  DYHSL_CHECK_MSG(d.rows == expected_rows,
                  std::string(what) + " dim mismatch: dense operand has " +
                      std::to_string(d.rows) + " rows, expected " +
                      std::to_string(expected_rows));
  return d;
}

}  // namespace

CsrMatrix CsrMatrix::FromTriplets(int64_t rows, int64_t cols,
                                  std::vector<Triplet> triplets) {
  DYHSL_CHECK_GE(rows, 0);
  DYHSL_CHECK_GE(cols, 0);
  for (const Triplet& t : triplets) {
    DYHSL_CHECK_GE(t.row, 0);
    DYHSL_CHECK_LT(t.row, rows);
    DYHSL_CHECK_GE(t.col, 0);
    DYHSL_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  int64_t last_row = -1;
  int64_t last_col = -1;
  for (const Triplet& t : triplets) {
    if (t.row == last_row && t.col == last_col) {
      m.values_.back() += t.value;  // merge duplicate coordinate
      continue;
    }
    m.col_idx_.push_back(t.col);
    m.values_.push_back(t.value);
    m.row_ptr_[t.row + 1] += 1;
    last_row = t.row;
    last_col = t.col;
  }
  for (int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

CsrMatrix CsrMatrix::Identity(int64_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (int64_t i = 0; i < n; ++i) t.push_back({i, i, 1.0f});
  return FromTriplets(n, n, std::move(t));
}

CsrMatrix CsrMatrix::Transposed() const {
  std::vector<Triplet> t;
  t.reserve(values_.size());
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({col_idx_[k], r, values_[k]});
    }
  }
  return FromTriplets(cols_, rows_, std::move(t));
}

CsrMatrix CsrMatrix::RowNormalized() const {
  CsrMatrix m = *this;
  for (int64_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k];
    }
    if (sum <= 0.0) continue;
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.values_[k] *= inv;
    }
  }
  return m;
}

CsrMatrix CsrMatrix::SymNormalized() const {
  DYHSL_CHECK_EQ(rows_, cols_);
  std::vector<double> degree(rows_, 0.0);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      degree[r] += values_[k];
    }
  }
  std::vector<float> dinv(rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    dinv[r] = degree[r] > 0.0
                  ? static_cast<float>(1.0 / std::sqrt(degree[r]))
                  : 0.0f;
  }
  CsrMatrix m = *this;
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      m.values_[k] *= dinv[r] * dinv[col_idx_[k]];
    }
  }
  return m;
}

CsrMatrix CsrMatrix::WithSelfLoops(float weight) const {
  DYHSL_CHECK_EQ(rows_, cols_);
  std::vector<Triplet> t;
  t.reserve(values_.size() + rows_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      t.push_back({r, col_idx_[k], values_[k]});
    }
    t.push_back({r, r, weight});
  }
  return FromTriplets(rows_, cols_, std::move(t));
}

Tensor CsrMatrix::ToDense() const {
  Tensor d = Tensor::Zeros({rows_, cols_});
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d.data()[r * cols_ + col_idx_[k]] += values_[k];
    }
  }
  return d;
}

Tensor SpMM(const CsrMatrix& a, const Tensor& x) {
  DenseDims d = CheckDense(x, a.cols(), "SpMM");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, a.rows(), d.f}
                                 : Shape{a.rows(), d.f};
  Tensor out(out_shape);
  SpMMCore(d.batch, a.rows(), a.row_ptr().data(), a.col_idx().data(),
           a.values().data(), x.data(), d.rows, d.f, 0.0f, out.data());
  return out;
}

void SpMMInto(const CsrMatrix& a, const Tensor& x, float beta, Tensor* out) {
  DenseDims d = CheckDense(x, a.cols(), "SpMMInto");
  Shape out_shape = x.dim() == 3 ? Shape{d.batch, a.rows(), d.f}
                                 : Shape{a.rows(), d.f};
  DYHSL_CHECK_MSG(out->shape() == out_shape,
                  "SpMMInto: out shape " + ShapeToString(out->shape()) +
                      " != expected " + ShapeToString(out_shape));
  SpMMCore(d.batch, a.rows(), a.row_ptr().data(), a.col_idx().data(),
           a.values().data(), x.data(), d.rows, d.f, beta, out->data());
}

}  // namespace dyhsl::tensor
