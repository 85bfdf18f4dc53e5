#include "src/tensor/sparse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/tensor/simd.h"

namespace dyhsl::tensor {

namespace {

// One 16-float strip of an output row, held in a register while the row's
// nonzeros accumulate into it.
typedef float Strip __attribute__((vector_size(16 * sizeof(float))));
typedef float StripU __attribute__((vector_size(16 * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
constexpr int64_t kStrip = 16;

// Columns [0, kStrips * kStrip) of one output row: the strips stay in
// registers across all of the row's nonzeros and are stored once. Per
// element the operations are the row-at-a-time ones, in the same order:
// out = beta * out (or v_first * x when beta == 0), then out += v * x for
// each later nonzero in CSR order. DYHSL_ROUNDED keeps the first product
// and the beta scaling rounded on their own, as in a separate pass.
template <int64_t kStrips>
inline void SpMMStrips(const int64_t* col_idx, const float* vals, int64_t k0,
                       int64_t k1, const float* xb, int64_t f, float beta,
                       float* orow) {
  Strip acc[kStrips] = {};
  int64_t k = k0;
  if (beta == 0.0f) {
    const float v = vals[k0];
    const float* xrow = xb + col_idx[k0] * f;
    for (int64_t s = 0; s < kStrips; ++s) {
      acc[s] = DYHSL_ROUNDED(
          v * *reinterpret_cast<const StripU*>(xrow + s * kStrip));
    }
    k = k0 + 1;
  } else {
    for (int64_t s = 0; s < kStrips; ++s) {
      acc[s] = *reinterpret_cast<const StripU*>(orow + s * kStrip);
      if (beta != 1.0f) acc[s] = DYHSL_ROUNDED(acc[s] * beta);
    }
  }
  for (; k < k1; ++k) {
    const float v = vals[k];
    const float* xrow = xb + col_idx[k] * f;
    for (int64_t s = 0; s < kStrips; ++s) {
      acc[s] += v * *reinterpret_cast<const StripU*>(xrow + s * kStrip);
    }
  }
  for (int64_t s = 0; s < kStrips; ++s) {
    *reinterpret_cast<StripU*>(orow + s * kStrip) = acc[s];
  }
}

// Shared CSR × dense core: out(b, r, :) = beta * out + sum_k v_k x(b, c_k, :)
// for the structure given by row_ptr/col_idx. Parallelism is over
// (batch, row) only — each output row is accumulated sequentially in CSR
// order, so results are bit-identical for every OpenMP thread count. A row
// is processed 64 columns at a time (four register strips), then by single
// strips, then column by column for the last f % 16.
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
      if (beta == 0.0f && k0 == k1) {
        // The first nonzero initializes the row (out may be uninitialized).
        for (int64_t c = 0; c < f; ++c) orow[c] = 0.0f;
        continue;
      }
      const float* xb = px + b * x_step;
      int64_t c = 0;
      for (; c + 4 * kStrip <= f; c += 4 * kStrip) {
        SpMMStrips<4>(col_idx, vals, k0, k1, xb + c, f, beta, orow + c);
      }
      for (; c + kStrip <= f; c += kStrip) {
        SpMMStrips<1>(col_idx, vals, k0, k1, xb + c, f, beta, orow + c);
      }
      for (; c < f; ++c) {
        const bool init = beta == 0.0f;
        float o = init ? DYHSL_ROUNDED(vals[k0] * xb[col_idx[k0] * f + c])
                       : orow[c];
        if (!init && beta != 1.0f) o = DYHSL_ROUNDED(o * beta);
        for (int64_t k = init ? k0 + 1 : k0; k < k1; ++k) {
          o += vals[k] * xb[col_idx[k] * f + c];
        }
        orow[c] = o;
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
