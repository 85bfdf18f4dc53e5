// Kernel-equivalence and autograd suite for the sparse kernels
// (src/tensor/sparse.h, src/autograd/sparse.h) and the SIMD dispatch layer
// (src/tensor/simd.h).
//
// Mirrors tensor_kernels_test: SpMM is checked against an independent
// naive reference across odd/prime shapes, both beta modes and batch
// layouts, plus OpenMP thread-count bit-determinism; the taped SpMM is
// finite-difference gradchecked through the transpose product. Every
// compiled SIMD level is checked bit-for-bit against the scalar table.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/autograd/sparse.h"
#include "src/autograd/variable.h"
#include "src/core/rng.h"
#include "src/tensor/ops.h"
#include "src/tensor/simd.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "tests/testing_utils.h"

namespace dyhsl::tensor {
namespace {

namespace ag = ::dyhsl::autograd;
using ::dyhsl::testing::SeededTest;

// Random CSR with ~`density` fill; at least one entry so tests are not
// vacuous. Odd densities leave empty rows/cols, exercising the zero-row
// paths of every kernel.
CsrMatrix RandomCsr(int64_t rows, int64_t cols, double density, Rng* rng) {
  std::vector<Triplet> trips;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng->Bernoulli(density)) trips.push_back({r, c, rng->Gaussian()});
    }
  }
  if (trips.empty()) trips.push_back({0, 0, 1.0f});
  return CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

// Independent dense reference for A X over 2-D or 3-D X.
Tensor RefSpMM(const Tensor& a, const Tensor& x) {
  if (x.dim() == 2) return MatMul(a, x);
  Tensor out({x.size(0), a.size(0), x.size(2)});
  for (int64_t b = 0; b < x.size(0); ++b) {
    Tensor xb = Slice(x, 0, b, 1).Reshape({x.size(1), x.size(2)});
    Tensor ob = MatMul(a, xb);
    std::copy(ob.data(), ob.data() + ob.numel(),
              out.data() + b * ob.numel());
  }
  return out;
}

class SparseKernelsTest : public SeededTest {};

// ------------------------------------------------------------ kernels ----

TEST_F(SparseKernelsTest, SpMMIntoMatchesReferenceAcrossShapesAndBeta) {
  for (int64_t rows : {1, 3, 7, 17, 31}) {
    for (int64_t cols : {2, 5, 13}) {
      for (int64_t f : {1, 4, 9}) {
        CsrMatrix a = RandomCsr(rows, cols, 0.4, &rng_);
        Tensor x = Tensor::Randn({cols, f}, &rng_);
        Tensor ref = RefSpMM(a.ToDense(), x);
        EXPECT_TENSOR_NEAR(SpMM(a, x), ref, 1e-4f);
        // beta = 1 accumulates onto existing contents.
        Tensor acc = Tensor::Randn({rows, f}, &rng_);
        Tensor expected = Add(acc, ref);
        SpMMInto(a, x, 1.0f, &acc);
        EXPECT_TENSOR_NEAR(acc, expected, 1e-4f);
        // beta = 0 overwrites uninitialized storage.
        Tensor raw({rows, f});
        SpMMInto(a, x, 0.0f, &raw);
        EXPECT_TENSOR_NEAR(raw, ref, 1e-4f);
      }
    }
  }
}

TEST_F(SparseKernelsTest, SpMMBatchedMatchesPerItemReference) {
  CsrMatrix a = RandomCsr(11, 7, 0.35, &rng_);
  Tensor x = Tensor::Randn({3, 7, 5}, &rng_);
  EXPECT_TENSOR_NEAR(SpMM(a, x), RefSpMM(a.ToDense(), x), 1e-4f);
}

// ------------------------------------------------------- determinism ----

#ifdef _OPENMP
TEST_F(SparseKernelsTest, SpMMBitDeterministicAcrossThreadCounts) {
  CsrMatrix a = RandomCsr(67, 67, 0.2, &rng_);
  Tensor x = Tensor::Randn({4, 67, 33}, &rng_);
  int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Tensor y1 = SpMM(a, x);
  omp_set_num_threads(4);
  Tensor y4 = SpMM(a, x);
  omp_set_num_threads(saved);
  EXPECT_TENSOR_EQ(y1, y4);
}
#endif

TEST_F(SparseKernelsTest, SpMMOutputLandsOnActiveWorkspace) {
  CsrMatrix a = RandomCsr(9, 9, 0.3, &rng_);
  Tensor x = Tensor::Randn({9, 4}, &rng_);
  Workspace workspace;
  {
    WorkspaceScope scope(&workspace);
    Tensor y = SpMM(a, x);
    EXPECT_GT(workspace.live_allocations(), 0);
  }
  workspace.Reset();
  EXPECT_EQ(workspace.live_allocations(), 0);
}

// ---------------------------------------------------------- autograd ----

ag::Variable ToScalar(const ag::Variable& v) { return ag::SumAll(v); }

TEST_F(SparseKernelsTest, SpMMConstantGradcheckBothDirections) {
  CsrMatrix a = RandomCsr(6, 5, 0.5, &rng_);
  ag::SparseConstant op(a);
  for (bool trans : {false, true}) {
    ag::Variable x(
        Tensor::Randn({trans ? a.rows() : a.cols(), 3}, &rng_), true);
    auto report = ag::GradCheck(
        [&](const std::vector<ag::Variable>& in) {
          return ToScalar(ag::SpMM(op, in[0], trans));
        },
        {x});
    EXPECT_TRUE(report.ok) << "trans=" << trans
                           << " max_rel=" << report.max_rel_error;
  }
}

TEST_F(SparseKernelsTest, SpMMVsDenseAgreementAtModelShapes) {
  // The acceptance bar of the sparse-first refactor: the sparse temporal
  // path and the densified reference agree to <= 1e-4 relative error at
  // paper-like shapes.
  CsrMatrix a = RandomCsr(207, 207, 0.05, &rng_).RowNormalized();
  ag::SparseConstant op(a);
  Tensor dense = a.ToDense();
  ag::Variable x(Tensor::Randn({4, 207, 64}, &rng_));
  Tensor via_sparse = ag::SpMM(op, x).value();
  Tensor via_dense = ag::BatchedMatMul(ag::Variable(dense), x).value();
  float max_abs = dyhsl::testing::MaxAbsDiff(via_sparse, via_dense);
  float scale = 0.0f;
  for (int64_t i = 0; i < via_dense.numel(); ++i) {
    scale = std::max(scale, std::fabs(via_dense.data()[i]));
  }
  EXPECT_LE(max_abs, 1e-4f * std::max(1.0f, scale));
}

// ---------------------------------------------------- SIMD dispatch ----

// The vector levels compiled in and supported by this machine (scalar is
// the reference they are compared against).
std::vector<simd::Level> SupportedVectorLevels() {
  std::vector<simd::Level> levels;
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx512) {
    levels.push_back(simd::Level::kAvx512);
  }
  return levels;
}

TEST_F(SparseKernelsTest, SimdTileRowUpdateBitIdenticalAcrossLevels) {
  const simd::Ops& scalar = simd::OpsFor(simd::Level::kScalar);
  // The second scale draws every operand far below FLT_MIN: simd.h
  // promises no FTZ/DAZ, so denormal sums and products must round the
  // same way at every level instead of flushing to zero.
  const float denorm = std::ldexp(1.0f, -140);
  for (float scale : {1.0f, denorm}) {
    for (int64_t n = 1; n <= simd::kMaxLanes; ++n) {
      Tensor acc = Tensor::Randn({simd::kMaxLanes}, &rng_, scale);
      Tensor base = Tensor::Randn({simd::kMaxLanes}, &rng_, scale);
      if (scale != 1.0f) {
        // Keeps the case honest: the operands really are subnormal.
        int64_t subnormal = 0;
        for (int64_t j = 0; j < n; ++j) {
          subnormal += std::fpclassify(acc.data()[j]) == FP_SUBNORMAL;
          subnormal += std::fpclassify(base.data()[j]) == FP_SUBNORMAL;
        }
        ASSERT_GT(subnormal, 0) << "n=" << n;
      }
      for (float beta : {0.0f, 1.0f, -0.375f}) {
        Tensor want = base.Clone();
        scalar.tile_row_update(acc.data(), want.data(), n, beta);
        for (simd::Level level : SupportedVectorLevels()) {
          Tensor got = base.Clone();
          simd::OpsFor(level).tile_row_update(acc.data(), got.data(), n,
                                              beta);
          EXPECT_TENSOR_EQ(got, want) << simd::LevelName(level) << " n=" << n
                                      << " beta=" << beta
                                      << " scale=" << scale;
          // Lanes past n must be untouched (masked stores).
          for (int64_t j = n; j < simd::kMaxLanes; ++j) {
            EXPECT_EQ(got.data()[j], base.data()[j]);
          }
        }
      }
    }
  }
}

TEST_F(SparseKernelsTest, SimdActiveLevelIsAtMostDetected) {
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectedLevel()));
  EXPECT_NE(simd::LevelName(simd::ActiveLevel()), nullptr);
}

}  // namespace
}  // namespace dyhsl::tensor
