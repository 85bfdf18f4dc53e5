// Kernel-equivalence and autograd suite for the sparse kernels
// (src/tensor/sparse.h, src/autograd/sparse.h) and the SIMD dispatch layer
// (src/tensor/simd.h).
//
// Mirrors tensor_kernels_test: SpMM is checked against an independent
// naive reference across odd/prime shapes, both beta modes and batch
// layouts, plus OpenMP thread-count bit-determinism; the taped SpMM is
// finite-difference gradchecked through the transpose product. The SIMD
// transcendentals are checked against a double-precision reference, and
// every compiled level bit-for-bit against the scalar table.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
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

// The transcendental sweep: every 2^-8-spaced value in [-20, 20], then
// ±0, denormals, ±inf and NaN. `range_edges` adds arguments where exp
// overflows or returns denormals, for the bit-identity checks.
Tensor TranscendentalSweep(bool range_edges = false) {
  std::vector<float> xs;
  if (range_edges) {
    for (float x : {-150.0f, -104.5f, -103.9f, -103.0f, -100.0f, -95.5f,
                    -90.0f, -87.5f, -87.0f, 88.5f, 88.72f, 88.75f, 89.5f,
                    100.0f}) {
      xs.push_back(x);
    }
  }
  for (int i = -20 * 256; i <= 20 * 256; ++i) {
    xs.push_back(std::ldexp(static_cast<float>(i), -8));
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm_min = std::numeric_limits<float>::denorm_min();
  for (float x : {0.0f, -0.0f, denorm_min, -denorm_min,
                  std::ldexp(1.0f, -130), -std::ldexp(1.0f, -140),
                  std::ldexp(0.75f, -126), inf, -inf,
                  std::numeric_limits<float>::quiet_NaN(),
                  -std::numeric_limits<float>::quiet_NaN()}) {
    xs.push_back(x);
  }
  return Tensor::FromVector({static_cast<int64_t>(xs.size())}, xs);
}

// Distance in representable floats between two finite floats.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float f) {
    int32_t i;
    std::memcpy(&i, &f, sizeof(i));
    return i < 0 ? static_cast<int64_t>(INT32_MIN) - i
                 : static_cast<int64_t>(i);
  };
  return std::llabs(ordered(a) - ordered(b));
}

struct Transcendental {
  const char* name;
  void (*simd::Ops::*fn)(const float*, float*, int64_t);
  double (*reference)(double);
};

const Transcendental kTranscendentals[] = {
    {"tanh", &simd::Ops::tanh, [](double x) { return std::tanh(x); }},
    {"sigmoid", &simd::Ops::sigmoid,
     [](double x) { return 1.0 / (1.0 + std::exp(-x)); }},
    {"exp", &simd::Ops::exp, [](double x) { return std::exp(x); }},
};

TEST_F(SparseKernelsTest, SimdTranscendentalsWithinTwoUlpOfDouble) {
  const Tensor x = TranscendentalSweep();
  for (const Transcendental& t : kTranscendentals) {
    Tensor y(x.shape());
    (simd::OpsFor(simd::Level::kScalar).*t.fn)(x.data(), y.data(),
                                               x.numel());
    int64_t worst = 0;
    for (int64_t i = 0; i < x.numel(); ++i) {
      const float xi = x.data()[i];
      const float got = y.data()[i];
      const float want = static_cast<float>(t.reference(xi));
      if (std::isnan(want)) {
        // NaN passes through with its exact bits.
        EXPECT_TENSOR_EQ(Tensor::Scalar(got), Tensor::Scalar(xi)) << t.name;
        continue;
      }
      if (std::isinf(want) || want == 0.0f) {
        // Exact at the limits, including the sign of a zero.
        EXPECT_TENSOR_EQ(Tensor::Scalar(got), Tensor::Scalar(want))
            << t.name << "(" << xi << ") = " << got;
        continue;
      }
      const int64_t ulps = UlpDistance(got, want);
      worst = std::max(worst, ulps);
      EXPECT_LE(ulps, 2) << t.name << "(" << xi << ") = " << got
                         << ", want " << want;
    }
    RecordProperty(std::string("max_ulp_") + t.name,
                   static_cast<int>(worst));
  }
}

TEST_F(SparseKernelsTest, SimdTranscendentalsBitIdenticalAcrossLevels) {
  const Tensor x = TranscendentalSweep(/*range_edges=*/true);
  // Input windows start anywhere in a random buffer, so every lane of the
  // vector body and of the masked tail sees varied values.
  Tensor buffer = Tensor::Randn({64}, &rng_, 6.0f);
  for (const Transcendental& t : kTranscendentals) {
    Tensor want(x.shape());
    (simd::OpsFor(simd::Level::kScalar).*t.fn)(x.data(), want.data(),
                                               x.numel());
    std::vector<simd::Level> levels = SupportedVectorLevels();
    levels.insert(levels.begin(), simd::Level::kScalar);
    for (simd::Level level : levels) {
      const simd::Ops& ops = simd::OpsFor(level);
      Tensor got(x.shape());
      (ops.*t.fn)(x.data(), got.data(), x.numel());
      EXPECT_TENSOR_EQ(got, want) << t.name << " " << simd::LevelName(level);
      // Elementwise reference for the buffer, one element per call.
      Tensor one(buffer.shape());
      for (int64_t i = 0; i < buffer.numel(); ++i) {
        (ops.*t.fn)(buffer.data() + i, one.data() + i, 1);
      }
      for (int64_t n = 0; n <= 33; ++n) {
        for (int64_t off = 0; off <= 15; ++off) {
          Tensor out = Tensor::Full(buffer.shape(), -7.0f);
          (ops.*t.fn)(buffer.data() + off, out.data() + off, n);
          for (int64_t i = 0; i < buffer.numel(); ++i) {
            const bool live = i >= off && i < off + n;
            const float expect = live ? one.data()[i] : -7.0f;
            ASSERT_EQ(std::memcmp(&out.data()[i], &expect, sizeof(float)), 0)
                << t.name << " " << simd::LevelName(level) << " n=" << n
                << " off=" << off << " i=" << i;
          }
          // In place gives the same bits.
          Tensor inplace = buffer.Clone();
          (ops.*t.fn)(inplace.data() + off, inplace.data() + off, n);
          for (int64_t i = off; i < off + n; ++i) {
            ASSERT_EQ(std::memcmp(&inplace.data()[i], &one.data()[i],
                                  sizeof(float)),
                      0)
                << t.name << " in place n=" << n << " off=" << off;
          }
        }
      }
      // The scalar reference of the buffer matches this level too.
      Tensor scalar_one(buffer.shape());
      (simd::OpsFor(simd::Level::kScalar).*t.fn)(
          buffer.data(), scalar_one.data(), buffer.numel());
      EXPECT_TENSOR_EQ(one, scalar_one) << t.name << " "
                                        << simd::LevelName(level);
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
