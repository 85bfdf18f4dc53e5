// Shared helpers for the GoogleTest suites: tensor comparison with
// first-mismatch diagnostics, seeded-RNG fixtures, a slow stand-in model
// for the serving tests, a tick-by-tick replay of a simulated series, an
// OpenMP team concurrency probe and a transpose oracle for the GEMM
// tests.
//
// Keep this header test-only; production code must not include it.

#ifndef DYHSL_TESTS_TESTING_UTILS_H_
#define DYHSL_TESTS_TESTING_UTILS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/check.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/data/traffic_sim.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/train/forecast_model.h"

namespace dyhsl::testing {

inline std::string ShapeToString(const tensor::Shape& shape) {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "}";
  return os.str();
}

/// \brief Succeeds iff `actual` and `expected` have the same shape and agree
/// elementwise within `atol`. On failure reports the first mismatching flat
/// index plus both values, which the ad-hoc per-element loops this replaces
/// never did.
inline ::testing::AssertionResult TensorNear(const tensor::Tensor& actual,
                                             const tensor::Tensor& expected,
                                             float atol = 1e-4f) {
  if (actual.shape() != expected.shape()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: actual " << ShapeToString(actual.shape())
           << " vs expected " << ShapeToString(expected.shape());
  }
  const float* pa = actual.data();
  const float* pe = expected.data();
  for (int64_t i = 0; i < actual.numel(); ++i) {
    float diff = std::fabs(pa[i] - pe[i]);
    if (!(diff <= atol)) {  // negated so NaN also fails
      return ::testing::AssertionFailure()
             << "tensors differ at flat index " << i << ": actual " << pa[i]
             << " vs expected " << pe[i] << " (|diff| " << diff << " > atol "
             << atol << "); shape " << ShapeToString(actual.shape());
    }
  }
  return ::testing::AssertionSuccess();
}

/// \brief Succeeds iff both tensors have the same shape and are bitwise
/// identical — for determinism and checkpoint round-trip tests where "close"
/// is not good enough.
inline ::testing::AssertionResult TensorEq(const tensor::Tensor& actual,
                                           const tensor::Tensor& expected) {
  if (actual.shape() != expected.shape()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: actual " << ShapeToString(actual.shape())
           << " vs expected " << ShapeToString(expected.shape());
  }
  const float* pa = actual.data();
  const float* pe = expected.data();
  for (int64_t i = 0; i < actual.numel(); ++i) {
    // Bit comparison, not ==: identical NaNs must pass, +0.0/-0.0 must not.
    if (std::memcmp(&pa[i], &pe[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "tensors differ at flat index " << i << ": actual " << pa[i]
             << " vs expected " << pe[i] << "; shape "
             << ShapeToString(actual.shape());
    }
  }
  return ::testing::AssertionSuccess();
}

/// \brief Succeeds iff every row of a 2-D tensor sums to 1 within `atol`.
/// Rows that are entirely zero pass when `allow_zero_rows` is set (a
/// row-normalized sparse matrix keeps empty rows empty).
inline ::testing::AssertionResult RowStochastic(const tensor::Tensor& m,
                                                float atol = 1e-5f,
                                                bool allow_zero_rows = false) {
  if (m.dim() != 2) {
    return ::testing::AssertionFailure()
           << "expected a 2-D tensor, got shape " << ShapeToString(m.shape());
  }
  for (int64_t r = 0; r < m.size(0); ++r) {
    float sum = 0.0f;
    bool has_entries = false;
    for (int64_t c = 0; c < m.size(1); ++c) {
      float v = m.At({r, c});
      sum += v;
      has_entries |= v != 0.0f;
    }
    if (!has_entries && allow_zero_rows) continue;
    if (std::fabs(sum - 1.0f) > atol) {
      return ::testing::AssertionFailure()
             << "row " << r << " sums to " << sum << " (atol " << atol << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// \brief Largest elementwise |a - b|. Shapes must match; useful for "the
/// outputs must differ" assertions where a boolean comparison hides by how
/// much.
inline float MaxAbsDiff(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) {
    ADD_FAILURE() << "MaxAbsDiff shape mismatch: " << ShapeToString(a.shape())
                  << " vs " << ShapeToString(b.shape());
    return 0.0f;
  }
  float max_dev = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_dev = std::max(max_dev, std::fabs(a.data()[i] - b.data()[i]));
  }
  return max_dev;
}

/// \brief Sum of elementwise |a - b| (L1 distance between tensors).
inline float SumAbsDiff(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.shape() != b.shape()) {
    ADD_FAILURE() << "SumAbsDiff shape mismatch: " << ShapeToString(a.shape())
                  << " vs " << ShapeToString(b.shape());
    return 0.0f;
  }
  float total = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    total += std::fabs(a.data()[i] - b.data()[i]);
  }
  return total;
}

/// \brief EXPECT_-style wrapper around TensorNear.
#define EXPECT_TENSOR_NEAR(actual, expected, atol) \
  EXPECT_TRUE(::dyhsl::testing::TensorNear((actual), (expected), (atol)))

/// \brief ASSERT_-style wrapper around TensorNear.
#define ASSERT_TENSOR_NEAR(actual, expected, atol) \
  ASSERT_TRUE(::dyhsl::testing::TensorNear((actual), (expected), (atol)))

/// \brief EXPECT_-style wrapper around TensorEq.
#define EXPECT_TENSOR_EQ(actual, expected) \
  EXPECT_TRUE(::dyhsl::testing::TensorEq((actual), (expected)))

/// \brief Path under the GoogleTest temp dir for scratch files.
inline std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// \brief A forecast model whose every forward takes `forward_time` and
/// returns zeros (B, T', N). A queue behind it stays full for as long as
/// a test needs, without any engine knob.
class SlowForecastModel : public train::ForecastModel {
 public:
  SlowForecastModel(const train::ForecastTask& task,
                    std::chrono::milliseconds forward_time)
      : horizon_(task.horizon),
        num_nodes_(task.num_nodes),
        forward_time_(forward_time) {}

  autograd::Variable Forward(const tensor::Tensor& x, bool) override {
    std::this_thread::sleep_for(forward_time_);
    return autograd::Variable(
        tensor::Tensor::Zeros({x.size(0), horizon_, num_nodes_}));
  }
  std::vector<autograd::Variable> Parameters() const override { return {}; }
  int64_t ParameterCount() const override { return 0; }
  std::string name() const override { return "Slow"; }

 private:
  int64_t horizon_;
  int64_t num_nodes_;
  std::chrono::milliseconds forward_time_;
};

/// \brief 2-D transpose through the general permutation: the reference
/// the trans-flag GEMM paths are checked against.
inline tensor::Tensor Transpose2D(const tensor::Tensor& a) {
  DYHSL_CHECK_EQ(a.dim(), 2);
  return tensor::TransposePerm(a, {1, 0});
}

/// \brief Forward iterator over the raw-flow rows of a TrafficData series
/// in [start_step, end_step): each row is a zero-copy (N,) frame plus its
/// absolute tick index, the (tick, frame) pair SessionManager::Append
/// consumes. The series is borrowed and must outlive the stream.
class TickStream {
 public:
  /// `end_step` < 0 means the end of the series.
  explicit TickStream(const data::TrafficData& data, int64_t start_step = 0,
                      int64_t end_step = -1)
      : flow_(&data.flow),
        num_nodes_(data.flow.size(1)),
        step_(start_step),
        end_(end_step < 0 ? data.flow.size(0) : end_step) {
    DYHSL_CHECK_GE(start_step, 0);
    DYHSL_CHECK_LE(end_, data.flow.size(0));
    DYHSL_CHECK_LE(step_, end_);
  }

  bool Done() const { return step_ >= end_; }
  /// Absolute tick index of the current frame.
  int64_t tick() const { return step_; }
  /// \brief The current frame as a view into the series; Advance() does
  /// not invalidate frames returned earlier.
  tensor::Tensor Frame() const {
    DYHSL_CHECK(!Done());
    return flow_->Alias(step_ * num_nodes_, {num_nodes_});
  }
  void Advance() {
    DYHSL_CHECK(!Done());
    step_ += 1;
  }

  int64_t num_nodes() const { return num_nodes_; }
  /// Ticks remaining, including the current one.
  int64_t remaining() const { return end_ - step_; }

 private:
  const tensor::Tensor* flow_;
  int64_t num_nodes_;
  int64_t step_;
  int64_t end_;
};

/// \brief Runs one parallel region scoped the way the tensor kernels scope
/// theirs (num_threads(TeamThreads())): every team member increments
/// *live, folds the observed concurrency into *peak (a process-wide high
/// watermark when shared across probing threads), spins for ~spin_micros,
/// then decrements. Returns the team size that actually ran (1 without
/// OpenMP).
inline int TeamConcurrencyProbe(std::atomic<int>* live,
                                std::atomic<int>* peak, int spin_micros) {
  const int team = core::TeamThreads();
  (void)team;  // consumed only by the pragma; unused without OpenMP
  std::atomic<int> ran{0};
#pragma omp parallel num_threads(team)
  {
    const int now = live->fetch_add(1, std::memory_order_acq_rel) + 1;
    int prev = peak->load(std::memory_order_relaxed);
    while (now > prev &&
           !peak->compare_exchange_weak(prev, now, std::memory_order_acq_rel)) {
    }
    ran.fetch_add(1, std::memory_order_relaxed);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::microseconds(spin_micros);
    while (std::chrono::steady_clock::now() < until) {
    }
    live->fetch_sub(1, std::memory_order_acq_rel);
  }
  return std::max(1, ran.load(std::memory_order_relaxed));
}

/// \brief Fixture owning a deterministically seeded Rng.
class SeededTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kDefaultSeed = 42;

  Rng rng_{kDefaultSeed};
};

}  // namespace dyhsl::testing

#endif  // DYHSL_TESTS_TESTING_UTILS_H_
