// Property-based tests (parameterized sweeps) over the numeric substrate:
// invariants that must hold for arbitrary shapes, seeds and graph sizes,
// complementing the example-based unit tests.

#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/gradcheck.h"
#include "src/autograd/ops.h"
#include "src/data/dataset.h"
#include "src/graph/temporal_graph.h"
#include "src/metrics/metrics.h"
#include "src/tensor/ops.h"
#include "src/tensor/sparse.h"
#include "tests/testing_utils.h"

namespace dyhsl {
namespace {

namespace T = ::dyhsl::tensor;
namespace ag = ::dyhsl::autograd;

// ---------------------------------------------------------------------------
// Broadcasting: Add/Mul against a reference implementation for shape pairs.

using ShapePair = std::tuple<T::Shape, T::Shape>;

class BroadcastProperty : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastProperty, MatchesReferenceAndReducesBack) {
  auto [sa, sb] = GetParam();
  Rng rng(17);
  T::Tensor a = T::Tensor::Randn(sa, &rng);
  T::Tensor b = T::Tensor::Randn(sb, &rng);
  T::Tensor out = T::Add(a, b);
  T::Shape want_shape = T::BroadcastShape(sa, sb);
  EXPECT_EQ(out.shape(), want_shape);
  // Reference: iterate output indices, map back by modular arithmetic.
  std::vector<int64_t> idx(want_shape.size(), 0);
  for (int64_t flat = 0; flat < out.numel(); ++flat) {
    int64_t rem = flat;
    for (int64_t d = static_cast<int64_t>(want_shape.size()) - 1; d >= 0;
         --d) {
      idx[d] = rem % want_shape[d];
      rem /= want_shape[d];
    }
    auto source = [&](const T::Shape& s) {
      int64_t off = static_cast<int64_t>(want_shape.size() - s.size());
      int64_t sflat = 0;
      for (size_t d = 0; d < s.size(); ++d) {
        int64_t i = s[d] == 1 ? 0 : idx[off + d];
        sflat = sflat * s[d] + i;
      }
      return sflat;
    };
    EXPECT_FLOAT_EQ(out.data()[flat],
                    a.data()[source(sa)] + b.data()[source(sb)]);
  }
  // ReduceToShape inverts the expansion for gradient flow: reducing the
  // all-ones output back to each operand counts its fan-out.
  T::Tensor ones = T::Tensor::Ones(want_shape);
  T::Tensor ra = T::ReduceToShape(ones, sa);
  float fan_a = static_cast<float>(T::NumElements(want_shape)) /
                static_cast<float>(T::NumElements(sa));
  for (float v : ra.ToVector()) EXPECT_FLOAT_EQ(v, fan_a);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(
        ShapePair{{4}, {4}}, ShapePair{{3, 4}, {4}},
        ShapePair{{2, 3, 4}, {3, 1}}, ShapePair{{5, 1}, {1, 6}},
        ShapePair{{2, 1, 3}, {4, 1}}, ShapePair{{1}, {2, 2}},
        ShapePair{{2, 3, 1, 2}, {1, 4, 1}}));

// ---------------------------------------------------------------------------
// Matmul transpose lattice: all four flag combinations agree for random
// sizes (m, k, n).

using MatDims = std::tuple<int, int, int>;

class MatMulProperty : public ::testing::TestWithParam<MatDims> {};

TEST_P(MatMulProperty, TransposeFlagsConsistent) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  T::Tensor a = T::Tensor::Randn({m, k}, &rng);
  T::Tensor b = T::Tensor::Randn({k, n}, &rng);
  T::Tensor ref = T::MatMul(a, b);
  T::Tensor at = ::dyhsl::testing::Transpose2D(a);
  T::Tensor bt = ::dyhsl::testing::Transpose2D(b);
  for (auto [ta, tb] : std::vector<std::pair<bool, bool>>{
           {true, false}, {false, true}, {true, true}}) {
    T::Tensor got = T::MatMul(ta ? at : a, tb ? bt : b, ta, tb);
    EXPECT_TRUE(dyhsl::testing::TensorNear(got, ref, 1e-3f))
        << "ta=" << ta << " tb=" << tb;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, MatMulProperty,
                         ::testing::Values(MatDims{1, 1, 1}, MatDims{2, 3, 4},
                                           MatDims{7, 5, 3}, MatDims{16, 1, 9},
                                           MatDims{1, 8, 1},
                                           MatDims{13, 13, 13}));

// ---------------------------------------------------------------------------
// Concat/Slice round trip for arbitrary axes.

class MovementProperty : public ::testing::TestWithParam<int> {};

TEST_P(MovementProperty, ConcatSliceRoundTrip) {
  int axis = GetParam();
  Rng rng(5 + axis);
  T::Tensor a = T::Tensor::Randn({3, 4, 5}, &rng);
  T::Tensor b = T::Tensor::Randn({3, 4, 5}, &rng);
  T::Tensor cat = T::Concat({a, b}, axis);
  T::Tensor back_a = T::Slice(cat, axis, 0, a.size(axis));
  T::Tensor back_b = T::Slice(cat, axis, a.size(axis), b.size(axis));
  EXPECT_EQ(back_a.ToVector(), a.ToVector());
  EXPECT_EQ(back_b.ToVector(), b.ToVector());
}

TEST_P(MovementProperty, TransposeInvolution) {
  int axis = GetParam();
  (void)axis;
  Rng rng(23);
  T::Tensor a = T::Tensor::Randn({2, 3, 4}, &rng);
  std::vector<int64_t> perm{2, 0, 1};
  std::vector<int64_t> inverse{1, 2, 0};
  T::Tensor round =
      T::TransposePerm(T::TransposePerm(a, perm), inverse);
  EXPECT_EQ(round.ToVector(), a.ToVector());
}

INSTANTIATE_TEST_SUITE_P(Axes, MovementProperty, ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------------
// Sparse algebra: SpMM == dense matmul; transpose is an involution; row
// normalization makes rows stochastic — for random sparse matrices.

class SparseProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseProperty, AgreesWithDense) {
  Rng rng(GetParam());
  int64_t rows = 3 + rng.NextBelow(12);
  int64_t cols = 3 + rng.NextBelow(12);
  std::vector<T::Triplet> trips;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(0.3)) {
        trips.push_back({r, c, rng.Gaussian()});
      }
    }
  }
  auto m = T::CsrMatrix::FromTriplets(rows, cols, trips);
  T::Tensor x = T::Tensor::Randn({cols, 5}, &rng);
  T::Tensor via_sparse = T::SpMM(m, x);
  T::Tensor via_dense = T::MatMul(m.ToDense(), x);
  EXPECT_TENSOR_NEAR(via_sparse, via_dense, 1e-4f);
  // Transpose involution.
  T::Tensor tt = m.Transposed().Transposed().ToDense();
  T::Tensor orig = m.ToDense();
  EXPECT_EQ(tt.ToVector(), orig.ToVector());
}

TEST_P(SparseProperty, RowNormalizedIsStochastic) {
  Rng rng(100 + GetParam());
  int64_t n = 4 + rng.NextBelow(10);
  std::vector<T::Triplet> trips;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      if (rng.Bernoulli(0.4)) {
        trips.push_back({r, c, rng.Uniform(0.1f, 2.0f)});
      }
    }
  }
  auto m = T::CsrMatrix::FromTriplets(n, n, trips).RowNormalized();
  T::Tensor dense = m.ToDense();
  EXPECT_TRUE(
      dyhsl::testing::RowStochastic(dense, 1e-4f, /*allow_zero_rows=*/true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Temporal graph invariants across (N, T) combinations (Eq. 4).

using GraphDims = std::tuple<int, int>;

class TemporalGraphProperty : public ::testing::TestWithParam<GraphDims> {};

TEST_P(TemporalGraphProperty, StructureInvariants) {
  auto [n, steps] = GetParam();
  Rng rng(n * 31 + steps);
  std::vector<T::Triplet> trips;
  for (int64_t i = 0; i < n; ++i) {
    int64_t j = (i + 1) % n;
    trips.push_back({i, j, 1.0f});
    trips.push_back({j, i, 1.0f});
  }
  auto spatial = T::CsrMatrix::FromTriplets(n, n, trips);
  T::CsrMatrix tg = graph::BuildTemporalGraph(spatial, steps);
  ASSERT_EQ(tg.rows(), n * steps);
  // Every node has a self loop; temporal edges never skip steps; spatial
  // edges stay within their step.
  T::Tensor dense = tg.ToDense();
  for (int64_t t = 0; t < steps; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      int64_t row = graph::TemporalNodeIndex(t, i, n);
      EXPECT_GT(dense.At({row, row}), 0.0f);
      for (int64_t t2 = 0; t2 < steps; ++t2) {
        if (std::abs(t2 - t) <= 1) continue;
        int64_t col = graph::TemporalNodeIndex(t2, i, n);
        EXPECT_EQ(dense.At({row, col}), 0.0f)
            << "skip edge " << t << "->" << t2;
      }
    }
  }
  // nnz grows linearly in T (paper IV-D complexity claim).
  T::CsrMatrix tg2 = graph::BuildTemporalGraph(spatial, steps * 2);
  int64_t per_step_extra = 2 * n;  // bidirectional temporal edges per seam
  EXPECT_EQ(tg2.nnz() - 2 * tg.nnz(), per_step_extra);
}

INSTANTIATE_TEST_SUITE_P(Dims, TemporalGraphProperty,
                         ::testing::Values(GraphDims{3, 2}, GraphDims{4, 3},
                                           GraphDims{5, 6}, GraphDims{8, 12}));

// ---------------------------------------------------------------------------
// Composite autograd chains: gradcheck random multi-op expressions.

class ChainGradProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainGradProperty, CompositeExpressionGradchecks) {
  Rng rng(GetParam() * 7 + 1);
  T::Tensor a0 = T::Tensor::Randn({3, 4}, &rng);
  T::Tensor b0 = T::Tensor::Randn({4, 3}, &rng);
  auto report = ag::GradCheck(
      [](const std::vector<ag::Variable>& in) {
        ag::Variable prod = ag::MatMul(in[0], in[1]);        // (3, 3)
        ag::Variable act = ag::Tanh(prod);
        ag::Variable mixed = ag::Mul(act, ag::Sigmoid(prod));
        ag::Variable soft = ag::SoftmaxLastAxis(mixed);
        return ag::MeanAll(ag::Mul(soft, mixed));
      },
      {ag::Variable(a0, true), ag::Variable(b0, true)});
  EXPECT_TRUE(report.ok) << "rel=" << report.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainGradProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Metrics invariants: MAE <= RMSE always; MAPE scale-invariance.

class MetricsProperty : public ::testing::TestWithParam<int> {};

TEST_P(MetricsProperty, MaeNeverExceedsRmse) {
  Rng rng(GetParam() * 13);
  T::Tensor truth = T::AddScalar(
      T::Abs(T::Tensor::Randn({64}, &rng, 50.0f)), 10.0f);
  T::Tensor pred = T::Add(truth, T::Tensor::Randn({64}, &rng, 20.0f));
  metrics::MetricAccumulator m;
  m.Add(pred, truth);
  EXPECT_LE(m.Mae(), m.Rmse() + 1e-9);
}

TEST_P(MetricsProperty, MapeInvariantToScale) {
  Rng rng(GetParam() * 29);
  T::Tensor truth = T::AddScalar(
      T::Abs(T::Tensor::Randn({32}, &rng, 40.0f)), 20.0f);
  T::Tensor pred = T::Add(truth, T::Tensor::Randn({32}, &rng, 15.0f));
  metrics::MetricAccumulator m1, m2;
  m1.Add(pred, truth);
  m2.Add(T::MulScalar(pred, 3.0f), T::MulScalar(truth, 3.0f));
  EXPECT_NEAR(m1.Mape(), m2.Mape(), 1e-4);
  EXPECT_NEAR(m2.Mae(), 3.0 * m1.Mae(), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Dataset invariants across all four SynPEMS specs.

class DatasetProperty : public ::testing::TestWithParam<int> {};

TEST_P(DatasetProperty, SpecInvariants) {
  int which = GetParam();
  const std::vector<data::DatasetSpec> specs = {
      data::DatasetSpec::Pems03Like(0.08, 2),
      data::DatasetSpec::Pems04Like(0.08, 2),
      data::DatasetSpec::Pems07Like(0.08, 2),
      data::DatasetSpec::Pems08Like(0.08, 2)};
  data::TrafficDataset ds = data::TrafficDataset::Generate(specs[which]);
  // Connectivity.
  auto hops = data::HopDistances(ds.network().graph, 0);
  for (int64_t i = 0; i < ds.num_nodes(); ++i) EXPECT_GE(hops[i], 0);
  // Window ranges tile [0, num_windows) exactly.
  EXPECT_EQ(ds.train_range().begin, 0);
  EXPECT_EQ(ds.train_range().end, ds.val_range().begin);
  EXPECT_EQ(ds.val_range().end, ds.test_range().begin);
  int64_t windows = ds.num_steps() - ds.history() - ds.horizon() + 1;
  EXPECT_EQ(ds.test_range().end, windows);
  // All flow non-negative; masked fraction small but nonzero over a
  // multi-day simulation.
  int64_t zeros = 0;
  for (float v : ds.traffic().flow.ToVector()) {
    EXPECT_GE(v, 0.0f);
    zeros += (v == 0.0f);
  }
  double zero_rate = static_cast<double>(zeros) / ds.traffic().flow.numel();
  EXPECT_LT(zero_rate, 0.05);
  // Scaler is finite and positive.
  EXPECT_GT(ds.scaler().stddev(), 0.0f);
  EXPECT_TRUE(std::isfinite(ds.scaler().mean()));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, DatasetProperty,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace dyhsl
