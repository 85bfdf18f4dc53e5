// Kernel-equivalence suite for the blocked, packed GEMM layer
// (src/tensor/gemm.h), the fused out-parameter / in-place ops, and the
// Workspace arena allocator (src/tensor/workspace.h).
//
// The blocked kernel is checked against an independent naive triple-loop
// reference across odd/prime sizes (micro-kernel tails in every
// dimension), all four trans-flag combinations, every batched sharing
// pattern, and both beta modes — plus bit-determinism across OpenMP
// thread counts. The fused GEMM epilogues are checked bit for bit against
// the unfused op chains, and every parallel elementwise op against its own
// result on a slice of the array.

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"
#include "src/tensor/workspace.h"
#include "tests/testing_utils.h"

namespace dyhsl::tensor {
namespace {

using ::dyhsl::testing::SeededTest;
using ::dyhsl::testing::Transpose2D;

// Independent reference: naive i-k-j product over logical indices. Not the
// production kernel of any era, so both old and new layouts are checked
// against the math, not against each other.
Tensor RefMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                 bool trans_b) {
  int64_t m = trans_a ? a.size(1) : a.size(0);
  int64_t k = trans_a ? a.size(0) : a.size(1);
  int64_t n = trans_b ? b.size(0) : b.size(1);
  Tensor out = Tensor::Zeros({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      float av = trans_a ? a.At({p, i}) : a.At({i, p});
      for (int64_t j = 0; j < n; ++j) {
        float bv = trans_b ? b.At({j, p}) : b.At({p, j});
        out.data()[i * n + j] += av * bv;
      }
    }
  }
  return out;
}

// Extracts batch item `bi` of a 3-D tensor as a 2-D tensor (copy).
Tensor BatchItem(const Tensor& t, int64_t bi) {
  return Slice(t, 0, bi, 1).Reshape({t.size(1), t.size(2)});
}

// Odd and prime extents exercise the kMr/kNr register-tile tails; the
// k > kKc (240) and m > kMc (120) panel crossings get dedicated tests.
constexpr int64_t kOddSizes[] = {1, 2, 3, 5, 7, 13, 17, 31, 37, 64, 67};

// Tolerance scaled to the accumulation length: float32 GEMM with different
// (but deterministic) summation associativity than the reference.
float GemmTol(int64_t k) { return 1e-5f * static_cast<float>(k) + 1e-5f; }

class TensorKernelsTest : public SeededTest {};

TEST_F(TensorKernelsTest, MatMulMatchesReferenceAcrossSizesAndFlags) {
  for (int64_t m : kOddSizes) {
    for (int64_t k : {1L, 3L, 17L, 37L, 67L}) {
      for (int64_t n : {1L, 5L, 16L, 31L}) {
        Tensor a = Tensor::Randn({m, k}, &rng_);
        Tensor b = Tensor::Randn({k, n}, &rng_);
        Tensor at = Transpose2D(a);
        Tensor bt = Transpose2D(b);
        Tensor ref = RefMatMul(a, b, false, false);
        float tol = GemmTol(k);
        EXPECT_TENSOR_NEAR(MatMul(a, b), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(at, b, true, false), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(a, bt, false, true), ref, tol);
        EXPECT_TENSOR_NEAR(MatMul(at, bt, true, true), ref, tol);
      }
    }
  }
}

TEST_F(TensorKernelsTest, MatMulCrossesKPanelBoundary) {
  // k > kKc (240) exercises the multi-panel accumulation path (beta == 1
  // for the second K panel).
  Tensor a = Tensor::Randn({7, 251}, &rng_);
  Tensor b = Tensor::Randn({251, 19}, &rng_);
  EXPECT_TENSOR_NEAR(MatMul(a, b), RefMatMul(a, b, false, false),
                     GemmTol(251));
}

TEST_F(TensorKernelsTest, MatMulCrossesRowBlockBoundary) {
  // m > kMc (120) exercises multiple row-block tasks.
  Tensor a = Tensor::Randn({131, 23}, &rng_);
  Tensor b = Tensor::Randn({23, 33}, &rng_);
  EXPECT_TENSOR_NEAR(MatMul(a, b), RefMatMul(a, b, false, false),
                     GemmTol(23));
}

TEST_F(TensorKernelsTest, BatchedMatMulAllFlagsMatchPerBatchReference) {
  constexpr int64_t kBatch = 3, kM = 13, kK = 7, kN = 17;
  Tensor a = Tensor::Randn({kBatch, kM, kK}, &rng_);
  Tensor b = Tensor::Randn({kBatch, kK, kN}, &rng_);
  Tensor at = TransposePerm(a, {0, 2, 1});
  Tensor bt = TransposePerm(b, {0, 2, 1});
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? at : a, tb ? bt : b, ta, tb);
    ASSERT_EQ(c.shape(), (Shape{kBatch, kM, kN}));
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(BatchItem(a, bi), BatchItem(b, bi), false,
                             false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, BatchedMatMulSharedRhsAllFlags) {
  constexpr int64_t kBatch = 4, kM = 11, kK = 5, kN = 9;
  Tensor a = Tensor::Randn({kBatch, kM, kK}, &rng_);
  Tensor b = Tensor::Randn({kK, kN}, &rng_);
  Tensor at = TransposePerm(a, {0, 2, 1});
  Tensor bt = Transpose2D(b);
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? at : a, tb ? bt : b, ta, tb);
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(BatchItem(a, bi), b, false, false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, BatchedMatMulSharedLhsAllFlags) {
  // The shared-LHS form U @ M_b that replaced the double-transpose
  // sandwich in the DHSL block.
  constexpr int64_t kBatch = 3, kM = 9, kK = 7, kN = 13;
  Tensor u = Tensor::Randn({kM, kK}, &rng_);
  Tensor m = Tensor::Randn({kBatch, kK, kN}, &rng_);
  Tensor ut = Transpose2D(u);
  Tensor mt = TransposePerm(m, {0, 2, 1});
  for (int variant = 0; variant < 4; ++variant) {
    bool ta = variant & 1, tb = variant & 2;
    Tensor c = BatchedMatMul(ta ? ut : u, tb ? mt : m, ta, tb);
    ASSERT_EQ(c.shape(), (Shape{kBatch, kM, kN}));
    for (int64_t bi = 0; bi < kBatch; ++bi) {
      Tensor ref = RefMatMul(u, BatchItem(m, bi), false, false);
      EXPECT_TENSOR_NEAR(BatchItem(c, bi), ref, GemmTol(kK));
    }
  }
}

TEST_F(TensorKernelsTest, MatMulIntoBetaModes) {
  Tensor a = Tensor::Randn({5, 7}, &rng_);
  Tensor b = Tensor::Randn({7, 3}, &rng_);
  Tensor ref = RefMatMul(a, b, false, false);
  // beta == 0 fully overwrites, even NaN garbage.
  Tensor out = Tensor::Full({5, 3}, std::numeric_limits<float>::quiet_NaN());
  MatMulInto(a, b, false, false, /*beta=*/0.0f, &out);
  EXPECT_TENSOR_NEAR(out, ref, GemmTol(7));
  // beta == 1 accumulates.
  MatMulInto(a, b, false, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(ref, 2.0f), 2 * GemmTol(7));
  // General beta scales the existing contents.
  MatMulInto(a, b, false, false, /*beta=*/0.5f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(ref, 2.0f), 3 * GemmTol(7));
}

TEST_F(TensorKernelsTest, BatchedMatMulIntoAccumulates) {
  Tensor a = Tensor::Randn({2, 4, 6}, &rng_);
  Tensor b = Tensor::Randn({2, 6, 5}, &rng_);
  Tensor base = BatchedMatMul(a, b);
  Tensor out = base.Clone();
  BatchedMatMulInto(a, b, false, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(base, 2.0f), 1e-4f);
}

TEST_F(TensorKernelsTest, BatchedMatMulReduceIntoSumsBatch) {
  constexpr int64_t kBatch = 4;
  Tensor a = Tensor::Randn({kBatch, 6, 3}, &rng_);
  Tensor g = Tensor::Randn({kBatch, 6, 5}, &rng_);
  // sum_b A_b^T G_b — the gradient of a batch-shared operand.
  Tensor expected = Tensor::Zeros({3, 5});
  for (int64_t bi = 0; bi < kBatch; ++bi) {
    AddInPlace(&expected,
               RefMatMul(BatchItem(a, bi), BatchItem(g, bi), true, false));
  }
  Tensor out({3, 5});
  BatchedMatMulReduceInto(a, g, true, false, /*beta=*/0.0f, &out);
  EXPECT_TENSOR_NEAR(out, expected, 1e-4f);
  // And beta == 1 accumulates on top.
  BatchedMatMulReduceInto(a, g, true, false, /*beta=*/1.0f, &out);
  EXPECT_TENSOR_NEAR(out, MulScalar(expected, 2.0f), 1e-4f);
}

TEST_F(TensorKernelsTest, GemmDegenerateKScalesOutputOnly) {
  // k == 0: C = beta * C with no product term.
  Tensor out = Tensor::Full({3, 4}, 2.0f);
  GemmInto(false, false, 3, 4, 0, nullptr, 1, nullptr, 1, 0.5f, out.data(),
           4);
  EXPECT_TENSOR_NEAR(out, Tensor::Full({3, 4}, 1.0f), 0.0f);
  GemmInto(false, false, 3, 4, 0, nullptr, 1, nullptr, 1, 0.0f, out.data(),
           4);
  EXPECT_TENSOR_NEAR(out, Tensor::Zeros({3, 4}), 0.0f);
}

TEST_F(TensorKernelsTest, AddIntoWritesWithoutAllocating) {
  Tensor a = Tensor::Randn({4, 5}, &rng_);
  Tensor b = Tensor::Randn({4, 5}, &rng_);
  Tensor out({4, 5});
  AddInto(a, b, &out);
  EXPECT_TENSOR_EQ(out, Add(a, b));
  // Aliasing the output with an input is allowed.
  Tensor alias = a.Clone();
  AddInto(alias, b, &alias);
  EXPECT_TENSOR_EQ(alias, Add(a, b));
}

TEST_F(TensorKernelsTest, SoftmaxInPlaceMatchesOutOfPlace) {
  Tensor a = Tensor::Randn({6, 9}, &rng_, 3.0f);
  Tensor expected = SoftmaxLastAxis(a);
  Tensor inplace = a.Clone();
  SoftmaxLastAxisInPlace(&inplace);
  EXPECT_TENSOR_EQ(inplace, expected);
}

#ifdef _OPENMP
TEST_F(TensorKernelsTest, GemmEpilogueMatchesUnfusedOpChain) {
  // Every epilogue the model fuses must equal the GEMM followed by the
  // same steps as separate tensor ops, bit for bit: over one and several K
  // panels (k = 300 > kKc), row tails (125 = 20 * 6 + 5 rows, two row
  // blocks) and column tails (37 = 2 * 16 + 5), both beta modes, strided,
  // transposed, prepacked-A, prepacked-B and fresh shared-B operands, and
  // teams of 1 and 4.
  constexpr int64_t kBatch = 3, kM = 125, kN = 37;
  struct Case {
    const char* name;
    bool bias;
    float scale;
    bool relu;
    bool residual;
    float post;
    bool gate;
  };
  const Case cases[] = {
      {"bias", true, 1.0f, false, false, 1.0f, false},
      {"bias+relu+residual", true, 1.0f, true, true, 1.0f, false},
      {"scale", false, 0.37f, false, false, 1.0f, false},
      {"scale+residual+post", false, 0.37f, false, true, 0.5f, false},
      {"bias+gate", true, 1.0f, false, false, 1.0f, true},
  };
  enum class Operands {
    kStrided,
    kStridedTransA,
    kPrepackedSharedA,
    kPrepackedSharedB,
    kFreshSharedB,
  };
  const Tensor bias = Tensor::Randn({kN}, &rng_);
  const Tensor residual = Tensor::Randn({kBatch, kM, kN}, &rng_);
  const Tensor gate_a = Tensor::Randn({kBatch, kM, kN}, &rng_);
  const Tensor gate_b = Tensor::Randn({kBatch, kM, kN}, &rng_);
  const Tensor c_init = Tensor::Randn({kBatch, kM, kN}, &rng_);
  for (int team : {1, 4}) {
    core::TeamScope scope(team);
    for (int64_t k : {20, 300}) {
      for (Operands operands :
           {Operands::kStrided, Operands::kStridedTransA,
            Operands::kPrepackedSharedA, Operands::kPrepackedSharedB,
            Operands::kFreshSharedB}) {
        const bool trans_a = operands == Operands::kStridedTransA;
        const bool shared_a = operands == Operands::kPrepackedSharedA;
        const bool shared_b = operands == Operands::kPrepackedSharedB ||
                              operands == Operands::kFreshSharedB;
        const Tensor a =
            shared_a  ? Tensor::Randn({kM, k}, &rng_)
            : trans_a ? Tensor::Randn({kBatch, k, kM}, &rng_)
                      : Tensor::Randn({kBatch, kM, k}, &rng_);
        const Tensor b = shared_b ? Tensor::Randn({k, kN}, &rng_)
                                  : Tensor::Randn({kBatch, k, kN}, &rng_);
        std::shared_ptr<const PackedPanels> pre_a, pre_b;
        if (shared_a) {
          pre_a = PackedPanels::PackAOperand(a.data(), k, false, kM, k);
        }
        if (operands == Operands::kPrepackedSharedB) {
          pre_b = PackedPanels::PackBOperand(b.data(), kN, false, k, kN);
        }
        for (float beta : {0.0f, 1.0f}) {
          auto run = [&](const GemmEpilogue* ep) {
            Tensor c = c_init.Clone();
            BatchedGemmPrepackedInto(
                kBatch, trans_a, false, kM, kN, k, a.data(),
                shared_a ? 0 : kM * k, trans_a ? kM : k, pre_a.get(),
                b.data(), shared_b ? 0 : k * kN, kN, pre_b.get(), beta,
                c.data(), kM * kN, kN, ep);
            return c;
          };
          const Tensor plain = run(nullptr);
          for (const Case& c : cases) {
            GemmEpilogue ep;
            Tensor want = plain;
            if (c.bias) {
              ep.bias = bias.data();
              want = Add(want, bias);
            }
            if (c.scale != 1.0f) {
              ep.scale = c.scale;
              want = MulScalar(want, c.scale);
            }
            if (c.relu) {
              ep.relu = true;
              want = Relu(want);
            }
            if (c.residual) {
              ep.residual = residual.data();
              want = Add(want, residual);
            }
            if (c.post != 1.0f) {
              ep.post = c.post;
              want = MulScalar(want, c.post);
            }
            if (c.gate) {
              ep.gate_a = gate_a.data();
              ep.gate_b = gate_b.data();
              want = Add(Tanh(Mul(gate_a, gate_b)), Relu(want));
            }
            EXPECT_TENSOR_EQ(run(&ep), want)
                << c.name << " team=" << team << " k=" << k
                << " operands=" << static_cast<int>(operands)
                << " beta=" << beta;
          }
        }
      }
    }
  }
}

TEST_F(TensorKernelsTest, ElementwiseResultsIndependentOfLengthAndPartition) {
  // At a team of 3, a parallel elementwise loop splits its array at
  // boundaries set by the array's length; batching changes that length.
  // An element's result must not depend on it: an odd-length slice at an
  // odd offset (both long enough to run in parallel) must reproduce the
  // whole array's bits.
  core::TeamScope scope(3);
  constexpr int64_t kLen = 3 * (1 << 15) + 37;
  constexpr int64_t kOff = 13, kSub = (1 << 15) + 1001;
  const Tensor x = Tensor::Randn({kLen}, &rng_, 2.0f);
  const Tensor y = Tensor::Randn({kLen}, &rng_);
  auto part = [](const Tensor& t) { return Slice(t, 0, kOff, kSub); };
  using Op = std::function<Tensor(const Tensor&, const Tensor&)>;
  const std::vector<std::pair<const char*, Op>> ops = {
      {"Add", [](auto& a, auto& b) { return Add(a, b); }},
      {"Sub", [](auto& a, auto& b) { return Sub(a, b); }},
      {"Mul", [](auto& a, auto& b) { return Mul(a, b); }},
      {"Maximum", [](auto& a, auto& b) { return Maximum(a, b); }},
      {"AddScalar", [](auto& a, auto&) { return AddScalar(a, 0.3f); }},
      {"MulScalar", [](auto& a, auto&) { return MulScalar(a, 0.3f); }},
      {"Neg", [](auto& a, auto&) { return Neg(a); }},
      {"Relu", [](auto& a, auto&) { return Relu(a); }},
      {"Sigmoid", [](auto& a, auto&) { return Sigmoid(a); }},
      {"Tanh", [](auto& a, auto&) { return Tanh(a); }},
      {"Abs", [](auto& a, auto&) { return Abs(a); }},
      {"Sign", [](auto& a, auto&) { return Sign(a); }},
      {"ScaleInPlace",
       [](auto& a, auto&) {
         Tensor d = a.Clone();
         ScaleInPlace(&d, 0.3f);
         return d;
       }},
      {"AddInto",
       [](auto& a, auto& b) {
         Tensor d(a.shape());
         AddInto(a, b, &d);
         return d;
       }},
      {"ReluInPlace",
       [](auto& a, auto&) {
         Tensor d = a.Clone();
         ReluInPlace(&d);
         return d;
       }},
      {"AddScalarInPlace",
       [](auto& a, auto&) {
         Tensor d = a.Clone();
         AddScalarInPlace(&d, 0.3f);
         return d;
       }},
  };
  for (const auto& [name, op] : ops) {
    EXPECT_TENSOR_EQ(op(part(x), part(y)), part(op(x, y))) << name;
  }
}

TEST_F(TensorKernelsTest, GemmBitDeterministicAcrossThreadCounts) {
  // The parallel partition must not change any element's accumulation
  // order: results are required to be bit-identical for every thread
  // count (ISSUE 2 determinism constraint).
  Tensor a = Tensor::Randn({4, 150, 90}, &rng_);
  Tensor b = Tensor::Randn({90, 70}, &rng_);
  int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Tensor c1 = BatchedMatMul(a, b);
  Tensor m1 = MatMul(BatchItem(a, 0), b);
  omp_set_num_threads(4);
  Tensor c4 = BatchedMatMul(a, b);
  Tensor m4 = MatMul(BatchItem(a, 0), b);
  omp_set_num_threads(saved);
  EXPECT_TENSOR_EQ(c4, c1);
  EXPECT_TENSOR_EQ(m4, m1);
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// Workspace arena
// ---------------------------------------------------------------------------

TEST(WorkspaceTest, ScopeRoutesTensorAllocation) {
  Workspace workspace;
  float* first_ptr = nullptr;
  {
    WorkspaceScope scope(&workspace);
    Tensor t({16});
    first_ptr = t.data();
    EXPECT_EQ(workspace.live_allocations(), 1);
  }
  // The tensor died with the scope; Reset rewinds the slab, and the next
  // step's first allocation reuses the same memory.
  EXPECT_EQ(workspace.live_allocations(), 0);
  workspace.Reset();
  {
    WorkspaceScope scope(&workspace);
    Tensor t({16});
    EXPECT_EQ(t.data(), first_ptr);
  }
}

TEST(WorkspaceTest, TensorOutlivingResetStaysValid) {
  Workspace workspace;
  Tensor survivor;
  {
    WorkspaceScope scope(&workspace);
    survivor = Tensor::Full({64}, 3.5f);
  }
  workspace.Reset();  // retires the slab instead of rewinding it
  EXPECT_EQ(workspace.retired_count(), 1);
  {
    WorkspaceScope scope(&workspace);
    Tensor noise = Tensor::Full({64}, -1.0f);  // fresh slab, not the retired one
    EXPECT_TENSOR_EQ(survivor, Tensor::Full({64}, 3.5f));
    (void)noise;
  }
  workspace.Reset();
  EXPECT_TENSOR_EQ(survivor, Tensor::Full({64}, 3.5f));
  // Dropping the survivor lets the next Reset reclaim the retired slab.
  survivor = Tensor();
  workspace.Reset();
  EXPECT_EQ(workspace.retired_count(), 0);
}

TEST(WorkspaceTest, ReshapeSharesArenaStorage) {
  Workspace workspace;
  WorkspaceScope scope(&workspace);
  Tensor t = Tensor::Zeros({4, 4});
  Tensor view = t.Reshape({16});
  EXPECT_TRUE(view.SharesStorageWith(t));
  EXPECT_EQ(workspace.live_allocations(), 1);
}

TEST(WorkspaceTest, ScopesNest) {
  Workspace outer_ws;
  Workspace inner_ws;
  WorkspaceScope outer(&outer_ws);
  {
    WorkspaceScope inner(&inner_ws);
    Tensor t({8});
    EXPECT_EQ(inner_ws.live_allocations(), 1);
    EXPECT_EQ(outer_ws.live_allocations(), 0);
  }
  Tensor t({8});
  EXPECT_EQ(outer_ws.live_allocations(), 1);
}

TEST(WorkspaceTest, GrowsBeyondInitialSlab) {
  Workspace workspace(/*min_slab_floats=*/32);
  WorkspaceScope scope(&workspace);
  Tensor small({16});
  Tensor big({1000});  // forces a second, larger slab
  EXPECT_GE(workspace.slab_count(), 2);
  EXPECT_EQ(workspace.live_allocations(), 2);
  // Both stay writable end to end.
  small.Fill(1.0f);
  big.Fill(2.0f);
  EXPECT_FLOAT_EQ(small.data()[15], 1.0f);
  EXPECT_FLOAT_EQ(big.data()[999], 2.0f);
}

TEST(WorkspaceTest, BypassForcesHeapAllocation) {
  Workspace workspace;
  WorkspaceScope scope(&workspace);
  {
    WorkspaceBypass bypass;
    Tensor t({8});
    EXPECT_EQ(workspace.live_allocations(), 0);
  }
  Tensor t({8});  // the scope is active again after the bypass
  EXPECT_EQ(workspace.live_allocations(), 1);
}

TEST(WorkspaceTest, ParameterGradientsDoNotPinStepSlabs) {
  namespace ag = ::dyhsl::autograd;
  Rng rng(3);
  ag::Variable w(Tensor::Randn({4, 3}, &rng), /*requires_grad=*/true);
  Workspace workspace;
  {
    WorkspaceScope scope(&workspace);
    ag::Variable x(Tensor::Randn({5, 4}, &rng));
    ag::Variable loss = ag::MeanAll(ag::MatMul(x, w));
    loss.Backward();
  }  // the tape dies here; only w's grad survives the step
  workspace.Reset();
  // Leaf gradients are heap-allocated (WorkspaceBypass in the autograd
  // engine), so every step slab rewinds — nothing is retired — while the
  // parameter gradient stays valid across steps.
  EXPECT_EQ(workspace.retired_count(), 0);
  EXPECT_EQ(workspace.live_allocations(), 0);
  ASSERT_TRUE(w.has_grad());
  EXPECT_EQ(w.grad().numel(), 12);
}

TEST(WorkspaceTest, MatMulInsideScopeMatchesHeapResult) {
  Rng rng(7);
  Tensor a = Tensor::Randn({23, 31}, &rng);
  Tensor b = Tensor::Randn({31, 17}, &rng);
  Tensor heap = MatMul(a, b);
  Workspace workspace;
  for (int step = 0; step < 3; ++step) {
    WorkspaceScope scope(&workspace);
    // Arena memory is recycled across steps; beta == 0 semantics must not
    // let stale values leak into the product.
    EXPECT_TENSOR_EQ(MatMul(a, b), heap);
  }
}

}  // namespace
}  // namespace dyhsl::tensor
