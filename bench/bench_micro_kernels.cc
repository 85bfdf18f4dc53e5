// google-benchmark microbenchmarks for the tensor/sparse kernels that
// dominate DyHSL training time: dense matmul, batched matmul, SpMM over
// temporal graphs, elementwise chains, hypergraph-style products, the
// tanh/sigmoid/exp array kernels and the channels-last temporal conv.

#include <benchmark/benchmark.h>

#include "src/core/rng.h"
#include "src/graph/temporal_graph.h"
#include "src/tensor/ops.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"
#include "src/tensor/vecmath.h"

namespace dyhsl {
namespace {

namespace T = ::dyhsl::tensor;

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  T::Tensor a = T::Tensor::Randn({n, n}, &rng);
  T::Tensor b = T::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

void BM_BatchedMatMulSharedRhs(benchmark::State& state) {
  int64_t rows = state.range(0);
  Rng rng(2);
  T::Tensor a = T::Tensor::Randn({16, rows, 32}, &rng);
  T::Tensor w = T::Tensor::Randn({32, 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::BatchedMatMul(a, w));
  }
  state.SetItemsProcessed(state.iterations() * 16 * rows * 32 * 32);
}
BENCHMARK(BM_BatchedMatMulSharedRhs)->Arg(256)->Arg(1024);

// SpMM over the Eq. 4 temporal graph: the prior-encoder hot loop.
void BM_TemporalGraphSpMM(benchmark::State& state) {
  int64_t n = state.range(0);
  // Ring road network, T = 12 steps.
  std::vector<T::Triplet> edges;
  for (int64_t i = 0; i < n; ++i) {
    edges.push_back({i, (i + 1) % n, 1.0f});
    edges.push_back({(i + 1) % n, i, 1.0f});
  }
  auto spatial = T::CsrMatrix::FromTriplets(n, n, std::move(edges));
  auto op = graph::BuildNormalizedTemporalOp(spatial, 12);
  Rng rng(3);
  T::Tensor x = T::Tensor::Randn({16, 12 * n, 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::SpMM(op.matrix(), x));
  }
  state.SetItemsProcessed(state.iterations() * 16 * op.nnz() * 32);
}
BENCHMARK(BM_TemporalGraphSpMM)->Arg(64)->Arg(256);

// Acceptance shapes for the blocked-GEMM work: DHSL incidence products at
// paper scale (B=32 windows, N=207 PEMSD7M-sized nodes, d=64 hidden,
// I=32 hyperedges). Λ = H W is the batched matmul the kernel PR targets.
void BM_BatchedMatMulDyhsl(benchmark::State& state) {
  constexpr int64_t kBatch = 32, kNodes = 207, kDim = 64, kEdges = 32;
  Rng rng(8);
  T::Tensor h = T::Tensor::Randn({kBatch, kNodes, kDim}, &rng);
  T::Tensor w = T::Tensor::Randn({kDim, kEdges}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::BatchedMatMul(h, w));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kBatch * kNodes * kDim *
                          kEdges);
}
BENCHMARK(BM_BatchedMatMulDyhsl);

// Same shapes, the Eq. 7 aggregation E = ΛᵀH (trans_a path) and the Eq. 8
// update F = Λ E — the strided-inner-loop paths of the pre-blocked kernel.
void BM_BatchedMatMulDyhslTransA(benchmark::State& state) {
  constexpr int64_t kBatch = 32, kNodes = 207, kDim = 64, kEdges = 32;
  Rng rng(9);
  T::Tensor inc = T::Tensor::Randn({kBatch, kNodes, kEdges}, &rng);
  T::Tensor h = T::Tensor::Randn({kBatch, kNodes, kDim}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::BatchedMatMul(inc, h, /*trans_a=*/true,
                                              /*trans_b=*/false));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kBatch * kNodes * kDim *
                          kEdges);
}
BENCHMARK(BM_BatchedMatMulDyhslTransA);

void BM_MatMulTransB(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(10);
  T::Tensor a = T::Tensor::Randn({n, n}, &rng);
  T::Tensor b = T::Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::MatMul(a, b, false, /*trans_b=*/true));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMulTransB)->Arg(128)->Arg(256);

// The DHSL block's algebra: Λ = H W; E = ΛᵀH; F = Λ E.
void BM_HypergraphProducts(benchmark::State& state) {
  int64_t rows = state.range(0);
  constexpr int64_t kDim = 32, kEdges = 16;
  Rng rng(4);
  T::Tensor h = T::Tensor::Randn({8, rows, kDim}, &rng);
  T::Tensor w = T::Tensor::Randn({kDim, kEdges}, &rng);
  for (auto _ : state) {
    T::Tensor inc = T::BatchedMatMul(h, w);                  // Λ
    T::Tensor e = T::BatchedMatMul(inc, h, true, false);     // ΛᵀH
    benchmark::DoNotOptimize(T::BatchedMatMul(inc, e));      // ΛE
  }
  state.SetItemsProcessed(state.iterations() * 8 * rows * kDim * kEdges);
}
BENCHMARK(BM_HypergraphProducts)->Arg(384)->Arg(1536);

void BM_ElementwiseChain(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(5);
  T::Tensor a = T::Tensor::Randn({n}, &rng);
  T::Tensor b = T::Tensor::Randn({n}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::Relu(T::Add(T::Mul(a, b), b)));
  }
  state.SetItemsProcessed(state.iterations() * n * 3);
}
BENCHMARK(BM_ElementwiseChain)->Arg(1 << 14)->Arg(1 << 18);

// The transcendental array kernels at DyHSL's per-forward tanh count
// (B = 1, paper config: 2 layers x 28N rows x d = 64, N = 170), on the
// calling thread's OpenMP team.
constexpr int64_t kTranscendentalCount = 609280;

template <void (*Fn)(const float*, float*, int64_t)>
void BM_Transcendental(benchmark::State& state) {
  Rng rng(11);
  T::Tensor x = T::Tensor::Randn({kTranscendentalCount}, &rng);
  T::Tensor y({kTranscendentalCount});
  for (auto _ : state) {
    Fn(x.data(), y.data(), kTranscendentalCount);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTranscendentalCount);
}

void BM_Tanh(benchmark::State& state) {
  BM_Transcendental<T::TanhArray>(state);
}
BENCHMARK(BM_Tanh);

void BM_Sigmoid(benchmark::State& state) {
  BM_Transcendental<T::SigmoidArray>(state);
}
BENCHMARK(BM_Sigmoid);

void BM_Exp(benchmark::State& state) {
  BM_Transcendental<T::ExpArray>(state);
}
BENCHMARK(BM_Exp);

void BM_MaxPoolTime(benchmark::State& state) {
  Rng rng(6);
  T::Tensor x = T::Tensor::Randn({16, 12, state.range(0), 32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::MaxPoolAxis(x, 1, 3));
  }
}
BENCHMARK(BM_MaxPoolTime)->Arg(64)->Arg(256);

void BM_Conv1dDilated(benchmark::State& state) {
  // range(0) sequences of 32 channels over 12 steps, kernel 2, dilation 2,
  // causal: the TCN block shape.
  Rng rng(7);
  T::Tensor x = T::Tensor::Randn({1, 12, state.range(0), 32}, &rng);
  T::Tensor w = T::Tensor::Randn({32, 32, 2}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::TemporalConv(x, w, nullptr, 2, 2, 0));
  }
}
BENCHMARK(BM_Conv1dDilated)->Arg(64)->Arg(512);

void BM_TemporalConv(benchmark::State& state) {
  // STGCN's second gated conv, (B, 12, R, 16) -> (B, 12, R, 32), kernel 3,
  // causal: B = 1, R = 840 is one metro shard; B = 64, R = 24 a fleet
  // tick of windowed sessions.
  const int64_t batch = state.range(0), rows = state.range(1);
  Rng rng(8);
  T::Tensor x = T::Tensor::Randn({batch, 12, rows, 16}, &rng);
  T::Tensor w = T::Tensor::Randn({32, 16, 3}, &rng);
  T::Tensor bias = T::Tensor::Randn({32}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::TemporalConv(x, w, bias.data(), 1, 2, 0));
  }
  state.SetItemsProcessed(state.iterations() * batch * 12 * rows * 16 * 32 *
                          3);
}
BENCHMARK(BM_TemporalConv)->Args({1, 840})->Args({64, 24});

}  // namespace
}  // namespace dyhsl

BENCHMARK_MAIN();
