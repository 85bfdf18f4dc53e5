// google-benchmark microbenchmarks for the inference-plan GEMM paths:
// prepacked weights vs on-the-fly packing of op(B), plus the one-time
// pack and the cache lookup — at the shapes the serving hot loops
// actually run (metro-scale B=1 N=207 activations against d=64 weights,
// and district-scale N=24 fleet batches against d=16 weights).

#include <benchmark/benchmark.h>

#include "src/core/rng.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor.h"

namespace dyhsl {
namespace {

namespace T = ::dyhsl::tensor;

// One serving-shaped GEMM with op(B) packed on every call; op(A) is read
// in place. `m` is the activation row count (batch x nodes), n = k = d.
void BM_GemmOnTheFly(benchmark::State& state) {
  const int64_t m = state.range(0), d = state.range(1);
  Rng rng(1);
  T::Tensor x = T::Tensor::Randn({m, d}, &rng);
  T::Tensor w = T::Tensor::Randn({d, d}, &rng);
  T::Tensor out({m, d});
  for (auto _ : state) {
    T::MatMulInto(x, w, false, false, 0.0f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m * d * d);
}
BENCHMARK(BM_GemmOnTheFly)
    ->Args({207, 64})
    ->Args({2484, 64})
    ->Args({1536, 16});

// Full inference plan: the same GEMM with a prepacked constant weight
// served straight from heap-pinned panels — the per-call pack cost is zero.
void BM_GemmPrepacked(benchmark::State& state) {
  const int64_t m = state.range(0), d = state.range(1);
  Rng rng(1);
  T::Tensor x = T::Tensor::Randn({m, d}, &rng);
  T::Tensor w = T::Tensor::Randn({d, d}, &rng);
  T::Tensor out({m, d});
  std::shared_ptr<const T::PackedPanels> pre_b =
      T::PackedPanels::PackBOperand(w.data(), d, /*trans=*/false, d, d);
  for (auto _ : state) {
    T::BatchedGemmPrepackedInto(1, false, false, m, d, d, x.data(), 0, d,
                                nullptr, w.data(), 0, d, pre_b.get(), 0.0f,
                                out.data(), 0, d);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m * d * d);
}
BENCHMARK(BM_GemmPrepacked)
    ->Args({207, 64})
    ->Args({2484, 64})
    ->Args({1536, 16});

// The prepack itself (what an engine pays once per weight at Create or
// checkpoint reload) — nanoseconds per panel build, to put the cache's
// one-time cost in context.
void BM_PackBOperand(benchmark::State& state) {
  const int64_t d = state.range(0);
  Rng rng(2);
  T::Tensor w = T::Tensor::Randn({d, d}, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        T::PackedPanels::PackBOperand(w.data(), d, false, d, d));
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_PackBOperand)->Arg(16)->Arg(64)->Arg(256);

// Cache lookup on the serving path: enrolled pointer, warm panels. This
// is the per-GEMM overhead a PrepackLookupScope adds.
void BM_PrepackCacheLookup(benchmark::State& state) {
  const int64_t d = 64;
  Rng rng(3);
  T::Tensor w = T::Tensor::Randn({d, d}, &rng);
  T::PrepackCache::Instance().Enroll(w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(T::PrepackCache::Instance().Lookup(
        w.data(), T::PackedPanels::Side::kB, false, d, d));
  }
  T::PrepackCache::Instance().Release(w.data());
}
BENCHMARK(BM_PrepackCacheLookup);

}  // namespace
}  // namespace dyhsl

BENCHMARK_MAIN();
