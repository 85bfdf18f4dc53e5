// Tests for the inference-plan layer: the GEMM's in-place A kernels
// (direct-A, direct-AT, the small-size no-plan path), prepacked operands
// (tensor::PackedPanels / BatchedGemmPrepackedInto), the process
// PrepackCache with its enrollment/lookup/invalidation lifecycle, the
// serving engine's plan bring-up and stats.
//
// The contract under test everywhere is *bit* identity: every in-place or
// prepacked path must reproduce the packed-A reference kernel exactly,
// for every trans combination, beta mode and sharing pattern — "close"
// is a failure.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/autograd/inference.h"
#include "src/core/parallel.h"
#include "src/core/rng.h"
#include "src/serve/engine.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tensor.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"
#include "tests/testing_utils.h"

namespace dyhsl::tensor {
namespace {

using ::dyhsl::testing::TempPath;
using ::dyhsl::testing::TensorEq;

Tensor RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  return Tensor::Randn({rows, cols}, &rng, 1.0f);
}

// Runs BatchedGemmInto over freshly seeded C and returns the result.
// `shared_a`/`shared_b` use stride 0 (one operand for the whole batch).
Tensor RunBatched(int64_t batch, bool trans_a, bool trans_b, int64_t m,
                  int64_t n, int64_t k, const Tensor& a, bool shared_a,
                  const Tensor& b, bool shared_b, float beta) {
  Rng rng(91);
  Tensor c = Tensor::Randn({batch, m, n}, &rng, 1.0f);
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  BatchedGemmInto(batch, trans_a, trans_b, m, n, k, a.data(),
                  shared_a ? 0 : (trans_a ? k * m : m * k), lda, b.data(),
                  shared_b ? 0 : (trans_b ? n * k : k * n), ldb, beta,
                  c.data(), m * n, n);
  return c;
}

// The oracle for RunBatched: the same product with op(A) served from
// PackAOperand panels, so the packed-A reference kernel (PackA +
// ComputeBlock) computes every element. A prepacked A must be shared, so
// a non-shared A runs one batch item at a time at batch 1, each against
// its own packed item.
Tensor RunPackedA(int64_t batch, bool trans_a, bool trans_b, int64_t m,
                  int64_t n, int64_t k, const Tensor& a, bool shared_a,
                  const Tensor& b, bool shared_b, float beta) {
  Rng rng(91);
  Tensor c = Tensor::Randn({batch, m, n}, &rng, 1.0f);
  const int64_t lda = trans_a ? m : k;
  const int64_t ldb = trans_b ? k : n;
  const int64_t b_stride = shared_b ? 0 : k * n;
  if (shared_a) {
    auto pre_a = PackedPanels::PackAOperand(a.data(), lda, trans_a, m, k);
    BatchedGemmPrepackedInto(batch, trans_a, trans_b, m, n, k, a.data(), 0,
                             lda, pre_a.get(), b.data(), b_stride, ldb,
                             nullptr, beta, c.data(), m * n, n);
    return c;
  }
  for (int64_t bi = 0; bi < batch; ++bi) {
    const float* a_item = a.data() + bi * m * k;
    auto pre_a = PackedPanels::PackAOperand(a_item, lda, trans_a, m, k);
    BatchedGemmPrepackedInto(1, trans_a, trans_b, m, n, k, a_item, 0, lda,
                             pre_a.get(), b.data() + bi * b_stride, b_stride,
                             ldb, nullptr, beta, c.data() + bi * m * n,
                             m * n, n);
  }
  return c;
}

// The GEMM property sweep: reading A in place (direct-A for !trans_a,
// direct-AT for trans_a) must be bitwise identical to the packed-A
// reference over odd and prime shapes that exercise micro-kernel tails,
// multiple K panels (k > 240), multiple MC blocks (m > 120) and lone-panel
// n tails. At the default team size, {13,97,53}, {31,33,241} and
// {127,19,67} exceed the parallel cutoff and take the planned path; the
// TeamScope(1) leg forces the small serial path for every case.
TEST(GemmDirectATest, DirectABitIdenticalToPackedA) {
  struct Case {
    int64_t m, n, k;
  };
  const Case cases[] = {{1, 1, 1},    {3, 5, 7},    {6, 16, 24},
                        {7, 17, 31},  {13, 97, 53}, {31, 33, 241},
                        {127, 19, 67}};
  for (const Case& c : cases) {
    for (int64_t batch : {int64_t{1}, int64_t{3}}) {
      for (bool trans_a : {false, true}) {
        for (bool trans_b : {false, true}) {
          for (float beta : {0.0f, 1.0f, 0.5f}) {
            for (bool shared_a : {false, true}) {
              for (bool shared_b : {false, true}) {
                const int64_t a_items = shared_a ? 1 : batch;
                const int64_t b_items = shared_b ? 1 : batch;
                Tensor a = RandomMatrix(a_items * (trans_a ? c.k : c.m),
                                        trans_a ? c.m : c.k, 17);
                Tensor b = RandomMatrix(b_items * (trans_b ? c.n : c.k),
                                        trans_b ? c.k : c.n, 29);
                Tensor direct = RunBatched(batch, trans_a, trans_b, c.m, c.n,
                                           c.k, a, shared_a, b, shared_b,
                                           beta);
                Tensor serial;
                {
                  core::TeamScope team(1);
                  serial = RunBatched(batch, trans_a, trans_b, c.m, c.n, c.k,
                                      a, shared_a, b, shared_b, beta);
                }
                Tensor packed = RunPackedA(batch, trans_a, trans_b, c.m, c.n,
                                           c.k, a, shared_a, b, shared_b,
                                           beta);
                SCOPED_TRACE(::testing::Message()
                             << "m=" << c.m << " n=" << c.n << " k=" << c.k
                             << " batch=" << batch << " ta=" << trans_a
                             << " tb=" << trans_b << " beta=" << beta
                             << " sa=" << shared_a << " sb=" << shared_b);
                ASSERT_TRUE(TensorEq(direct, packed));
                ASSERT_TRUE(TensorEq(serial, packed)) << "team=1";
              }
            }
          }
        }
      }
    }
  }
}

// Prepacked operands replace on-the-fly packing bit-identically, for
// every orientation.
TEST(PackedPanelsTest, PrepackedBitIdenticalToFreshPacking) {
  struct Case {
    int64_t m, n, k;
  };
  const Case cases[] = {{5, 7, 11}, {13, 33, 241}, {64, 16, 48}};
  for (const Case& c : cases) {
    for (int64_t batch : {int64_t{1}, int64_t{4}}) {
      for (bool trans_a : {false, true}) {
        for (bool trans_b : {false, true}) {
          Tensor a = RandomMatrix(batch * (trans_a ? c.k : c.m),
                                  trans_a ? c.m : c.k, 3);
          Tensor bw = RandomMatrix(trans_b ? c.n : c.k,
                                   trans_b ? c.k : c.n, 5);
          const int64_t lda = trans_a ? c.m : c.k;
          const int64_t ldb = trans_b ? c.k : c.n;
          auto pre_b =
              PackedPanels::PackBOperand(bw.data(), ldb, trans_b, c.k, c.n);
          ASSERT_GT(pre_b->bytes(), 0);
          Rng rng(7);
          Tensor c_pre = Tensor::Randn({batch, c.m, c.n}, &rng, 1.0f);
          Tensor c_ref = c_pre.Clone();
          BatchedGemmPrepackedInto(
              batch, trans_a, trans_b, c.m, c.n, c.k, a.data(),
              trans_a ? c.k * c.m : c.m * c.k, lda, nullptr, bw.data(), 0,
              ldb, pre_b.get(), 0.5f, c_pre.data(), c.m * c.n, c.n);
          BatchedGemmInto(batch, trans_a, trans_b, c.m, c.n, c.k, a.data(),
                          trans_a ? c.k * c.m : c.m * c.k, lda, bw.data(),
                          0, ldb, 0.5f, c_ref.data(), c.m * c.n, c.n);
          ASSERT_TRUE(TensorEq(c_pre, c_ref))
              << "pre_b m=" << c.m << " n=" << c.n << " k=" << c.k
              << " batch=" << batch << " ta=" << trans_a << " tb=" << trans_b;

          // A-side prepack: one shared op(A), batched B.
          Tensor aw = RandomMatrix(trans_a ? c.k : c.m,
                                   trans_a ? c.m : c.k, 11);
          Tensor bb = RandomMatrix(batch * (trans_b ? c.n : c.k),
                                   trans_b ? c.k : c.n, 13);
          auto pre_a =
              PackedPanels::PackAOperand(aw.data(), lda, trans_a, c.m, c.k);
          Tensor d_pre = Tensor::Randn({batch, c.m, c.n}, &rng, 1.0f);
          Tensor d_ref = d_pre.Clone();
          BatchedGemmPrepackedInto(
              batch, trans_a, trans_b, c.m, c.n, c.k, aw.data(), 0, lda,
              pre_a.get(), bb.data(), trans_b ? c.n * c.k : c.k * c.n, ldb,
              nullptr, 0.0f, d_pre.data(), c.m * c.n, c.n);
          BatchedGemmInto(batch, trans_a, trans_b, c.m, c.n, c.k,
                          aw.data(), 0, lda, bb.data(),
                          trans_b ? c.n * c.k : c.k * c.n, ldb, 0.0f,
                          d_ref.data(), c.m * c.n, c.n);
          ASSERT_TRUE(TensorEq(d_pre, d_ref))
              << "pre_a m=" << c.m << " n=" << c.n << " k=" << c.k
              << " batch=" << batch << " ta=" << trans_a << " tb=" << trans_b;
        }
      }
    }
  }
}

// ---------------------------------------------------------- PrepackCache --

TEST(PrepackCacheTest, EnrollLookupCountersAndDimChecks) {
  PrepackCache& cache = PrepackCache::Instance();
  Tensor w = RandomMatrix(24, 10, 3);
  cache.Enroll(w);

  const auto before = PrepackCache::ThreadCounters();
  // Enroll eagerly packed (B, no-trans): first lookup is already a hit.
  auto pack = cache.Lookup(w.data(), PackedPanels::Side::kB, false, 24, 10);
  ASSERT_NE(pack, nullptr);
  EXPECT_EQ(pack->k(), 24);
  EXPECT_EQ(pack->mn(), 10);
  auto counters = PrepackCache::ThreadCounters();
  EXPECT_EQ(counters.hits, before.hits + 1);
  EXPECT_EQ(counters.misses, before.misses);

  // First use of a new orientation packs lazily: one miss, then hits.
  auto pack_t = cache.Lookup(w.data(), PackedPanels::Side::kB, true, 10, 24);
  ASSERT_NE(pack_t, nullptr);
  counters = PrepackCache::ThreadCounters();
  EXPECT_EQ(counters.misses, before.misses + 1);
  auto pack_t2 = cache.Lookup(w.data(), PackedPanels::Side::kB, true, 10, 24);
  EXPECT_EQ(pack_t2.get(), pack_t.get());
  EXPECT_EQ(PrepackCache::ThreadCounters().hits, before.hits + 2);

  // Mismatched op() dimensions (a reshape/alias) fall back to null and
  // count nothing.
  EXPECT_EQ(cache.Lookup(w.data(), PackedPanels::Side::kB, false, 10, 24),
            nullptr);
  EXPECT_EQ(PrepackCache::ThreadCounters().hits, before.hits + 2);
  EXPECT_EQ(PrepackCache::ThreadCounters().misses, before.misses + 1);

  // Un-enrolled pointers (activations) return null without counting.
  Tensor x = RandomMatrix(4, 24, 5);
  EXPECT_EQ(cache.Lookup(x.data(), PackedPanels::Side::kB, false, 4, 24),
            nullptr);
  EXPECT_EQ(PrepackCache::ThreadCounters().hits, before.hits + 2);

  const auto inventory = cache.StatsFor({w.data()});
  EXPECT_EQ(inventory.panels, 2);  // no-trans + trans packs
  EXPECT_GT(inventory.bytes, 0);

  cache.Release(w.data());
  EXPECT_EQ(cache.Lookup(w.data(), PackedPanels::Side::kB, false, 24, 10),
            nullptr);
  EXPECT_EQ(cache.StatsFor({w.data()}).panels, 0);
}

TEST(PrepackCacheTest, InvalidateRepacksFromFreshBytesNeverStale) {
  PrepackCache& cache = PrepackCache::Instance();
  Tensor x = RandomMatrix(6, 16, 21);
  Tensor w = RandomMatrix(16, 9, 22);
  Tensor w_old = w.Clone();

  cache.Enroll(w);
  const uint64_t gen = cache.generation();
  PrepackLookupScope scope;

  Tensor y0 = MatMul(x, w);
  // Overwrite the weight bytes in place, exactly as LoadCheckpoint does.
  Tensor w_new = RandomMatrix(16, 9, 23);
  w.CopyDataFrom(w_new);
  // Without invalidation the cache still serves the stale panels — this
  // is the hazard Invalidate exists for.
  EXPECT_TRUE(TensorEq(MatMul(x, w), y0));

  cache.Invalidate(w.data());
  EXPECT_GT(cache.generation(), gen);
  EXPECT_EQ(cache.StatsFor({w.data()}).invalidations, 1);
  // The next lookup repacked from the fresh bytes: the product matches a
  // plain un-prepacked multiply of the new weights, bit for bit.
  Tensor clean = w_new.Clone();  // never enrolled
  Tensor expected = MatMul(x, clean);
  EXPECT_TRUE(TensorEq(MatMul(x, w), expected));
  EXPECT_FALSE(TensorEq(MatMul(x, w), MatMul(x, w_old)));
  cache.Release(w.data());
}

TEST(PrepackCacheTest, TransparentMatMulLookupMatchesUnscoped) {
  PrepackCache& cache = PrepackCache::Instance();
  Tensor x = RandomMatrix(7, 24, 31);
  Tensor w = RandomMatrix(24, 13, 32);
  Tensor expected = MatMul(x, w);  // no scope: never touches the cache

  cache.Enroll(w);
  const auto before = PrepackCache::ThreadCounters();
  {
    PrepackLookupScope scope;
    EXPECT_TRUE(TensorEq(MatMul(x, w), expected));
    // Batched with a shared 2-D weight hits the same panels.
    Rng rng(33);
    Tensor xb = Tensor::Randn({3, 7, 24}, &rng, 1.0f);
    Tensor yb = BatchedMatMul(xb, w);
    for (int64_t i = 0; i < 3; ++i) {
      Tensor xi = Slice(xb, 0, i, 1).Reshape({7, 24});
      EXPECT_TRUE(
          TensorEq(Slice(yb, 0, i, 1).Reshape({7, 13}), MatMul(xi, w)));
    }
  }
  EXPECT_GT(PrepackCache::ThreadCounters().hits, before.hits);
  // Outside the scope, lookups stop (training never pays them).
  const auto after = PrepackCache::ThreadCounters();
  Tensor y = MatMul(x, w);
  EXPECT_TRUE(TensorEq(y, expected));
  EXPECT_EQ(PrepackCache::ThreadCounters().hits, after.hits);
  cache.Release(w.data());
}

}  // namespace
}  // namespace dyhsl::tensor

namespace dyhsl::serve {
namespace {

namespace T = ::dyhsl::tensor;

using ::dyhsl::testing::TempPath;
using ::dyhsl::testing::TensorEq;
using train::RingForecastTask;

T::Tensor RandomWindow(const train::ForecastTask& task, uint64_t seed) {
  Rng rng(seed);
  return T::Tensor::Randn({task.history, task.num_nodes, task.input_dim},
                          &rng, 0.5f);
}

train::ZooConfig TinyZoo(uint64_t seed = 13) {
  train::ZooConfig cfg;
  cfg.hidden_dim = 8;
  cfg.seed = seed;
  return cfg;
}

// Every zoo model (DyHSL included) served with the inference plan active
// must be bit-identical to its own direct forward without any prepack —
// grad-free (the serving configuration) and taped (a scope installed
// around a tape-building forward must not change results either).
TEST(PrepackServingTest, AllZooModelsBitIdenticalWithPrepack) {
  train::ForecastTask task = RingForecastTask(10, 12);
  for (const std::string& key : train::NeuralModelKeys()) {
    SCOPED_TRACE(key);
    auto created = ForecastEngine::Create(task, ZooFactory(key, TinyZoo()));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto engine = std::move(created).ValueOrDie();
    T::Tensor window = RandomWindow(task, 40);

    // Grad-free reference without any prepack lookup.
    T::Tensor expected;
    {
      autograd::InferenceModeGuard no_grad;
      expected = engine->mutable_model()
                     ->Forward(window.Reshape({1, task.history,
                                               task.num_nodes,
                                               task.input_dim}),
                               false)
                     .value()
                     .Reshape({task.horizon, task.num_nodes})
                     .Clone();
    }
    ForecastResponse served = engine->ForecastNow(window);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_TRUE(TensorEq(served.forecast, expected));

    // Taped: same forward with a live tape under a lookup scope.
    T::Tensor taped;
    {
      T::PrepackLookupScope scope;
      taped = engine->mutable_model()
                  ->Forward(window.Reshape({1, task.history, task.num_nodes,
                                            task.input_dim}),
                            false)
                  .value()
                  .Reshape({task.horizon, task.num_nodes})
                  .Clone();
    }
    EXPECT_TRUE(TensorEq(taped, expected));

    EngineStats stats = engine->Snapshot();
    EXPECT_GT(stats.prepack.panels, 0) << key;
    EXPECT_GT(stats.prepack.bytes, 0) << key;
    EXPECT_GT(stats.prepack.hits, 0) << key;
  }
}

TEST(PrepackServingTest, CheckpointReloadInvalidatesStalePanels) {
  train::ForecastTask task = RingForecastTask(12, 12);
  const std::string path_a = TempPath("prepack_ckpt_a.dyh");
  const std::string path_b = TempPath("prepack_ckpt_b.dyh");
  {
    auto model_a = train::MakeNeuralModel("STGCN", task, TinyZoo(5));
    auto model_b = train::MakeNeuralModel("STGCN", task, TinyZoo(99));
    ASSERT_TRUE(train::SaveCheckpoint(
                    *dynamic_cast<nn::Module*>(model_a.get()), path_a)
                    .ok());
    ASSERT_TRUE(train::SaveCheckpoint(
                    *dynamic_cast<nn::Module*>(model_b.get()), path_b)
                    .ok());
  }
  auto engine = std::move(ForecastEngine::Create(
                              task, ZooFactory("STGCN", TinyZoo(5)), path_a))
                    .ValueOrDie();
  T::Tensor window = RandomWindow(task, 8);
  // Warm the plan on checkpoint A.
  ForecastResponse before = engine->ForecastNow(window);
  ASSERT_TRUE(before.status.ok());
  EXPECT_EQ(engine->Snapshot().prepack.invalidations, 0);

  // Reload with checkpoint B in place: the load must invalidate every
  // enrolled weight it overwrote.
  auto* module = dynamic_cast<nn::Module*>(engine->mutable_model());
  ASSERT_NE(module, nullptr);
  ASSERT_TRUE(train::LoadCheckpoint(module, path_b).ok());
  EXPECT_GT(engine->Snapshot().prepack.invalidations, 0);

  // Stale panels are never served: the served forecast now matches a
  // fresh no-prepack engine loaded from checkpoint B, bit for bit.
  ForecastResponse after = engine->ForecastNow(window);
  ASSERT_TRUE(after.status.ok());
  T::Tensor expected;
  {
    auto fresh = train::MakeNeuralModel("STGCN", task, TinyZoo(5));
    ASSERT_TRUE(train::LoadCheckpoint(
                    dynamic_cast<nn::Module*>(fresh.get()), path_b)
                    .ok());
    autograd::InferenceModeGuard no_grad;
    expected = fresh
                   ->Forward(window.Reshape({1, task.history, task.num_nodes,
                                             task.input_dim}),
                             false)
                   .value()
                   .Reshape({task.horizon, task.num_nodes})
                   .Clone();
  }
  EXPECT_TRUE(TensorEq(after.forecast, expected));
  EXPECT_FALSE(TensorEq(after.forecast, before.forecast));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(PrepackServingTest, EngineReleasesPlanOnDestruction) {
  train::ForecastTask task = RingForecastTask(8, 12);
  const float* weight_ptr = nullptr;
  {
    auto engine = std::move(ForecastEngine::Create(
                                task, ZooFactory("STGCN", TinyZoo())))
                      .ValueOrDie();
    auto* module = dynamic_cast<nn::Module*>(engine->mutable_model());
    for (const auto& [name, var] : module->NamedParameters()) {
      if (var.value().dim() == 2) {
        weight_ptr = var.value().data();
        break;
      }
    }
    ASSERT_NE(weight_ptr, nullptr);
    EXPECT_GT(
        T::PrepackCache::Instance().StatsFor({weight_ptr}).panels, 0);
  }
  // Engine gone: its enrollments (and the weight storage they pinned)
  // are released with it.
  EXPECT_EQ(T::PrepackCache::Instance().StatsFor({weight_ptr}).panels, 0);
}

}  // namespace
}  // namespace dyhsl::serve
