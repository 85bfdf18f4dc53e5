// Tests for the sharded multi-model serving path: ShardPlan partitioning
// and halo expansion, induced subgraph extraction, the
// shard checkpoint family, and — the acceptance bar — ForecastRouter
// forecasts over 2- and 4-way partitioned N=1024 networks matching the
// unsharded engine element-wise within 1e-5 for graph-operator models.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/gnn_models.h"
#include "src/core/parallel.h"
#include "src/graph/shard.h"
#include "src/graph/temporal_graph.h"
#include "src/hypergraph/hypergraph.h"
#include "src/serve/router.h"
#include "src/train/checkpoint.h"
#include "src/train/model_zoo.h"
#include "tests/testing_utils.h"

namespace dyhsl::serve {
namespace {

namespace T = ::dyhsl::tensor;

using ::dyhsl::testing::MaxAbsDiff;
using ::dyhsl::testing::TempPath;
using train::RingForecastTask;

T::Tensor RandomWindow(const train::ForecastTask& task, uint64_t seed) {
  Rng rng(seed);
  return T::Tensor::Randn({task.history, task.num_nodes, task.input_dim},
                          &rng, 0.5f);
}

train::ZooConfig SmallZoo(uint64_t seed = 5) {
  train::ZooConfig zoo;
  zoo.hidden_dim = 8;
  zoo.seed = seed;
  return zoo;
}

// ------------------------------------------------------------- ShardPlan --

TEST(ShardPlanTest, PartitionsContiguouslyAndBalanced) {
  train::ForecastTask task = RingForecastTask(10);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 3, 0);
  ASSERT_EQ(plan.num_shards(), 3);
  EXPECT_EQ(plan.num_nodes(), 10);
  // Sizes differ by at most one and the ranges tile [0, N).
  int64_t expect_begin = 0;
  for (int64_t s = 0; s < plan.num_shards(); ++s) {
    const graph::ShardSpec& shard = plan.shard(s);
    EXPECT_EQ(shard.shard_id, s);
    EXPECT_EQ(shard.begin, expect_begin);
    EXPECT_GE(shard.owned_count(), 3);
    EXPECT_LE(shard.owned_count(), 4);
    EXPECT_EQ(shard.halo_count(), 0);
    expect_begin = shard.end;
  }
  EXPECT_EQ(expect_begin, 10);
}

TEST(ShardPlanTest, HaloCoversHopNeighborhoodOnRing) {
  train::ForecastTask task = RingForecastTask(12);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  // Shard 0 owns [0, 6); 2 hops out along the ring reach {6, 7} above and
  // {11, 10} below (wrapping), all >= end or < begin of the owned range.
  const graph::ShardSpec& s0 = plan.shard(0);
  EXPECT_EQ(s0.begin, 0);
  EXPECT_EQ(s0.end, 6);
  EXPECT_EQ(s0.halo_count(), 4);
  EXPECT_EQ(s0.owned_offset, 0);  // no global ids below 0
  EXPECT_EQ(s0.locals, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 10, 11}));
  // Shard 1 owns [6, 12); its halo {4, 5, 0, 1} sorts below the owned
  // block, shifting owned_offset.
  const graph::ShardSpec& s1 = plan.shard(1);
  EXPECT_EQ(s1.owned_offset, 4);
  EXPECT_EQ(s1.locals, (std::vector<int64_t>{0, 1, 4, 5, 6, 7, 8, 9, 10, 11}));
  // Locals are globally sorted with the owned block contiguous.
  for (int64_t s = 0; s < 2; ++s) {
    const graph::ShardSpec& shard = plan.shard(s);
    for (size_t i = 1; i < shard.locals.size(); ++i) {
      EXPECT_LT(shard.locals[i - 1], shard.locals[i]);
    }
    for (int64_t i = 0; i < shard.owned_count(); ++i) {
      EXPECT_EQ(shard.locals[shard.owned_offset + i], shard.begin + i);
    }
  }
}

TEST(ShardPlanTest, SingleShardOwnsEverythingWithNoHalo) {
  train::ForecastTask task = RingForecastTask(7);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 1, 3);
  ASSERT_EQ(plan.num_shards(), 1);
  EXPECT_EQ(plan.shard(0).owned_count(), 7);
  EXPECT_EQ(plan.shard(0).halo_count(), 0);  // nothing outside to pull in
}

TEST(ShardPlanDeathTest, RejectsInvalidArguments) {
  train::ForecastTask task = RingForecastTask(8);
  EXPECT_DEATH(graph::ShardPlan::Build(task.spatial_adj, 0, 1), "num_shards");
  EXPECT_DEATH(graph::ShardPlan::Build(task.spatial_adj, 9, 1), "num_shards");
  EXPECT_DEATH(graph::ShardPlan::Build(task.spatial_adj, 2, -1), "halo_hops");
}

// ------------------------------------------------- induced sub-structures --

TEST(InducedSubgraphTest, KeepsExactlyTheLocalEdgesRemapped) {
  // Path graph 0-1-2-3-4 with distinct weights.
  std::vector<T::Triplet> triplets;
  for (int64_t i = 0; i < 4; ++i) {
    float w = 0.1f * static_cast<float>(i + 1);
    triplets.push_back({i, i + 1, w});
    triplets.push_back({i + 1, i, w});
  }
  T::CsrMatrix adj = T::CsrMatrix::FromTriplets(5, 5, std::move(triplets));
  graph::ShardPlan plan = graph::ShardPlan::Build(adj, 2, 1);
  // Shard 0 owns {0, 1, 2}, halo {3}.
  const graph::ShardSpec& s0 = plan.shard(0);
  ASSERT_EQ(s0.locals, (std::vector<int64_t>{0, 1, 2, 3}));
  T::CsrMatrix induced = graph::InducedSubgraph(adj, s0);
  T::Tensor dense = induced.ToDense();
  T::Tensor global = adj.ToDense();
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(dense.At({i, j}), global.At({s0.locals[i],
                                                   s0.locals[j]}))
          << "local (" << i << "," << j << ")";
    }
  }
  // The cut edge 3-4 is gone: node 3 keeps only its edge to 2.
  EXPECT_EQ(induced.nnz(), 6);
}

TEST(InducedSubgraphTest, CutNodesMayBecomeIsolatedWithoutNormalizationNan) {
  // Star: node 0 connected to 1..4; induce on {1, 2} -> no edges at all.
  std::vector<T::Triplet> triplets;
  for (int64_t i = 1; i < 5; ++i) {
    triplets.push_back({0, i, 1.0f});
    triplets.push_back({i, 0, 1.0f});
  }
  T::CsrMatrix adj = T::CsrMatrix::FromTriplets(5, 5, std::move(triplets));
  graph::ShardSpec spec;
  spec.shard_id = 0;
  spec.begin = 1;
  spec.end = 3;
  spec.locals = {1, 2};
  spec.owned_offset = 0;
  T::CsrMatrix induced = graph::InducedSubgraph(adj, spec);
  EXPECT_EQ(induced.nnz(), 0);
  // Zero-degree guarantee: normalization leaves empty rows empty.
  T::CsrMatrix normalized = induced.WithSelfLoops().SymNormalized();
  for (float v : normalized.values()) EXPECT_TRUE(std::isfinite(v));
  autograd::SparseConstant op =
      graph::BuildNormalizedTemporalOp(induced, /*num_steps=*/3);
  EXPECT_EQ(op.rows(), 6);
  for (float v : op.matrix().values()) EXPECT_TRUE(std::isfinite(v));
}

TEST(InducedSubgraphTest, TemporalOperatorOverItIsRowStochastic) {
  train::ForecastTask task = RingForecastTask(12);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  const graph::ShardSpec& s1 = plan.shard(1);
  autograd::SparseConstant op = graph::BuildNormalizedTemporalOp(
      graph::InducedSubgraph(task.spatial_adj, s1), /*num_steps=*/4);
  ASSERT_EQ(op.rows(), 4 * s1.num_local());
  ASSERT_EQ(op.cols(), 4 * s1.num_local());
  const auto& rp = op.matrix().row_ptr();
  const auto& vals = op.matrix().values();
  for (int64_t r = 0; r < op.rows(); ++r) {
    double sum = 0.0;
    for (int64_t k = rp[r]; k < rp[r + 1]; ++k) sum += vals[k];
    EXPECT_NEAR(sum, 1.0, 1e-5) << "row " << r;
  }
}

TEST(ShardTaskTest, BuildsAShardScopedTask) {
  train::ForecastTask task = RingForecastTask(16);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 4, 1);
  const graph::ShardSpec& s2 = plan.shard(2);
  train::ForecastTask shard_task = train::ShardTask(task, s2);
  EXPECT_EQ(shard_task.num_nodes, s2.num_local());
  EXPECT_EQ(shard_task.spatial_adj.rows(), s2.num_local());
  EXPECT_EQ(shard_task.history, task.history);
  EXPECT_EQ(shard_task.horizon, task.horizon);
  EXPECT_EQ(shard_task.scaler_mean, task.scaler_mean);
  ASSERT_EQ(static_cast<int64_t>(shard_task.district_labels.size()),
            s2.num_local());
  for (int64_t i = 0; i < s2.num_local(); ++i) {
    EXPECT_EQ(shard_task.district_labels[i],
              task.district_labels[s2.locals[i]]);
  }
}

// ------------------------------------------------- shard checkpoint family --

TEST(ShardCheckpointSetTest, FamilyRoundTripsAndValidates) {
  train::ForecastTask task = RingForecastTask(16);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  baselines::Stgcn model(task, 8, /*seed=*/123);
  std::string prefix = TempPath("family");
  ASSERT_TRUE(train::ShardCheckpointSet::Save(plan, model, prefix).ok());

  auto validated = train::ShardCheckpointSet::Validate(prefix, plan);
  ASSERT_TRUE(validated.ok()) << validated.status().ToString();
  const std::vector<train::ShardMeta>& metas = validated.ValueOrDie();
  ASSERT_EQ(metas.size(), 2u);
  for (int64_t s = 0; s < 2; ++s) {
    EXPECT_TRUE(metas[s].Matches(plan, s));
    EXPECT_EQ(metas[s].shard_id, s);
    EXPECT_EQ(metas[s].total_nodes, 16);
  }

  // A plan with a different halo width is a different family: refuse it.
  graph::ShardPlan other = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  auto mismatch = train::ShardCheckpointSet::Validate(prefix, other);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);

  // A missing member makes the family invalid.
  std::remove(train::ShardCheckpointSet::ShardPath(prefix, 1).c_str());
  EXPECT_FALSE(train::ShardCheckpointSet::Validate(prefix, plan).ok());
  std::remove(train::ShardCheckpointSet::ShardPath(prefix, 0).c_str());
}

TEST(ShardCheckpointSetTest, UnshardedCheckpointIsNotAFamilyMember) {
  train::ForecastTask task = RingForecastTask(8);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 1, 0);
  baselines::Stgcn model(task, 8, /*seed=*/9);
  std::string prefix = TempPath("plainfam");
  // Write shard 0's file *without* shard metadata.
  std::string path = train::ShardCheckpointSet::ShardPath(prefix, 0);
  ASSERT_TRUE(train::SaveCheckpoint(model, path).ok());
  auto validated = train::ShardCheckpointSet::Validate(prefix, plan);
  ASSERT_FALSE(validated.ok());
  EXPECT_EQ(validated.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- the router --

std::unique_ptr<ForecastRouter> MakeRouter() {
  return std::move(ForecastRouter::Create()).ValueOrDie();
}

// The acceptance bar: a 2- and 4-way sharded STGCN over an N=1024 network
// must reproduce the unsharded engine element-wise within 1e-5. STGCN
// applies one hop of (degree-normalized) graph convolution, so halo 2 (one
// hop of propagation + one hop for exact fringe degrees) covers its
// receptive field.
TEST(ForecastRouterTest, ShardedStgcnMatchesUnshardedAtN1024) {
  train::ForecastTask task = RingForecastTask(1024);
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  auto router = MakeRouter();
  ASSERT_TRUE(router->AddModel("stgcn", task, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "stgcn-x2", task,
                      graph::ShardPlan::Build(task.spatial_adj, 2, 2), factory)
                  .ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "stgcn-x4", task,
                      graph::ShardPlan::Build(task.spatial_adj, 4, 2), factory)
                  .ok());
  EXPECT_EQ(router->ShardCountOf("stgcn"), 1);
  EXPECT_EQ(router->ShardCountOf("stgcn-x2"), 2);
  EXPECT_EQ(router->ShardCountOf("stgcn-x4"), 4);

  for (uint64_t seed : {3u, 17u}) {
    T::Tensor window = RandomWindow(task, seed);
    ForecastResponse single =
        router->Submit(RouterRequest{"stgcn", window.Clone()}).get();
    ASSERT_TRUE(single.status.ok()) << single.status.ToString();
    ForecastResponse x2 =
        router->Submit(RouterRequest{"stgcn-x2", window.Clone()}).get();
    ASSERT_TRUE(x2.status.ok()) << x2.status.ToString();
    ForecastResponse x4 =
        router->Submit(RouterRequest{"stgcn-x4", window.Clone()}).get();
    ASSERT_TRUE(x4.status.ok()) << x4.status.ToString();
    ASSERT_EQ(single.forecast.shape(), (T::Shape{12, 1024}));
    ASSERT_EQ(x2.forecast.shape(), (T::Shape{12, 1024}));
    ASSERT_EQ(x4.forecast.shape(), (T::Shape{12, 1024}));
    EXPECT_LE(MaxAbsDiff(x2.forecast, single.forecast), 1e-5f);
    EXPECT_LE(MaxAbsDiff(x4.forecast, single.forecast), 1e-5f);
  }
}

// A recurrent graph-operator model: DCRNN applies 2 diffusion hops per
// cell step over history + horizon steps, so the receptive field is
// 2 * (12 + 6) = 36 hops; halo 37 adds the fringe-degree hop.
TEST(ForecastRouterTest, ShardedDcrnnMatchesUnsharded) {
  train::ForecastTask task = RingForecastTask(256, 12, /*horizon=*/6);
  ModelFactory factory = ZooFactory("DCRNN", SmallZoo(7));
  auto router = MakeRouter();
  ASSERT_TRUE(router->AddModel("dcrnn", task, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "dcrnn-x2", task,
                      graph::ShardPlan::Build(task.spatial_adj, 2, 37),
                      factory)
                  .ok());
  T::Tensor window = RandomWindow(task, 29);
  ForecastResponse single =
      router->Submit(RouterRequest{"dcrnn", window.Clone()}).get();
  ForecastResponse x2 =
      router->Submit(RouterRequest{"dcrnn-x2", window.Clone()}).get();
  ASSERT_TRUE(single.status.ok());
  ASSERT_TRUE(x2.status.ok());
  // Recurrent models amplify last-ulp float differences (the vectorized
  // tanh/sigmoid tail lanes fall at different positions for different
  // node counts) through their 18 cell steps, so the bound is looser
  // than the single-application STGCN's 1e-5 — but still rounding-level,
  // orders of magnitude below any structural halo error.
  EXPECT_LE(MaxAbsDiff(x2.forecast, single.forecast), 1e-4f);
}

// With a halo narrower than the receptive field the sharded forecast is
// an approximation — close, but measurably different. This pins down
// that the halo is what buys exactness (and guards against the
// equivalence tests passing vacuously).
TEST(ForecastRouterTest, HaloNarrowerThanReceptiveFieldIsApproximate) {
  train::ForecastTask task = RingForecastTask(64);
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  auto router = MakeRouter();
  ASSERT_TRUE(router->AddModel("exact", task, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "halo0", task,
                      graph::ShardPlan::Build(task.spatial_adj, 2, 0), factory)
                  .ok());
  T::Tensor window = RandomWindow(task, 31);
  ForecastResponse exact =
      router->Submit(RouterRequest{"exact", window.Clone()}).get();
  ForecastResponse halo0 =
      router->Submit(RouterRequest{"halo0", window.Clone()}).get();
  ASSERT_TRUE(exact.status.ok());
  ASSERT_TRUE(halo0.status.ok());
  EXPECT_GT(MaxAbsDiff(halo0.forecast, exact.forecast), 1e-4f);
}

TEST(ForecastRouterTest, RoutesNamedModelsAndRejectsUnknown) {
  train::ForecastTask task = RingForecastTask(24);
  auto router = MakeRouter();
  models::DyHslConfig tiny;
  tiny.hidden_dim = 8;
  tiny.prior_layers = 1;
  tiny.mhce_layers = 1;
  tiny.num_hyperedges = 4;
  tiny.window_sizes = {1, 12};
  tiny.dropout = 0.0f;
  ASSERT_TRUE(
      router->AddModel("stgcn", task, ZooFactory("STGCN", SmallZoo())).ok());
  ASSERT_TRUE(router->AddModel("dyhsl", task, DyHslFactory(tiny)).ok());

  // Reference engines built with the same factories serve the truth.
  auto stgcn_ref = std::move(ForecastEngine::Create(
                                 task, ZooFactory("STGCN", SmallZoo())))
                       .ValueOrDie();
  auto dyhsl_ref =
      std::move(ForecastEngine::Create(task, tiny)).ValueOrDie();

  T::Tensor window = RandomWindow(task, 13);
  ForecastResponse via_stgcn =
      router->Submit(RouterRequest{"stgcn", window.Clone()}).get();
  ForecastResponse via_dyhsl =
      router->Submit(RouterRequest{"dyhsl", window.Clone()}).get();
  ASSERT_TRUE(via_stgcn.status.ok());
  ASSERT_TRUE(via_dyhsl.status.ok());
  ForecastResponse ref_stgcn =
      stgcn_ref->Submit(ForecastRequest{window.Clone()}).get();
  ForecastResponse ref_dyhsl =
      dyhsl_ref->Submit(ForecastRequest{window.Clone()}).get();
  EXPECT_TENSOR_EQ(via_stgcn.forecast, ref_stgcn.forecast);
  EXPECT_TENSOR_EQ(via_dyhsl.forecast, ref_dyhsl.forecast);
  // The two models must of course disagree with each other.
  EXPECT_GT(MaxAbsDiff(via_stgcn.forecast, via_dyhsl.forecast), 1e-3f);

  ForecastResponse unknown =
      router->Submit(RouterRequest{"agcrn", window.Clone()}).get();
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound);
  // Ambiguous: two models registered, no name given.
  ForecastResponse unnamed =
      router->Submit(RouterRequest{"", window.Clone()}).get();
  EXPECT_EQ(unnamed.status.code(), StatusCode::kInvalidArgument);
  RouterStats stats = router->Stats();
  EXPECT_EQ(stats.routing_errors, 2);
  EXPECT_EQ(stats.requests, 2);
}

TEST(ForecastRouterTest, EmptyModelNameRoutesToTheOnlyModel) {
  train::ForecastTask task = RingForecastTask(12);
  auto router = MakeRouter();
  ASSERT_TRUE(
      router->AddModel("only", task, ZooFactory("STGCN", SmallZoo())).ok());
  ForecastResponse response =
      router->Submit(RouterRequest{"", RandomWindow(task, 2)}).get();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST(ForecastRouterTest, ValidatesWindowShapeAndDuplicateNames) {
  train::ForecastTask task = RingForecastTask(12);
  auto router = MakeRouter();
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  ASSERT_TRUE(router->AddModel("m", task, factory).ok());
  Status dup = router->AddModel("m", task, factory);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(router->AddModel("", task, factory).ok());

  ForecastResponse bad =
      router->Submit(RouterRequest{"m", T::Tensor::Zeros({2, 2})}).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  ForecastResponse undefined =
      router->Submit(RouterRequest{"m", T::Tensor()}).get();
  EXPECT_EQ(undefined.status.code(), StatusCode::kInvalidArgument);
}

TEST(ForecastRouterTest, AddShardedModelValidatesPlanAndFamily) {
  train::ForecastTask task = RingForecastTask(16);
  auto router = MakeRouter();
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  // Plan over a different network size than the task.
  train::ForecastTask small = RingForecastTask(8);
  graph::ShardPlan wrong_plan =
      graph::ShardPlan::Build(small.spatial_adj, 2, 1);
  EXPECT_FALSE(
      router->AddShardedModel("m", task, wrong_plan, factory).ok());
  // Missing checkpoint family.
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 1);
  EXPECT_FALSE(router
                   ->AddShardedModel("m", task, plan, factory,
                                     TempPath("no_such_family"))
                   .ok());
}

TEST(ForecastRouterTest, LoadsShardCheckpointFamilyThroughEngines) {
  train::ForecastTask task = RingForecastTask(32);
  graph::ShardPlan plan = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  // Source weights come from seed 123; the serving factory inits with
  // seed 321, so only a successful family load can make outputs agree.
  baselines::Stgcn source(task, 8, /*seed=*/123);
  std::string prefix = TempPath("routerfam");
  ASSERT_TRUE(train::ShardCheckpointSet::Save(plan, source, prefix).ok());
  std::string single_path = TempPath("routerfam_single.ckpt");
  ASSERT_TRUE(train::SaveCheckpoint(source, single_path).ok());

  auto router = MakeRouter();
  ModelFactory serving_factory = ZooFactory("STGCN", SmallZoo(/*seed=*/321));
  ASSERT_TRUE(router
                  ->AddModel("single", task, serving_factory, single_path)
                  .ok());
  Status added =
      router->AddShardedModel("sharded", task, plan, serving_factory, prefix);
  ASSERT_TRUE(added.ok()) << added.ToString();

  T::Tensor window = RandomWindow(task, 41);
  ForecastResponse single =
      router->Submit(RouterRequest{"single", window.Clone()}).get();
  ForecastResponse sharded =
      router->Submit(RouterRequest{"sharded", window.Clone()}).get();
  ASSERT_TRUE(single.status.ok());
  ASSERT_TRUE(sharded.status.ok());
  EXPECT_LE(MaxAbsDiff(sharded.forecast, single.forecast), 1e-5f);

  // Engines surface their checkpoint's shard metadata in the fleet stats.
  RouterStats stats = router->Stats();
  int64_t sharded_engines = 0;
  for (const EngineStatsEntry& e : stats.engines) {
    if (e.model == "sharded") {
      EXPECT_TRUE(e.shard.Matches(plan, e.shard_id));
      ++sharded_engines;
    }
  }
  EXPECT_EQ(sharded_engines, 2);

  for (int64_t s = 0; s < 2; ++s) {
    std::remove(train::ShardCheckpointSet::ShardPath(prefix, s).c_str());
  }
  std::remove(single_path.c_str());
}

TEST(ForecastRouterTest, ShutdownDrainsEveryShard) {
  train::ForecastTask task = RingForecastTask(16);
  auto router = MakeRouter();
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 1),
                      ZooFactory("STGCN", SmallZoo()))
                  .ok());
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(router->Submit(RouterRequest{"m", RandomWindow(task, i)}));
  }
  router->Shutdown();  // must serve both shards' queued requests
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  // After shutdown, new submissions fail cleanly.
  ForecastResponse after =
      router->Submit(RouterRequest{"m", RandomWindow(task, 9)}).get();
  EXPECT_FALSE(after.status.ok());
}

// Returns zeros; its first forward blocks until `release` is ready and
// sets `entered` when it starts.
class GatedFirstForwardModel : public train::ForecastModel {
 public:
  GatedFirstForwardModel(const train::ForecastTask& task,
                         std::promise<void>* entered,
                         std::shared_future<void> release)
      : horizon_(task.horizon),
        num_nodes_(task.num_nodes),
        entered_(entered),
        release_(std::move(release)) {}

  autograd::Variable Forward(const T::Tensor& x, bool) override {
    if (!started_.exchange(true)) {
      entered_->set_value();
      release_.wait();
    }
    return autograd::Variable(
        T::Tensor::Zeros({x.size(0), horizon_, num_nodes_}));
  }
  std::vector<autograd::Variable> Parameters() const override { return {}; }
  int64_t ParameterCount() const override { return 0; }
  std::string name() const override { return "Gated"; }

 private:
  int64_t horizon_;
  int64_t num_nodes_;
  std::promise<void>* entered_;
  std::shared_future<void> release_;
  std::atomic<bool> started_{false};
};

TEST(ForecastRouterTest, IdleShardWorkerServesAnotherShardsRequests) {
  // Shard 0's first forward stalls its worker. The model's other worker
  // must serve every later request, shard 0's half included, instead of
  // leaving it queued behind the stalled forward.
  train::ForecastTask task = RingForecastTask(16);
  auto router = MakeRouter();
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  int built = 0;
  ModelFactory factory = [&](const train::ForecastTask& t)
      -> std::unique_ptr<train::ForecastModel> {
    if (built++ == 0) {
      return std::make_unique<GatedFirstForwardModel>(t, &entered, released);
    }
    return std::make_unique<testing::SlowForecastModel>(
        t, std::chrono::milliseconds(0));
  };
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 1),
                      factory)
                  .ok());
  std::future<ForecastResponse> stalled =
      router->Submit(RouterRequest{"m", RandomWindow(task, 1)});
  entered.get_future().wait();
  std::vector<std::future<ForecastResponse>> later;
  for (int i = 0; i < 3; ++i) {
    later.push_back(router->Submit(RouterRequest{"m", RandomWindow(task, 2)}));
  }
  std::vector<std::future_status> waited;
  for (auto& future : later) {
    waited.push_back(future.wait_for(std::chrono::seconds(30)));
  }
  const std::future_status first = stalled.wait_for(std::chrono::seconds(0));
  release.set_value();  // before any assertion, so a failure cannot hang
  for (size_t i = 0; i < later.size(); ++i) {
    EXPECT_EQ(waited[i], std::future_status::ready)
        << "request " << i << " waited behind another request's stalled shard";
    EXPECT_TRUE(later[i].get().status.ok());
  }
  EXPECT_EQ(first, std::future_status::timeout);
  EXPECT_TRUE(stalled.get().status.ok());
}

TEST(ForecastRouterTest, ShardUnavailableSurfacesPerRequest) {
  train::ForecastTask task = RingForecastTask(16);
  auto router = MakeRouter();
  EngineOptions tight;
  tight.max_queue = 2;  // everything past 2 queued requests is shed
  // A 50 ms forward keeps each shard's queue full while the requests
  // arrive.
  ModelFactory slow = [](const train::ForecastTask& t) {
    return std::make_unique<testing::SlowForecastModel>(
        t, std::chrono::milliseconds(50));
  };
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 1),
                      slow, "", tight)
                  .ok());
  T::Tensor window = RandomWindow(task, 5);
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(router->Submit(RouterRequest{"m", window.Clone()}));
  }
  router->Shutdown();
  int64_t served = 0;
  int64_t shed = 0;
  for (auto& future : futures) {
    ForecastResponse response = future.get();
    if (response.status.ok()) {
      ++served;
    } else {
      // A shard shedding load fails *that* request with kUnavailable —
      // never a whole batch, never a broken promise.
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_GT(served, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(served + shed, 8);
  RouterStats stats = router->Stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_GE(stats.total.rejected, shed);
}

TEST(ForecastRouterTest, StatsAggregateAcrossTheFleet) {
  train::ForecastTask task = RingForecastTask(20);
  auto router = MakeRouter();
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 1),
                      ZooFactory("STGCN", SmallZoo()))
                  .ok());
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    ForecastResponse response =
        router->Submit(RouterRequest{"m", RandomWindow(task, i)}).get();
    ASSERT_TRUE(response.status.ok());
  }
  RouterStats stats = router->Stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.routing_errors, 0);
  ASSERT_EQ(stats.engines.size(), 2u);
  // Every router request fans out to both shards.
  EXPECT_EQ(stats.total.requests, 2 * kRequests);
  for (const EngineStatsEntry& e : stats.engines) {
    EXPECT_EQ(e.model, "m");
    EXPECT_EQ(e.stats.requests, kRequests);
    EXPECT_GE(e.stats.batches, 1);
  }
}

// ------------------------------------------------- placement + threading --

TEST(RouterPlacementTest, PartitionDividesTheBudgetAcrossShards) {
  train::ForecastTask task = RingForecastTask(64);
  RouterOptions routing;
  routing.placement = Placement::kPartition;
  routing.thread_budget = 4;
  auto router = std::move(ForecastRouter::Create(routing)).ValueOrDie();
  EngineOptions engine_options;
  engine_options.num_workers = 1;
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 2),
                      ZooFactory("STGCN", SmallZoo()), "", engine_options)
                  .ok());
  RouterStats stats = router->Stats();
  ASSERT_EQ(stats.engines.size(), 2u);
  for (const EngineStatsEntry& e : stats.engines) {
    // 4 threads over 2 engines: each engine's workers x team fit its
    // 2-thread slice — together they use the machine, never more.
    EXPECT_GE(e.num_workers, 1);
    EXPECT_GE(e.team_size, 1);
    EXPECT_LE(e.num_workers * e.team_size, 2)
        << "engine exceeded its budget slice";
  }
}

TEST(RouterPlacementTest, InheritSplitsTheCreatorsTeamAcrossShards) {
  // Default placement: an auto-sized engine takes the creator's team
  // divided by its model's engine count, so concurrent shards never
  // oversubscribe it. A lone engine and an explicit team_size keep theirs.
  core::TeamScope creator(4);
  train::ForecastTask task = RingForecastTask(64);
  auto router = std::move(ForecastRouter::Create()).ValueOrDie();
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  const graph::ShardPlan halves = graph::ShardPlan::Build(task.spatial_adj, 2, 2);
  EngineOptions two_workers;
  two_workers.num_workers = 2;
  EngineOptions explicit_team;
  explicit_team.team_size = 3;
  ASSERT_TRUE(router->AddModel("single", task, factory).ok());
  ASSERT_TRUE(router->AddShardedModel("x2", task, halves, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "x4", task, graph::ShardPlan::Build(task.spatial_adj, 4, 2),
                      factory)
                  .ok());
  ASSERT_TRUE(
      router->AddShardedModel("x2w2", task, halves, factory, "", two_workers)
          .ok());
  ASSERT_TRUE(
      router->AddShardedModel("x2t3", task, halves, factory, "", explicit_team)
          .ok());
  RouterStats stats = router->Stats();
  ASSERT_EQ(stats.engines.size(), 11u);
  for (const EngineStatsEntry& e : stats.engines) {
    const int64_t expected_team = e.model == "single" ? 4
                                  : e.model == "x2"   ? 2
                                  : e.model == "x2t3" ? 3
                                                      : 1;
    EXPECT_EQ(e.team_size, expected_team) << e.model;
  }
}

TEST(RouterPlacementTest, SubmitStormThroughPartitionedMultiWorkerFleet) {
  // The concurrency stress this PR is about: many client threads flooding
  // a placement-partitioned fleet whose engines each run several workers.
  // Every response must arrive, succeed, and be bit-identical.
  train::ForecastTask task = RingForecastTask(128);
  RouterOptions routing;
  routing.placement = Placement::kPartition;
  routing.thread_budget = 4;
  auto router = std::move(ForecastRouter::Create(routing)).ValueOrDie();
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  EngineOptions engine_options;
  engine_options.num_workers = 2;
  ASSERT_TRUE(router->AddModel("single", task, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 2),
                      factory, "", engine_options)
                  .ok());
  T::Tensor window = RandomWindow(task, 47);
  ForecastResponse reference =
      router->Submit(RouterRequest{"single", window.Clone()}).get();
  ASSERT_TRUE(reference.status.ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::vector<std::future<ForecastResponse>>> futures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[c].push_back(
            router->Submit(RouterRequest{"m", window.Clone()}));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (auto& per_client : futures) {
    for (auto& future : per_client) {
      ForecastResponse response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_LE(MaxAbsDiff(response.forecast, reference.forecast), 1e-5f);
    }
  }
  RouterStats stats = router->Stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient + 1);
  for (const EngineStatsEntry& e : stats.engines) {
    if (e.model != "m") continue;
    EXPECT_EQ(e.stats.requests, kClients * kPerClient);
    EXPECT_LE(e.num_workers * e.team_size, 2);  // slice of the 4-budget
  }
}

TEST(RouterPlacementTest, PinnedPlacementServesCorrectly) {
  // kPinned adds core affinity on top of the partition; on any machine
  // (1 core or 64) the fleet must still serve exact forecasts.
  train::ForecastTask task = RingForecastTask(64);
  RouterOptions routing;
  routing.placement = Placement::kPinned;
  routing.thread_budget = 2;
  auto router = std::move(ForecastRouter::Create(routing)).ValueOrDie();
  ModelFactory factory = ZooFactory("STGCN", SmallZoo());
  ASSERT_TRUE(router->AddModel("single", task, factory).ok());
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "pinned", task,
                      graph::ShardPlan::Build(task.spatial_adj, 2, 2), factory)
                  .ok());
  T::Tensor window = RandomWindow(task, 53);
  ForecastResponse single =
      router->Submit(RouterRequest{"single", window.Clone()}).get();
  ForecastResponse pinned =
      router->Submit(RouterRequest{"pinned", window.Clone()}).get();
  ASSERT_TRUE(single.status.ok());
  ASSERT_TRUE(pinned.status.ok());
  EXPECT_LE(MaxAbsDiff(pinned.forecast, single.forecast), 1e-5f);
}

TEST(RouterPlacementTest, CreateRejectsNegativeThreadBudget) {
  RouterOptions routing;
  routing.thread_budget = -1;
  auto created = ForecastRouter::Create(routing);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
}

TEST(ForecastRouterTest, PostShutdownStatsAreQuiescent) {
  // The RouterStats contract: once Shutdown has drained the fleet, the
  // totals are exact and stable — queue_depth 0, identical across calls.
  train::ForecastTask task = RingForecastTask(32);
  auto router = MakeRouter();
  ASSERT_TRUE(router
                  ->AddShardedModel(
                      "m", task, graph::ShardPlan::Build(task.spatial_adj, 2, 1),
                      ZooFactory("STGCN", SmallZoo()))
                  .ok());
  std::vector<std::future<ForecastResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        router->Submit(RouterRequest{"m", RandomWindow(task, i)}));
  }
  router->Shutdown();
  for (auto& future : futures) {
    ASSERT_TRUE(future.get().status.ok());
  }
  RouterStats first = router->Stats();
  EXPECT_EQ(first.requests, 6);
  EXPECT_EQ(first.total.queue_depth, 0);
  EXPECT_EQ(first.total.requests, 2 * 6);  // both shards saw every request
  RouterStats second = router->Stats();
  EXPECT_EQ(second.total.requests, first.total.requests);
  EXPECT_EQ(second.total.batches, first.total.batches);
  EXPECT_EQ(second.total.queue_depth, 0);
}

}  // namespace
}  // namespace dyhsl::serve
