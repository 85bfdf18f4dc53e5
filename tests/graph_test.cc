// Tests for graph / temporal-graph / hypergraph substrates, including the
// structural properties Eq. 4 requires of the temporal graph.

#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/graph.h"
#include "src/graph/temporal_graph.h"
#include "src/hypergraph/hypergraph.h"
#include "src/tensor/ops.h"
#include "tests/testing_utils.h"

namespace dyhsl::graph {
namespace {

namespace T = ::dyhsl::tensor;

Graph PathGraph(int64_t n) {
  Graph g(n, {});
  for (int64_t i = 0; i + 1 < n; ++i) g.AddUndirectedEdge(i, i + 1, 1.0f);
  return g;
}

TEST(GraphTest, AdjacencyFromEdges) {
  Graph g = PathGraph(3);
  T::CsrMatrix adj = g.ToAdjacency();
  EXPECT_EQ(adj.nnz(), 4);
  T::Tensor dense = adj.ToDense();
  EXPECT_EQ(dense.At({0, 1}), 1.0f);
  EXPECT_EQ(dense.At({1, 0}), 1.0f);
  EXPECT_EQ(dense.At({0, 2}), 0.0f);
}

TEST(GraphTest, UndirectedEdgeCount) {
  Graph g = PathGraph(4);
  EXPECT_EQ(g.num_edges(), 6);           // directed arcs
  EXPECT_EQ(g.UndirectedEdgeCount(), 3);  // paper convention
}

TEST(GraphTest, KnnGraphDegree) {
  Rng rng(1);
  T::Tensor feats = T::Tensor::Randn({10, 3}, &rng);
  T::CsrMatrix knn = KnnGraph(feats, 3);
  EXPECT_EQ(knn.nnz(), 30);
  // No self loops.
  T::Tensor dense = knn.ToDense();
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(dense.At({i, i}), 0.0f);
}

TEST(TemporalGraphTest, SizeAndSelfLoops) {
  Graph g = PathGraph(3);
  T::CsrMatrix tg = BuildTemporalGraph(g.ToAdjacency(), 4);
  EXPECT_EQ(tg.rows(), 12);
  T::Tensor dense = tg.ToDense();
  for (int64_t v = 0; v < 12; ++v) EXPECT_EQ(dense.At({v, v}), 1.0f);
}

TEST(TemporalGraphTest, SpatialEdgesReplicatedPerStep) {
  Graph g = PathGraph(3);
  T::Tensor dense = BuildTemporalGraph(g.ToAdjacency(), 2).ToDense();
  // Step 0: nodes 0..2; step 1: nodes 3..5.
  EXPECT_EQ(dense.At({0, 1}), 1.0f);
  EXPECT_EQ(dense.At({3, 4}), 1.0f);
  // No cross-step spatial edges between different sensors.
  EXPECT_EQ(dense.At({0, 4}), 0.0f);
  EXPECT_EQ(dense.At({1, 5}), 0.0f);
}

TEST(TemporalGraphTest, TemporalEdgesConnectSameSensor) {
  Graph g = PathGraph(2);
  T::Tensor dense = BuildTemporalGraph(g.ToAdjacency(), 3).ToDense();
  // Sensor 0 at t=0 (node 0) -> t=1 (node 2).
  EXPECT_EQ(dense.At({0, 2}), 1.0f);
  EXPECT_EQ(dense.At({2, 4}), 1.0f);
  // The backward edge, which Eq. 4 lacks, is always there.
  EXPECT_EQ(dense.At({2, 0}), 1.0f);
  // No skip connections across two steps.
  EXPECT_EQ(dense.At({0, 4}), 0.0f);
}

TEST(TemporalGraphTest, NormalizedRowsSumToOne) {
  Graph g = PathGraph(4);
  auto op = BuildNormalizedTemporalOp(g.ToAdjacency(), 3);
  T::Tensor dense = op.matrix().ToDense();
  EXPECT_TRUE(dyhsl::testing::RowStochastic(dense, 1e-5f));
}

TEST(TemporalGraphTest, NodeIndexConvention) {
  EXPECT_EQ(TemporalNodeIndex(0, 5, 10), 5);
  EXPECT_EQ(TemporalNodeIndex(2, 3, 10), 23);
}

TEST(TemporalGraphTest, NnzMatchesComplexityFormula) {
  // nnz = T * (||A||_0 + N) + 2 * (T-1) * N for the bidirectional variant —
  // the linear growth in T and ||A||_0 claimed in paper section IV-D.
  Graph g = PathGraph(5);
  T::CsrMatrix spatial = g.ToAdjacency();
  for (int64_t steps : {1, 2, 5, 8}) {
    T::CsrMatrix tg = BuildTemporalGraph(spatial, steps);
    int64_t want =
        steps * (spatial.nnz() + 5) + 2 * (steps - 1) * 5;
    EXPECT_EQ(tg.nnz(), want) << "steps=" << steps;
  }
}

}  // namespace
}  // namespace dyhsl::graph

namespace dyhsl::hypergraph {
namespace {

namespace T = ::dyhsl::tensor;

TEST(HypergraphTest, FromCommunitiesIncidence) {
  Hypergraph h = Hypergraph::FromCommunities({0, 0, 1, 1, 1});
  EXPECT_EQ(h.num_nodes(), 5);
  EXPECT_EQ(h.num_edges(), 2);
  T::Tensor inc = h.incidence().ToDense();
  EXPECT_EQ(inc.At({0, 0}), 1.0f);
  EXPECT_EQ(inc.At({4, 1}), 1.0f);
  EXPECT_EQ(inc.At({4, 0}), 0.0f);
}

TEST(HypergraphTest, NormalizedOperatorRowsSumToOne) {
  Hypergraph h = Hypergraph::FromCommunities({0, 0, 1, 1, 1, 2});
  T::Tensor g = h.NormalizedOperator().matrix().ToDense();
  EXPECT_TRUE(dyhsl::testing::RowStochastic(g, 1e-5f));
}

TEST(HypergraphTest, OperatorMixesOnlyWithinHyperedge) {
  Hypergraph h = Hypergraph::FromCommunities({0, 0, 1, 1});
  T::Tensor g = h.NormalizedOperator().matrix().ToDense();
  EXPECT_GT(g.At({0, 1}), 0.0f);
  EXPECT_EQ(g.At({0, 2}), 0.0f);
  EXPECT_EQ(g.At({3, 1}), 0.0f);
}

TEST(HypergraphTest, FactoredOperatorMatchesProductOperator) {
  // D_v^-1 Λ (D_e^-1 Λ^T x) must equal the materialized G x — same math,
  // two SpMMs instead of O(sum |e|^2) nonzeros.
  Hypergraph h = Hypergraph::FromCommunities({0, 0, 1, 1, 1, 2, 2, 0});
  FactoredIncidence f = h.FactoredOperator();
  T::Tensor product = h.NormalizedOperator().matrix().ToDense();
  T::Tensor via_factors =
      T::MatMul(f.edge_to_node.matrix().ToDense(),
                f.node_to_edge.matrix().ToDense());
  EXPECT_TENSOR_NEAR(via_factors, product, 1e-6f);
}

TEST(HypergraphTest, EmptyHyperedgeProducesNoPropagationAndNoNan) {
  // Incidence declares 3 hyperedges but only edges 0 and 2 have members:
  // the degenerate D_e^-1 scaling of edge 1 must be skipped, not 1/0.
  T::CsrMatrix inc = T::CsrMatrix::FromTriplets(
      4, 3, {{0, 0, 1.0f}, {1, 0, 1.0f}, {2, 2, 1.0f}, {3, 2, 1.0f}});
  Hypergraph h(4, 3, inc);
  for (const T::Tensor& m : {h.NormalizedOperator().matrix().ToDense(),
                             h.FactoredOperator().node_to_edge.matrix()
                                 .ToDense(),
                             h.FactoredOperator().edge_to_node.matrix()
                                 .ToDense()}) {
    for (int64_t i = 0; i < m.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(m.data()[i])) << "index " << i;
    }
  }
  // The empty hyperedge's row of D_e^-1 Λ^T stays empty.
  T::Tensor n2e = h.FactoredOperator().node_to_edge.matrix().ToDense();
  for (int64_t v = 0; v < 4; ++v) EXPECT_EQ(n2e.At({1, v}), 0.0f);
}

TEST(HypergraphTest, IsolatedNodeStaysIsolatedWithoutNan) {
  // Node 3 joins no hyperedge: its operator row must be all zero (the
  // zero-row contract of RowNormalized) and nothing may divide by its
  // zero degree.
  T::CsrMatrix inc = T::CsrMatrix::FromTriplets(
      4, 2, {{0, 0, 1.0f}, {1, 0, 1.0f}, {2, 1, 1.0f}});
  Hypergraph h(4, 2, inc);
  T::Tensor g = h.NormalizedOperator().matrix().ToDense();
  for (int64_t i = 0; i < g.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(g.data()[i]));
  }
  for (int64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(g.At({3, v}), 0.0f);
    EXPECT_EQ(g.At({v, 3}), 0.0f);
  }
  EXPECT_TRUE(
      dyhsl::testing::RowStochastic(g, 1e-5f, /*allow_zero_rows=*/true));
  // Propagating features through the factored form stays finite too.
  FactoredIncidence f = h.FactoredOperator();
  Rng rng(11);
  T::Tensor x = T::Tensor::Randn({4, 5}, &rng);
  T::Tensor y = T::SpMM(f.edge_to_node.matrix(),
                        T::SpMM(f.node_to_edge.matrix(), x));
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(3);
  // Two blobs at +/- 10.
  T::Tensor pts({20, 2});
  for (int64_t i = 0; i < 10; ++i) {
    pts.Set({i, 0}, 10.0f + rng.Gaussian());
    pts.Set({i, 1}, 10.0f + rng.Gaussian());
    pts.Set({i + 10, 0}, -10.0f + rng.Gaussian());
    pts.Set({i + 10, 1}, -10.0f + rng.Gaussian());
  }
  std::vector<int64_t> labels = KMeansLabels(pts, 2, 10, &rng);
  for (int64_t i = 1; i < 10; ++i) EXPECT_EQ(labels[i], labels[0]);
  for (int64_t i = 11; i < 20; ++i) EXPECT_EQ(labels[i], labels[10]);
  EXPECT_NE(labels[0], labels[10]);
}

}  // namespace
}  // namespace dyhsl::hypergraph
