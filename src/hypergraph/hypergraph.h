// Static hypergraph structures and HGNN-style convolution operators.
//
// DyHSL itself *learns* a dense incidence matrix inside the model
// (src/models/blocks.h); this module provides the predefined-hypergraph
// machinery needed by the HGC-RNN / DSTHGCN-style baselines and by analysis
// tools: incidence construction from community labels or clustering, and
// the normalized two-step propagation operator
//
//   G = D_v^{-1} Λ D_e^{-1} Λ^T
//
// so hypergraph convolution reduces to SpMM(G, X) W.

#ifndef DYHSL_HYPERGRAPH_HYPERGRAPH_H_
#define DYHSL_HYPERGRAPH_HYPERGRAPH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/autograd/sparse.h"
#include "src/core/rng.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"

namespace dyhsl::hypergraph {

/// \brief The two-step factorization of the propagation operator
/// G = D_v⁻¹ Λ D_e⁻¹ Λᵀ: apply as edge_to_node * (node_to_edge * X).
/// O(nnz(Λ) · d) per product versus O(Σ_e |e|² · d) for the materialized
/// G — for dense districts (|e| ~ N/E nodes per hyperedge) the factored
/// form is what keeps hypergraph convolution sparse at scale.
struct FactoredIncidence {
  /// D_e⁻¹ Λᵀ, (num_edges x num_nodes): average node features per edge.
  autograd::SparseConstant node_to_edge;
  /// D_v⁻¹ Λ, (num_nodes x num_edges): average edge features per node.
  autograd::SparseConstant edge_to_node;
};

/// \brief A hypergraph as a sparse node x hyperedge incidence matrix.
class Hypergraph {
 public:
  Hypergraph() = default;
  Hypergraph(int64_t num_nodes, int64_t num_edges,
             tensor::CsrMatrix incidence)
      : num_nodes_(num_nodes),
        num_edges_(num_edges),
        incidence_(std::move(incidence)) {}

  /// \brief One hyperedge per distinct label; node v joins hyperedge
  /// labels[v]. This encodes the paper's Fig. 1 intuition: districts
  /// (residential / business areas) act as static hyperedges.
  static Hypergraph FromCommunities(const std::vector<int64_t>& labels);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return num_edges_; }
  const tensor::CsrMatrix& incidence() const { return incidence_; }

  /// \brief Normalized propagation operator D_v^-1 Λ D_e^-1 Λ^T as a
  /// reusable sparse constant (num_nodes x num_nodes). Degenerate inputs
  /// are handled like CsrMatrix::RowNormalized handles zero rows: empty
  /// hyperedges and zero-degree (isolated) nodes contribute nothing —
  /// their rows stay empty instead of dividing by zero.
  autograd::SparseConstant NormalizedOperator() const;

  /// \brief The same propagation split into its two sparse factors (see
  /// FactoredIncidence): cheaper than the materialized product whenever
  /// hyperedges are large, and exactly equal to it in exact arithmetic.
  /// The same zero-degree guards apply.
  FactoredIncidence FactoredOperator() const;

 private:
  int64_t num_nodes_ = 0;
  int64_t num_edges_ = 0;
  tensor::CsrMatrix incidence_;  // (num_nodes, num_edges)
};

/// \brief K-means over rows of `points` (R x d); returns cluster labels.
/// Deterministic given the rng. Empty clusters are re-seeded randomly.
std::vector<int64_t> KMeansLabels(const tensor::Tensor& points,
                                  int64_t num_clusters, int64_t iterations,
                                  Rng* rng);

}  // namespace dyhsl::hypergraph

#endif  // DYHSL_HYPERGRAPH_HYPERGRAPH_H_
