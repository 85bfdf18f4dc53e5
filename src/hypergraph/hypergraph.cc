#include "src/hypergraph/hypergraph.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "src/core/check.h"

namespace dyhsl::hypergraph {

Hypergraph Hypergraph::FromCommunities(const std::vector<int64_t>& labels) {
  DYHSL_CHECK(!labels.empty());
  // Compact labels to [0, E).
  std::unordered_map<int64_t, int64_t> remap;
  for (int64_t l : labels) {
    if (remap.find(l) == remap.end()) {
      int64_t next = static_cast<int64_t>(remap.size());
      remap[l] = next;
    }
  }
  int64_t num_nodes = static_cast<int64_t>(labels.size());
  int64_t num_edges = static_cast<int64_t>(remap.size());
  std::vector<tensor::Triplet> triplets;
  triplets.reserve(labels.size());
  for (int64_t v = 0; v < num_nodes; ++v) {
    triplets.push_back({v, remap[labels[v]], 1.0f});
  }
  return Hypergraph(
      num_nodes, num_edges,
      tensor::CsrMatrix::FromTriplets(num_nodes, num_edges,
                                      std::move(triplets)));
}

namespace {

// Weighted degrees of every hyperedge (column sums) and node (row sums)
// of an incidence matrix. Zero degrees are legal — empty hyperedges and
// isolated nodes simply stay disconnected — so every 1/degree scaling
// below guards on degree > 0 rather than dividing blindly.
void IncidenceDegrees(const tensor::CsrMatrix& incidence,
                      std::vector<double>* node_degree,
                      std::vector<double>* edge_degree) {
  node_degree->assign(incidence.rows(), 0.0);
  edge_degree->assign(incidence.cols(), 0.0);
  const auto& rp = incidence.row_ptr();
  const auto& ci = incidence.col_idx();
  const auto& vals = incidence.values();
  for (int64_t v = 0; v < incidence.rows(); ++v) {
    for (int64_t k = rp[v]; k < rp[v + 1]; ++k) {
      (*edge_degree)[ci[k]] += vals[k];
      (*node_degree)[v] += vals[k];
    }
  }
}

}  // namespace

autograd::SparseConstant Hypergraph::NormalizedOperator() const {
  // G = D_v^-1 Λ D_e^-1 Λ^T, assembled sparsely through edge membership.
  std::vector<double> edge_degree;
  std::vector<double> node_degree;
  IncidenceDegrees(incidence_, &node_degree, &edge_degree);
  const auto& rp = incidence_.row_ptr();
  const auto& ci = incidence_.col_idx();
  const auto& vals = incidence_.values();
  // Members per edge.
  std::vector<std::vector<std::pair<int64_t, float>>> members(num_edges_);
  for (int64_t v = 0; v < num_nodes_; ++v) {
    for (int64_t k = rp[v]; k < rp[v + 1]; ++k) {
      members[ci[k]].push_back({v, vals[k]});
    }
  }
  std::vector<tensor::Triplet> triplets;
  for (int64_t e = 0; e < num_edges_; ++e) {
    // Empty hyperedge: no members, nothing to propagate (and no 1/0).
    if (edge_degree[e] <= 0.0) continue;
    float inv_edge = static_cast<float>(1.0 / edge_degree[e]);
    for (const auto& [u, wu] : members[e]) {
      // Isolated-by-weight node: skip, matching RowNormalized's contract
      // of leaving zero rows zero.
      if (node_degree[u] <= 0.0) continue;
      float inv_node = static_cast<float>(1.0 / node_degree[u]);
      for (const auto& [v, wv] : members[e]) {
        triplets.push_back({u, v, wu * wv * inv_edge * inv_node});
      }
    }
  }
  return autograd::SparseConstant(tensor::CsrMatrix::FromTriplets(
      num_nodes_, num_nodes_, std::move(triplets)));
}

FactoredIncidence Hypergraph::FactoredOperator() const {
  std::vector<double> edge_degree;
  std::vector<double> node_degree;
  IncidenceDegrees(incidence_, &node_degree, &edge_degree);
  const auto& rp = incidence_.row_ptr();
  const auto& ci = incidence_.col_idx();
  const auto& vals = incidence_.values();
  std::vector<tensor::Triplet> to_edge;    // D_e^-1 Λ^T  (E x N)
  std::vector<tensor::Triplet> to_node;    // D_v^-1 Λ    (N x E)
  to_edge.reserve(vals.size());
  to_node.reserve(vals.size());
  for (int64_t v = 0; v < num_nodes_; ++v) {
    for (int64_t k = rp[v]; k < rp[v + 1]; ++k) {
      int64_t e = ci[k];
      if (edge_degree[e] > 0.0) {
        to_edge.push_back(
            {e, v, static_cast<float>(vals[k] / edge_degree[e])});
      }
      if (node_degree[v] > 0.0) {
        to_node.push_back(
            {v, e, static_cast<float>(vals[k] / node_degree[v])});
      }
    }
  }
  FactoredIncidence factored;
  factored.node_to_edge = autograd::SparseConstant(
      tensor::CsrMatrix::FromTriplets(num_edges_, num_nodes_,
                                      std::move(to_edge)));
  factored.edge_to_node = autograd::SparseConstant(
      tensor::CsrMatrix::FromTriplets(num_nodes_, num_edges_,
                                      std::move(to_node)));
  return factored;
}

std::vector<int64_t> KMeansLabels(const tensor::Tensor& points,
                                  int64_t num_clusters, int64_t iterations,
                                  Rng* rng) {
  DYHSL_CHECK_EQ(points.dim(), 2);
  int64_t rows = points.size(0);
  int64_t dim = points.size(1);
  DYHSL_CHECK_GE(rows, num_clusters);
  const float* p = points.data();

  // Initialize centroids from distinct random rows.
  std::vector<int64_t> perm(rows);
  for (int64_t i = 0; i < rows; ++i) perm[i] = i;
  rng->Shuffle(&perm);
  std::vector<float> centroids(num_clusters * dim);
  for (int64_t c = 0; c < num_clusters; ++c) {
    std::copy(p + perm[c] * dim, p + (perm[c] + 1) * dim,
              centroids.begin() + c * dim);
  }

  std::vector<int64_t> labels(rows, 0);
  for (int64_t iter = 0; iter < iterations; ++iter) {
    // Assign.
    for (int64_t i = 0; i < rows; ++i) {
      float best = std::numeric_limits<float>::infinity();
      int64_t best_c = 0;
      for (int64_t c = 0; c < num_clusters; ++c) {
        float d2 = 0.0f;
        for (int64_t k = 0; k < dim; ++k) {
          float diff = p[i * dim + k] - centroids[c * dim + k];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      labels[i] = best_c;
    }
    // Update.
    std::vector<double> sums(num_clusters * dim, 0.0);
    std::vector<int64_t> counts(num_clusters, 0);
    for (int64_t i = 0; i < rows; ++i) {
      counts[labels[i]] += 1;
      for (int64_t k = 0; k < dim; ++k) {
        sums[labels[i] * dim + k] += p[i * dim + k];
      }
    }
    for (int64_t c = 0; c < num_clusters; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point.
        int64_t r = static_cast<int64_t>(rng->NextBelow(rows));
        std::copy(p + r * dim, p + (r + 1) * dim,
                  centroids.begin() + c * dim);
        continue;
      }
      for (int64_t k = 0; k < dim; ++k) {
        centroids[c * dim + k] =
            static_cast<float>(sums[c * dim + k] / counts[c]);
      }
    }
  }
  return labels;
}

}  // namespace dyhsl::hypergraph
