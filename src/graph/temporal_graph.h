// Temporal graph construction (paper Eq. 4).
//
// The temporal graph G_H has one node per (time step, sensor) observation.
// Index convention throughout this repository is time-major:
//
//   NodeIndex(t, i) = t * N + i,   t in [0, T), i in [0, N)
//
// matching the row order obtained by reshaping a (T, N, d) tensor to
// (T*N, d). Spatial edges replicate the road network inside each step;
// temporal edges connect the same sensor across consecutive steps, in both
// directions; every observation gets a self loop (the "t' = t" case of
// Eq. 4).

#ifndef DYHSL_GRAPH_TEMPORAL_GRAPH_H_
#define DYHSL_GRAPH_TEMPORAL_GRAPH_H_

#include "src/autograd/sparse.h"
#include "src/tensor/sparse.h"

namespace dyhsl::graph {

/// \brief Builds the adjacency \hat{A} of Eq. 4 for `num_steps` copies of
/// the spatial adjacency `spatial` (N x N, no self loops), size (TN x TN).
///
/// Temporal edges and self loops have unit weight, as in Eq. 4. Eq. 4
/// writes only the forward edge t' = t + 1; this graph also links each
/// observation to the same sensor at t - 1, because aggregation from the
/// past is what a forecaster needs. Under row normalization the
/// bidirectional graph subsumes the paper's forward-only one.
tensor::CsrMatrix BuildTemporalGraph(const tensor::CsrMatrix& spatial,
                                     int64_t num_steps);

/// \brief Row-normalized temporal graph as a tape-ready sparse constant
/// (\bar{A} below Eq. 5: every row sums to 1). Consumers run it with
/// autograd::SpMM — the adjacency never densifies.
autograd::SparseConstant BuildNormalizedTemporalOp(
    const tensor::CsrMatrix& spatial, int64_t num_steps);

/// \brief Flat observation index for (t, i) with N sensors.
inline int64_t TemporalNodeIndex(int64_t t, int64_t i, int64_t num_nodes) {
  return t * num_nodes + i;
}

}  // namespace dyhsl::graph

#endif  // DYHSL_GRAPH_TEMPORAL_GRAPH_H_
