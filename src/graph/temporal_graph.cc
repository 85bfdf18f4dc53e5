#include "src/graph/temporal_graph.h"

#include <utility>
#include <vector>

#include "src/core/check.h"

namespace dyhsl::graph {

tensor::CsrMatrix BuildTemporalGraph(const tensor::CsrMatrix& spatial,
                                     int64_t num_steps) {
  DYHSL_CHECK_EQ(spatial.rows(), spatial.cols());
  DYHSL_CHECK_GE(num_steps, 1);
  int64_t n = spatial.rows();
  int64_t total = num_steps * n;
  std::vector<tensor::Triplet> triplets;
  triplets.reserve(num_steps * spatial.nnz() + 3 * total);

  for (int64_t t = 0; t < num_steps; ++t) {
    int64_t base = t * n;
    // Spatial edges: A_ij within the step (Eq. 4, case t == t').
    for (int64_t r = 0; r < n; ++r) {
      for (int64_t k = spatial.row_ptr()[r]; k < spatial.row_ptr()[r + 1];
           ++k) {
        triplets.push_back(
            {base + r, base + spatial.col_idx()[k], spatial.values()[k]});
      }
      // Self loop (case i == j, t' == t).
      triplets.push_back({base + r, base + r, 1.0f});
      // Temporal edge to the next step (case i == j, t' == t + 1).
      if (t + 1 < num_steps) {
        triplets.push_back({base + r, base + n + r, 1.0f});
      }
      // Backward temporal edge (aggregation from the past; see the header).
      if (t > 0) {
        triplets.push_back({base + r, base - n + r, 1.0f});
      }
    }
  }
  return tensor::CsrMatrix::FromTriplets(total, total, std::move(triplets));
}

autograd::SparseConstant BuildNormalizedTemporalOp(
    const tensor::CsrMatrix& spatial, int64_t num_steps) {
  return autograd::SparseConstant(
      BuildTemporalGraph(spatial, num_steps).RowNormalized());
}

}  // namespace dyhsl::graph
