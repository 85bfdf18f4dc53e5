// Sensor-range sharding of a road network for multi-engine serving.
//
// A ShardPlan partitions the global sensor index space [0, N) into
// contiguous owned ranges (one per shard) and augments each shard with a
// halo: every node within `halo_hops` hops of the owned set (following
// edges in either direction). Shard-scoped models run on the induced
// subgraph over owned + halo nodes, so a forecast for the owned sensors is
// exact whenever the halo covers the model's receptive field — see the
// README's halo-width guidance (an operator normalized over node degrees
// needs one extra hop of halo beyond the hop count of the propagation,
// because a fringe node's degree is clipped by the cut).
//
// Local id convention: `locals` is ascending in *global* id — halo nodes
// below the owned range first, then the owned block, then halo nodes
// above it (`owned_offset` marks where the owned block starts). Keeping
// global order means an induced CSR row holds the same values in the same
// order as its global row, so sparse row reductions (and their degree
// normalizations) accumulate bit-identically — shard outputs for owned
// sensors are not merely close to the unsharded ones, they are equal
// whenever the halo covers the receptive field. The owned block stays
// contiguous (halo ids are all strictly below `begin` or at/above `end`),
// so stitching a shard output back into global order remains one
// contiguous copy per step.

#ifndef DYHSL_GRAPH_SHARD_H_
#define DYHSL_GRAPH_SHARD_H_

#include <cstdint>
#include <vector>

#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"

namespace dyhsl::graph {

/// \brief One shard of a ShardPlan: the owned global sensor range plus the
/// halo nodes that feed cross-shard edges.
struct ShardSpec {
  int64_t shard_id = 0;
  /// Owned global sensor range [begin, end).
  int64_t begin = 0;
  int64_t end = 0;
  /// Global ids of every local node, ascending; the owned block
  /// [owned_offset, owned_offset + owned_count()) sits between the
  /// below-range and above-range halo nodes.
  std::vector<int64_t> locals;
  /// Index of global id `begin` within `locals`.
  int64_t owned_offset = 0;

  int64_t owned_count() const { return end - begin; }
  int64_t halo_count() const {
    return static_cast<int64_t>(locals.size()) - owned_count();
  }
  int64_t num_local() const { return static_cast<int64_t>(locals.size()); }
};

/// \brief Contiguous sensor-range partition of a road network with
/// halo expansion over the adjacency.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// \brief Splits the `adjacency.rows()` sensors into `num_shards`
  /// contiguous ranges whose sizes differ by at most one, then grows each
  /// shard's halo to every node within `halo_hops` hops of its owned set
  /// (edges followed in both directions so cross-shard senders and
  /// receivers are both carried). Aborts on invalid arguments
  /// (non-square adjacency, num_shards outside [1, N], halo_hops < 0).
  static ShardPlan Build(const tensor::CsrMatrix& adjacency,
                         int64_t num_shards, int64_t halo_hops);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_shards() const { return static_cast<int64_t>(shards_.size()); }
  int64_t halo_hops() const { return halo_hops_; }
  const ShardSpec& shard(int64_t s) const { return shards_.at(s); }
  const std::vector<ShardSpec>& shards() const { return shards_; }

 private:
  int64_t num_nodes_ = 0;
  int64_t halo_hops_ = 0;
  std::vector<ShardSpec> shards_;
};

/// \brief Gathers the shard's local nodes out of a global (..., N, F)
/// tensor into the (..., num_local, F) `local`, in local id order: the
/// owned block is one contiguous copy per leading index, the halo nodes
/// around it follow one node at a time.
void GatherLocalNodes(const ShardSpec& shard, const tensor::Tensor& global,
                      tensor::Tensor* local);

/// \brief Stitches a shard's (T', num_local) output into the global
/// (T', N) `global`: the owned columns land in [begin, end), the halo
/// columns are dropped — one contiguous copy per step. Shards own
/// disjoint ranges, so concurrent stitches of distinct shards into one
/// `global` do not race.
void StitchOwnedColumns(const ShardSpec& shard, const tensor::Tensor& local,
                        tensor::Tensor* global);

/// \brief Induced subgraph of `adjacency` over the shard's local nodes:
/// keeps every edge whose endpoints are both local, with node ids remapped
/// to the shard-local convention. Nodes that lose all their edges to the
/// cut keep an empty row/column (the zero-degree guarantee of the
/// normalization helpers applies unchanged).
tensor::CsrMatrix InducedSubgraph(const tensor::CsrMatrix& adjacency,
                                  const ShardSpec& shard);

}  // namespace dyhsl::graph

#endif  // DYHSL_GRAPH_SHARD_H_
