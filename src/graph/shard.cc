#include "src/graph/shard.h"

#include <algorithm>
#include <cstring>

#include "src/core/check.h"

namespace dyhsl::graph {

ShardPlan ShardPlan::Build(const tensor::CsrMatrix& adjacency,
                           int64_t num_shards, int64_t halo_hops) {
  const int64_t n = adjacency.rows();
  DYHSL_CHECK_MSG(adjacency.cols() == n,
                  "ShardPlan adjacency must be square");
  DYHSL_CHECK_MSG(num_shards >= 1 && num_shards <= n,
                  "ShardPlan num_shards must lie in [1, num_nodes]");
  DYHSL_CHECK_MSG(halo_hops >= 0, "ShardPlan halo_hops must be >= 0");

  // Halo expansion follows edges in both directions: a halo node either
  // feeds the owned set (in-edge) or receives from it (out-edge); both
  // matter once the operator is applied more than once.
  const tensor::CsrMatrix transpose = adjacency.Transposed();

  ShardPlan plan;
  plan.num_nodes_ = n;
  plan.halo_hops_ = halo_hops;
  plan.shards_.resize(num_shards);
  const int64_t base = n / num_shards;
  const int64_t remainder = n % num_shards;
  int64_t begin = 0;
  for (int64_t s = 0; s < num_shards; ++s) {
    ShardSpec& shard = plan.shards_[s];
    shard.shard_id = s;
    shard.begin = begin;
    shard.end = begin + base + (s < remainder ? 1 : 0);
    begin = shard.end;

    // BFS out to halo_hops hops from the owned range.
    std::vector<char> visited(n, 0);
    std::vector<int64_t> frontier;
    frontier.reserve(shard.owned_count());
    for (int64_t g = shard.begin; g < shard.end; ++g) {
      visited[g] = 1;
      frontier.push_back(g);
    }
    std::vector<int64_t> halo;
    for (int64_t hop = 0; hop < halo_hops && !frontier.empty(); ++hop) {
      std::vector<int64_t> next;
      for (int64_t g : frontier) {
        for (const tensor::CsrMatrix* m : {&adjacency, &transpose}) {
          for (int64_t k = m->row_ptr()[g]; k < m->row_ptr()[g + 1]; ++k) {
            const int64_t neighbor = m->col_idx()[k];
            if (!visited[neighbor]) {
              visited[neighbor] = 1;
              next.push_back(neighbor);
            }
          }
        }
      }
      halo.insert(halo.end(), next.begin(), next.end());
      frontier = std::move(next);
    }
    std::sort(halo.begin(), halo.end());

    // Merge into one globally ascending local id list; every halo id is
    // strictly below `begin` or at/above `end`, so the owned block stays
    // contiguous at `owned_offset`.
    shard.locals.reserve(shard.owned_count() + halo.size());
    auto above = std::lower_bound(halo.begin(), halo.end(), shard.begin);
    shard.locals.insert(shard.locals.end(), halo.begin(), above);
    shard.owned_offset = static_cast<int64_t>(shard.locals.size());
    for (int64_t g = shard.begin; g < shard.end; ++g) {
      shard.locals.push_back(g);
    }
    shard.locals.insert(shard.locals.end(), above, halo.end());
  }
  return plan;
}

tensor::CsrMatrix InducedSubgraph(const tensor::CsrMatrix& adjacency,
                                  const ShardSpec& shard) {
  DYHSL_CHECK_MSG(adjacency.rows() == adjacency.cols(),
                  "InducedSubgraph adjacency must be square");
  const int64_t n = adjacency.rows();
  std::vector<int64_t> global_to_local(n, -1);
  for (size_t i = 0; i < shard.locals.size(); ++i) {
    const int64_t g = shard.locals[i];
    DYHSL_CHECK_MSG(g >= 0 && g < n, "shard local id out of range");
    global_to_local[g] = static_cast<int64_t>(i);
  }
  std::vector<tensor::Triplet> triplets;
  for (size_t i = 0; i < shard.locals.size(); ++i) {
    const int64_t g = shard.locals[i];
    for (int64_t k = adjacency.row_ptr()[g]; k < adjacency.row_ptr()[g + 1];
         ++k) {
      const int64_t local_dst = global_to_local[adjacency.col_idx()[k]];
      if (local_dst >= 0) {
        triplets.push_back({static_cast<int64_t>(i), local_dst,
                            adjacency.values()[k]});
      }
    }
  }
  return tensor::CsrMatrix::FromTriplets(shard.num_local(),
                                         shard.num_local(),
                                         std::move(triplets));
}

void GatherLocalNodes(const ShardSpec& shard, const tensor::Tensor& global,
                      tensor::Tensor* local) {
  const int64_t n = global.size(global.dim() - 2);
  const int64_t f = global.size(global.dim() - 1);
  const int64_t l = shard.num_local();
  const int64_t steps = global.numel() / (n * f);
  DYHSL_CHECK_EQ(local->numel(), steps * l * f);
  const int64_t owned = shard.owned_count();
  const int64_t offset = shard.owned_offset;
  const size_t node_bytes = static_cast<size_t>(f) * sizeof(float);
  for (int64_t t = 0; t < steps; ++t) {
    const float* src = global.data() + t * n * f;
    float* dst = local->data() + t * l * f;
    for (int64_t j = 0; j < offset; ++j) {
      std::memcpy(dst + j * f, src + shard.locals[j] * f, node_bytes);
    }
    std::memcpy(dst + offset * f, src + shard.begin * f,
                static_cast<size_t>(owned) * node_bytes);
    for (int64_t j = offset + owned; j < l; ++j) {
      std::memcpy(dst + j * f, src + shard.locals[j] * f, node_bytes);
    }
  }
}

void StitchOwnedColumns(const ShardSpec& shard, const tensor::Tensor& local,
                        tensor::Tensor* global) {
  const int64_t steps = global->size(0);
  const int64_t n = global->size(1);
  const int64_t l = shard.num_local();
  DYHSL_CHECK_EQ(local.size(0), steps);
  DYHSL_CHECK_EQ(local.size(1), l);
  for (int64_t t = 0; t < steps; ++t) {
    std::memcpy(global->data() + t * n + shard.begin,
                local.data() + t * l + shard.owned_offset,
                static_cast<size_t>(shard.owned_count()) * sizeof(float));
  }
}

}  // namespace dyhsl::graph
