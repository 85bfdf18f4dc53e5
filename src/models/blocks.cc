#include "src/models/blocks.h"

#include <cmath>
#include <unordered_map>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/nn/init.h"
#include "src/tensor/vecmath.h"

namespace dyhsl::models {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

namespace {

// Pattern caches are looked up thread-locally by block id (see
// src/core/thread_cache.h): each warm serving worker keeps its own
// patterns, and a block's entries are swept once the block dies.
T::TopKPatternCache& CacheForThread(const core::CacheOwnerId& cache_id,
                                    float drift_threshold) {
  auto& caches = core::ThreadCaches<T::TopKPatternCache>();
  auto it = caches.find(cache_id.value());
  if (it == caches.end()) {
    T::TopKPatternCache::Options opts;
    opts.drift_threshold = drift_threshold;
    it = caches.emplace(cache_id.value(), T::TopKPatternCache(opts)).first;
  }
  return it->second;
}

}  // namespace

int64_t ThreadPatternRegistrySizeForTesting() {
  return static_cast<int64_t>(
      core::ThreadCaches<T::TopKPatternCache>().size());
}

PriorGraphEncoder::PriorGraphEncoder(
    int64_t num_nodes, int64_t history, int64_t input_dim, int64_t hidden_dim,
    int64_t num_layers, autograd::SparseConstant temporal_op,
    Rng* rng, bool residual)
    : num_nodes_(num_nodes),
      history_(history),
      hidden_dim_(hidden_dim),
      residual_(residual),
      temporal_op_(std::move(temporal_op)),
      input_proj_(input_dim, hidden_dim, rng),
      node_embedding_(num_nodes, hidden_dim, rng),
      step_embedding_(history, hidden_dim, rng) {
  DYHSL_CHECK_EQ(temporal_op_.rows(), num_nodes * history);
  RegisterChild("input_proj", &input_proj_);
  RegisterChild("node_embedding", &node_embedding_);
  RegisterChild("step_embedding", &step_embedding_);
  for (int64_t l = 0; l < num_layers; ++l) {
    conv_.push_back(
        std::make_unique<nn::Linear>(hidden_dim, hidden_dim, rng));
    RegisterChild("conv" + std::to_string(l), conv_.back().get());
  }
}

Variable PriorGraphEncoder::Forward(const Variable& x) const {
  DYHSL_CHECK_EQ(x.dim(), 4);
  int64_t batch = x.size(0);
  DYHSL_CHECK_EQ(x.size(1), history_);
  DYHSL_CHECK_EQ(x.size(2), num_nodes_);
  // Project features, then add location and time embeddings (the f^t_j
  // construction below Eq. 5).
  Variable h = input_proj_.Forward(x);  // (B, T, N, d)
  std::vector<int64_t> node_ids(num_nodes_), step_ids(history_);
  for (int64_t i = 0; i < num_nodes_; ++i) node_ids[i] = i;
  for (int64_t t = 0; t < history_; ++t) step_ids[t] = t;
  Variable node_emb = ag::Reshape(node_embedding_.Forward(node_ids),
                                  {1, 1, num_nodes_, hidden_dim_});
  Variable step_emb = ag::Reshape(step_embedding_.Forward(step_ids),
                                  {1, history_, 1, hidden_dim_});
  // h is consumed so inference mode can add both embeddings in place.
  h = ag::Add(ag::Add(std::move(h), node_emb), step_emb);
  // Time-major stacking (row t*N + i) to match the temporal graph indexing.
  h = ag::Reshape(h, {batch, history_ * num_nodes_, hidden_dim_});
  for (const auto& proj : conv_) {
    // Eq. 5: h_l = φ(Ā h_{l-1} W); residual keeps deep stacks (Lp = 6 in
    // the paper) from oversmoothing. conv is moved first so inference
    // mode can accumulate the residual in place (x + y == y + x).
    Variable conv = ag::Relu(proj->Forward(ag::SpMM(temporal_op_, h)));
    h = residual_ ? ag::Add(std::move(conv), h) : conv;
  }
  return h;
}

DhslBlock::DhslBlock(int64_t hidden_dim, int64_t num_hyperedges, Rng* rng,
                     StructureLearning mode, int64_t sparse_topk,
                     bool pattern_reuse, float drift_threshold)
    : hidden_dim_(hidden_dim),
      num_hyperedges_(num_hyperedges),
      mode_(mode),
      sparse_topk_(sparse_topk),
      pattern_reuse_(pattern_reuse),
      drift_threshold_(drift_threshold) {
  DYHSL_CHECK_GE(sparse_topk, 0);
  DYHSL_CHECK_MSG(sparse_topk <= num_hyperedges,
                  "sparse_topk " + std::to_string(sparse_topk) +
                      " exceeds num_hyperedges " +
                      std::to_string(num_hyperedges));
  DYHSL_CHECK_MSG(!pattern_reuse || sparse_topk > 0,
                  "pattern_reuse requires sparse_topk > 0");
  if (pattern_reuse_) {
    // Fail construction, not the first Forward, on a bad threshold.
    DYHSL_CHECK_GE(drift_threshold_, 0.0f);
    DYHSL_CHECK_LE(drift_threshold_, 1.0f);
  }
  T::Tensor w = nn::GlorotUniform2D(hidden_dim, num_hyperedges, rng);
  if (mode_ == StructureLearning::kFixedRandom) {
    // "NSL": the incidence direction is frozen; hypergraph convolution
    // still runs but the structure is not learned. Registered as a
    // constant so prepack enrollment (NamedConstants) still sees it.
    incidence_weight_ = RegisterConstant("incidence_weight", std::move(w));
  } else {
    incidence_weight_ = RegisterParameter("incidence_weight", std::move(w));
  }
  edge_mixer_ = RegisterParameter(
      "edge_mixer",
      nn::GlorotUniform2D(num_hyperedges, num_hyperedges, rng));
}

void DhslBlock::RegisterSequenceLength(int64_t rows, Rng* rng) {
  if (mode_ != StructureLearning::kFromScratch) return;
  for (const auto& [r, adj] : scratch_adj_) {
    if (r == rows) return;
  }
  // The FS ablation: a dense learnable adjacency, O(R^2) parameters.
  // Initialized at 1/sqrt(R) so the comparison is against the strongest
  // reasonable from-scratch variant (see EXPERIMENTS.md for the scale
  // caveat on Table V's FS row).
  scratch_adj_.emplace_back(
      rows, RegisterParameter("scratch_adj_" + std::to_string(rows),
                              T::Tensor::Randn({rows, rows}, rng,
                                               1.0f / std::sqrt(
                                                   static_cast<float>(rows)))));
}

Variable DhslBlock::Incidence(const Variable& h) const {
  // Eq. 6: Λ = H W, low-rank through the d-dimensional bottleneck.
  return ag::BatchedMatMul(h, incidence_weight_);  // (B, R, I)
}

Variable DhslBlock::Forward(const Variable& h) const {
  DYHSL_CHECK_EQ(h.dim(), 3);
  int64_t rows = h.size(1);
  if (mode_ == StructureLearning::kFromScratch) {
    for (const auto& [r, adj] : scratch_adj_) {
      if (r == rows) {
        // F = A_learn H, with A shared across the batch (shared-LHS
        // batched matmul; no transpose round-trips).
        return ag::BatchedMatMul(adj, h);
      }
    }
    DYHSL_CHECK_MSG(false, "kFromScratch: sequence length not registered");
  }
  float row_scale = 1.0f / std::sqrt(static_cast<float>(rows));
  float edge_scale =
      1.0f / std::sqrt(static_cast<float>(num_hyperedges_));
  Variable incidence = Incidence(h);  // (B, R, I)
  if (sparse_topk_ > 0) {
    return SparseForward(h, incidence, row_scale, edge_scale);
  }
  // Eq. 7: E = φ(U ΛᵀH) + ΛᵀH.
  Variable edge_feat = ag::MulScalar(
      ag::BatchedMatMul(incidence, h, /*trans_a=*/true, false), row_scale);
  Variable mixed = ag::BatchedMatMul(edge_mixer_, edge_feat);
  Variable edges = ag::Add(ag::Relu(mixed), edge_feat);  // (B, I, d)
  // Eq. 8: F = Λ E.
  return ag::MulScalar(ag::BatchedMatMul(incidence, edges), edge_scale);
}

Variable DhslBlock::SparseForward(const Variable& h, const Variable& incidence,
                                  float row_scale, float edge_scale) const {
  // Top-k sparsification of Λ per batch item. Selection reads the forward
  // values only (structure is piecewise constant, never differentiated);
  // GatherSparse then routes the value gradient of the kept entries back
  // into the dense Λ tape — dropped entries receive the exact subgradient
  // zero of the hard top-k.
  const T::Tensor& lam = incidence.value();  // (B, R, I)
  const int64_t batch = lam.size(0);
  const int64_t rows = lam.size(1);
  ag::CsrPatternList patterns;
  patterns.reserve(batch);
  if (pattern_reuse_) {
    // Reuse the previous step's pattern while drift stays under threshold;
    // GatherSparse below refreshes the kept values either way (SDDMM-style
    // O(nnz) gather), so a reuse skips only the O(R * I) selection.
    T::TopKPatternCache& cache = CacheForThread(cache_id_, drift_threshold_);
    for (int64_t b = 0; b < batch; ++b) {
      patterns.push_back(
          cache.SelectOrReuse(b, lam.data() + b * rows * num_hyperedges_,
                              rows, num_hyperedges_, sparse_topk_));
    }
  } else {
    for (int64_t b = 0; b < batch; ++b) {
      patterns.push_back(
          T::RowTopKPattern(lam.data() + b * rows * num_hyperedges_, rows,
                            num_hyperedges_, sparse_topk_));
    }
  }
  Variable values = ag::GatherSparse(incidence, patterns);  // (B, R*k)
  // Eq. 7: E = φ(U ΛᵀH) + ΛᵀH on the sparsified Λ.
  Variable edge_feat = ag::MulScalar(
      ag::BatchedSparseDenseMatMul(patterns, values, h, /*trans_a=*/true),
      row_scale);
  Variable mixed = ag::BatchedMatMul(edge_mixer_, edge_feat);
  Variable edges = ag::Add(ag::Relu(mixed), edge_feat);  // (B, I, d)
  // Eq. 8: F = Λ E.
  return ag::MulScalar(
      ag::BatchedSparseDenseMatMul(patterns, values, edges, false),
      edge_scale);
}

T::TopKPatternCache::Stats DhslBlock::PatternCacheStats() const {
  if (!pattern_reuse_) return {};
  return CacheForThread(cache_id_, drift_threshold_).stats();
}

void DhslBlock::ClearPatternCache() const {
  if (!pattern_reuse_) return;
  CacheForThread(cache_id_, drift_threshold_).Clear();
}

IgcBlock::IgcBlock(int64_t hidden_dim, Rng* rng)
    : w1_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      w2_(hidden_dim, hidden_dim, rng, /*bias=*/false),
      w3_(hidden_dim, hidden_dim, rng) {
  RegisterChild("w1", &w1_);
  RegisterChild("w2", &w2_);
  RegisterChild("w3", &w3_);
}

Variable IgcBlock::Forward(const autograd::SparseConstant& adj,
                           const Variable& h) const {
  // Both sums in Eq. 11 share the same neighborhood aggregation Ā h.
  Variable m = ag::SpMM(adj, h);
  if (ag::InferenceModeEnabled()) {
    // One fused pass for tanh(W1 m ⊙ W2 m) + φ(W3 m): elementwise
    // identical to the taped chain below, without its intermediates.
    Variable a = w1_.Forward(m), b = w2_.Forward(m), c = w3_.Forward(m);
    T::Tensor out(a.value().shape());
    T::TanhProductPlusReluArray(a.value().data(), b.value().data(),
                                c.value().data(), out.data(), out.numel());
    return Variable(std::move(out));
  }
  // Written as one expression of temporaries so grad-free callers that
  // land here still hit the in-place overloads.
  return ag::Add(ag::Tanh(ag::Mul(w1_.Forward(m), w2_.Forward(m))),  // Eq. 11
                 ag::Relu(w3_.Forward(m)));                          // Eq. 12
}

}  // namespace dyhsl::models
