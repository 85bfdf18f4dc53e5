#include "src/models/blocks.h"

#include <cmath>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/nn/init.h"
#include "src/tensor/vecmath.h"

namespace dyhsl::models {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

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
                     StructureLearning mode)
    : hidden_dim_(hidden_dim), num_hyperedges_(num_hyperedges), mode_(mode) {
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
  // Eq. 7: E = φ(U ΛᵀH) + ΛᵀH.
  Variable edge_feat = ag::MulScalar(
      ag::BatchedMatMul(incidence, h, /*trans_a=*/true, false), row_scale);
  Variable mixed = ag::BatchedMatMul(edge_mixer_, edge_feat);
  Variable edges = ag::Add(ag::Relu(mixed), edge_feat);  // (B, I, d)
  // Eq. 8: F = Λ E.
  return ag::MulScalar(ag::BatchedMatMul(incidence, edges), edge_scale);
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
