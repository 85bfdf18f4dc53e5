#include "src/models/blocks.h"

#include <cmath>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/nn/init.h"
#include "src/tensor/ops.h"

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
    // the paper) from oversmoothing.
    Variable agg = ag::SpMM(temporal_op_, h);
    if (ag::InferenceModeEnabled()) {
      // The whole layer is one GEMM write-back: relu(ĀhW + b) + h.
      T::GemmEpilogue ep;
      ep.relu = true;
      if (residual_) ep.residual = h.value().data();
      h = Variable(proj->ForwardFused(agg.value(), ep));
      continue;
    }
    Variable conv = ag::Relu(proj->Forward(agg));
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

const Variable& DhslBlock::ScratchAdjacency(int64_t rows) const {
  for (const auto& [r, adj] : scratch_adj_) {
    if (r == rows) return adj;
  }
  DYHSL_CHECK_MSG(false, "kFromScratch: sequence length not registered");
  return scratch_adj_.front().second;  // unreachable
}

Variable DhslBlock::Forward(const Variable& h) const {
  DYHSL_CHECK_EQ(h.dim(), 3);
  if (ag::InferenceModeEnabled()) return Variable(FusedForward(h.value()));
  int64_t rows = h.size(1);
  if (mode_ == StructureLearning::kFromScratch) {
    // F = A_learn H, with A shared across the batch (shared-LHS
    // batched matmul; no transpose round-trips).
    return ag::BatchedMatMul(ScratchAdjacency(rows), h);
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

T::Tensor DhslBlock::ForwardMixed(const T::Tensor& h,
                                  const T::Tensor& other) const {
  DYHSL_CHECK_EQ(h.dim(), 3);
  DYHSL_CHECK(other.shape() == h.shape());
  return FusedForward(h, &other);
}

T::Tensor DhslBlock::FusedForward(const T::Tensor& h,
                                  const T::Tensor* other) const {
  // Forward's op chain with every elementwise step moved into the write-back
  // of the GEMM before it; each epilogue rounds exactly like those ops.
  const int64_t batch = h.size(0), rows = h.size(1);
  T::GemmEpilogue out_ep;  // the final product's write-back
  if (other != nullptr) {
    out_ep.residual = other->data();
    out_ep.post = 0.5f;
  }
  T::Tensor out({batch, rows, hidden_dim_});
  if (mode_ == StructureLearning::kFromScratch) {
    T::BatchedMatMulInto(ScratchAdjacency(rows).value(), h, false, false,
                         /*beta=*/0.0f, &out, &out_ep);
    return out;
  }
  const T::Tensor incidence =
      T::BatchedMatMul(h, incidence_weight_.value());  // Eq. 6
  // Eq. 7: ΛᵀH / √R, then E = φ(U ·) + ·.
  T::GemmEpilogue feat_ep;
  feat_ep.scale = 1.0f / std::sqrt(static_cast<float>(rows));
  T::Tensor edge_feat({batch, num_hyperedges_, hidden_dim_});
  T::BatchedMatMulInto(incidence, h, /*trans_a=*/true, false, 0.0f,
                       &edge_feat, &feat_ep);
  T::GemmEpilogue edge_ep;
  edge_ep.relu = true;
  edge_ep.residual = edge_feat.data();
  T::Tensor edges({batch, num_hyperedges_, hidden_dim_});
  T::BatchedMatMulInto(edge_mixer_.value(), edge_feat, false, false, 0.0f,
                       &edges, &edge_ep);
  // Eq. 8: F = Λ E / √I, and with `other` Eq. 13's ½(F + other).
  out_ep.scale = 1.0f / std::sqrt(static_cast<float>(num_hyperedges_));
  T::BatchedMatMulInto(incidence, edges, false, false, 0.0f, &out, &out_ep);
  return out;
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
    // tanh(M W1 ⊙ M W2) + φ(M W3 + b3) lands in W3's GEMM write-back:
    // bit-identical to the taped chain below, without its intermediates.
    const T::Tensor& mv = m.value();
    const T::Tensor a = w1_.ForwardFused(mv, {});
    const T::Tensor b = w2_.ForwardFused(mv, {});
    T::GemmEpilogue gate;
    gate.gate_a = a.data();
    gate.gate_b = b.data();
    return Variable(w3_.ForwardFused(mv, gate));
  }
  // Written as one expression of temporaries so grad-free callers that
  // land here still hit the in-place overloads.
  return ag::Add(ag::Tanh(ag::Mul(w1_.Forward(m), w2_.Forward(m))),  // Eq. 11
                 ag::Relu(w3_.Forward(m)));                          // Eq. 12
}

}  // namespace dyhsl::models
