#include "src/models/dyhsl.h"

#include <string>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/graph/temporal_graph.h"
#include "src/tensor/ops.h"

namespace dyhsl::models {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

namespace {

Rng MakeRng(uint64_t seed) { return Rng(seed); }

}  // namespace

DyHsl::DyHsl(const train::ForecastTask& task, const DyHslConfig& config)
    : task_(task),
      config_(config),
      rng_(MakeRng(config.seed)),
      prior_temporal_op_(graph::BuildNormalizedTemporalOp(task.spatial_adj,
                                                          task.history)),
      encoder_(task.num_nodes, task.history, task.input_dim,
               config.hidden_dim, config.prior_layers, prior_temporal_op_,
               &rng_),
      dhsl_(config.hidden_dim, config.num_hyperedges, &rng_,
            config.structure_learning),
      igc_(config.hidden_dim, &rng_),
      iter_norm_(config.hidden_dim),
      head_(2 * config.hidden_dim, task.horizon, &rng_) {
  DYHSL_CHECK(!config_.window_sizes.empty());
  for (int64_t eps : config_.window_sizes) {
    // Validate positivity first: `history % eps` with eps == 0 is UB.
    DYHSL_CHECK_MSG(eps > 0, "window sizes must be positive, got " +
                                 std::to_string(eps));
    DYHSL_CHECK_MSG(task.history % eps == 0,
                    "window size " + std::to_string(eps) +
                        " must divide the history length " +
                        std::to_string(task.history));
    int64_t pooled_steps = task.history / eps;
    if (scale_ops_.find(pooled_steps) == scale_ops_.end()) {
      scale_ops_[pooled_steps] = graph::BuildNormalizedTemporalOp(
          task_.spatial_adj, pooled_steps);
    }
    dhsl_.RegisterSequenceLength(pooled_steps * task.num_nodes, &rng_);
  }
  RegisterChild("encoder", &encoder_);
  RegisterChild("dhsl", &dhsl_);
  RegisterChild("igc", &igc_);
  RegisterChild("iter_norm", &iter_norm_);
  RegisterChild("head", &head_);
  scale_logits_ = RegisterParameter(
      "scale_logits",
      T::Tensor::Zeros({static_cast<int64_t>(config_.window_sizes.size())}));
}

ag::Variable DyHsl::RunScale(const ag::Variable& h_full, int64_t eps,
                             bool training, Rng* dropout_rng) {
  int64_t batch = h_full.size(0);
  int64_t n = task_.num_nodes;
  int64_t d = config_.hidden_dim;
  int64_t pooled_steps = task_.history / eps;
  // Local max pooling over time (δ^k_i = Pool(h^{kε-ε+1}_i ... h^{kε}_i)).
  ag::Variable h = ag::Reshape(h_full, {batch, task_.history, n, d});
  if (eps > 1) h = ag::MaxPoolAxis(h, /*axis=*/1, eps);
  ag::Variable delta = ag::Reshape(h, {batch, pooled_steps * n, d});
  const auto& adj = scale_ops_.at(pooled_steps);
  for (int64_t layer = 0; layer < config_.mhce_layers; ++layer) {
    // Eq. 13: Δ_l = 1/2 (BLOCK_H(Δ_{l-1}) + BLOCK_I(Δ_{l-1})).
    ag::Variable mixed;
    if (config_.use_igc) {
      // IGC first, so the grad-free path can mix it into DHSL's last GEMM.
      ag::Variable igc = igc_.Forward(adj, delta);
      if (ag::InferenceModeEnabled()) {
        mixed = ag::Variable(dhsl_.ForwardMixed(delta.value(), igc.value()));
      } else {
        mixed = ag::MulScalar(ag::Add(dhsl_.Forward(delta), igc), 0.5f);
      }
    } else {
      mixed = dhsl_.Forward(delta);  // Table VI "w/o IGC" ablation
    }
    // Normalization and dropout keep iterated block outputs well-scaled
    // (an implementation detail outside the paper's equations). mixed is
    // consumed so the inference path normalizes in place.
    delta = iter_norm_.Forward(std::move(mixed));
    delta = ag::Dropout(delta, config_.dropout, training, dropout_rng);
  }
  // Mean-pool the sequence dimension -> γ^ε (B, N, d).
  delta = ag::Reshape(delta, {batch, pooled_steps, n, d});
  return ag::Mean(delta, /*axis=*/1);
}

ag::Variable DyHsl::Forward(const tensor::Tensor& x, bool training) {
  DYHSL_CHECK_EQ(x.dim(), 4);
  int64_t batch = x.size(0);
  int64_t n = task_.num_nodes;
  int64_t d = config_.hidden_dim;
  ag::Variable input(x);
  ag::Variable h = encoder_.Forward(input);  // (B, T*N, d)

  // Per-scale embeddings, fused by the softmax weights of Eq. 14.
  ag::Variable weights = ag::SoftmaxLastAxis(scale_logits_);  // (J)
  ag::Variable fused;
  for (size_t j = 0; j < config_.window_sizes.size(); ++j) {
    ag::Variable gamma =
        RunScale(h, config_.window_sizes[j], training, &rng_);  // (B, N, d)
    ag::Variable wj = ag::Slice(weights, 0, static_cast<int64_t>(j), 1);
    ag::Variable term = ag::Mul(gamma, wj);  // broadcast scalar weight
    fused = fused.defined() ? ag::Add(fused, term) : term;
  }

  // Local embedding at the last time step h_T (B, N, d).
  ag::Variable h_steps = ag::Reshape(h, {batch, task_.history, n, d});
  ag::Variable h_last = ag::Reshape(
      ag::Slice(h_steps, 1, task_.history - 1, 1), {batch, n, d});

  // Head over [γ ‖ h_T] -> per-node horizon predictions.
  ag::Variable features = ag::Concat({fused, h_last}, /*axis=*/2);
  ag::Variable out = head_.Forward(features);          // (B, N, T')
  out = ag::TransposePerm(out, {0, 2, 1});             // (B, T', N)
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

tensor::Tensor DyHsl::IncidenceFor(const tensor::Tensor& x) {
  // Analysis-only read of Λ — never differentiated, so skip the tape.
  ag::InferenceModeGuard no_grad;
  ag::Variable input(x);
  ag::Variable h = encoder_.Forward(input);
  return dhsl_.Incidence(h).value();
}

std::vector<float> DyHsl::ScaleWeights() const {
  T::Tensor soft = T::SoftmaxLastAxis(scale_logits_.value());
  return soft.ToVector();
}

}  // namespace dyhsl::models
