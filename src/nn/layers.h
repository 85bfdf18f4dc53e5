// Standard neural network layers used across DyHSL and the baselines.

#ifndef DYHSL_NN_LAYERS_H_
#define DYHSL_NN_LAYERS_H_

#include <memory>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/core/rng.h"
#include "src/nn/module.h"
#include "src/tensor/gemm.h"
#include "src/tensor/sparse.h"

namespace dyhsl::nn {

using autograd::Variable;

/// \brief Affine map y = x W + b over the last axis; x may be any rank.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  Variable Forward(const Variable& x) const;

  /// \brief Grad-free x W + b with further elementwise steps fused into
  /// the GEMM write-back. This layer's bias fills `epilogue.bias`; the
  /// other steps' operands are laid out like the (rows, out) result.
  /// Bit-identical to Forward followed by the same steps as tensor ops.
  tensor::Tensor ForwardFused(const tensor::Tensor& x,
                              tensor::GemmEpilogue epilogue) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  const Variable& weight() const { return weight_; }  // (in, out)
  /// Undefined when constructed with bias = false.
  const Variable& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Variable weight_;  // (in, out)
  Variable bias_;    // (out) or undefined
};

/// \brief Lookup table of `count` learnable d-dimensional embeddings.
class Embedding : public Module {
 public:
  Embedding(int64_t count, int64_t dim, Rng* rng);

  /// \brief Returns rows (len(indices), dim).
  Variable Forward(const std::vector<int64_t>& indices) const;

  const Variable& weight() const { return weight_; }

 private:
  Variable weight_;
};

/// \brief Layer normalization over the last axis with learnable gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  /// Fully fused (see tensor::LayerNormLastAxisInto): one pass per row and
  /// one tape node. Takes x by value: a moved-in sole owner may be
  /// normalized in place (inference mode).
  Variable Forward(Variable x) const;

 private:
  float eps_;
  Variable gamma_;
  Variable beta_;
};

/// \brief Gated recurrent unit cell.
class GruCell : public Module {
 public:
  GruCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  /// \brief One step: x (B, input_dim), h (B, hidden_dim) -> new h.
  Variable Forward(const Variable& x, const Variable& h) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear x_gates_;  // -> 3 * hidden (z, r, c)
  Linear h_gates_;  // -> 3 * hidden
};

/// \brief Long short-term memory cell. State is the (h, c) pair.
class LstmCell : public Module {
 public:
  LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng);

  struct State {
    Variable h;
    Variable c;
  };

  State Forward(const Variable& x, const State& state) const;

  /// \brief Zero state for batch size B.
  State InitialState(int64_t batch) const;

  int64_t hidden_dim() const { return hidden_dim_; }

 private:
  int64_t hidden_dim_;
  Linear x_gates_;  // -> 4 * hidden (i, f, g, o)
  Linear h_gates_;
};

/// \brief Temporal convolution over channels-last (B, T, R, Cin) input
/// (ag::TemporalConv) -> (B, T, R, Cout). Causal pads (K - 1) * dilation
/// steps on the left, so out[t] depends on x[<= t]; otherwise the padding
/// is split, the left side taking the floor half.
class Conv1dLayer : public Module {
 public:
  Conv1dLayer(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
              Rng* rng, int64_t dilation = 1, bool causal = true,
              bool bias = true);

  Variable Forward(const Variable& x) const;
  /// \brief Output channels [begin, begin + count) only: the convolution
  /// with that slice of the weight and bias (e.g. one half of a GLU).
  Variable ForwardChannels(const Variable& x, int64_t begin,
                           int64_t count) const;

 private:
  Variable Convolve(const Variable& x, const Variable& weight,
                    const Variable& bias) const;

  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t dilation_;
  bool causal_;
  Variable weight_;  // (Cout, Cin, K)
  Variable bias_;    // (Cout, 1)
};

/// \brief K-step bidirectional diffusion convolution (DCRNN):
/// y = sum_k (A_fw^k x) W_k + (A_bw^k x) U_k, k = 0..K.
class DiffusionConv : public Module {
 public:
  DiffusionConv(int64_t in_dim, int64_t out_dim, int64_t steps, Rng* rng);

  Variable Forward(const autograd::SparseConstant& fw,
                   const autograd::SparseConstant& bw,
                   const Variable& x) const;

 private:
  int64_t steps_;
  std::vector<std::unique_ptr<Linear>> fw_proj_;
  std::vector<std::unique_ptr<Linear>> bw_proj_;
};

}  // namespace dyhsl::nn

#endif  // DYHSL_NN_LAYERS_H_
