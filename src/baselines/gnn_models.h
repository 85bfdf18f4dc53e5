// Graph-based neural baselines of paper Table III. Each model implements
// the defining mechanism of its published counterpart on top of this
// repository's substrate; simplifications are noted below and in each
// class comment:
//
//   Stgcn         gated temporal convolution + Chebyshev-style graph conv
//   Dcrnn         diffusion-convolutional GRU encoder-decoder
//   GraphWaveNet  dilated TCN + diffusion conv + self-adaptive adjacency
//   Agcrn         adaptive-adjacency graph-conv GRU (NAPL simplified to
//                 shared weights)
//   Stsgcn        localized spatio-temporal synchronous graph convolution
//   HgcRnn        hypergraph convolution (predefined district hyperedges)
//                 fused with a GRU
//   Dhgnn         dynamic hypergraph built per input by kNN + k-means
//   StgOde        graph ODE: RK4 integration of a GCN vector field

#ifndef DYHSL_BASELINES_GNN_MODELS_H_
#define DYHSL_BASELINES_GNN_MODELS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/nn/layers.h"
#include "src/nn/module.h"
#include "src/tensor/sparse.h"
#include "src/train/forecast_model.h"
#include "src/train/streaming.h"

namespace dyhsl::baselines {

using autograd::Variable;

/// \brief Boilerplate shared by the graph baselines (task copy, module
/// plumbing, parameter forwarding).
class GnnModelBase : public nn::Module, public train::ForecastModel {
 public:
  explicit GnnModelBase(const train::ForecastTask& task, uint64_t seed)
      : task_(task), rng_(seed) {}

  std::vector<Variable> Parameters() const override {
    return nn::Module::Parameters();
  }
  int64_t ParameterCount() const override {
    return nn::Module::ParameterCount();
  }

 protected:
  train::ForecastTask task_;
  Rng rng_;
};

/// \brief STGCN (Yu et al., IJCAI'18): [temporal gated conv -> graph conv
/// -> temporal gated conv] blocks followed by a fully-connected head.
///
/// The head reads only the second conv's last step. With both convs
/// kernel 3 and causal, that step depends on the last 3 graph-conv steps,
/// and those on the last 5 input steps, so Forward computes only them:
/// tconv1 over the last min(T, 5) input steps, keeping its last
/// min(T, 3) outputs; the SpMM, graph conv and ReLU over those; tconv2
/// over the same steps, its last row feeding the head. Both convs keep
/// their causal padding, so each kept output sums its taps in the same
/// order as over the full window and the forecast keeps its bits.
class Stgcn : public GnnModelBase {
 public:
  Stgcn(const train::ForecastTask& task, int64_t hidden_dim, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "STGCN"; }

 private:
  /// Gated temporal conv (GLU): y = P ⊙ σ(Q), kernel 3, causal.
  Variable TemporalGated(const nn::Conv1dLayer& conv, const Variable& h,
                         int64_t channels) const;

  int64_t hidden_dim_;
  autograd::SparseConstant sym_adj_;
  nn::Conv1dLayer tconv1_;
  nn::Linear gconv_;
  nn::Conv1dLayer tconv2_;
  nn::Linear head_;
};

/// \brief DCRNN (Li et al., ICLR'18): GRU whose matmuls are replaced by
/// K-step bidirectional diffusion convolutions; encoder-decoder rollout.
///
/// Also the repository's reference RecurrentStreamModel: the encoder
/// state is carried across ticks (AdvanceStateBatch at B = 1 == one
/// CellStep, bit-identical to Forward's encoder loop), so a streaming
/// session serves a forecast with only the T'-step decoder
/// (ForecastFromStateBatch) instead of re-encoding the full window.
class Dcrnn : public GnnModelBase, public train::RecurrentStreamModel {
 public:
  Dcrnn(const train::ForecastTask& task, int64_t hidden_dim,
        int64_t diffusion_steps, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "DCRNN"; }

  /// \name Warm-state streaming (src/train/streaming.h)
  /// @{
  std::unique_ptr<train::StreamState> MakeStreamState() const override;
  /// Batched carry: stacks B per-session hidden states into (B, N, H)
  /// and runs one batched cell step (one cold T-step replay, one
  /// decoder rollout) instead of B sequential ones. CellStep processes
  /// each batch item with the same accumulation order as at B = 1, so
  /// per-session results match the batch-of-one results bit-identically.
  /// All three run under the caller's autograd::InferenceModeGuard
  /// (checked).
  void ResyncStateBatch(const std::vector<train::StreamState*>& states,
                        const tensor::Tensor& windows) const override;
  void AdvanceStateBatch(const std::vector<train::StreamState*>& states,
                         const tensor::Tensor& frames) const override;
  tensor::Tensor ForecastFromStateBatch(
      const std::vector<const train::StreamState*>& states) const override;
  /// @}

 private:
  struct DcrnnStreamState;

  Variable CellStep(const Variable& x_t, const Variable& h) const;
  /// The encoder: one CellStep per step of the (B, T, N, F) `input`
  /// from a zero state; returns the final hidden state (B, N, H).
  Variable Encode(const Variable& input) const;
  /// Stores a batched step into the sessions' heap-backed states: hidden
  /// row i of `h` (B, N, H), and as decoder seed the flow channel of the
  /// (N, F) frame at `newest + i * stride`.
  void StoreStates(const std::vector<train::StreamState*>& states,
                   const tensor::Tensor& h, const float* newest,
                   int64_t stride) const;

  int64_t hidden_dim_;
  autograd::SparseConstant fw_;
  autograd::SparseConstant bw_;
  nn::DiffusionConv gate_zr_;  // -> 2 * hidden
  nn::DiffusionConv gate_c_;   // -> hidden
  nn::Linear readout_;
};

/// \brief Graph WaveNet (Wu et al., IJCAI'19): stacked gated dilated causal
/// convolutions interleaved with graph convolution over forward/backward
/// transition matrices plus a learned self-adaptive adjacency E1 E2^T.
class GraphWaveNet : public GnnModelBase {
 public:
  GraphWaveNet(const train::ForecastTask& task, int64_t channels,
               int64_t layers, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "GraphWaveNet"; }

 private:
  int64_t channels_;
  autograd::SparseConstant fw_;
  autograd::SparseConstant bw_;
  Variable emb1_;  // (N, r) self-adaptive adjacency factors
  Variable emb2_;
  nn::Linear input_proj_;
  std::vector<std::unique_ptr<nn::Conv1dLayer>> filter_convs_;
  std::vector<std::unique_ptr<nn::Conv1dLayer>> gate_convs_;
  std::vector<std::unique_ptr<nn::Linear>> gconv_fw_;
  std::vector<std::unique_ptr<nn::Linear>> gconv_bw_;
  std::vector<std::unique_ptr<nn::Linear>> gconv_adp_;
  nn::Linear head_;
};

/// \brief AGCRN (Bai et al., NeurIPS'20): GRU whose transforms are graph
/// convolutions over an adjacency learned from node embeddings.
class Agcrn : public GnnModelBase {
 public:
  Agcrn(const train::ForecastTask& task, int64_t hidden_dim,
        int64_t embed_dim, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "AGCRN"; }

 private:
  int64_t hidden_dim_;
  Variable node_embed_;  // (N, r)
  nn::Linear gate_zr_;
  nn::Linear gate_c_;
  nn::Linear head_;
};

/// \brief STSGCN (Song et al., AAAI'20): graph convolution over localized
/// 3-step spatio-temporal synchronous subgraphs, aggregated over windows.
class Stsgcn : public GnnModelBase {
 public:
  Stsgcn(const train::ForecastTask& task, int64_t hidden_dim, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "STSGCN"; }

 private:
  int64_t hidden_dim_;
  autograd::SparseConstant local_op_;  // 3-step temporal graph
  nn::Linear input_proj_;
  nn::Linear gconv1_;
  nn::Linear gconv2_;
  nn::Linear head_;
};

/// \brief HGC-RNN (Yi & Park, KDD'20): GRU with hypergraph convolution on a
/// predefined hypergraph (here: the latent district communities, which is
/// exactly the static-hyperedge setting of paper Fig. 1). The convolution
/// runs the factored two-step form D_v^-1 Λ (D_e^-1 Λ^T x) — two sparse
/// products in O(nnz(Λ)) instead of the materialized node-by-node operator.
class HgcRnn : public GnnModelBase {
 public:
  HgcRnn(const train::ForecastTask& task, int64_t hidden_dim, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "HGC-RNN"; }

 private:
  int64_t hidden_dim_;
  hypergraph::FactoredIncidence hyper_op_;  // factored D_v^-1 Λ D_e^-1 Λ^T
  nn::Linear gate_zr_;
  nn::Linear gate_c_;
  nn::Linear head_;
};

/// \brief DHGNN (Jiang et al., IJCAI'19) adapted to forecasting: hyperedges
/// are re-derived from each input window by kNN + k-means over node
/// features, then two rounds of hypergraph convolution feed the head.
///
/// DHGNN is the zoo's data-dependent-structure model: unlike the static
/// temporal-graph operators (precomputed once at construction), its
/// kNN + k-means hypergraph slides with the window, so every Forward
/// rebuilds it from that window's node signatures.
class Dhgnn : public GnnModelBase {
 public:
  Dhgnn(const train::ForecastTask& task, int64_t hidden_dim,
        int64_t num_clusters, int64_t knn, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "DHGNN"; }

 private:
  int64_t hidden_dim_;
  int64_t num_clusters_;
  int64_t knn_;
  nn::GruCell encoder_;
  nn::Linear hconv1_;
  nn::Linear hconv2_;
  nn::Linear head_;
};

/// \brief STGODE-style model (Fang et al., KDD'21): the hidden state
/// follows dh/dt = GCN(h) - h integrated with fixed-step RK4.
class StgOde : public GnnModelBase {
 public:
  StgOde(const train::ForecastTask& task, int64_t hidden_dim,
         int64_t rk4_steps, uint64_t seed);
  Variable Forward(const tensor::Tensor& x, bool training) override;
  std::string name() const override { return "STGODE"; }

 private:
  Variable OdeField(const Variable& h) const;

  int64_t hidden_dim_;
  int64_t rk4_steps_;
  autograd::SparseConstant sym_adj_;
  nn::GruCell encoder_;
  nn::Linear field_proj_;
  nn::Linear head_;
};

}  // namespace dyhsl::baselines

#endif  // DYHSL_BASELINES_GNN_MODELS_H_
