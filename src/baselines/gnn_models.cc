#include "src/baselines/gnn_models.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/autograd/inference.h"
#include "src/autograd/ops.h"
#include "src/core/check.h"
#include "src/graph/graph.h"
#include "src/graph/temporal_graph.h"
#include "src/nn/init.h"
#include "src/tensor/ops.h"
#include "src/tensor/vecmath.h"
#include "src/tensor/workspace.h"

namespace dyhsl::baselines {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

namespace {

// U (R x C shared) @ M (B, C, d) through the transpose trick.
Variable SharedLhsMatMul(const Variable& u, const Variable& m) {
  Variable mt = ag::TransposePerm(m, {0, 2, 1});
  Variable prod = ag::BatchedMatMul(mt, u, false, true);
  return ag::TransposePerm(prod, {0, 2, 1});
}

ag::SparseConstant SymAdj(const T::CsrMatrix& spatial) {
  return ag::SparseConstant(spatial.WithSelfLoops().SymNormalized());
}

ag::SparseConstant ForwardTransition(const T::CsrMatrix& spatial) {
  return ag::SparseConstant(spatial.RowNormalized());
}

ag::SparseConstant BackwardTransition(const T::CsrMatrix& spatial) {
  return ag::SparseConstant(spatial.Transposed().RowNormalized());
}

// Factored hypergraph convolution: x -> D_v^-1 Λ (D_e^-1 Λ^T x).
Variable HyperConv(const hypergraph::FactoredIncidence& op,
                   const Variable& x) {
  return ag::SpMM(op.edge_to_node, ag::SpMM(op.node_to_edge, x));
}

// (B, T, N, F) tensor -> per-step Variable (B, N, F).
Variable StepSlice(const Variable& x, int64_t t) {
  return ag::Reshape(ag::Slice(x, 1, t, 1),
                     {x.size(0), x.size(2), x.size(3)});
}

}  // namespace

// ---------------------------------------------------------------- Stgcn --

// Both gated convs are causal with this kernel: an output step reads itself
// and the kStgcnKernel - 1 steps before it.
constexpr int64_t kStgcnKernel = 3;

Stgcn::Stgcn(const train::ForecastTask& task, int64_t hidden_dim,
             uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      sym_adj_(SymAdj(task.spatial_adj)),
      tconv1_(task.input_dim, 2 * hidden_dim, kStgcnKernel, &rng_, 1,
              /*causal=*/true),
      gconv_(hidden_dim, hidden_dim, &rng_),
      tconv2_(hidden_dim, 2 * hidden_dim, kStgcnKernel, &rng_, 1,
              /*causal=*/true),
      head_(hidden_dim, task.horizon, &rng_) {
  RegisterChild("tconv1", &tconv1_);
  RegisterChild("gconv", &gconv_);
  RegisterChild("tconv2", &tconv2_);
  RegisterChild("head", &head_);
}

Variable Stgcn::TemporalGated(const nn::Conv1dLayer& conv, const Variable& h,
                              int64_t channels) const {
  // GLU over two contiguous half-width convolutions, one per half of the
  // 2C-channel weight, so P and Q are never sliced out of one activation.
  Variable p = conv.ForwardChannels(h, 0, channels);
  Variable q = conv.ForwardChannels(h, channels, channels);
  return ag::Mul(p, ag::Sigmoid(std::move(q)));
}

Variable Stgcn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  // The head reads tconv2's last step, which sees the last g graph-conv
  // steps; those see the last g + kReach input steps through tconv1.
  constexpr int64_t kReach = kStgcnKernel - 1;
  int64_t batch = x.size(0), t_in = x.size(1), n = x.size(2);
  int64_t g = std::min<int64_t>(t_in, kReach + 1);
  int64_t s = std::min<int64_t>(t_in, g + kReach);
  Variable input(T::Slice(x, 1, t_in - s, s));
  // Temporal gated conv over each sensor, channels-last: (B, s, N, C).
  // Causal padding keeps each kept step's tap order (the last tap first).
  Variable h = TemporalGated(tconv1_, input, hidden_dim_);
  h = ag::Slice(h, 1, s - g, g);
  // Spatial graph conv applied per time position.
  h = ag::Reshape(h, {batch * g, n, hidden_dim_});
  h = ag::Relu(gconv_.Forward(ag::SpMM(sym_adj_, h)));
  // Second temporal gated conv.
  h = ag::Reshape(h, {batch, g, n, hidden_dim_});
  h = TemporalGated(tconv2_, h, hidden_dim_);
  Variable last = ag::Reshape(ag::Slice(h, 1, g - 1, 1),
                              {batch * n, hidden_dim_});
  Variable out = ag::Reshape(head_.Forward(last),
                             {batch, n, task_.horizon});
  out = ag::TransposePerm(out, {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// ---------------------------------------------------------------- Dcrnn --

Dcrnn::Dcrnn(const train::ForecastTask& task, int64_t hidden_dim,
             int64_t diffusion_steps, uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      fw_(ForwardTransition(task.spatial_adj)),
      bw_(BackwardTransition(task.spatial_adj)),
      gate_zr_(task.input_dim + hidden_dim, 2 * hidden_dim, diffusion_steps,
               &rng_),
      gate_c_(task.input_dim + hidden_dim, hidden_dim, diffusion_steps,
              &rng_),
      readout_(hidden_dim, 1, &rng_) {
  RegisterChild("gate_zr", &gate_zr_);
  RegisterChild("gate_c", &gate_c_);
  RegisterChild("readout", &readout_);
}

Variable Dcrnn::CellStep(const Variable& x_t, const Variable& h) const {
  if (autograd::InferenceModeEnabled()) {
    // Grad-free fast path: the gate algebra runs on raw arrays — the
    // same SigmoidArray/TanhArray kernels and the same per-element
    // operation order as the taped ops below, minus the Slice / Concat /
    // Neg temporaries the tape materializes. Every serving-side caller
    // (Forward under the engine's guard, the resync replay, the batched
    // carry) shares this path, so the cross-path equality contracts
    // (warm vs windowed, B = 1 batch vs sequential) are unaffected.
    const tensor::Tensor& xv = x_t.value();
    const tensor::Tensor& hv = h.value();
    const int64_t b = xv.size(0), n = xv.size(1), f = xv.size(2);
    const int64_t hd = hidden_dim_;
    const int64_t rows = b * n;
    tensor::Tensor xh({b, n, f + hd});  // [x ; h]
    {
      float* dst = xh.data();
      const float* px = xv.data();
      const float* ph = hv.data();
      for (int64_t i = 0; i < rows; ++i) {
        std::memcpy(dst + i * (f + hd), px + i * f,
                    static_cast<size_t>(f) * sizeof(float));
        std::memcpy(dst + i * (f + hd) + f, ph + i * hd,
                    static_cast<size_t>(hd) * sizeof(float));
      }
    }
    tensor::Tensor zr = gate_zr_.Forward(fw_, bw_, Variable(xh)).value();
    tensor::Tensor zr_act(zr.shape());  // sigmoid(z | r), (B, N, 2H)
    tensor::SigmoidArray(zr.data(), zr_act.data(), zr_act.numel());
    tensor::Tensor xrh({b, n, f + hd});  // [x ; r * h]
    {
      float* dst = xrh.data();
      const float* px = xv.data();
      const float* ph = hv.data();
      const float* pzr = zr_act.data();
      for (int64_t i = 0; i < rows; ++i) {
        std::memcpy(dst + i * (f + hd), px + i * f,
                    static_cast<size_t>(f) * sizeof(float));
        float* drh = dst + i * (f + hd) + f;
        const float* r = pzr + i * 2 * hd + hd;
        const float* hrow = ph + i * hd;
        for (int64_t j = 0; j < hd; ++j) drh[j] = r[j] * hrow[j];
      }
    }
    tensor::Tensor c = gate_c_.Forward(fw_, bw_, Variable(xrh)).value();
    tensor::Tensor c_act(c.shape());  // (B, N, H)
    tensor::TanhArray(c.data(), c_act.data(), c_act.numel());
    // h' = z * h + (1 - z) * c, via the same single-op tensor kernels the
    // taped path runs (Mul / MulScalar / AddScalar / Add) so every
    // intermediate rounds identically — a hand-fused expression here would
    // let the compiler contract mul+add into an FMA and change bits.
    tensor::Tensor z({b, n, hd});
    {
      float* pz = z.data();
      const float* pzr = zr_act.data();
      for (int64_t i = 0; i < rows; ++i) {
        std::memcpy(pz + i * hd, pzr + i * 2 * hd,
                    static_cast<size_t>(hd) * sizeof(float));
      }
    }
    tensor::Tensor one_minus_z =
        tensor::AddScalar(tensor::MulScalar(z, -1.0f), 1.0f);
    return Variable(tensor::Add(tensor::Mul(z, hv),
                                tensor::Mul(one_minus_z, c_act)));
  }
  // DCGRU: gates via diffusion conv on [x ; h] over the road graph.
  Variable xh = ag::Concat({x_t, h}, 2);  // (B, N, F + H)
  Variable zr = ag::Sigmoid(gate_zr_.Forward(fw_, bw_, xh));
  Variable z = ag::Slice(zr, 2, 0, hidden_dim_);
  Variable r = ag::Slice(zr, 2, hidden_dim_, hidden_dim_);
  Variable xrh = ag::Concat({x_t, ag::Mul(r, h)}, 2);
  Variable c = ag::Tanh(gate_c_.Forward(fw_, bw_, xrh));
  Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
  return ag::Add(ag::Mul(z, h), ag::Mul(one_minus_z, c));
}

Variable Dcrnn::Encode(const Variable& input) const {
  Variable h(tensor::Tensor::Zeros({input.size(0), input.size(2),
                                    hidden_dim_}));
  for (int64_t t = 0; t < input.size(1); ++t) {
    h = CellStep(StepSlice(input, t), h);
  }
  return h;
}

Variable Dcrnn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes;
  Variable h = Encode(input);
  // Decoder: feed back own (scaled) predictions; extra input channels are 0.
  Variable prev = ag::Reshape(
      ag::Slice(StepSlice(input, task_.history - 1), 2, 0, 1),
      {batch, n, 1});
  Variable pad(tensor::Tensor::Zeros({batch, n, task_.input_dim - 1}));
  std::vector<Variable> steps;
  for (int64_t t = 0; t < task_.horizon; ++t) {
    Variable x_t = ag::Concat({prev, pad}, 2);
    h = CellStep(x_t, h);
    prev = readout_.Forward(h);  // (B, N, 1)
    steps.push_back(prev);
  }
  Variable out = ag::Concat(steps, 2);            // (B, N, T')
  out = ag::TransposePerm(out, {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// Warm-state streaming: the carried state is exactly what Forward's
// encoder holds at batch 1 — h after one CellStep per tick, plus the
// decoder seed (flow channel of the newest frame). Every method runs
// tape-less under the caller's inference guard (the serving engine holds
// it) and heap-pins the carried tensors, so states are cheap value
// holders that survive per-step workspace resets on any thread.
struct Dcrnn::DcrnnStreamState : public train::StreamState {
  Variable h;     // (1, N, H); zeros until the first tick
  Variable prev;  // (1, N, 1) decoder seed; undefined until the first tick
};

std::unique_ptr<train::StreamState> Dcrnn::MakeStreamState() const {
  auto state = std::make_unique<DcrnnStreamState>();
  tensor::WorkspaceBypass bypass;
  state->h =
      Variable(tensor::Tensor::Zeros({1, task_.num_nodes, hidden_dim_}));
  return state;
}

void Dcrnn::StoreStates(const std::vector<train::StreamState*>& states,
                        const T::Tensor& h, const float* newest,
                        int64_t stride) const {
  const int64_t n = task_.num_nodes;
  const int64_t f = task_.input_dim;
  const int64_t state_numel = n * hidden_dim_;
  const int64_t b = static_cast<int64_t>(states.size());
  T::WorkspaceBypass bypass;  // carried state must survive arena resets
  for (int64_t i = 0; i < b; ++i) {
    auto* s = static_cast<DcrnnStreamState*>(states[i]);
    T::Tensor hi({1, n, hidden_dim_});
    std::memcpy(hi.data(), h.data() + i * state_numel,
                static_cast<size_t>(state_numel) * sizeof(float));
    s->h = Variable(std::move(hi));
    T::Tensor prev({1, n, 1});
    const float* frame = newest + i * stride;
    for (int64_t j = 0; j < n; ++j) prev.data()[j] = frame[j * f];
    s->prev = Variable(std::move(prev));
  }
}

void Dcrnn::ResyncStateBatch(const std::vector<train::StreamState*>& states,
                             const tensor::Tensor& windows) const {
  const int64_t b = static_cast<int64_t>(states.size());
  if (b == 0) return;
  const int64_t t_in = task_.history;
  const int64_t n = task_.num_nodes;
  const int64_t f = task_.input_dim;
  DYHSL_CHECK(windows.shape() == (tensor::Shape{b, t_in, n, f}));
  DYHSL_CHECK(autograd::InferenceModeEnabled());
  // One stacked cold replay from zeros — Forward's own encoder over the
  // B windows, so at B = 1 the next forecast matches the windowed
  // reference exactly, and each item keeps its B = 1 accumulation order.
  Variable h = Encode(Variable(windows));
  StoreStates(states, h.value(), windows.data() + (t_in - 1) * n * f,
              t_in * n * f);
}

void Dcrnn::AdvanceStateBatch(const std::vector<train::StreamState*>& states,
                              const tensor::Tensor& frames) const {
  const int64_t b = static_cast<int64_t>(states.size());
  if (b == 0) return;
  const int64_t n = task_.num_nodes;
  const int64_t f = task_.input_dim;
  DYHSL_CHECK(frames.shape() == (tensor::Shape{b, n, f}));
  DYHSL_CHECK(autograd::InferenceModeEnabled());
  // Stack the carried hidden states into (B, N, H) and advance all B
  // sessions with one batched DCGRU step — at B = 1 exactly one step of
  // Forward's encoder loop. CellStep runs each batch item through the
  // same row-wise accumulation order as at B = 1, so the unstacked
  // states are bit-identical to B one-session steps.
  const int64_t state_numel = n * hidden_dim_;
  T::Tensor h({b, n, hidden_dim_});
  for (int64_t i = 0; i < b; ++i) {
    const auto* s = static_cast<const DcrnnStreamState*>(states[i]);
    std::memcpy(h.data() + i * state_numel, s->h.value().data(),
                static_cast<size_t>(state_numel) * sizeof(float));
  }
  Variable h_new = CellStep(Variable(frames), Variable(h));
  StoreStates(states, h_new.value(), frames.data(), n * f);
}

tensor::Tensor Dcrnn::ForecastFromStateBatch(
    const std::vector<const train::StreamState*>& states) const {
  const int64_t b = static_cast<int64_t>(states.size());
  DYHSL_CHECK_GT(b, 0);
  DYHSL_CHECK(autograd::InferenceModeEnabled());
  const int64_t n = task_.num_nodes;
  // Forward's decoder over the stacked (B, N, H) states: one batched
  // rollout instead of B sequential ones. Reads private copies, mutates
  // no session state.
  const int64_t state_numel = n * hidden_dim_;
  T::Tensor h0({b, n, hidden_dim_});
  T::Tensor prev0({b, n, 1});
  for (int64_t i = 0; i < b; ++i) {
    const auto* s = static_cast<const DcrnnStreamState*>(states[i]);
    DYHSL_CHECK(s->prev.value().defined());
    std::memcpy(h0.data() + i * state_numel, s->h.value().data(),
                static_cast<size_t>(state_numel) * sizeof(float));
    std::memcpy(prev0.data() + i * n, s->prev.value().data(),
                static_cast<size_t>(n) * sizeof(float));
  }
  Variable h(std::move(h0));
  Variable prev(std::move(prev0));
  Variable pad(tensor::Tensor::Zeros({b, n, task_.input_dim - 1}));
  std::vector<Variable> steps;
  for (int64_t t = 0; t < task_.horizon; ++t) {
    Variable x_t = ag::Concat({prev, pad}, 2);
    h = CellStep(x_t, h);
    prev = readout_.Forward(h);
    steps.push_back(prev);
  }
  Variable out = ag::Concat(steps, 2);  // (B, N, T')
  out = ag::TransposePerm(out, {0, 2, 1});
  out = train::Descale(out, task_.scaler_mean, task_.scaler_std);
  return out.value();  // (B, T', N); caller copies out before any reset
}

// --------------------------------------------------------- GraphWaveNet --

GraphWaveNet::GraphWaveNet(const train::ForecastTask& task, int64_t channels,
                           int64_t layers, uint64_t seed)
    : GnnModelBase(task, seed),
      channels_(channels),
      fw_(ForwardTransition(task.spatial_adj)),
      bw_(BackwardTransition(task.spatial_adj)),
      input_proj_(task.input_dim, channels, &rng_),
      head_(channels, task.horizon, &rng_) {
  constexpr int64_t kEmbed = 10;
  emb1_ = RegisterParameter(
      "emb1", tensor::Tensor::Randn({task.num_nodes, kEmbed}, &rng_, 0.1f));
  emb2_ = RegisterParameter(
      "emb2", tensor::Tensor::Randn({task.num_nodes, kEmbed}, &rng_, 0.1f));
  for (int64_t l = 0; l < layers; ++l) {
    int64_t dilation = int64_t{1} << l;
    filter_convs_.push_back(std::make_unique<nn::Conv1dLayer>(
        channels, channels, 2, &rng_, dilation, /*causal=*/true));
    gate_convs_.push_back(std::make_unique<nn::Conv1dLayer>(
        channels, channels, 2, &rng_, dilation, /*causal=*/true));
    gconv_fw_.push_back(
        std::make_unique<nn::Linear>(channels, channels, &rng_, false));
    gconv_bw_.push_back(
        std::make_unique<nn::Linear>(channels, channels, &rng_, false));
    gconv_adp_.push_back(
        std::make_unique<nn::Linear>(channels, channels, &rng_));
    RegisterChild("filter" + std::to_string(l), filter_convs_.back().get());
    RegisterChild("gate" + std::to_string(l), gate_convs_.back().get());
    RegisterChild("gfw" + std::to_string(l), gconv_fw_.back().get());
    RegisterChild("gbw" + std::to_string(l), gconv_bw_.back().get());
    RegisterChild("gadp" + std::to_string(l), gconv_adp_.back().get());
  }
  RegisterChild("input_proj", &input_proj_);
  RegisterChild("head", &head_);
}

Variable GraphWaveNet::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), t_in = x.size(1), n = x.size(2);
  // Self-adaptive adjacency A = softmax(relu(E1 E2^T)) (dense, learned).
  Variable adaptive = ag::SoftmaxLastAxis(
      ag::Relu(ag::MatMul(emb1_, emb2_, false, /*trans_b=*/true)));
  Variable h = input_proj_.Forward(input);  // (B, T, N, C)
  for (size_t l = 0; l < filter_convs_.size(); ++l) {
    // Gated dilated temporal convolution per sensor, channels-last, so
    // its (B, T, N, C) output is already the graph step's (B*T, N, C).
    Variable gated = ag::Mul(ag::Tanh(filter_convs_[l]->Forward(h)),
                             ag::Sigmoid(gate_convs_[l]->Forward(h)));
    Variable spatial_in = ag::Reshape(gated, {batch * t_in, n, channels_});
    Variable mixed =
        ag::Add(ag::Add(gconv_fw_[l]->Forward(ag::SpMM(fw_, spatial_in)),
                        gconv_bw_[l]->Forward(ag::SpMM(bw_, spatial_in))),
                gconv_adp_[l]->Forward(
                    SharedLhsMatMul(adaptive, spatial_in)));
    Variable next = ag::Reshape(ag::Relu(mixed),
                                {batch, t_in, n, channels_});
    h = ag::Add(h, next);  // residual
  }
  Variable last = ag::Reshape(ag::Slice(h, 1, t_in - 1, 1),
                              {batch, n, channels_});
  Variable out = ag::TransposePerm(head_.Forward(last), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// ---------------------------------------------------------------- Agcrn --

Agcrn::Agcrn(const train::ForecastTask& task, int64_t hidden_dim,
             int64_t embed_dim, uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      gate_zr_(task.input_dim + hidden_dim, 2 * hidden_dim, &rng_),
      gate_c_(task.input_dim + hidden_dim, hidden_dim, &rng_),
      head_(hidden_dim, task.horizon, &rng_) {
  node_embed_ = RegisterParameter(
      "node_embed",
      tensor::Tensor::Randn({task.num_nodes, embed_dim}, &rng_, 1.0f));
  RegisterChild("gate_zr", &gate_zr_);
  RegisterChild("gate_c", &gate_c_);
  RegisterChild("head", &head_);
}

Variable Agcrn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes;
  // Data-adaptive adjacency from node embeddings (AGCRN Eq. 4).
  Variable adaptive = ag::SoftmaxLastAxis(
      ag::Relu(ag::MatMul(node_embed_, node_embed_, false, true)));
  Variable h(tensor::Tensor::Zeros({batch, n, hidden_dim_}));
  for (int64_t t = 0; t < task_.history; ++t) {
    Variable xh = ag::Concat({StepSlice(input, t), h}, 2);
    Variable mixed = SharedLhsMatMul(adaptive, xh);  // graph conv transform
    Variable zr = ag::Sigmoid(gate_zr_.Forward(mixed));
    Variable z = ag::Slice(zr, 2, 0, hidden_dim_);
    Variable r = ag::Slice(zr, 2, hidden_dim_, hidden_dim_);
    Variable xrh = ag::Concat({StepSlice(input, t), ag::Mul(r, h)}, 2);
    Variable c = ag::Tanh(gate_c_.Forward(SharedLhsMatMul(adaptive, xrh)));
    Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
    h = ag::Add(ag::Mul(z, h), ag::Mul(one_minus_z, c));
  }
  Variable out = ag::TransposePerm(head_.Forward(h), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// --------------------------------------------------------------- Stsgcn --

Stsgcn::Stsgcn(const train::ForecastTask& task, int64_t hidden_dim,
               uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      local_op_(graph::BuildNormalizedTemporalOp(task.spatial_adj,
                                                 /*num_steps=*/3)),
      input_proj_(task.input_dim, hidden_dim, &rng_),
      gconv1_(hidden_dim, hidden_dim, &rng_),
      gconv2_(hidden_dim, hidden_dim, &rng_),
      head_(hidden_dim, task.horizon, &rng_) {
  RegisterChild("input_proj", &input_proj_);
  RegisterChild("gconv1", &gconv1_);
  RegisterChild("gconv2", &gconv2_);
  RegisterChild("head", &head_);
}

Variable Stsgcn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), t_in = x.size(1), n = x.size(2);
  Variable h = input_proj_.Forward(input);  // (B, T, N, C)
  // Localized synchronous subgraphs: every 3 consecutive steps share one
  // temporal graph; the middle step's embedding is retained.
  std::vector<Variable> mids;
  for (int64_t t = 0; t + 3 <= t_in; ++t) {
    Variable window = ag::Reshape(ag::Slice(h, 1, t, 3),
                                  {batch, 3 * n, hidden_dim_});
    Variable g1 = ag::Relu(gconv1_.Forward(ag::SpMM(local_op_, window)));
    Variable g2 = ag::Relu(gconv2_.Forward(ag::SpMM(local_op_, g1)));
    // JK-style max aggregation of the two depths, middle step only.
    Variable agg = ag::Maximum(g1, g2);
    mids.push_back(ag::Slice(ag::Reshape(agg, {batch, 3, n, hidden_dim_}),
                             1, 1, 1));
  }
  Variable stack = ag::Concat(mids, 1);  // (B, T-2, N, C)
  Variable pooled = ag::Reshape(
      ag::MaxPoolAxis(stack, 1, static_cast<int64_t>(mids.size())),
      {batch, n, hidden_dim_});
  Variable out = ag::TransposePerm(head_.Forward(pooled), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// --------------------------------------------------------------- HgcRnn --

HgcRnn::HgcRnn(const train::ForecastTask& task, int64_t hidden_dim,
               uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      hyper_op_(hypergraph::Hypergraph::FromCommunities(task.district_labels)
                    .FactoredOperator()),
      gate_zr_(task.input_dim + hidden_dim, 2 * hidden_dim, &rng_),
      gate_c_(task.input_dim + hidden_dim, hidden_dim, &rng_),
      head_(hidden_dim, task.horizon, &rng_) {
  RegisterChild("gate_zr", &gate_zr_);
  RegisterChild("gate_c", &gate_c_);
  RegisterChild("head", &head_);
}

Variable HgcRnn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes;
  Variable h(tensor::Tensor::Zeros({batch, n, hidden_dim_}));
  for (int64_t t = 0; t < task_.history; ++t) {
    // GRU whose transforms see hypergraph-convolved features.
    Variable xh = HyperConv(hyper_op_, ag::Concat({StepSlice(input, t), h}, 2));
    Variable zr = ag::Sigmoid(gate_zr_.Forward(xh));
    Variable z = ag::Slice(zr, 2, 0, hidden_dim_);
    Variable r = ag::Slice(zr, 2, hidden_dim_, hidden_dim_);
    Variable xrh = HyperConv(
        hyper_op_, ag::Concat({StepSlice(input, t), ag::Mul(r, h)}, 2));
    Variable c = ag::Tanh(gate_c_.Forward(xrh));
    Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
    h = ag::Add(ag::Mul(z, h), ag::Mul(one_minus_z, c));
  }
  Variable out = ag::TransposePerm(head_.Forward(h), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// ---------------------------------------------------------------- Dhgnn --

namespace {

// DHGNN's kNN + k-means construction (no gradient through structure) over
// one window's node signatures (n x steps): appends its incidence, with
// node ids from `node_base` and hyperedge ids from `edge_base`, so the
// windows of a batch form one block-diagonal hypergraph.
void AppendDhgnnIncidence(const T::Tensor& signatures, int64_t num_clusters,
                          int64_t knn_k, int64_t node_base, int64_t edge_base,
                          std::vector<T::Triplet>* incidence) {
  const int64_t n = signatures.size(0);
  Rng structure_rng(29);
  // Cluster hyperedges (k-means) plus kNN hyperedges around each node.
  std::vector<int64_t> labels = hypergraph::KMeansLabels(
      signatures, std::min(num_clusters, n), 5, &structure_rng);
  for (int64_t i = 0; i < n; ++i) {
    incidence->push_back({node_base + i, edge_base + labels[i], 1.0f});
  }
  T::CsrMatrix knn = graph::KnnGraph(signatures, std::min(knn_k, n - 1));
  const int64_t knn_base = edge_base + num_clusters;
  for (int64_t i = 0; i < n; ++i) {
    // Node i joins its own kNN hyperedge.
    incidence->push_back({node_base + i, knn_base + i, 1.0f});
    for (int64_t k = knn.row_ptr()[i]; k < knn.row_ptr()[i + 1]; ++k) {
      incidence->push_back({node_base + knn.col_idx()[k], knn_base + i, 1.0f});
    }
  }
}

}  // namespace

Dhgnn::Dhgnn(const train::ForecastTask& task, int64_t hidden_dim,
             int64_t num_clusters, int64_t knn, uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      num_clusters_(num_clusters),
      knn_(knn),
      encoder_(task.input_dim, hidden_dim, &rng_),
      hconv1_(hidden_dim, hidden_dim, &rng_),
      hconv2_(hidden_dim, hidden_dim, &rng_),
      head_(hidden_dim, task.horizon, &rng_) {
  RegisterChild("encoder", &encoder_);
  RegisterChild("hconv1", &hconv1_);
  RegisterChild("hconv2", &hconv2_);
  RegisterChild("head", &head_);
}

Variable Dhgnn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  int64_t batch = x.size(0), t_in = x.size(1), n = x.size(2), f = x.size(3);
  // Each window's hypergraph comes from that window's node signatures (its
  // flow feature over time) alone, as in the reference DHGNN, so a
  // window's forecast does not depend on its batch-mates.
  const int64_t edges = num_clusters_ + n;
  std::vector<T::Triplet> incidence;
  T::Tensor signatures({n, t_in});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t t = 0; t < t_in; ++t) {
      for (int64_t i = 0; i < n; ++i) {
        signatures.data()[i * t_in + t] =
            x.data()[((b * t_in + t) * n + i) * f];
      }
    }
    AppendDhgnnIncidence(signatures, num_clusters_, knn_, b * n, b * edges,
                         &incidence);
  }
  hypergraph::FactoredIncidence hyper_op =
      hypergraph::Hypergraph(batch * n, batch * edges,
                             T::CsrMatrix::FromTriplets(batch * n,
                                                        batch * edges,
                                                        std::move(incidence)))
          .FactoredOperator();

  // Temporal encoding (shared GRU per node), then hypergraph convolutions.
  Variable input(x);
  Variable seq = ag::Reshape(ag::TransposePerm(input, {0, 2, 1, 3}),
                             {batch * n, t_in, f});
  Variable h(tensor::Tensor::Zeros({batch * n, hidden_dim_}));
  for (int64_t t = 0; t < t_in; ++t) {
    Variable xt = ag::Reshape(ag::Slice(seq, 1, t, 1), {batch * n, f});
    h = encoder_.Forward(xt, h);
  }
  // All windows' nodes as one block-diagonal graph of batch * n nodes.
  Variable node_h = ag::Reshape(h, {1, batch * n, hidden_dim_});
  Variable g1 = ag::Relu(hconv1_.Forward(HyperConv(hyper_op, node_h)));
  Variable g2 = ag::Relu(hconv2_.Forward(HyperConv(hyper_op, g1)));
  Variable mixed = ag::Reshape(ag::Add(node_h, g2), {batch, n, hidden_dim_});
  Variable out = ag::TransposePerm(head_.Forward(mixed), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

// --------------------------------------------------------------- StgOde --

StgOde::StgOde(const train::ForecastTask& task, int64_t hidden_dim,
               int64_t rk4_steps, uint64_t seed)
    : GnnModelBase(task, seed),
      hidden_dim_(hidden_dim),
      rk4_steps_(rk4_steps),
      sym_adj_(SymAdj(task.spatial_adj)),
      encoder_(task.input_dim, hidden_dim, &rng_),
      field_proj_(hidden_dim, hidden_dim, &rng_),
      head_(hidden_dim, task.horizon, &rng_) {
  RegisterChild("encoder", &encoder_);
  RegisterChild("field_proj", &field_proj_);
  RegisterChild("head", &head_);
}

Variable StgOde::OdeField(const Variable& h) const {
  // dh/dt = tanh(A h W) - h : diffusion toward graph-smoothed features.
  return ag::Sub(ag::Tanh(field_proj_.Forward(ag::SpMM(sym_adj_, h))), h);
}

Variable StgOde::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes, f = task_.input_dim;
  // Temporal encoding per node.
  Variable seq = ag::Reshape(ag::TransposePerm(input, {0, 2, 1, 3}),
                             {batch * n, task_.history, f});
  Variable h(tensor::Tensor::Zeros({batch * n, encoder_.hidden_dim()}));
  for (int64_t t = 0; t < task_.history; ++t) {
    Variable xt = ag::Reshape(ag::Slice(seq, 1, t, 1), {batch * n, f});
    h = encoder_.Forward(xt, h);
  }
  Variable state = ag::Reshape(h, {batch, n, hidden_dim_});
  // RK4 integration of the graph ODE over [0, 1].
  float dt = 1.0f / static_cast<float>(rk4_steps_);
  for (int64_t s = 0; s < rk4_steps_; ++s) {
    Variable k1 = OdeField(state);
    Variable k2 = OdeField(ag::Add(state, ag::MulScalar(k1, dt / 2)));
    Variable k3 = OdeField(ag::Add(state, ag::MulScalar(k2, dt / 2)));
    Variable k4 = OdeField(ag::Add(state, ag::MulScalar(k3, dt)));
    Variable incr = ag::Add(ag::Add(k1, ag::MulScalar(k2, 2.0f)),
                            ag::Add(ag::MulScalar(k3, 2.0f), k4));
    state = ag::Add(state, ag::MulScalar(incr, dt / 6.0f));
  }
  Variable out = ag::TransposePerm(head_.Forward(state), {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

}  // namespace dyhsl::baselines
