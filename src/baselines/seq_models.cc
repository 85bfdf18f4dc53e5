#include "src/baselines/seq_models.h"

#include <cmath>

#include "src/autograd/ops.h"
#include "src/core/check.h"

namespace dyhsl::baselines {

namespace ag = ::dyhsl::autograd;
namespace T = ::dyhsl::tensor;

namespace {

// Extracts the scaled-flow channel: (B, T, N, F) -> (B, T, N).
Variable FlowChannel(const Variable& x) {
  Variable flow = ag::Slice(x, 3, 0, 1);
  return ag::Reshape(flow, {x.size(0), x.size(1), x.size(2)});
}

}  // namespace

FcLstm::FcLstm(const train::ForecastTask& task, int64_t hidden_dim,
               uint64_t seed)
    : task_(task),
      rng_(seed),
      cell_(task.num_nodes, hidden_dim, &rng_),
      head_(hidden_dim, task.num_nodes * task.horizon, &rng_) {
  RegisterChild("cell", &cell_);
  RegisterChild("head", &head_);
}

Variable FcLstm::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0);
  Variable flow = FlowChannel(input);  // (B, T, N)
  nn::LstmCell::State state = cell_.InitialState(batch);
  for (int64_t t = 0; t < task_.history; ++t) {
    Variable xt = ag::Reshape(ag::Slice(flow, 1, t, 1),
                              {batch, task_.num_nodes});
    state = cell_.Forward(xt, state);
  }
  Variable out = head_.Forward(state.h);  // (B, T' * N)
  out = ag::Reshape(out, {batch, task_.horizon, task_.num_nodes});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

Tcn::Tcn(const train::ForecastTask& task, int64_t channels, int64_t levels,
         bool causal, uint64_t seed)
    : task_(task), causal_(causal), rng_(seed),
      head_(channels, task.horizon, &rng_) {
  input_conv_ = std::make_unique<nn::Conv1dLayer>(
      task.input_dim, channels, /*kernel=*/2, &rng_, /*dilation=*/1, causal);
  RegisterChild("input_conv", input_conv_.get());
  for (int64_t l = 0; l < levels; ++l) {
    convs_.push_back(std::make_unique<nn::Conv1dLayer>(
        channels, channels, /*kernel=*/2, &rng_,
        /*dilation=*/int64_t{1} << (l + 1), causal));
    RegisterChild("conv" + std::to_string(l), convs_.back().get());
  }
  RegisterChild("head", &head_);
}

Variable Tcn::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), t_in = x.size(1), n = x.size(2);
  // Channels-last: sensors are the conv's rows, (B, T, N, F) -> (B, T, N, C).
  Variable h = ag::Relu(input_conv_->Forward(input));
  for (const auto& conv : convs_) {
    h = ag::Add(h, ag::Relu(conv->Forward(h)));  // residual block
  }
  // Readout from the final step's channel vector.
  Variable last = ag::Slice(h, 1, t_in - 1, 1);  // (B, 1, N, C)
  last = ag::Reshape(last, {batch * n, h.size(3)});
  Variable out = head_.Forward(last);  // (B*N, T')
  out = ag::Reshape(out, {batch, n, task_.horizon});
  out = ag::TransposePerm(out, {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

GruEd::GruEd(const train::ForecastTask& task, int64_t hidden_dim,
             uint64_t seed)
    : task_(task),
      rng_(seed),
      encoder_(task.input_dim, hidden_dim, &rng_),
      decoder_(1, hidden_dim, &rng_),
      readout_(hidden_dim, 1, &rng_) {
  RegisterChild("encoder", &encoder_);
  RegisterChild("decoder", &decoder_);
  RegisterChild("readout", &readout_);
}

Variable GruEd::Forward(const tensor::Tensor& x, bool training) {
  (void)training;
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes, f = task_.input_dim;
  // Shared weights across sensors: fold N into the batch.
  Variable seq = ag::TransposePerm(input, {0, 2, 1, 3});  // (B, N, T, F)
  seq = ag::Reshape(seq, {batch * n, task_.history, f});
  Variable h(tensor::Tensor::Zeros({batch * n, encoder_.hidden_dim()}));
  for (int64_t t = 0; t < task_.history; ++t) {
    Variable xt = ag::Reshape(ag::Slice(seq, 1, t, 1), {batch * n, f});
    h = encoder_.Forward(xt, h);
  }
  // Autoregressive decoding in scaled space.
  Variable prev = ag::Reshape(
      ag::Slice(ag::Reshape(seq, {batch * n, task_.history * f}), 1,
                (task_.history - 1) * f, 1),
      {batch * n, 1});
  std::vector<Variable> steps;
  for (int64_t t = 0; t < task_.horizon; ++t) {
    h = decoder_.Forward(prev, h);
    prev = readout_.Forward(h);  // (B*N, 1)
    steps.push_back(prev);
  }
  Variable out = ag::Concat(steps, 1);              // (B*N, T')
  out = ag::Reshape(out, {batch, n, task_.horizon});
  out = ag::TransposePerm(out, {0, 2, 1});          // (B, T', N)
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

DsaNet::DsaNet(const train::ForecastTask& task, int64_t hidden_dim,
               uint64_t seed)
    : task_(task),
      hidden_dim_(hidden_dim),
      rng_(seed),
      temporal_conv_(task.input_dim, hidden_dim, /*kernel=*/3, &rng_,
                     /*dilation=*/1, /*causal=*/true),
      query_(hidden_dim, hidden_dim, &rng_, /*bias=*/false),
      key_(hidden_dim, hidden_dim, &rng_, /*bias=*/false),
      value_(hidden_dim, hidden_dim, &rng_),
      norm_(hidden_dim),
      head_(2 * hidden_dim, task.horizon, &rng_) {
  RegisterChild("temporal_conv", &temporal_conv_);
  RegisterChild("query", &query_);
  RegisterChild("key", &key_);
  RegisterChild("value", &value_);
  RegisterChild("norm", &norm_);
  RegisterChild("head", &head_);
}

Variable DsaNet::Forward(const tensor::Tensor& x, bool training) {
  Variable input(x);
  int64_t batch = x.size(0), n = task_.num_nodes;
  // Temporal convolution per sensor, channels-last: (B, T, N, C).
  Variable conv = ag::Relu(temporal_conv_.Forward(input));
  Variable feat = ag::Reshape(
      ag::Slice(conv, 1, task_.history - 1, 1), {batch, n, hidden_dim_});
  // Self-attention across sensors.
  Variable q = query_.Forward(feat);
  Variable k = key_.Forward(feat);
  Variable v = value_.Forward(feat);
  float scale = 1.0f / std::sqrt(static_cast<float>(hidden_dim_));
  Variable scores = ag::MulScalar(
      ag::BatchedMatMul(q, k, false, /*trans_b=*/true), scale);  // (B, N, N)
  Variable attn = ag::SoftmaxLastAxis(scores);
  attn = ag::Dropout(attn, 0.1f, training, &rng_);
  Variable mixed = norm_.Forward(ag::BatchedMatMul(attn, v));  // (B, N, C)
  Variable out = head_.Forward(ag::Concat({mixed, feat}, 2));  // (B, N, T')
  out = ag::TransposePerm(out, {0, 2, 1});
  return train::Descale(out, task_.scaler_mean, task_.scaler_std);
}

}  // namespace dyhsl::baselines
