#include "src/nn/layers.h"

#include <cmath>
#include <utility>

#include "src/autograd/inference.h"
#include "src/core/check.h"
#include "src/nn/init.h"
#include "src/tensor/ops.h"
#include "src/tensor/sparse.h"

namespace dyhsl::nn {

namespace ag = ::dyhsl::autograd;

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  weight_ = RegisterParameter(
      "weight", GlorotUniform2D(in_features, out_features, rng));
  if (bias) {
    bias_ = RegisterParameter("bias", tensor::Tensor::Zeros({out_features}));
  }
}

Variable Linear::Forward(const Variable& x) const {
  DYHSL_CHECK_EQ(x.size(-1), in_features_);
  // Fold every leading axis into rows, multiply, restore.
  tensor::Shape out_shape = x.shape();
  out_shape.back() = out_features_;
  Variable x2 = x.dim() == 2 ? x : ag::Reshape(x, {-1, in_features_});
  Variable y = bias_.defined() ? ag::Affine(x2, weight_, bias_)
                               : ag::MatMul(x2, weight_);
  if (x.dim() != 2) y = ag::Reshape(y, std::move(out_shape));
  return y;
}

tensor::Tensor Linear::ForwardFused(const tensor::Tensor& x,
                                   tensor::GemmEpilogue epilogue) const {
  DYHSL_CHECK_EQ(x.size(-1), in_features_);
  tensor::Shape out_shape = x.shape();
  out_shape.back() = out_features_;
  tensor::Tensor y({x.numel() / in_features_, out_features_});
  if (bias_.defined()) epilogue.bias = bias_.value().data();
  tensor::MatMulInto(x.Reshape({-1, in_features_}), weight_.value(), false,
                     false, /*beta=*/0.0f, &y, &epilogue);
  return y.Reshape(std::move(out_shape));
}

Embedding::Embedding(int64_t count, int64_t dim, Rng* rng) {
  weight_ = RegisterParameter(
      "weight", tensor::Tensor::Randn({count, dim}, rng, 0.1f));
}

Variable Embedding::Forward(const std::vector<int64_t>& indices) const {
  return ag::EmbeddingLookup(weight_, indices);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", tensor::Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", tensor::Tensor::Zeros({dim}));
}

Variable LayerNorm::Forward(Variable x) const {
  return ag::LayerNormLastAxis(std::move(x), gamma_, beta_, eps_);
}

GruCell::GruCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : hidden_dim_(hidden_dim),
      x_gates_(input_dim, 3 * hidden_dim, rng, /*bias=*/true),
      h_gates_(hidden_dim, 3 * hidden_dim, rng, /*bias=*/false) {
  RegisterChild("x_gates", &x_gates_);
  RegisterChild("h_gates", &h_gates_);
}

Variable GruCell::Forward(const Variable& x, const Variable& h) const {
  Variable gx = x_gates_.Forward(x);  // (B, 3d)
  Variable gh = h_gates_.Forward(h);
  int64_t d = hidden_dim_;
  Variable z = ag::Sigmoid(ag::Add(ag::Slice(gx, -1, 0, d),
                                   ag::Slice(gh, -1, 0, d)));
  Variable r = ag::Sigmoid(ag::Add(ag::Slice(gx, -1, d, d),
                                   ag::Slice(gh, -1, d, d)));
  Variable c = ag::Tanh(ag::Add(ag::Slice(gx, -1, 2 * d, d),
                                ag::Mul(r, ag::Slice(gh, -1, 2 * d, d))));
  // h' = (1 - z) * h + z * c
  Variable one_minus_z = ag::AddScalar(ag::Neg(z), 1.0f);
  return ag::Add(ag::Mul(one_minus_z, h), ag::Mul(z, c));
}

LstmCell::LstmCell(int64_t input_dim, int64_t hidden_dim, Rng* rng)
    : hidden_dim_(hidden_dim),
      x_gates_(input_dim, 4 * hidden_dim, rng, /*bias=*/true),
      h_gates_(hidden_dim, 4 * hidden_dim, rng, /*bias=*/false) {
  RegisterChild("x_gates", &x_gates_);
  RegisterChild("h_gates", &h_gates_);
}

LstmCell::State LstmCell::Forward(const Variable& x, const State& state) const {
  Variable gates = ag::Add(x_gates_.Forward(x), h_gates_.Forward(state.h));
  int64_t d = hidden_dim_;
  Variable i = ag::Sigmoid(ag::Slice(gates, -1, 0, d));
  Variable f = ag::Sigmoid(ag::Slice(gates, -1, d, d));
  Variable g = ag::Tanh(ag::Slice(gates, -1, 2 * d, d));
  Variable o = ag::Sigmoid(ag::Slice(gates, -1, 3 * d, d));
  Variable c = ag::Add(ag::Mul(f, state.c), ag::Mul(i, g));
  Variable h = ag::Mul(o, ag::Tanh(c));
  return State{h, c};
}

LstmCell::State LstmCell::InitialState(int64_t batch) const {
  return State{Variable(tensor::Tensor::Zeros({batch, hidden_dim_})),
               Variable(tensor::Tensor::Zeros({batch, hidden_dim_}))};
}

Conv1dLayer::Conv1dLayer(int64_t in_channels, int64_t out_channels,
                         int64_t kernel_size, Rng* rng, int64_t dilation,
                         bool causal, bool bias)
    : out_channels_(out_channels),
      kernel_size_(kernel_size),
      dilation_(dilation),
      causal_(causal) {
  int64_t fan_in = in_channels * kernel_size;
  weight_ = RegisterParameter(
      "weight",
      GlorotUniform({out_channels, in_channels, kernel_size}, fan_in,
                    out_channels, rng));
  if (bias) {
    bias_ = RegisterParameter("bias",
                              tensor::Tensor::Zeros({out_channels, 1}));
  }
}

Variable Conv1dLayer::Convolve(const Variable& x, const Variable& weight,
                              const Variable& bias) const {
  int64_t reach = (kernel_size_ - 1) * dilation_;
  int64_t pad_left = causal_ ? reach : reach / 2;
  int64_t pad_right = reach - pad_left;
  return ag::TemporalConv(x, weight, bias, dilation_, pad_left, pad_right);
}

Variable Conv1dLayer::Forward(const Variable& x) const {
  return Convolve(x, weight_, bias_);
}

Variable Conv1dLayer::ForwardChannels(const Variable& x, int64_t begin,
                                      int64_t count) const {
  DYHSL_CHECK(begin >= 0 && count > 0 && begin + count <= out_channels_);
  Variable bias;
  if (bias_.defined()) bias = ag::Slice(bias_, 0, begin, count);
  return Convolve(x, ag::Slice(weight_, 0, begin, count), bias);
}

DiffusionConv::DiffusionConv(int64_t in_dim, int64_t out_dim, int64_t steps,
                             Rng* rng)
    : steps_(steps) {
  DYHSL_CHECK_GE(steps, 1);
  for (int64_t k = 0; k <= steps; ++k) {
    fw_proj_.push_back(std::make_unique<Linear>(in_dim, out_dim, rng,
                                                /*bias=*/k == 0));
    RegisterChild("fw" + std::to_string(k), fw_proj_.back().get());
    if (k > 0) {
      bw_proj_.push_back(std::make_unique<Linear>(in_dim, out_dim, rng,
                                                  /*bias=*/false));
      RegisterChild("bw" + std::to_string(k), bw_proj_.back().get());
    }
  }
}

Variable DiffusionConv::Forward(const autograd::SparseConstant& fw,
                                const autograd::SparseConstant& bw,
                                const Variable& x) const {
  if (ag::InferenceModeEnabled()) {
    // Grad-free fast path: accumulate every diffusion term into ONE
    // output buffer (the k = 0 projection with its bias, then beta = 1
    // GEMMs) instead of materializing 2 * steps + 1 projection outputs
    // and folding them with as many Adds. At serving batch sizes the taped
    // chain is memory-bound on those extra output passes. Bit-identical to
    // the chain: each projection's K fits a single GEMM panel, so the
    // beta = 1 store is the same elementwise add the chain performs.
    const tensor::Tensor& xv = x.value();
    const int64_t in_dim = xv.size(-1);
    const int64_t out_dim = fw_proj_[0]->out_features();
    tensor::Shape out_shape = xv.shape();
    out_shape.back() = out_dim;
    tensor::Tensor y =
        fw_proj_[0]->ForwardFused(xv, {}).Reshape({-1, out_dim});
    tensor::Tensor xf = xv;
    tensor::Tensor xb = xv;
    for (int64_t k = 1; k <= steps_; ++k) {
      xf = tensor::SpMM(fw.matrix(), xf);
      tensor::MatMulInto(xf.dim() == 2 ? xf : xf.Reshape({-1, in_dim}),
                         fw_proj_[k]->weight().value(), false, false,
                         /*beta=*/1.0f, &y);
      xb = tensor::SpMM(bw.matrix(), xb);
      tensor::MatMulInto(xb.dim() == 2 ? xb : xb.Reshape({-1, in_dim}),
                         bw_proj_[k - 1]->weight().value(), false, false,
                         /*beta=*/1.0f, &y);
    }
    return Variable(y.Reshape(std::move(out_shape)));
  }
  Variable out = fw_proj_[0]->Forward(x);  // k = 0 term (identity)
  Variable xf = x;
  Variable xb = x;
  for (int64_t k = 1; k <= steps_; ++k) {
    xf = ag::SpMM(fw, xf);
    out = ag::Add(out, fw_proj_[k]->Forward(xf));
    xb = ag::SpMM(bw, xb);
    out = ag::Add(out, bw_proj_[k - 1]->Forward(xb));
  }
  return out;
}

}  // namespace dyhsl::nn
