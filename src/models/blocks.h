// The three building blocks of DyHSL (paper sections IV-A/B/C):
// PriorGraphEncoder, DhslBlock (dynamic hypergraph structure learning) and
// IgcBlock (interactive graph convolution).

#ifndef DYHSL_MODELS_BLOCKS_H_
#define DYHSL_MODELS_BLOCKS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/autograd/ops.h"
#include "src/autograd/variable.h"
#include "src/core/rng.h"
#include "src/nn/layers.h"
#include "src/nn/module.h"
#include "src/tensor/sparse.h"

namespace dyhsl::models {

using autograd::Variable;

/// \brief Prior graph encoder (paper IV-A): input projection, spatial and
/// temporal embeddings, then Lp rounds of graph convolution on the temporal
/// graph of Eq. 4/5.
class PriorGraphEncoder : public nn::Module {
 public:
  PriorGraphEncoder(int64_t num_nodes, int64_t history, int64_t input_dim,
                    int64_t hidden_dim, int64_t num_layers,
                    autograd::SparseConstant temporal_op, Rng* rng,
                    bool residual = true);

  /// \brief x: (B, T, N, F) -> hidden states (B, T*N, d), rows time-major.
  Variable Forward(const Variable& x) const;

 private:
  int64_t num_nodes_;
  int64_t history_;
  int64_t hidden_dim_;
  bool residual_;
  autograd::SparseConstant temporal_op_;
  nn::Linear input_proj_;
  nn::Embedding node_embedding_;
  nn::Embedding step_embedding_;
  std::vector<std::unique_ptr<nn::Linear>> conv_;
};

/// \brief How the DHSL block obtains its incidence matrix. kLowRank is the
/// paper's method (Eq. 6); the others are the Table V ablations.
enum class StructureLearning : int {
  /// Λ = H W with learnable W (paper row "DHSL").
  kLowRank = 0,
  /// Fixed random Λ direction: hypergraph conv without structure
  /// *learning* (paper row "NSL").
  kFixedRandom = 1,
  /// Full learnable dense adjacency replacing the hypergraph factorization
  /// (paper row "FS"); one (R x R) parameter per sequence length R.
  kFromScratch = 2,
};

/// \brief Dynamic Hypergraph Structure Learning block (paper IV-B).
///
/// Given stacked states H (B, R, d) where R = (T/eps) * N:
///   Λ = H W                      (Eq. 6, low-rank incidence)
///   E = φ(U ΛᵀH) + ΛᵀH           (Eq. 7, hyperedge embeddings)
///   F = Λ E                      (Eq. 8, node update)
/// Aggregations are scaled by 1/sqrt(R) resp. 1/sqrt(I) to keep magnitudes
/// bounded across sequence lengths (implementation detail; the equations
/// are otherwise verbatim).
class DhslBlock : public nn::Module {
 public:
  DhslBlock(int64_t hidden_dim, int64_t num_hyperedges, Rng* rng,
            StructureLearning mode = StructureLearning::kLowRank);

  /// \brief One hypergraph convolution pass over H (B, R, d).
  Variable Forward(const Variable& h) const;

  /// \brief Grad-free Eq. 13 mix ½(Forward(h) + other) for `other` of h's
  /// shape, with the sum and the halving fused into the last GEMM's
  /// write-back. Bit-identical to the op chain.
  tensor::Tensor ForwardMixed(const tensor::Tensor& h,
                              const tensor::Tensor& other) const;

  /// \brief The incidence matrix Λ (B, R, I) for analysis (paper Fig. 7).
  Variable Incidence(const Variable& h) const;

  StructureLearning mode() const { return mode_; }

  /// \brief kFromScratch needs one (R x R) adjacency per sequence length;
  /// lengths must be declared before use (the model registers its scales).
  void RegisterSequenceLength(int64_t rows, Rng* rng);

 private:
  /// kFromScratch's adjacency for a registered sequence length.
  const Variable& ScratchAdjacency(int64_t rows) const;
  /// Grad-free Forward (other == nullptr) or ForwardMixed.
  tensor::Tensor FusedForward(const tensor::Tensor& h,
                              const tensor::Tensor* other = nullptr) const;

  int64_t hidden_dim_;
  int64_t num_hyperedges_;
  StructureLearning mode_;
  Variable incidence_weight_;  // (d, I); parameter for kLowRank,
                               // constant for kFixedRandom
  Variable edge_mixer_;        // U: (I, I)
  std::vector<std::pair<int64_t, Variable>> scratch_adj_;  // (R, (R,R))
};

/// \brief Interactive Graph Convolution block (paper IV-C):
///   M = Ā H                        (shared neighborhood aggregation)
///   π = φ(M W1 ⊙ M W2)             (Eq. 11, second-order interaction)
///   r = π + φ(M W3)                (Eq. 12, plus linear aggregation)
class IgcBlock : public nn::Module {
 public:
  IgcBlock(int64_t hidden_dim, Rng* rng);

  /// \brief h: (B, R, d); `adj` is the row-normalized temporal graph of the
  /// current scale (R x R).
  Variable Forward(const autograd::SparseConstant& adj,
                   const Variable& h) const;

 private:
  nn::Linear w1_;
  nn::Linear w2_;
  nn::Linear w3_;
};

}  // namespace dyhsl::models

#endif  // DYHSL_MODELS_BLOCKS_H_
