// Dense-vs-sparse crossover benchmark for the structure operators.
//
//   $ ./build/bench_sparse                     # prints a table
//   $ ./build/bench_sparse --check-floor=1.0   # + fail if sparse loses at
//                                              #   N=1024 graph propagation
//
// Two operator families, each timed dense (materialized (N,N) GEMM) and
// sparse at N ∈ {207, 512, 1024, 2048}:
//
//  * graph       — symmetric-normalized road adjacency × (N, d) features,
//                  the per-step propagation of every graph baseline and
//                  (via the temporal graph) the DyHSL prior encoder
//  * hypergraph  — predefined-district propagation G = D_v⁻¹ Λ D_e⁻¹ Λᵀ,
//                  timed as the materialized product operator and as the
//                  factored two-SpMM form
//
// Results land in BENCH_sparse.json (override with DYHSL_BENCH_OUT). The
// CI regression floor (--check-floor=X) is the graph propagation speedup
// at N=1024.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/parallel.h"
#include "src/core/profile.h"
#include "src/core/rng.h"
#include "src/hypergraph/hypergraph.h"
#include "src/tensor/ops.h"
#include "src/tensor/sparse.h"
#include "src/tensor/tensor.h"

namespace dyhsl::bench {
namespace {

namespace T = ::dyhsl::tensor;
using Clock = std::chrono::steady_clock;

constexpr int64_t kFeatureDim = 64;
constexpr int64_t kHyperedgesPerNodeGroup = 16;  // |e| ~ 2 * group size

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Ring road network with ±1..±3 neighbors: average degree 6, the ballpark
// of real sensor graphs (PEMS adjacencies average 3-8 neighbors).
T::CsrMatrix RingRoadNetwork(int64_t n) {
  std::vector<T::Triplet> edges;
  edges.reserve(n * 6);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t hop = 1; hop <= 3; ++hop) {
      edges.push_back({i, (i + hop) % n, 1.0f / hop});
      edges.push_back({i, (i - hop + n) % n, 1.0f / hop});
    }
  }
  return T::CsrMatrix::FromTriplets(n, n, std::move(edges));
}

// District hypergraph: contiguous groups of kHyperedgesPerNodeGroup nodes,
// each node also joining the next group (overlap makes |e| ~ 32).
T::CsrMatrix DistrictIncidence(int64_t n) {
  int64_t num_edges = (n + kHyperedgesPerNodeGroup - 1) /
                      kHyperedgesPerNodeGroup;
  std::vector<T::Triplet> inc;
  inc.reserve(2 * n);
  for (int64_t i = 0; i < n; ++i) {
    int64_t e = i / kHyperedgesPerNodeGroup;
    inc.push_back({i, e, 1.0f});
    inc.push_back({i, (e + 1) % num_edges, 0.5f});
  }
  return T::CsrMatrix::FromTriplets(n, num_edges, std::move(inc));
}

// CSR copy of the entries of a dense (rows, cols) matrix with |v| >= eps.
T::CsrMatrix Sparsify(const T::Tensor& dense, float eps) {
  const int64_t rows = dense.size(0), cols = dense.size(1);
  std::vector<T::Triplet> trips;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const float v = dense.data()[r * cols + c];
      if (std::fabs(v) >= eps) trips.push_back({r, c, v});
    }
  }
  return T::CsrMatrix::FromTriplets(rows, cols, std::move(trips));
}

// Best-of-`rounds` mean ms per call, dense and sparse bursts interleaved
// so machine-state drift cannot bias one side.
struct Timed {
  double dense_ms = 1e30;
  double sparse_ms = 1e30;
};

template <typename DenseFn, typename SparseFn>
Timed TimePair(DenseFn dense, SparseFn sparse, int iters, int rounds) {
  dense();  // warm both paths (page-in, allocator growth)
  sparse();
  Timed best;
  for (int r = 0; r < rounds; ++r) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < iters; ++i) dense();
    best.dense_ms = std::min(best.dense_ms, MsSince(t0) / iters);
    t0 = Clock::now();
    for (int i = 0; i < iters; ++i) sparse();
    best.sparse_ms = std::min(best.sparse_ms, MsSince(t0) / iters);
  }
  return best;
}

struct Entry {
  const char* op;
  int64_t nodes;
  int64_t nnz;
  double dense_ms;
  double sparse_ms;
  double extra_ms;  // hypergraph: factored form; otherwise 0
  double speedup;
};

volatile float g_sink;

}  // namespace
}  // namespace dyhsl::bench

int main(int argc, char** argv) {
  using namespace dyhsl;
  using namespace dyhsl::bench;
  ConfigureParallelism();
  double check_floor = -1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--check-floor=", 14) == 0) {
      check_floor = std::atof(argv[i] + 14);
    }
  }
  RunProfile profile = GetRunProfile();
  const int iters = profile == RunProfile::kTiny ? 3 : 10;
  const int rounds = profile == RunProfile::kTiny ? 3 : 5;

  Rng rng(7);
  std::vector<int64_t> sizes = {207, 512, 1024, 2048};
  std::vector<Entry> entries;

  std::printf("=== bench_sparse (d=%lld, %s profile) ===\n",
              static_cast<long long>(kFeatureDim), RunProfileName(profile));
  std::printf("%-12s %6s %10s %11s %11s %9s\n", "op", "N", "nnz",
              "dense ms", "sparse ms", "speedup");

  for (int64_t n : sizes) {
    // --- graph propagation: A X ---------------------------------------
    T::CsrMatrix adj = RingRoadNetwork(n).WithSelfLoops().SymNormalized();
    T::Tensor adj_dense = adj.ToDense();
    T::Tensor x = T::Tensor::Randn({n, kFeatureDim}, &rng, 0.5f);
    Timed graph = TimePair(
        [&] { g_sink = T::MatMul(adj_dense, x).data()[0]; },
        [&] { g_sink = T::SpMM(adj, x).data()[0]; }, iters, rounds);
    entries.push_back({"graph", n, adj.nnz(), graph.dense_ms,
                       graph.sparse_ms, 0.0,
                       graph.dense_ms / graph.sparse_ms});

    // --- hypergraph propagation: G X (product vs factored) ------------
    T::CsrMatrix inc = DistrictIncidence(n);
    hypergraph::Hypergraph hg(n, inc.cols(), inc);
    hypergraph::FactoredIncidence factors = hg.FactoredOperator();
    const T::CsrMatrix& n2e = factors.node_to_edge.matrix();
    const T::CsrMatrix& e2n = factors.edge_to_node.matrix();
    // Materialized product G = e2n * n2e via the dense route (bench setup
    // only), then re-sparsified for the sparse product timing.
    T::Tensor g_dense = T::MatMul(e2n.ToDense(), n2e.ToDense());
    T::CsrMatrix g_sparse = Sparsify(g_dense, 1e-12f);
    Timed hyper = TimePair(
        [&] { g_sink = T::MatMul(g_dense, x).data()[0]; },
        [&] { g_sink = T::SpMM(g_sparse, x).data()[0]; }, iters, rounds);
    Clock::time_point tf = Clock::now();
    for (int i = 0; i < iters; ++i) {
      g_sink = T::SpMM(e2n, T::SpMM(n2e, x)).data()[0];
    }
    double factored_ms = MsSince(tf) / iters;
    double hyper_best = std::min(hyper.sparse_ms, factored_ms);
    entries.push_back({"hypergraph", n, g_sparse.nnz(), hyper.dense_ms,
                       hyper.sparse_ms, factored_ms,
                       hyper.dense_ms / hyper_best});

    for (size_t i = entries.size() - 2; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      std::printf("%-12s %6lld %10lld %11.3f %11.3f %8.2fx\n", e.op,
                  static_cast<long long>(e.nodes),
                  static_cast<long long>(e.nnz), e.dense_ms, e.sparse_ms,
                  e.speedup);
    }
  }

  // JSON artifact.
  const char* out_env = std::getenv("DYHSL_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_sparse.json";
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  double floor_speedup = 0.0;
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"profile\": \"%s\",\n", RunProfileName(profile));
  std::fprintf(out, "  \"feature_dim\": %lld,\n",
               static_cast<long long>(kFeatureDim));
  std::fprintf(out, "  \"entries\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (std::strcmp(e.op, "graph") == 0 && e.nodes == 1024) {
      floor_speedup = e.speedup;
    }
    std::fprintf(out,
                 "    {\"op\": \"%s\", \"nodes\": %lld, \"nnz\": %lld, "
                 "\"dense_ms\": %.4f, \"sparse_ms\": %.4f, "
                 "\"factored_ms\": %.4f, \"speedup\": %.3f}%s\n",
                 e.op, static_cast<long long>(e.nodes),
                 static_cast<long long>(e.nnz), e.dense_ms, e.sparse_ms,
                 e.extra_ms, e.speedup, i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"floor\": {\"op\": \"graph\", \"nodes\": 1024, "
               "\"speedup\": %.3f}\n",
               floor_speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (check_floor > 0.0 && floor_speedup < check_floor) {
    std::fprintf(stderr,
                 "FAIL: graph propagation speedup %.3f at N=1024 is below "
                 "the required floor %.3f\n",
                 floor_speedup, check_floor);
    return 1;
  }
  return 0;
}
