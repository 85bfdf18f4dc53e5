// Process-wide cache of prepacked GEMM operands — the inference-plan
// layer that lets serving skip re-packing frozen checkpoint weights on
// every forward.
//
// Lifecycle
//  * Enroll(weight): registers a 2-D tensor as a prepack candidate and
//    eagerly packs its no-trans B-side panels (the orientation every
//    Linear/Affine/DiffusionConv weight in this repo uses). The cache
//    keeps a reference to the tensor's storage, so the pointer key can
//    never be recycled by an unrelated allocation while enrolled.
//  * Lookup(ptr, side, trans, ...): returns the packed panels for an
//    enrolled pointer, packing lazily on first use of a new (side, trans)
//    orientation — this also covers repacking after an invalidation.
//    Pointers that were never enrolled return null without touching any
//    counter (activations flow through here on every GEMM).
//  * Invalidate(ptr): drops the packed panels of an enrolled pointer and
//    bumps the generation — called by train::LoadCheckpoint after it
//    overwrites parameter storage in place, so stale panels are never
//    served; the next Lookup repacks from the fresh bytes.
//  * Release(ptr): removes the enrollment entirely (engine teardown).
//
// The transparent integration point is MatMul/BatchedMatMul in
// src/tensor/ops.cc: when a PrepackLookupScope is active on the calling
// thread, shared 2-D operands are looked up here and served prepacked.
// Training installs no scope and never pays the lookup.

#ifndef DYHSL_TENSOR_PREPACK_H_
#define DYHSL_TENSOR_PREPACK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace dyhsl::tensor {

/// \brief Singleton cache of PackedPanels keyed by (storage pointer,
/// operand side, trans flag). Thread-safe: lookups take a shared lock,
/// enrollment/lazy packing/invalidation an exclusive one.
class PrepackCache {
 public:
  /// \brief Prepack observability counters. `panels`/`bytes` inventory
  /// the packed objects currently held for a pointer set; `hits`/
  /// `misses` are per-thread serving counters (a miss is an *enrolled*
  /// pointer that had to pack on demand — first use of a new orientation
  /// or the first use after an invalidation; un-enrolled pointers count
  /// nothing); `invalidations` counts checkpoint-reload drops.
  struct Stats {
    int64_t panels = 0;
    int64_t bytes = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t invalidations = 0;
  };

  static PrepackCache& Instance();

  /// \brief Enrolls a 2-D tensor and eagerly packs its (B, no-trans)
  /// panels. Re-enrolling the same storage refreshes the packed bytes.
  void Enroll(const Tensor& weight);

  /// \brief Packed panels for an enrolled pointer used as `side`/`trans`
  /// with the given op() dimensions (`k` x `mn` for B, `mn` x `k` for A),
  /// or null when the pointer is not enrolled or the dimensions do not
  /// match the enrolled tensor. Packs lazily on a first-use miss.
  std::shared_ptr<const PackedPanels> Lookup(const float* ptr,
                                             PackedPanels::Side side,
                                             bool trans, int64_t k,
                                             int64_t mn);

  /// \brief Drops the packed panels for `ptr` (the enrollment survives, so
  /// the next Lookup repacks from the pointer's current bytes) and bumps
  /// the generation. No-op for pointers that were never enrolled.
  void Invalidate(const float* ptr);

  /// \brief Removes the enrollment and packs for `ptr` entirely.
  void Release(const float* ptr);

  /// \brief Monotonic counter bumped by every effective Invalidate —
  /// cheap staleness probe for tests and engines.
  uint64_t generation() const;

  /// \brief Pack inventory (`panels`, `bytes`) and cumulative
  /// `invalidations` for a set of enrolled pointers — an engine passes
  /// its own weights so fleet stats sum cleanly across engines. `hits`/
  /// `misses` are zero here; they live in ThreadCounters().
  Stats StatsFor(const std::vector<const float*>& ptrs) const;

  /// \brief The calling thread's cumulative hit/miss counters (only those
  /// two fields are set). Monotonic: a caller samples it before and after
  /// a serving call and books the difference (ForecastEngine does this
  /// per request, so one thread can serve many engines).
  static Stats ThreadCounters();

 private:
  PrepackCache();
  ~PrepackCache() = delete;  // leaked singleton, see Instance()
  struct Impl;
  Impl* impl_;
};

/// \brief RAII thread-local gate: while active, the MatMul family looks
/// shared 2-D operands up in the PrepackCache. Scopes nest.
class PrepackLookupScope {
 public:
  PrepackLookupScope();
  ~PrepackLookupScope();

  PrepackLookupScope(const PrepackLookupScope&) = delete;
  PrepackLookupScope& operator=(const PrepackLookupScope&) = delete;
};

/// \brief True when a PrepackLookupScope is active on this thread — the
/// only gate on prepack lookups.
bool PrepackLookupActive();

}  // namespace dyhsl::tensor

#endif  // DYHSL_TENSOR_PREPACK_H_
