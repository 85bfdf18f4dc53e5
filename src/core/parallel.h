// Thread-count policy: one machine, two kinds of parallelism.
//
// This repository runs two parallel axes that must not multiply:
//
//  * inter-engine / inter-request workers — the std::threads serving
//    serve::ForecastEngine queues (one per EngineOptions::num_workers;
//    a ForecastRouter pools the workers of a sharded model's engines);
//  * intra-op OpenMP teams — the `#pragma omp` regions inside the tensor
//    kernels (GEMM, SpMM, elementwise ops).
//
// Left to its defaults, OpenMP gives *every* thread that enters a kernel
// a full machine-sized team, so an engine with 4 workers on 4 cores runs
// 16+ live threads and throughput collapses into context switching. The
// ThreadBudget layer here makes the split explicit: a budget of `total`
// threads is partitioned into `num_workers` workers of `team_size`
// OpenMP threads each (num_workers * team_size <= total), and a worker
// scopes every kernel it calls to its slice by holding a TeamScope.
//
// The kernels are bit-deterministic per thread count, so scoping a
// worker's team never changes results — only where the machine's
// parallelism is spent.
//
// Precedence of the process-wide default (ConfigureParallelism):
//   OMP_NUM_THREADS (explicit user choice, still capped at max_threads)
//   > DYHSL_THREADS (strict positive integer; junk is ignored with a
//     logged warning)
//   > min(max_threads, hardware).
// A TeamScope overrides the default for the holding thread only.

#ifndef DYHSL_CORE_PARALLEL_H_
#define DYHSL_CORE_PARALLEL_H_

#include <vector>

#include "src/core/status.h"

namespace dyhsl {

/// \brief Sets the process-wide OpenMP thread-count default to
/// min(max_threads, hardware), honoring the OMP_NUM_THREADS and
/// DYHSL_THREADS overrides (both still capped at max_threads), and
/// disables nested parallel regions (omp_set_max_active_levels(1)) so
/// a kernel reached from inside a parallel region serializes instead of
/// forking a second level. Returns the thread count now in effect
/// (always 1 without OpenMP).
int ConfigureParallelism(int max_threads = 8);

namespace core {

/// \brief An explicit partition of the machine between inter-engine
/// workers and intra-op OpenMP teams.
struct ThreadBudget {
  /// Threads this budget may keep live at once.
  int total = 1;
  /// Inter-engine / inter-request worker threads.
  int num_workers = 1;
  /// OpenMP team size each worker scopes its kernels to.
  int team_size = 1;

  /// \brief Splits `total` threads across `num_workers` workers:
  /// workers are clamped to [1, max(1, total)], each worker's team is
  /// total / num_workers (>= 1), so num_workers * team_size <= total
  /// always holds. Leftover threads (total not divisible by workers)
  /// stay idle rather than oversubscribe.
  static ThreadBudget Partition(int total, int num_workers);
};

/// \brief Hardware threads available to *this process* — the affinity
/// mask's population on Linux (a container pinned to 2 of 64 cores
/// reports 2), std::thread::hardware_concurrency elsewhere. Always >= 1.
int HardwareThreads();

/// \brief The logical core ids this process may run on, in ascending
/// order (the affinity mask on Linux, 0..HardwareThreads()-1 elsewhere).
/// Placement policies index into this list rather than assuming cores
/// are numbered 0..n-1.
std::vector<int> AvailableCores();

/// \brief The OpenMP team size kernels on the calling thread should use:
/// the innermost active TeamScope's size, or the OpenMP default
/// (omp_get_max_threads) when no scope is held. The GEMM/SpMM entry
/// points pass this to an explicit num_threads clause, so a worker's
/// kernels can never outgrow its slice even if some library reset the
/// OpenMP ICV behind its back.
int TeamThreads();

/// \brief RAII: scopes the calling thread's kernels to an OpenMP team of
/// `team_size` (clamped to >= 1) until destruction. Sets both the
/// thread-local override consumed via TeamThreads() and the calling
/// thread's OpenMP nthreads ICV (covering pragmas without an explicit
/// num_threads clause), and pins max_active_levels to 1. Nestable; the
/// destructor restores the previous scope. Worker threads hold one for
/// their whole lifetime.
class TeamScope {
 public:
  explicit TeamScope(int team_size);
  ~TeamScope();

  TeamScope(const TeamScope&) = delete;
  TeamScope& operator=(const TeamScope&) = delete;

  int team_size() const { return team_size_; }

 private:
  int team_size_;
  int previous_override_;
  int previous_icv_;
};

/// \brief Pins the calling thread to `cores` (logical ids, e.g. from
/// AvailableCores()). OpenMP team threads are spawned lazily by the
/// thread that first enters a parallel region and inherit its affinity
/// mask, so pinning a worker before its first kernel confines its whole
/// team. Returns InvalidArgument on an empty/out-of-range list, IoError
/// if the kernel rejects the mask; a silent no-op success on platforms
/// without thread affinity.
Status PinCurrentThread(const std::vector<int>& cores);

}  // namespace core
}  // namespace dyhsl

#endif  // DYHSL_CORE_PARALLEL_H_
