#include "src/core/parallel.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <thread>

#include "src/core/logging.h"

#ifdef _OPENMP
#include <omp.h>
#endif

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace dyhsl {
namespace {

// Strictly parses a positive thread count: optional leading whitespace,
// digits, end of string. Returns 0 (never a valid count) for anything
// else — "4abc", "0", "-2", "", overflow.
int ParseThreadCount(const char* text) {
  errno = 0;
  char* end = nullptr;
  long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return 0;
  if (errno == ERANGE || value <= 0 || value > INT_MAX) return 0;
  return static_cast<int>(value);
}

}  // namespace

int ConfigureParallelism(int max_threads) {
  max_threads = std::max(1, max_threads);
#ifdef _OPENMP
  // Single-level parallelism: a kernel reached from inside a parallel
  // region (e.g. a future refactor putting engine workers themselves in
  // an OpenMP team) serializes instead of forking teams-of-teams.
  omp_set_max_active_levels(1);
  if (std::getenv("OMP_NUM_THREADS") != nullptr) {
    // The user chose a count explicitly — respect it, but the caller's
    // documented cap still applies (benches and tests pass the cap
    // precisely so a 64-core box does not drown small kernels in
    // fork/join overhead).
    int n = std::min(max_threads, omp_get_max_threads());
    omp_set_num_threads(n);
    return n;
  }
  if (const char* env = std::getenv("DYHSL_THREADS")) {
    int n = ParseThreadCount(env);
    if (n == 0) {
      DYHSL_LOG(Warning) << "ignoring DYHSL_THREADS='" << env
                         << "' (expected a positive integer); falling back "
                            "to the default thread policy";
    } else {
      n = std::min(n, max_threads);
      omp_set_num_threads(n);
      return n;
    }
  }
  int n = std::min(max_threads, omp_get_num_procs());
  n = std::max(1, n);
  omp_set_num_threads(n);
  return n;
#else
  return 1;
#endif
}

namespace core {
namespace {

// The innermost TeamScope's size for this thread; 0 = no scope active.
thread_local int tls_team_override = 0;

}  // namespace

ThreadBudget ThreadBudget::Partition(int total, int num_workers) {
  ThreadBudget budget;
  budget.total = std::max(1, total);
  budget.num_workers = std::min(std::max(1, num_workers), budget.total);
  budget.team_size = budget.total / budget.num_workers;
  return budget;
}

int HardwareThreads() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

std::vector<int> AvailableCores() {
  std::vector<int> cores;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cores.push_back(c);
    }
    return cores;
  }
#endif
  const int n = HardwareThreads();
  cores.reserve(static_cast<size_t>(n));
  for (int c = 0; c < n; ++c) cores.push_back(c);
  return cores;
}

int TeamThreads() {
  if (tls_team_override > 0) return tls_team_override;
#ifdef _OPENMP
  return std::max(1, omp_get_max_threads());
#else
  return 1;
#endif
}

TeamScope::TeamScope(int team_size)
    : team_size_(std::max(1, team_size)),
      previous_override_(tls_team_override) {
  tls_team_override = team_size_;
#ifdef _OPENMP
  // Also set this thread's OpenMP ICV so pragmas *without* an explicit
  // num_threads clause (elementwise ops, vecmath) stay inside the slice.
  // omp_set_num_threads only affects the calling thread's data
  // environment, so concurrent workers' scopes never interfere.
  previous_icv_ = omp_get_max_threads();
  omp_set_num_threads(team_size_);
  omp_set_max_active_levels(1);
#else
  previous_icv_ = 1;
#endif
}

TeamScope::~TeamScope() {
  tls_team_override = previous_override_;
#ifdef _OPENMP
  omp_set_num_threads(previous_icv_);
#endif
}

Status PinCurrentThread(const std::vector<int>& cores) {
  if (cores.empty()) {
    return Status::InvalidArgument("PinCurrentThread needs >= 1 core");
  }
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cores) {
    if (c < 0 || c >= CPU_SETSIZE) {
      return Status::InvalidArgument("core id " + std::to_string(c) +
                                     " out of range");
    }
    CPU_SET(c, &set);
  }
  const int rc = pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  if (rc != 0) {
    return Status::IoError("pthread_setaffinity_np failed (errno " +
                           std::to_string(rc) + ")");
  }
#endif
  // Platforms without thread affinity: placement degrades to a no-op and
  // the ThreadBudget partition alone prevents oversubscription.
  return Status::OK();
}

}  // namespace core
}  // namespace dyhsl
