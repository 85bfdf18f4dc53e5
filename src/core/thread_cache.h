// Per-thread caches keyed by their owner, bounded by the owners' lifetime.
//
// Model blocks that keep warm state across forwards (DhslBlock's top-k
// pattern caches, Dhgnn's hypergraph structures) look it up thread-locally
// by owner id: Forward stays const, concurrent serving workers never share
// mutable state, and each warm worker keeps its own state across the
// requests it handles.
//
// Thread-local entries must not outlive their owner: long-lived serving
// threads that touch many short-lived owners (model zoo churn,
// per-request model construction in tests) would otherwise grow every
// registry without bound. One process-wide live-id set plus one
// generation counter bounds this for every cache type: destroying a
// CacheOwnerId retires its id and bumps the generation, and each thread
// sweeps dead ids out of its registry the next time it looks a cache up
// after the generation moved. Amortized O(1) per lookup.

#ifndef DYHSL_CORE_THREAD_CACHE_H_
#define DYHSL_CORE_THREAD_CACHE_H_

#include <cstdint>
#include <iterator>
#include <mutex>
#include <unordered_map>

namespace dyhsl::core {

/// \brief Process-unique id of one cache owner, live from construction
/// to destruction. Destruction retires the id, so every thread's
/// ThreadCaches() registry evicts the owner's entry on its next lookup.
class CacheOwnerId {
 public:
  CacheOwnerId();
  ~CacheOwnerId();

  CacheOwnerId(const CacheOwnerId&) = delete;
  CacheOwnerId& operator=(const CacheOwnerId&) = delete;

  uint64_t value() const { return value_; }

 private:
  uint64_t value_;
};

namespace internal {

/// Bumped by every retirement.
uint64_t LiveGeneration();

/// Holds the live-id lock for IsLiveLocked.
std::unique_lock<std::mutex> LockLiveIds();

/// True while the CacheOwnerId with this value exists; caller holds
/// LockLiveIds().
bool IsLiveLocked(uint64_t id);

}  // namespace internal

/// \brief The calling thread's caches of type `Cache`, keyed by
/// CacheOwnerId::value(), with the entries of retired owners swept out.
template <typename Cache>
std::unordered_map<uint64_t, Cache>& ThreadCaches() {
  struct Registry {
    std::unordered_map<uint64_t, Cache> entries;
    uint64_t seen_generation = 0;
  };
  thread_local Registry registry;
  const uint64_t gen = internal::LiveGeneration();
  if (gen != registry.seen_generation) {
    std::unique_lock<std::mutex> lock = internal::LockLiveIds();
    for (auto it = registry.entries.begin(); it != registry.entries.end();) {
      it = internal::IsLiveLocked(it->first) ? std::next(it)
                                             : registry.entries.erase(it);
    }
    registry.seen_generation = gen;
  }
  return registry.entries;
}

}  // namespace dyhsl::core

#endif  // DYHSL_CORE_THREAD_CACHE_H_
