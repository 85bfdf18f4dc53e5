#include "src/core/thread_cache.h"

#include <atomic>
#include <unordered_set>

namespace dyhsl::core {
namespace {

std::mutex& LiveIdMutex() {
  static std::mutex mu;
  return mu;
}

std::unordered_set<uint64_t>& LiveIds() {
  // Leaked: serving threads may sweep during static destruction.
  static auto* ids = new std::unordered_set<uint64_t>();
  return *ids;
}

std::atomic<uint64_t>& Generation() {
  static std::atomic<uint64_t> gen{0};
  return gen;
}

uint64_t NextId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(LiveIdMutex());
  LiveIds().insert(id);
  return id;
}

}  // namespace

CacheOwnerId::CacheOwnerId() : value_(NextId()) {}

CacheOwnerId::~CacheOwnerId() {
  std::lock_guard<std::mutex> lock(LiveIdMutex());
  LiveIds().erase(value_);
  Generation().fetch_add(1, std::memory_order_release);
}

namespace internal {

uint64_t LiveGeneration() {
  return Generation().load(std::memory_order_acquire);
}

std::unique_lock<std::mutex> LockLiveIds() {
  return std::unique_lock<std::mutex>(LiveIdMutex());
}

bool IsLiveLocked(uint64_t id) { return LiveIds().count(id) > 0; }

}  // namespace internal
}  // namespace dyhsl::core
