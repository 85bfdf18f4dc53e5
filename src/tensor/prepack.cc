#include "src/tensor/prepack.h"

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "src/core/check.h"

namespace dyhsl::tensor {
namespace {

// Per-thread serving counters; engines book the growth across each
// serving call (see PrepackCache::ThreadCounters).
struct ThreadTally {
  int64_t hits = 0;
  int64_t misses = 0;
};

ThreadTally* Tally() {
  static thread_local ThreadTally tally;
  return &tally;
}

thread_local int g_lookup_depth = 0;

// Pack slot per (side, trans) orientation of one enrolled pointer.
int SlotIndex(PackedPanels::Side side, bool trans) {
  return (side == PackedPanels::Side::kA ? 2 : 0) + (trans ? 1 : 0);
}

}  // namespace

struct PrepackCache::Impl {
  struct Entry {
    /// Keeps the storage alive: the pointer key cannot be recycled by an
    /// unrelated allocation while enrolled.
    Tensor owner;
    int64_t rows = 0;  // stored (untransposed) dimensions
    int64_t cols = 0;
    int64_t invalidations = 0;
    std::shared_ptr<const PackedPanels> packs[4];
  };

  mutable std::shared_mutex mu;
  std::unordered_map<const float*, Entry> entries;
  std::atomic<uint64_t> generation{0};

  // Packs the requested orientation from the entry's current bytes.
  // Caller holds the exclusive lock.
  std::shared_ptr<const PackedPanels> Pack(Entry* entry,
                                           PackedPanels::Side side,
                                           bool trans) {
    const float* ptr = entry->owner.data();
    if (side == PackedPanels::Side::kB) {
      const int64_t k = trans ? entry->cols : entry->rows;
      const int64_t n = trans ? entry->rows : entry->cols;
      return PackedPanels::PackBOperand(ptr, entry->cols, trans, k, n);
    }
    const int64_t m = trans ? entry->cols : entry->rows;
    const int64_t k = trans ? entry->rows : entry->cols;
    return PackedPanels::PackAOperand(ptr, entry->cols, trans, m, k);
  }
};

PrepackCache::PrepackCache() : impl_(new Impl()) {}

PrepackCache& PrepackCache::Instance() {
  // Leaked singleton: serving threads may outlive static destruction.
  static PrepackCache* cache = new PrepackCache();
  return *cache;
}

void PrepackCache::Enroll(const Tensor& weight) {
  DYHSL_CHECK(weight.defined());
  DYHSL_CHECK_EQ(weight.dim(), 2);
  std::unique_lock lock(impl_->mu);
  Impl::Entry& entry = impl_->entries[weight.data()];
  entry.owner = weight;
  entry.rows = weight.size(0);
  entry.cols = weight.size(1);
  for (auto& pack : entry.packs) pack.reset();
  // Eager pack of the dominant orientation: every Linear/Affine/
  // DiffusionConv weight multiplies as a no-trans B operand.
  const int slot = SlotIndex(PackedPanels::Side::kB, /*trans=*/false);
  entry.packs[slot] = impl_->Pack(&entry, PackedPanels::Side::kB, false);
}

std::shared_ptr<const PackedPanels> PrepackCache::Lookup(
    const float* ptr, PackedPanels::Side side, bool trans, int64_t k,
    int64_t mn) {
  const int slot = SlotIndex(side, trans);
  {
    std::shared_lock lock(impl_->mu);
    auto it = impl_->entries.find(ptr);
    if (it == impl_->entries.end()) return nullptr;  // not a candidate
    const Impl::Entry& entry = it->second;
    // The op() dimensions implied by the enrolled tensor must match the
    // call's — a reshaped or aliased use falls back to on-the-fly packing.
    const int64_t exp_k = trans == (side == PackedPanels::Side::kB)
                              ? entry.cols
                              : entry.rows;
    const int64_t exp_mn = trans == (side == PackedPanels::Side::kB)
                               ? entry.rows
                               : entry.cols;
    if (k != exp_k || mn != exp_mn) return nullptr;
    if (entry.packs[slot] != nullptr) {
      Tally()->hits += 1;
      return entry.packs[slot];
    }
  }
  // First use of this orientation (or first use after an invalidation):
  // pack now under the exclusive lock from the pointer's current bytes.
  std::unique_lock lock(impl_->mu);
  auto it = impl_->entries.find(ptr);
  if (it == impl_->entries.end()) return nullptr;
  Impl::Entry& entry = it->second;
  if (entry.packs[slot] == nullptr) {
    entry.packs[slot] = impl_->Pack(&entry, side, trans);
    Tally()->misses += 1;
  } else {
    Tally()->hits += 1;
  }
  return entry.packs[slot];
}

void PrepackCache::Invalidate(const float* ptr) {
  std::unique_lock lock(impl_->mu);
  auto it = impl_->entries.find(ptr);
  if (it == impl_->entries.end()) return;
  for (auto& pack : it->second.packs) pack.reset();
  it->second.invalidations += 1;
  impl_->generation.fetch_add(1, std::memory_order_acq_rel);
}

void PrepackCache::Release(const float* ptr) {
  std::unique_lock lock(impl_->mu);
  impl_->entries.erase(ptr);
}

uint64_t PrepackCache::generation() const {
  return impl_->generation.load(std::memory_order_acquire);
}

PrepackCache::Stats PrepackCache::StatsFor(
    const std::vector<const float*>& ptrs) const {
  Stats stats;
  std::shared_lock lock(impl_->mu);
  for (const float* ptr : ptrs) {
    auto it = impl_->entries.find(ptr);
    if (it == impl_->entries.end()) continue;
    stats.invalidations += it->second.invalidations;
    for (const auto& pack : it->second.packs) {
      if (pack != nullptr) {
        stats.panels += 1;
        stats.bytes += pack->bytes();
      }
    }
  }
  return stats;
}

PrepackCache::Stats PrepackCache::ThreadCounters() {
  Stats stats;
  stats.hits = Tally()->hits;
  stats.misses = Tally()->misses;
  return stats;
}

PrepackLookupScope::PrepackLookupScope() { ++g_lookup_depth; }

PrepackLookupScope::~PrepackLookupScope() { --g_lookup_depth; }

bool PrepackLookupActive() { return g_lookup_depth > 0; }

}  // namespace dyhsl::tensor
