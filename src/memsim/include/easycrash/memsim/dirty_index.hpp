// Dirty-block index: a compact per-hierarchy summary of the blocks that hold
// a dirty copy in at least one cache level.
//
// The post-mortem pass (inconsistentBytes / peek) only needs to look at
// blocks that can possibly diverge from the NVM image, and the hierarchy's
// invariant says that is exactly the dirty-anywhere set: a block whose
// copies are all clean (or absent) matches NVM byte-for-byte. Probing every
// level for every block of every candidate object rediscovers that set the
// slow way; this index maintains it incrementally at the three places a
// line's dirty membership can change (CacheLevel::setDirty transitions,
// noteRemoved on eviction/extraction/invalidation, and invalidateAll), so a
// scan touches only the blocks that matter.
//
// A block may hold dirty copies in several levels at once (L1 re-dirtied
// after its dirt was merged into L2), so membership is a per-block bitmask
// of the attached levels holding a dirty copy — one line per block per
// level, so a bit is exact. The mask also tells the scan WHERE the freshest
// copy lives without probing every level: a clean copy can only sit closer
// to the CPU than the lowest dirty bit, and it was filled from (and is
// frozen equal to) that dirty copy, so reading the lowest dirty level is
// equivalent to reading the lowest resident level, found with one O(1)
// directory lookup in that level. Range iteration is served from a sorted
// key cache rebuilt lazily — mutations are O(1) amortised during the
// simulated run, and the one sort is paid at the first scan after the run
// stops.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "easycrash/common/check.hpp"

namespace easycrash::memsim {

class DirtyBlockIndex {
 public:
  /// Level `level` now holds a dirty copy of `blockAddr`.
  void add(std::uint64_t blockAddr, std::uint32_t level) {
    EC_DCHECK_MSG(level < 64, "dirty index tracks at most 64 levels");
    std::uint64_t& mask = entries_[blockAddr];
    EC_DCHECK_MSG((mask >> level & 1) == 0, "level already holds a dirty copy");
    if (mask == 0) sortedStale_ = true;
    mask |= 1ULL << level;
  }

  /// Level `level`'s dirty copy of `blockAddr` went away (cleaned, merged or
  /// dropped).
  void remove(std::uint64_t blockAddr, std::uint32_t level) {
    const auto it = entries_.find(blockAddr);
    EC_DCHECK_MSG(it != entries_.end(), "dirty index remove of untracked block");
    std::uint64_t& mask = it->second;
    EC_DCHECK_MSG((mask >> level & 1) != 0, "level holds no dirty copy");
    mask &= ~(1ULL << level);
    if (mask == 0) {
      entries_.erase(it);
      sortedStale_ = true;
    }
  }

  void clear() {
    entries_.clear();
    sorted_.clear();
    sortedStale_ = false;
  }

  /// Does any level hold a dirty copy of `blockAddr`?
  [[nodiscard]] bool contains(std::uint64_t blockAddr) const {
    return entries_.find(blockAddr) != entries_.end();
  }

  /// Level of the lowest dirty copy of `blockAddr` — the freshest value the
  /// block can have. Must only be called for tracked blocks (contains()).
  [[nodiscard]] std::uint32_t ownerLevel(std::uint64_t blockAddr) const {
    const auto it = entries_.find(blockAddr);
    EC_DCHECK_MSG(it != entries_.end(), "ownerLevel() of untracked block");
    return static_cast<std::uint32_t>(std::countr_zero(it->second));
  }

  /// Number of distinct dirty blocks.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Visit every dirty block base in [first, last] in ascending address
  /// order. `first`/`last` are inclusive block bases, matching the scalar
  /// scan's `for (base = first; base <= last; ...)` loop bounds.
  template <typename Fn>
  void forEachIn(std::uint64_t first, std::uint64_t last, Fn&& fn) const {
    refreshSorted();
    const auto begin = std::lower_bound(sorted_.begin(), sorted_.end(), first);
    for (auto it = begin; it != sorted_.end() && *it <= last; ++it) fn(*it);
  }

 private:
  void refreshSorted() const {
    if (!sortedStale_) return;
    sorted_.clear();
    sorted_.reserve(entries_.size());
    for (const auto& [addr, entry] : entries_) sorted_.push_back(addr);
    std::sort(sorted_.begin(), sorted_.end());
    sortedStale_ = false;
  }

  // Block -> mask; bit l set: attached level l holds a dirty copy.
  std::unordered_map<std::uint64_t, std::uint64_t> entries_;
  // Sorted key cache backing forEachIn; mutable so the const observation
  // paths (peek/inconsistentBytes) can rebuild it lazily after mutations.
  mutable std::vector<std::uint64_t> sorted_;
  mutable bool sortedStale_ = false;
};

}  // namespace easycrash::memsim
