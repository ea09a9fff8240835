// One set-associative, write-back cache level with value-tracking lines.
//
// Unlike a purely statistical cache model, every line carries the actual data
// bytes of its block. That is what lets the simulator answer the question at
// the core of the paper: after an arbitrary crash, which bytes of which data
// objects differ between the (lost) caches and the (surviving) NVM image?
//
// Hot-path design (docs/INTERNALS.md "Simulator performance"):
//  - residency lookup is O(1): a flat block directory indexed by
//    `blockAddr >> log2(blockSize)` holds the resident line index + 1 (0 =
//    absent). It grows on demand to the highest block ever inserted, so it
//    costs 4 B per block of address space per level — a sixteenth of the
//    64 B per block of the NVM image it shadows — and every residency change
//    (insert, noteRemoved, invalidateAll) keeps it exact;
//  - find() is a one-entry MRU check of (blockAddr, line) plus one directory
//    load, so the common case — consecutive accesses inside the same 64B
//    block — touches neither the directory nor the line array;
//  - a line is invalid exactly when its lastUse is 0 (ticks start at 1), so
//    insert() picks its victim as the first way with the minimum lastUse —
//    "first invalid way, else the LRU way" — with no data-dependent exit;
//  - set selection uses a shift + mask when the set count is a power of two
//    (a predictable-branch modulo fallback covers geometries like the Xeon
//    Gold 6126 L3, whose 11-way layout yields a non-power-of-two set count);
//  - insert()/extractLineInto() copy victim state into caller-owned scratch
//    buffers and take or return line indices, so the miss/evict flow
//    allocates nothing and a caller that already found a line acts on it
//    without a second lookup;
//  - valid/dirty line counts are maintained incrementally, so validLines() /
//    dirtyLines() and the drain path never scan the full line array.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/dirty_index.hpp"

namespace easycrash::memsim {

class CacheLevel {
 public:
  CacheLevel(const CacheGeometry& geometry, std::uint32_t blockSize);

  /// A block displaced by an insertion (or removed by extraction). When used
  /// with the scratch-buffer APIs the `data` vector's capacity is reused
  /// across calls, so steady-state eviction traffic allocates nothing.
  struct Evicted {
    std::uint64_t blockAddr = 0;
    bool dirty = false;
    std::vector<std::uint8_t> data;
  };

  /// Result of a hot-path insertion: the line now holding the new block and
  /// whether a valid victim was displaced into the caller's scratch buffer.
  struct InsertResult {
    std::uint32_t line = 0;
    bool evicted = false;
  };

  /// Line index of `blockAddr` if resident.
  [[nodiscard]] std::optional<std::uint32_t> find(std::uint64_t blockAddr) const;

  /// MRU-only probe: the line index when `blockAddr` is the level's most
  /// recently used block, -1 otherwise (which says nothing about residency).
  /// This is the inlined first half of find(); the hierarchy's header-level
  /// load/store fast paths use it to keep an L1 MRU hit free of any
  /// out-of-line call.
  [[nodiscard]] std::int64_t mruLineOf(std::uint64_t blockAddr) const {
    return (mruValid_ && mruBlock_ == blockAddr) ? static_cast<std::int64_t>(mruLine_)
                                                 : -1;
  }

  /// Insert `blockAddr` (must not be resident); the victim's state, if any,
  /// is copied into `victim` (reusing its buffer). Returns the filled line,
  /// marked most-recently-used and clean. The line's data bytes are NOT
  /// zeroed — every caller overwrites the full block immediately after.
  InsertResult insert(std::uint64_t blockAddr, Evicted& victim);

  /// Allocating convenience wrapper around the scratch-buffer insert(): the
  /// new line's data is zero-initialised, and the victim (if any) is
  /// returned by value.
  std::optional<Evicted> insert(std::uint64_t blockAddr);

  /// Remove the block held by valid `line` without write-back, copying its
  /// state into `out` (reusing its buffer).
  void extractLineInto(std::uint32_t line, Evicted& out);

  /// Allocating convenience wrapper: find + extractLineInto(); the block
  /// must be resident.
  Evicted extract(std::uint64_t blockAddr);

  /// Drop a line by index (no write-back); the line must be valid.
  void invalidateLine(std::uint32_t line);
  /// Drop everything (simulates power loss).
  void invalidateAll();

  [[nodiscard]] std::span<std::uint8_t> data(std::uint32_t line) {
    return {storage_.data() + static_cast<std::size_t>(line) * blockSize_, blockSize_};
  }
  [[nodiscard]] std::span<const std::uint8_t> data(std::uint32_t line) const {
    return {storage_.data() + static_cast<std::size_t>(line) * blockSize_, blockSize_};
  }
  [[nodiscard]] bool valid(std::uint32_t line) const {
    return lines_[line].lastUse != 0;
  }
  [[nodiscard]] bool dirty(std::uint32_t line) const { return lines_[line].dirty; }
  void setDirty(std::uint32_t line, bool value) {
    Line& l = lines_[line];
    EC_DCHECK_MSG(l.lastUse != 0, "setDirty on an invalid line");
    if (l.dirty != value) {
      if (value) {
        ++dirtyCount_;
        if (dirtyIndex_ != nullptr) dirtyIndex_->add(l.blockAddr, levelId_);
      } else {
        --dirtyCount_;
        if (dirtyIndex_ != nullptr) dirtyIndex_->remove(l.blockAddr, levelId_);
      }
      l.dirty = value;
    }
  }
  [[nodiscard]] std::uint64_t blockAddr(std::uint32_t line) const {
    return lines_[line].blockAddr;
  }

  /// Mark `line` most-recently-used within its set.
  void touch(std::uint32_t line) { lines_[line].lastUse = ++tick_; }

  /// Visit every valid line: fn(blockAddr, dirty, data).
  template <typename Fn>
  void forEachValid(Fn&& fn) const {
    for (std::uint32_t i = 0; i < lines_.size(); ++i) {
      if (valid(i)) fn(lines_[i].blockAddr, lines_[i].dirty, data(i));
    }
  }

  [[nodiscard]] std::uint64_t sets() const { return sets_; }
  [[nodiscard]] std::uint32_t associativity() const { return assoc_; }
  [[nodiscard]] std::uint32_t lineCount() const {
    return static_cast<std::uint32_t>(lines_.size());
  }
  [[nodiscard]] std::uint64_t validLines() const { return validCount_; }
  [[nodiscard]] std::uint64_t dirtyLines() const { return dirtyCount_; }

  /// Check the block directory against the line tags, both ways: every
  /// valid line is the directory's entry for its block and sits in that
  /// block's set, and every non-zero entry names a valid line holding that
  /// block. Throws (EC_CHECK) on the first mismatch. O(lines + directory).
  void checkDirectory() const;

  /// Attach the owning hierarchy's dirty-block index: every dirty-membership
  /// transition of a line in this level (setDirty flip, removal of a dirty
  /// line, invalidateAll) is mirrored into it, so the post-mortem scan can
  /// enumerate dirty-anywhere blocks without probing the levels. All levels
  /// of one hierarchy share one index; `levelId` is this level's bit in the
  /// per-block dirty mask and must be unique within the hierarchy, ordered
  /// freshest-first (L1 = 0, or per-core caches before a shared LLC). The
  /// index must outlive this level (or a later attach of nullptr).
  void attachDirtyIndex(DirtyBlockIndex* index, std::uint32_t levelId) {
    dirtyIndex_ = index;
    levelId_ = levelId;
  }

 private:
  struct Line {
    std::uint64_t blockAddr = 0;
    std::uint64_t lastUse = 0;  ///< 0 <=> invalid; valid lines hold ticks >= 1
    bool dirty = false;
  };

  [[nodiscard]] std::uint64_t setOf(std::uint64_t blockAddr) const {
    const std::uint64_t block = blockAddr >> blockShift_;
    return setsPow2_ ? (block & setMask_) : (block % sets_);
  }
  [[nodiscard]] std::uint32_t lineIndex(std::uint64_t set, std::uint32_t way) const {
    return static_cast<std::uint32_t>(set * assoc_ + way);
  }
  /// Bookkeeping for a valid line leaving the level: counters, dirty index,
  /// MRU entry and directory. The caller then marks the line invalid.
  void noteRemoved(const Line& line);

  std::uint32_t blockSize_;
  std::uint32_t blockShift_ = 0;  ///< log2(blockSize_)
  std::uint64_t sets_;
  std::uint64_t setMask_ = 0;  ///< sets_ - 1 when sets_ is a power of two
  bool setsPow2_ = false;
  std::uint32_t assoc_;
  std::uint64_t tick_ = 0;
  std::uint64_t validCount_ = 0;
  std::uint64_t dirtyCount_ = 0;
  std::vector<Line> lines_;
  std::vector<std::uint8_t> storage_;
  // Block directory: directory_[blockAddr >> blockShift_] is the resident
  // line index + 1, 0 when the block is absent (or beyond the directory's
  // size, which insert() grows to cover each block it places).
  std::vector<std::uint32_t> directory_;
  DirtyBlockIndex* dirtyIndex_ = nullptr;  ///< shared per-hierarchy, may be null
  std::uint32_t levelId_ = 0;              ///< this level's bit in the dirty mask

  // One-entry MRU cache consulted by find() before the directory.
  // Invalidation rules: cleared whenever the cached block leaves this level
  // (extract/invalidate/invalidateAll) and redirected on insert (the new
  // line is by definition the most recently used).
  mutable std::uint64_t mruBlock_ = 0;
  mutable std::uint32_t mruLine_ = 0;
  mutable bool mruValid_ = false;
};

}  // namespace easycrash::memsim
