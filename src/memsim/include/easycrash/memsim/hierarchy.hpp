// Multi-level inclusive write-back cache hierarchy with value tracking,
// backed by an NvmStore. This is the execution substrate every instrumented
// application runs on: all loads/stores of tracked data objects route through
// access(), flush instructions route through flushBlock()/flushRange(), and a
// crash is modelled by invalidateAll() — everything not written back to the
// NvmStore is lost, exactly as on app-direct-mode persistent memory.
//
// The access path is the inner loop of every crash campaign, so it is built
// to be allocation-free in steady state: block fills and victim hand-offs go
// through scratch buffers owned by the hierarchy, single-block accesses skip
// the chunking loop, and block/set arithmetic is shift/mask (see
// docs/INTERNALS.md "Simulator performance").
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/dirty_index.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/memsim/nvm_store.hpp"

namespace easycrash::memsim {

class CacheHierarchy {
 public:
  CacheHierarchy(CacheConfig config, NvmStore& nvm);

  CacheHierarchy(const CacheHierarchy&) = delete;
  CacheHierarchy& operator=(const CacheHierarchy&) = delete;

  /// Load `dst.size()` bytes from `addr` through the cache hierarchy.
  /// The header-level fast path covers the dominant case — a single-block
  /// access hitting L1's most-recently-used line — without leaving the
  /// caller's translation unit; everything else goes out of line.
  void load(std::uint64_t addr, std::span<std::uint8_t> dst) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!dst.empty() && inBlock + dst.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        std::memcpy(dst.data(), levels_[0].data(l1).data() + inBlock, dst.size());
        ++events_.loads;
        return;
      }
    }
    loadSlow(addr, dst);
  }
  /// Store `src.size()` bytes at `addr` through the cache hierarchy.
  void store(std::uint64_t addr, std::span<const std::uint8_t> src) {
    const std::uint64_t inBlock = addr & blockMask_;
    if (!src.empty() && inBlock + src.size() <= config_.blockSize) {
      const std::int64_t line = levels_[0].mruLineOf(addr - inBlock);
      if (line >= 0) {
        const auto l1 = static_cast<std::uint32_t>(line);
        ++events_.hits[0];
        levels_[0].touch(l1);
        std::memcpy(levels_[0].data(l1).data() + inBlock, src.data(), src.size());
        levels_[0].setDirty(l1, true);
        ++events_.stores;
        return;
      }
    }
    storeSlow(addr, src);
  }

  /// Bulk range access: move [addr, addr+dst.size()) in one call, splitting
  /// at block boundaries and touching each block's tags/MRU/dirty state once
  /// with a single memcpy per block. `elemSize` is the logical element width
  /// the range is composed of; counters are byte-identical to issuing the
  /// same range as ascending element-wise load()/store() calls of that width
  /// (each block's first element pays the probe, the rest are L1 hits, and
  /// an element straddling two blocks counts one micro-access in each —
  /// exactly what the scalar chunk loop records). Only rangeLoads/rangeStores/
  /// rangeSplitBlocks, which are diagnostics excluded from equivalence, tell
  /// the two paths apart.
  void loadRange(std::uint64_t addr, std::span<std::uint8_t> dst,
                 std::uint32_t elemSize);
  void storeRange(std::uint64_t addr, std::span<const std::uint8_t> src,
                  std::uint32_t elemSize);

  /// Metadata-only access for [addr, addr+size): every overlapping block is
  /// made resident and LRU-touched exactly as load()/store() would, but no
  /// payload bytes move and nothing is marked dirty. This is the demoted-
  /// object path of the sampled monitoring mode: demoted blocks keep their
  /// real cache occupancy — so the tracked objects sharing their sets see
  /// bit-identical hits, misses and evictions — while their values live in
  /// NVM only (the runtime routes demoted loads/stores straight there).
  /// Demoted lines are never dirty, so no write-back can clobber the
  /// direct-written NVM image. Note the per-block granularity: repeated
  /// touches of one block and per-element touches are metadata-equivalent,
  /// which is what keeps --bulk on/off agreement in sampled mode.
  void touchRange(std::uint64_t addr, std::uint64_t size);

  /// Apply a flush instruction to the block containing `addr`.
  void flushBlock(std::uint64_t addr, FlushKind kind);
  /// Flush every block overlapping [addr, addr+size) — the paper's
  /// cache_block_flush() over a whole data object (§2.1: all blocks are
  /// flushed even when not resident, because hardware cannot tell).
  void flushRange(std::uint64_t addr, std::uint64_t size, FlushKind kind);

  /// Read the architecturally-current value (freshest cached copy, falling
  /// back to NVM) without perturbing cache state or counters. With the scan
  /// fast path on, clean runs of blocks are served straight from NVM in bulk
  /// reads (a clean block's copies match NVM by invariant) and only
  /// dirty-indexed blocks pay a cache probe.
  void peek(std::uint64_t addr, std::span<std::uint8_t> dst) const;

  /// Bytes in [addr, addr+size) whose cached value differs from the NVM
  /// image — the paper's per-object inconsistency measure (§3). The fast
  /// path iterates the dirty-block index (only dirty-anywhere blocks can
  /// diverge) and counts differing bytes with the vectorized scan kernel;
  /// setScanFastPath(false) restores the probe-every-level byte loop, the
  /// differential oracle.
  [[nodiscard]] std::uint64_t inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const;

  /// Post-mortem scan fast-path control (dirty-block index + vectorized
  /// compare in inconsistentBytes/peek). Both settings return bit-identical
  /// results; off exists as the differential oracle and for perf comparison.
  void setScanFastPath(bool on) noexcept { scanFast_ = on; }
  [[nodiscard]] bool scanFastPath() const noexcept { return scanFast_; }

  /// The incrementally-maintained dirty-anywhere block set (tests assert it
  /// against a forEachValid walk of the levels).
  [[nodiscard]] const DirtyBlockIndex& dirtyIndex() const { return dirtyIndex_; }

  /// Write every dirty block back to NVM (counted as modelled writes); lines
  /// stay resident and clean. Used by the coherent-snapshot ("verified")
  /// crash mode and by checkpoint modelling.
  void drainAll();

  /// Power loss: drop all cache contents without write-back.
  void invalidateAll();

  [[nodiscard]] const MemEvents& events() const { return events_; }
  void resetEvents() { events_ = MemEvents{}; }

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] NvmStore& nvm() { return nvm_; }
  [[nodiscard]] std::size_t levelCount() const { return levels_.size(); }
  [[nodiscard]] const CacheLevel& level(std::size_t i) const { return levels_[i]; }

  /// Internal consistency check (inclusivity, data coherence of clean
  /// copies, and every level's block directory against its line tags).
  /// Intended for tests; throws std::logic_error on violation.
  void checkInvariants() const;

  /// Enable the sampled access profile: per-stride touch counters fed only by
  /// the out-of-line access paths (ensureInL1), so the header-level L1-MRU
  /// fast path above gains no branch. A "touch" is a block-granular access
  /// that left the fast path — L1 non-MRU hits, misses, and one per block
  /// segment of a range access — a cheap, stable sample of the true access
  /// distribution (flight recorder, docs/OBSERVABILITY.md). `strideBytes` is
  /// rounded up to a power of two and floored at the block size; 0 means one
  /// counter per block. Compiled out under -DEASYCRASH_TELEMETRY=OFF.
  void enableAccessProfile(std::uint32_t strideBytes = 0);
  [[nodiscard]] bool accessProfiling() const { return profileShift_ != 0; }
  /// Bytes of address range covered by one profile counter.
  [[nodiscard]] std::uint32_t accessProfileStride() const {
    return profileShift_ != 0 ? (1u << profileShift_) : 0;
  }
  /// Sampled touch counts indexed by addr >> log2(stride); empty when
  /// profiling is off, sized to the highest profiled stride + 1.
  [[nodiscard]] const std::vector<std::uint64_t>& accessProfile() const {
    return accessProfile_;
  }

 private:
  [[nodiscard]] std::uint64_t blockBase(std::uint64_t addr) const {
    return addr & ~blockMask_;
  }

  /// Out-of-line halves of load()/store(): multi-block accesses and
  /// single-block accesses that miss the L1 MRU entry.
  void loadSlow(std::uint64_t addr, std::span<std::uint8_t> dst);
  void storeSlow(std::uint64_t addr, std::span<const std::uint8_t> src);

  /// Make `blockAddr` resident in L1; returns the L1 line index.
  std::uint32_t ensureInL1(std::uint64_t blockAddr);
  /// Miss path of ensureInL1 (kept out of line so the L1-hit fast path stays
  /// small enough to inline into load()/store()).
  std::uint32_t fillToL1(std::uint64_t blockAddr);

  /// Insert a block at `level` with the given data, handling the eviction;
  /// returns the filled line index.
  std::uint32_t insertAt(std::size_t level, std::uint64_t blockAddr,
                         std::span<const std::uint8_t> data);

  /// Process a victim displaced from `level` (held in a scratch buffer):
  /// merge fresher upper-level copies, then write back downwards (or to NVM
  /// from the LLC).
  void handleEviction(std::size_t level, CacheLevel::Evicted& victim);

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Lowest level (closest to the CPU) holding the block, or npos.
  [[nodiscard]] std::size_t lowestResidentLevel(std::uint64_t blockAddr) const;

  /// Level and line of the freshest resident copy, found with one probe per
  /// level (level == kNone when the block is not cached anywhere).
  struct Resident {
    std::size_t level = kNone;
    std::uint32_t line = 0;
  };
  [[nodiscard]] Resident lowestResident(std::uint64_t blockAddr) const;

  /// Freshest copy of a dirty-indexed block: one directory lookup in the
  /// level the index names as its lowest dirty copy. Only valid while
  /// dirtyIndex_.contains(blockAddr).
  [[nodiscard]] std::span<const std::uint8_t> dirtyBlockData(
      std::uint64_t blockAddr) const;

  /// Pre-index scalar references behind setScanFastPath(false): probe every
  /// level for every block.
  void peekScalar(std::uint64_t addr, std::span<std::uint8_t> dst) const;
  [[nodiscard]] std::uint64_t inconsistentBytesScalar(std::uint64_t addr,
                                                      std::uint64_t size) const;

  CacheConfig config_;
  std::uint64_t blockMask_ = 0;  ///< blockSize - 1 (blockSize is power of two)
  NvmStore& nvm_;
  std::vector<CacheLevel> levels_;
  // Mutable so the const observation paths (peek/inconsistentBytes) can
  // record their postmortem_* diagnostics — the same precedent as the
  // CacheLevel MRU cache in find().
  mutable MemEvents events_;

  // Dirty-anywhere block set, maintained by the levels (attachDirtyIndex)
  // and consumed by the post-mortem scan. scanFast_ gates the index +
  // vectorized-kernel paths of peek/inconsistentBytes.
  DirtyBlockIndex dirtyIndex_;
  bool scanFast_ = true;
  // Scratch NVM block for the scan (replaces a per-call allocation); mutable
  // for the const observation paths, which are single-threaded per runtime.
  mutable std::vector<std::uint8_t> scanScratch_;

  // Sampled access profile (enableAccessProfile). profileShift_ == 0 means
  // off; the slow path then skips one well-predicted branch and nothing else.
  std::uint32_t profileShift_ = 0;
  std::vector<std::uint64_t> accessProfile_;

  // Reusable scratch state for the miss/evict flow: one in-flight victim,
  // one buffer for upper-level merges, one block-sized fill buffer. At most
  // one of each is live at a time (insertions never recurse), so a single
  // set suffices and steady-state misses allocate nothing.
  CacheLevel::Evicted evictScratch_;
  CacheLevel::Evicted mergeScratch_;
  std::vector<std::uint8_t> fillScratch_;
};

}  // namespace easycrash::memsim
