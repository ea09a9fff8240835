#include "easycrash/memsim/hierarchy.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/scan.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

CacheHierarchy::CacheHierarchy(CacheConfig config, NvmStore& nvm)
    : config_(std::move(config)), nvm_(nvm) {
  config_.validate();
  EC_CHECK(nvm_.blockSize() == config_.blockSize);
  EC_CHECK_MSG(config_.levels.size() <= kMaxLevels, "too many cache levels");
  blockMask_ = config_.blockSize - 1;
  levels_.reserve(config_.levels.size());
  for (const CacheGeometry& g : config_.levels) levels_.emplace_back(g, config_.blockSize);
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    levels_[i].attachDirtyIndex(&dirtyIndex_, static_cast<std::uint32_t>(i));
  }
  fillScratch_.resize(config_.blockSize);
  scanScratch_.resize(config_.blockSize);
}

std::size_t CacheHierarchy::lowestResidentLevel(std::uint64_t blockAddr) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].find(blockAddr)) return i;
  }
  return kNone;
}

CacheHierarchy::Resident CacheHierarchy::lowestResident(
    std::uint64_t blockAddr) const {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (const auto line = levels_[i].find(blockAddr)) return {i, *line};
  }
  return {};
}

std::span<const std::uint8_t> CacheHierarchy::dirtyBlockData(
    std::uint64_t blockAddr) const {
  const CacheLevel& level = levels_[dirtyIndex_.ownerLevel(blockAddr)];
  const auto line = level.find(blockAddr);
  EC_DCHECK_MSG(line.has_value() && level.dirty(*line),
                "dirty-index owner record out of sync");
  return level.data(*line);
}

void CacheHierarchy::handleEviction(std::size_t level, CacheLevel::Evicted& victim) {
  // Inclusive hierarchy: a victim evicted from `level` may have fresher
  // copies above; merge them and back-invalidate (upper copies cannot outlive
  // the lower one). Iterate upper levels farthest-from-CPU first so that the
  // freshest copy — the one closest to the CPU — is applied last and wins
  // when several levels hold dirty data.
  for (std::size_t upper = level; upper-- > 0;) {
    if (const auto line = levels_[upper].find(victim.blockAddr)) {
      levels_[upper].extractLineInto(*line, mergeScratch_);
      if (mergeScratch_.dirty) {
        std::swap(victim.data, mergeScratch_.data);
        victim.dirty = true;
      }
    }
  }

  if (level + 1 < levels_.size()) {
    // Write back into the next level, where the block must still be resident.
    const auto below = levels_[level + 1].find(victim.blockAddr);
    EC_CHECK_MSG(below.has_value(), "inclusivity violated: victim absent below");
    if (victim.dirty) {
      auto dst = levels_[level + 1].data(*below);
      std::copy(victim.data.begin(), victim.data.end(), dst.begin());
      levels_[level + 1].setDirty(*below, true);
    }
  } else if (victim.dirty) {
    nvm_.writeBlock(victim.blockAddr, victim.data);
    ++events_.nvmBlockWrites;
  }
}

std::uint32_t CacheHierarchy::insertAt(std::size_t level, std::uint64_t blockAddr,
                                       std::span<const std::uint8_t> data) {
  const auto result = levels_[level].insert(blockAddr, evictScratch_);
  if (result.evicted) handleEviction(level, evictScratch_);
  auto dst = levels_[level].data(result.line);
  std::copy(data.begin(), data.end(), dst.begin());
  return result.line;
}

std::uint32_t CacheHierarchy::ensureInL1(std::uint64_t blockAddr) {
  if constexpr (telemetry::kTraceCompiledIn) {
    if (profileShift_ != 0) {
      const std::size_t bucket = static_cast<std::size_t>(blockAddr >> profileShift_);
      if (bucket >= accessProfile_.size()) accessProfile_.resize(bucket + 1, 0);
      ++accessProfile_[bucket];
    }
  }
  if (const auto l1 = levels_[0].find(blockAddr)) {
    ++events_.hits[0];
    levels_[0].touch(*l1);
    return *l1;
  }
  return fillToL1(blockAddr);
}

void CacheHierarchy::enableAccessProfile(std::uint32_t strideBytes) {
  if constexpr (telemetry::kTraceCompiledIn) {
    const std::uint32_t stride = std::max(strideBytes, config_.blockSize);
    std::uint32_t shift = 0;
    while ((1u << shift) < stride) ++shift;  // round up to a power of two
    profileShift_ = shift;
  }
}

std::uint32_t CacheHierarchy::fillToL1(std::uint64_t blockAddr) {
  ++events_.misses[0];

  // Find the block below L1, filling missing levels top-down from the level
  // (or NVM) that has it.
  std::size_t source = levels_.size();  // levels_.size() == NVM
  for (std::size_t i = 1; i < levels_.size(); ++i) {
    if (const auto line = levels_[i].find(blockAddr)) {
      ++events_.hits[i];
      levels_[i].touch(*line);
      const auto src = levels_[i].data(*line);
      std::copy(src.begin(), src.end(), fillScratch_.begin());
      source = i;
      break;
    }
    ++events_.misses[i];
  }
  if (source == levels_.size()) {
    nvm_.read(blockAddr, fillScratch_);
    ++events_.nvmBlockReads;
  }

  // Fill every level above the source (inclusive hierarchy), bottom-up so a
  // lower-level eviction can still back-invalidate consistently.
  std::uint32_t l1Line = 0;
  for (std::size_t i = source; i-- > 0;) {
    l1Line = insertAt(i, blockAddr, fillScratch_);
  }
  return l1Line;
}

void CacheHierarchy::loadSlow(std::uint64_t addr, std::span<std::uint8_t> dst) {
  // Fast path: the whole access falls inside one block (every scalar
  // loadValue of an aligned element) — one probe, one memcpy.
  const std::uint64_t inBlock = addr & blockMask_;
  if (!dst.empty() && inBlock + dst.size() <= config_.blockSize) {
    const std::uint32_t line = ensureInL1(addr - inBlock);
    std::memcpy(dst.data(), levels_[0].data(line).data() + inBlock, dst.size());
    ++events_.loads;
    return;
  }
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t off = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - off, dst.size() - offset);
    const std::uint32_t line = ensureInL1(base);
    const auto src = levels_[0].data(line);
    std::memcpy(dst.data() + offset, src.data() + off, chunk);
    ++events_.loads;
    offset += chunk;
  }
}

void CacheHierarchy::storeSlow(std::uint64_t addr, std::span<const std::uint8_t> src) {
  // Fast path mirroring load(): single-block stores skip the chunking loop.
  const std::uint64_t inBlock = addr & blockMask_;
  if (!src.empty() && inBlock + src.size() <= config_.blockSize) {
    const std::uint32_t line = ensureInL1(addr - inBlock);
    std::memcpy(levels_[0].data(line).data() + inBlock, src.data(), src.size());
    levels_[0].setDirty(line, true);
    ++events_.stores;
    return;
  }
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t off = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - off, src.size() - offset);
    const std::uint32_t line = ensureInL1(base);
    auto dst = levels_[0].data(line);
    std::memcpy(dst.data() + off, src.data() + offset, chunk);
    levels_[0].setDirty(line, true);
    ++events_.stores;
    offset += chunk;
  }
}

void CacheHierarchy::loadRange(std::uint64_t addr, std::span<std::uint8_t> dst,
                               std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  if (dst.empty()) return;
  ++events_.rangeLoads;
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t off = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - off, dst.size() - offset);
    // Logical elements overlapping this block segment (a straddling element
    // belongs to both of its blocks, as the scalar chunk loop counts it).
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    const std::uint32_t line = ensureInL1(base);
    events_.hits[0] += touches - 1;
    events_.loads += touches;
    ++events_.rangeSplitBlocks;
    std::memcpy(dst.data() + offset, levels_[0].data(line).data() + off, chunk);
    offset += chunk;
  }
}

void CacheHierarchy::storeRange(std::uint64_t addr,
                                std::span<const std::uint8_t> src,
                                std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  if (src.empty()) return;
  ++events_.rangeStores;
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t off = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - off, src.size() - offset);
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    const std::uint32_t line = ensureInL1(base);
    events_.hits[0] += touches - 1;
    events_.stores += touches;
    ++events_.rangeSplitBlocks;
    std::memcpy(levels_[0].data(line).data() + off, src.data() + offset, chunk);
    levels_[0].setDirty(line, true);
    offset += chunk;
  }
}

void CacheHierarchy::touchRange(std::uint64_t addr, std::uint64_t size) {
  if (size == 0) return;
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = first; b <= last; b += config_.blockSize) {
    (void)ensureInL1(b);
  }
}

void CacheHierarchy::flushBlock(std::uint64_t addr, FlushKind kind) {
  const std::uint64_t base = blockBase(addr);

  // One probe per level; every later step reuses the cached line indices.
  std::array<std::int64_t, kMaxLevels> lineAt;
  std::size_t lowest = kNone;
  bool dirtyAnywhere = false;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const auto line = levels_[i].find(base);
    lineAt[i] = line ? static_cast<std::int64_t>(*line) : -1;
    if (line) {
      if (lowest == kNone) lowest = i;
      dirtyAnywhere = dirtyAnywhere || levels_[i].dirty(*line);
    }
  }
  if (lowest == kNone) {
    ++events_.flushNonResident;
    return;
  }

  if (dirtyAnywhere) {
    const auto freshest =
        levels_[lowest].data(static_cast<std::uint32_t>(lineAt[lowest]));
    nvm_.writeBlock(base, freshest);
    ++events_.nvmBlockWrites;
    ++events_.flushInducedNvmWrites;
    ++events_.flushDirty;
    // All copies become clean and identical to NVM.
    for (std::size_t i = lowest; i < levels_.size(); ++i) {
      if (lineAt[i] < 0) continue;
      const auto l = static_cast<std::uint32_t>(lineAt[i]);
      auto dst = levels_[i].data(l);
      std::copy(freshest.begin(), freshest.end(), dst.begin());
      levels_[i].setDirty(l, false);
    }
  } else {
    ++events_.flushClean;
  }

  if (kind != FlushKind::Clwb) {
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (lineAt[i] >= 0) {
        levels_[i].invalidateLine(static_cast<std::uint32_t>(lineAt[i]));
      }
    }
  }
}

void CacheHierarchy::flushRange(std::uint64_t addr, std::uint64_t size,
                                FlushKind kind) {
  if (size == 0) return;
  const bool trace = telemetry::tracing();
  const MemEvents before = trace ? events_ : MemEvents{};
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = first; b <= last; b += config_.blockSize) {
    flushBlock(b, kind);
  }
  if (trace) {
    const MemEvents d = events_.delta(before);
    telemetry::TraceEvent("flush_burst")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", (last - first) / config_.blockSize + 1)
        .field("dirty", d.flushDirty)
        .field("clean", d.flushClean)
        .field("non_resident", d.flushNonResident)
        .field("nvm_writes", d.nvmBlockWrites)
        .emit();
  }
}

void CacheHierarchy::peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  if (!scanFast_) {
    peekScalar(addr, dst);
    return;
  }
  if (dst.empty()) return;
  // Only dirty-indexed blocks can hold a value diverging from NVM (a clean
  // copy equals the level below it, down to NVM — the coherence invariant
  // checkInvariants() asserts), so runs of non-indexed blocks are served
  // with one bulk NVM read each and only indexed blocks pay cache probes.
  const std::uint64_t end = addr + dst.size();
  std::uint64_t runStart = addr;  // start of the pending NVM run
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(end - 1);
  for (std::uint64_t base = first; base <= last; base += config_.blockSize) {
    if (!dirtyIndex_.contains(base)) continue;
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + config_.blockSize, end);
    if (lo > runStart) {
      nvm_.read(runStart, {dst.data() + (runStart - addr), lo - runStart});
    }
    const auto src = dirtyBlockData(base);
    std::memcpy(dst.data() + (lo - addr), src.data() + (lo - base), hi - lo);
    runStart = hi;
  }
  if (runStart < end) {
    nvm_.read(runStart, {dst.data() + (runStart - addr), end - runStart});
  }
}

void CacheHierarchy::peekScalar(std::uint64_t addr,
                                std::span<std::uint8_t> dst) const {
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    const Resident res = lowestResident(base);
    if (res.level == kNone) {
      nvm_.read(a, {dst.data() + offset, chunk});
    } else {
      const auto src = levels_[res.level].data(res.line);
      std::memcpy(dst.data() + offset, src.data() + inBlock, chunk);
    }
    offset += chunk;
  }
}

std::uint64_t CacheHierarchy::inconsistentBytes(std::uint64_t addr,
                                                std::uint64_t size) const {
  if (size == 0) return 0;
  if (!scanFast_) return inconsistentBytesScalar(addr, size);
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  const std::uint64_t blocks = (last - first) / config_.blockSize + 1;
  std::uint64_t count = 0;
  std::uint64_t compared = 0;
  std::uint64_t bytesCompared = 0;
  dirtyIndex_.forEachIn(first, last, [&](std::uint64_t base) {
    const auto cached = dirtyBlockData(base);
    // Compare against the NVM image in place; the scratch copy only serves
    // blocks the image does not fully back (those bytes read as zeros).
    const std::uint8_t* image = nvm_.blockView(base).data();
    if (image == nullptr) {
      nvm_.read(base, scanScratch_);
      image = scanScratch_.data();
    }
    // Only count bytes inside [addr, addr+size).
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + config_.blockSize, addr + size);
    count += scan::countDiffBytes(cached.data() + (lo - base),
                                  image + (lo - base), hi - lo);
    ++compared;
    bytesCompared += hi - lo;
  });
  events_.postmortemBlocksCompared += compared;
  events_.postmortemBlocksSkipped += blocks - compared;
  events_.postmortemBytesCompared += bytesCompared;
  if (telemetry::tracing()) {
    telemetry::TraceEvent("postmortem_scan")
        .field("addr", addr)
        .field("bytes", size)
        .field("blocks", blocks)
        .field("blocks_compared", compared)
        .field("blocks_skipped", blocks - compared)
        .field("bytes_compared", bytesCompared)
        .field("diff", count)
        .field("kernel", scan::kernelName(scan::activeKernel()))
        .emit();
  }
  return count;
}

std::uint64_t CacheHierarchy::inconsistentBytesScalar(std::uint64_t addr,
                                                      std::uint64_t size) const {
  if (size == 0) return 0;
  std::uint64_t count = 0;
  std::vector<std::uint8_t> nvmBlock(config_.blockSize);
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t base = first; base <= last; base += config_.blockSize) {
    bool dirtyAnywhere = false;
    Resident lowest;
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (const auto line = levels_[i].find(base)) {
        if (lowest.level == kNone) lowest = {i, *line};
        dirtyAnywhere = dirtyAnywhere || levels_[i].dirty(*line);
      }
    }
    if (!dirtyAnywhere) continue;  // clean or absent copies match NVM

    const auto cached = levels_[lowest.level].data(lowest.line);
    nvm_.read(base, nvmBlock);

    // Only count bytes inside [addr, addr+size).
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + config_.blockSize, addr + size);
    for (std::uint64_t b = lo; b < hi; ++b) {
      const std::uint64_t i = b - base;
      if (cached[i] != nvmBlock[i]) ++count;
    }
  }
  return count;
}

void CacheHierarchy::drainAll() {
  // Propagate dirty data downward level by level, then write LLC dirt to
  // NVM. The incremental dirty counter lets a clean level be skipped without
  // scanning it, and the per-line walk needs no temporary block list: the
  // walk only flips dirty bits, never moves lines.
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    CacheLevel& upper = levels_[i];
    CacheLevel& lower = levels_[i + 1];
    if (upper.dirtyLines() == 0) continue;
    for (std::uint32_t line = 0; line < upper.lineCount(); ++line) {
      if (!upper.valid(line) || !upper.dirty(line)) continue;
      const std::uint64_t blockAddr = upper.blockAddr(line);
      const auto loLine = lower.find(blockAddr);
      EC_CHECK_MSG(loLine.has_value(), "inclusivity violated during drain");
      const auto src = upper.data(line);
      auto dst = lower.data(*loLine);
      std::copy(src.begin(), src.end(), dst.begin());
      lower.setDirty(*loLine, true);
      upper.setDirty(line, false);
    }
  }
  CacheLevel& llc = levels_.back();
  if (llc.dirtyLines() == 0) return;
  for (std::uint32_t line = 0; line < llc.lineCount(); ++line) {
    if (!llc.valid(line) || !llc.dirty(line)) continue;
    nvm_.writeBlock(llc.blockAddr(line), llc.data(line));
    ++events_.nvmBlockWrites;
    llc.setDirty(line, false);
  }
}

void CacheHierarchy::invalidateAll() {
  for (auto& level : levels_) level.invalidateAll();
}

void CacheHierarchy::checkInvariants() const {
  for (const CacheLevel& level : levels_) level.checkDirectory();
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    levels_[i].forEachValid([&](std::uint64_t blockAddr, bool dirty,
                                std::span<const std::uint8_t> data) {
      const auto below = levels_[i + 1].find(blockAddr);
      EC_CHECK_MSG(below.has_value(), "inclusivity: block missing from lower level");
      if (!dirty) {
        const auto lowerData = levels_[i + 1].data(*below);
        EC_CHECK_MSG(std::equal(data.begin(), data.end(), lowerData.begin()),
                     "clean upper copy differs from lower level");
      }
    });
  }
  // Clean LLC lines must match the NVM image.
  std::vector<std::uint8_t> nvmBlock(config_.blockSize);
  levels_.back().forEachValid([&](std::uint64_t blockAddr, bool dirty,
                                  std::span<const std::uint8_t> data) {
    bool dirtyAbove = false;
    for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
      if (const auto line = levels_[i].find(blockAddr)) {
        dirtyAbove = dirtyAbove || levels_[i].dirty(*line);
      }
    }
    if (!dirty && !dirtyAbove) {
      nvm_.read(blockAddr, nvmBlock);
      EC_CHECK_MSG(std::equal(data.begin(), data.end(), nvmBlock.begin()),
                   "clean LLC copy differs from NVM image");
    }
  });
}

}  // namespace easycrash::memsim
