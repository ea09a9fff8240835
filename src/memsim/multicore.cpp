#include "easycrash/memsim/multicore.hpp"

#include <algorithm>
#include <cstring>

#include "easycrash/common/check.hpp"
#include "easycrash/memsim/scan.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

void MulticoreConfig::validate() const {
  EC_CHECK_MSG(cores >= 1, "at least one core");
  EC_CHECK_MSG(blockSize > 0 && (blockSize & (blockSize - 1)) == 0,
               "block size must be a power of two");
  EC_CHECK_MSG(sharedLlc.sizeBytes >= privateCache.sizeBytes,
               "inclusive LLC must be at least as large as a private cache");
}

MulticoreSystem::MulticoreSystem(MulticoreConfig config, NvmStore& nvm)
    : config_(config), nvm_(nvm), llc_(config.sharedLlc, config.blockSize) {
  config_.validate();
  EC_CHECK(nvm_.blockSize() == config_.blockSize);
  private_.reserve(static_cast<std::size_t>(config_.cores));
  for (int c = 0; c < config_.cores; ++c) {
    private_.emplace_back(config_.privateCache, config_.blockSize);
  }
  events_.resize(static_cast<std::size_t>(config_.cores));
  // Mask ids are freshest-first: a dirty private copy (the Modified owner)
  // is newer than a dirty LLC copy, so privates take the low bits.
  for (std::size_t i = 0; i < private_.size(); ++i) {
    private_[i].attachDirtyIndex(&dirtyIndex_, static_cast<std::uint32_t>(i));
  }
  llc_.attachDirtyIndex(&dirtyIndex_, static_cast<std::uint32_t>(private_.size()));
  fillScratch_.resize(config_.blockSize);
  scanImage_.resize(config_.blockSize);
  flushLines_.resize(private_.size());
}

void MulticoreSystem::privateVictimToLlc(int core, const CacheLevel::Evicted& victim) {
  (void)core;
  const auto llcLine = llc_.find(victim.blockAddr);
  EC_CHECK_MSG(llcLine.has_value(), "inclusivity violated: private victim not in LLC");
  if (victim.dirty) {
    auto dst = llc_.data(*llcLine);
    std::copy(victim.data.begin(), victim.data.end(), dst.begin());
    llc_.setDirty(*llcLine, true);
  }
}

void MulticoreSystem::llcVictim(CacheLevel::Evicted& victim) {
  // Back-invalidate every core; at most one holds a Modified (fresher) copy.
  for (auto& cache : private_) {
    if (const auto line = cache.find(victim.blockAddr)) {
      cache.extractLineInto(*line, mergeScratch_);
      if (mergeScratch_.dirty) {
        std::swap(victim.data, mergeScratch_.data);
        victim.dirty = true;
      }
    }
  }
  if (victim.dirty) {
    nvm_.writeBlock(victim.blockAddr, victim.data);
    events_[0].nvmBlockWrites += 1;  // LLC write-backs accounted globally
  }
}

std::uint32_t MulticoreSystem::acquire(int core, std::uint64_t blockAddr,
                                       bool forWrite) {
  EC_CHECK(core >= 0 && core < cores());
  CacheLevel& mine = private_[static_cast<std::size_t>(core)];
  CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];

  if (const auto line = mine.find(blockAddr)) {
    ev.privateHits += 1;
    mine.touch(*line);
    if (forWrite && !mine.dirty(*line)) {
      // S -> M upgrade: invalidate every other copy.
      for (int peer = 0; peer < cores(); ++peer) {
        if (peer == core) continue;
        CacheLevel& theirs = private_[static_cast<std::size_t>(peer)];
        if (const auto theirLine = theirs.find(blockAddr)) {
          theirs.invalidateLine(*theirLine);
          ev.invalidationsSent += 1;
        }
      }
      mine.setDirty(*line, true);
    }
    return *line;
  }
  ev.privateMisses += 1;

  // Snoop: a peer holding a Modified copy must surrender the fresh data.
  for (int peer = 0; peer < cores(); ++peer) {
    if (peer == core) continue;
    CacheLevel& theirs = private_[static_cast<std::size_t>(peer)];
    const auto line = theirs.find(blockAddr);
    if (!line) continue;
    if (theirs.dirty(*line)) {
      const auto llcLine = llc_.find(blockAddr);
      EC_CHECK_MSG(llcLine.has_value(), "inclusivity violated during snoop");
      auto dst = llc_.data(*llcLine);
      const auto src = theirs.data(*line);
      std::copy(src.begin(), src.end(), dst.begin());
      llc_.setDirty(*llcLine, true);
      theirs.setDirty(*line, false);  // M -> S downgrade
      ev.ownershipTransfers += 1;
    }
    if (forWrite) {
      theirs.invalidateLine(*line);
      ev.invalidationsSent += 1;
    }
  }

  // Fetch the block into the LLC if absent.
  if (const auto llcLine = llc_.find(blockAddr)) {
    ev.llcHits += 1;
    llc_.touch(*llcLine);
    const auto src = llc_.data(*llcLine);
    std::copy(src.begin(), src.end(), fillScratch_.begin());
  } else {
    ev.llcMisses += 1;
    ev.nvmBlockReads += 1;
    nvm_.read(blockAddr, fillScratch_);
    const auto inserted = llc_.insert(blockAddr, evictScratch_);
    if (inserted.evicted) llcVictim(evictScratch_);
    auto dst = llc_.data(inserted.line);
    std::copy(fillScratch_.begin(), fillScratch_.end(), dst.begin());
  }

  // Install in the requesting core's private cache.
  const auto installed = mine.insert(blockAddr, evictScratch_);
  if (installed.evicted) privateVictimToLlc(core, evictScratch_);
  auto dst = mine.data(installed.line);
  std::copy(fillScratch_.begin(), fillScratch_.end(), dst.begin());
  if (forWrite) mine.setDirty(installed.line, true);
  return installed.line;
}

void MulticoreSystem::load(int core, std::uint64_t addr,
                           std::span<std::uint8_t> dst) {
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    const auto line = acquire(core, base, /*forWrite=*/false);
    const auto src = private_[static_cast<std::size_t>(core)].data(line);
    std::memcpy(dst.data() + offset, src.data() + inBlock, chunk);
    events_[static_cast<std::size_t>(core)].loads += 1;
    offset += chunk;
  }
}

void MulticoreSystem::store(int core, std::uint64_t addr,
                            std::span<const std::uint8_t> src) {
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, src.size() - offset);
    const auto line = acquire(core, base, /*forWrite=*/true);
    auto dst = private_[static_cast<std::size_t>(core)].data(line);
    std::memcpy(dst.data() + inBlock, src.data() + offset, chunk);
    events_[static_cast<std::size_t>(core)].stores += 1;
    offset += chunk;
  }
}

void MulticoreSystem::loadRange(int core, std::uint64_t addr,
                                std::span<std::uint8_t> dst,
                                std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];
  std::uint64_t offset = 0;
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    const auto line = acquire(core, base, /*forWrite=*/false);
    ev.privateHits += touches - 1;
    ev.loads += touches;
    const auto src = private_[static_cast<std::size_t>(core)].data(line);
    std::memcpy(dst.data() + offset, src.data() + inBlock, chunk);
    offset += chunk;
  }
}

void MulticoreSystem::storeRange(int core, std::uint64_t addr,
                                 std::span<const std::uint8_t> src,
                                 std::uint32_t elemSize) {
  EC_CHECK(elemSize > 0);
  CoherenceEvents& ev = events_[static_cast<std::size_t>(core)];
  std::uint64_t offset = 0;
  while (offset < src.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, src.size() - offset);
    const std::uint64_t touches =
        (offset + chunk - 1) / elemSize - offset / elemSize + 1;
    const auto line = acquire(core, base, /*forWrite=*/true);
    ev.privateHits += touches - 1;
    ev.stores += touches;
    auto dst = private_[static_cast<std::size_t>(core)].data(line);
    std::memcpy(dst.data() + inBlock, src.data() + offset, chunk);
    offset += chunk;
  }
}

std::span<const std::uint8_t> MulticoreSystem::dirtyBlockData(
    std::uint64_t blockAddr) const {
  const std::uint32_t owner = dirtyIndex_.ownerLevel(blockAddr);
  const CacheLevel& cache = owner < private_.size() ? private_[owner] : llc_;
  const auto line = cache.find(blockAddr);
  EC_DCHECK_MSG(line.has_value() && cache.dirty(*line),
                "dirty-index owner record out of sync");
  return cache.data(*line);
}

void MulticoreSystem::freshestBlock(std::uint64_t blockAddr,
                                    std::span<std::uint8_t> out) const {
  for (const auto& cache : private_) {
    if (const auto line = cache.find(blockAddr)) {
      if (cache.dirty(*line)) {
        const auto src = cache.data(*line);
        std::copy(src.begin(), src.end(), out.begin());
        return;
      }
    }
  }
  if (const auto line = llc_.find(blockAddr)) {
    const auto src = llc_.data(*line);
    std::copy(src.begin(), src.end(), out.begin());
    return;
  }
  nvm_.read(blockAddr, out);
}

void MulticoreSystem::flushBlock(std::uint64_t addr, FlushKind kind) {
  const std::uint64_t base = blockBase(addr);
  CoherenceEvents& ev = events_[0];

  // One lookup per cache; every later step reuses the line indices. The
  // freshest copy is the Modified owner's, else the LLC's (freshestBlock()).
  const auto llcLine = llc_.find(base);
  bool resident = llcLine.has_value();
  bool dirtyAnywhere = llcLine && llc_.dirty(*llcLine);
  std::span<const std::uint8_t> owner;
  for (std::size_t c = 0; c < private_.size(); ++c) {
    const auto line = private_[c].find(base);
    flushLines_[c] = line ? static_cast<std::int64_t>(*line) : -1;
    if (!line) continue;
    resident = true;
    if (private_[c].dirty(*line)) {
      dirtyAnywhere = true;
      if (owner.empty()) owner = private_[c].data(*line);
    }
  }

  if (!resident) {
    ev.flushNonResident += 1;
    return;
  }
  if (dirtyAnywhere) {
    if (owner.empty()) owner = llc_.data(*llcLine);
    std::span<std::uint8_t> fresh(fillScratch_);
    std::copy(owner.begin(), owner.end(), fresh.begin());
    nvm_.writeBlock(base, fresh);
    ev.nvmBlockWrites += 1;
    ev.flushDirty += 1;
    // All copies become clean and identical to NVM.
    for (std::size_t c = 0; c < private_.size(); ++c) {
      if (flushLines_[c] < 0) continue;
      const auto line = static_cast<std::uint32_t>(flushLines_[c]);
      auto dst = private_[c].data(line);
      std::copy(fresh.begin(), fresh.end(), dst.begin());
      private_[c].setDirty(line, false);
    }
    if (llcLine) {
      auto dst = llc_.data(*llcLine);
      std::copy(fresh.begin(), fresh.end(), dst.begin());
      llc_.setDirty(*llcLine, false);
    }
  } else {
    ev.flushClean += 1;
  }

  if (kind != FlushKind::Clwb) {
    for (std::size_t c = 0; c < private_.size(); ++c) {
      if (flushLines_[c] >= 0) {
        private_[c].invalidateLine(static_cast<std::uint32_t>(flushLines_[c]));
      }
    }
    if (llcLine) llc_.invalidateLine(*llcLine);
  }
}

void MulticoreSystem::flushRange(std::uint64_t addr, std::uint64_t size,
                                 FlushKind kind) {
  if (size == 0) return;
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t b = first; b <= last; b += config_.blockSize) {
    flushBlock(b, kind);
  }
}

void MulticoreSystem::peek(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  if (!scanFast_) {
    peekScalar(addr, dst);
    return;
  }
  if (dst.empty()) return;
  // Blocks dirty nowhere match NVM (MESI: a clean copy was filled from NVM
  // or written back to it), so runs of non-indexed blocks are served with
  // one bulk NVM read each; only indexed blocks resolve the freshest copy.
  const std::uint64_t end = addr + dst.size();
  std::uint64_t runStart = addr;
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

void MulticoreSystem::peekScalar(std::uint64_t addr,
                                 std::span<std::uint8_t> dst) const {
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> block(config_.blockSize);
  while (offset < dst.size()) {
    const std::uint64_t a = addr + offset;
    const std::uint64_t base = blockBase(a);
    const std::uint64_t inBlock = a - base;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.blockSize - inBlock, dst.size() - offset);
    freshestBlock(base, block);
    std::memcpy(dst.data() + offset, block.data() + inBlock, chunk);
    offset += chunk;
  }
}

std::uint64_t MulticoreSystem::inconsistentBytes(std::uint64_t addr,
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
    // The index owner record IS the freshest copy (the Modified owner, or
    // the LLC when no private copy is dirty — a clean private copy equals
    // the LLC's by MESI), so no freshestBlock() scratch copy and no
    // probe-every-cache walk.
    const auto fresh = dirtyBlockData(base);
    const std::uint8_t* image = nvm_.blockView(base).data();
    if (image == nullptr) {
      nvm_.read(base, scanImage_);
      image = scanImage_.data();
    }
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + config_.blockSize, addr + size);
    count += scan::countDiffBytes(fresh.data() + (lo - base),
                                  image + (lo - base), hi - lo);
    ++compared;
    bytesCompared += hi - lo;
  });
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

std::uint64_t MulticoreSystem::inconsistentBytesScalar(std::uint64_t addr,
                                                       std::uint64_t size) const {
  if (size == 0) return 0;
  std::uint64_t count = 0;
  std::vector<std::uint8_t> fresh(config_.blockSize), image(config_.blockSize);
  const std::uint64_t first = blockBase(addr);
  const std::uint64_t last = blockBase(addr + size - 1);
  for (std::uint64_t base = first; base <= last; base += config_.blockSize) {
    bool dirtyAnywhere = false;
    if (const auto line = llc_.find(base)) dirtyAnywhere = llc_.dirty(*line);
    for (const auto& cache : private_) {
      if (const auto line = cache.find(base)) {
        dirtyAnywhere = dirtyAnywhere || cache.dirty(*line);
      }
    }
    if (!dirtyAnywhere) continue;
    freshestBlock(base, fresh);
    nvm_.read(base, image);
    const std::uint64_t lo = std::max(base, addr);
    const std::uint64_t hi = std::min(base + config_.blockSize, addr + size);
    for (std::uint64_t b = lo; b < hi; ++b) {
      if (fresh[b - base] != image[b - base]) ++count;
    }
  }
  return count;
}

void MulticoreSystem::invalidateAll() {
  for (auto& cache : private_) cache.invalidateAll();
  llc_.invalidateAll();
}

void MulticoreSystem::drainAll() {
  // Private dirt into the LLC first, then the LLC into NVM. The walk only
  // flips dirty bits, so it can iterate lines in place (no block list), and
  // the incremental dirty counters skip clean caches entirely.
  for (auto& cache : private_) {
    if (cache.dirtyLines() == 0) continue;
    for (std::uint32_t line = 0; line < cache.lineCount(); ++line) {
      if (!cache.valid(line) || !cache.dirty(line)) continue;
      const auto llcLine = llc_.find(cache.blockAddr(line));
      EC_CHECK_MSG(llcLine.has_value(), "inclusivity violated during drain");
      const auto src = cache.data(line);
      auto dst = llc_.data(*llcLine);
      std::copy(src.begin(), src.end(), dst.begin());
      llc_.setDirty(*llcLine, true);
      cache.setDirty(line, false);
    }
  }
  if (llc_.dirtyLines() == 0) return;
  for (std::uint32_t line = 0; line < llc_.lineCount(); ++line) {
    if (!llc_.valid(line) || !llc_.dirty(line)) continue;
    nvm_.writeBlock(llc_.blockAddr(line), llc_.data(line));
    events_[0].nvmBlockWrites += 1;
    llc_.setDirty(line, false);
  }
}

const CoherenceEvents& MulticoreSystem::coreEvents(int core) const {
  EC_CHECK(core >= 0 && core < cores());
  return events_[static_cast<std::size_t>(core)];
}

CoherenceEvents MulticoreSystem::totalEvents() const {
  CoherenceEvents total;
  for (const auto& ev : events_) {
    total.loads += ev.loads;
    total.stores += ev.stores;
    total.privateHits += ev.privateHits;
    total.privateMisses += ev.privateMisses;
    total.llcHits += ev.llcHits;
    total.llcMisses += ev.llcMisses;
    total.invalidationsSent += ev.invalidationsSent;
    total.ownershipTransfers += ev.ownershipTransfers;
    total.nvmBlockWrites += ev.nvmBlockWrites;
    total.nvmBlockReads += ev.nvmBlockReads;
    total.flushDirty += ev.flushDirty;
    total.flushClean += ev.flushClean;
    total.flushNonResident += ev.flushNonResident;
  }
  return total;
}

void MulticoreSystem::checkInvariants() const {
  for (const CacheLevel& cache : private_) cache.checkDirectory();
  llc_.checkDirectory();
  std::vector<std::uint8_t> image(config_.blockSize);
  for (int core = 0; core < cores(); ++core) {
    private_[static_cast<std::size_t>(core)].forEachValid(
        [&](std::uint64_t blockAddr, bool dirty, std::span<const std::uint8_t> data) {
          // Inclusive LLC.
          const auto llcLine = llc_.find(blockAddr);
          EC_CHECK_MSG(llcLine.has_value(), "private block missing from LLC");
          // Single-writer: no other core may hold this block dirty.
          if (dirty) {
            for (int peer = 0; peer < cores(); ++peer) {
              if (peer == core) continue;
              const auto& theirs = private_[static_cast<std::size_t>(peer)];
              if (const auto line = theirs.find(blockAddr)) {
                EC_CHECK_MSG(!theirs.dirty(*line),
                             "two Modified copies of the same block");
              }
            }
          } else {
            // Shared copies mirror the LLC.
            const auto llcData = llc_.data(*llcLine);
            EC_CHECK_MSG(std::equal(data.begin(), data.end(), llcData.begin()),
                         "clean private copy differs from the LLC");
          }
        });
  }
}

}  // namespace easycrash::memsim
