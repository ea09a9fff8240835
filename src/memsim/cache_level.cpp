#include "easycrash/memsim/cache_level.hpp"

#include <cstring>
#include <limits>

#include "easycrash/common/check.hpp"

namespace easycrash::memsim {

namespace {

[[nodiscard]] constexpr bool isPowerOfTwo(std::uint64_t v) {
  return v != 0 && (v & (v - 1)) == 0;
}

[[nodiscard]] std::uint32_t log2Exact(std::uint64_t v) {
  std::uint32_t shift = 0;
  while ((1ULL << shift) < v) ++shift;
  return shift;
}

}  // namespace

CacheLevel::CacheLevel(const CacheGeometry& geometry, std::uint32_t blockSize)
    : blockSize_(blockSize), assoc_(geometry.associativity) {
  EC_CHECK(geometry.sizeBytes > 0);
  EC_CHECK(assoc_ > 0);
  EC_CHECK_MSG(isPowerOfTwo(blockSize_), "block size must be a power of two");
  blockShift_ = log2Exact(blockSize_);
  const std::uint64_t numLines = geometry.sizeBytes / blockSize_;
  EC_CHECK_MSG(numLines * blockSize_ == geometry.sizeBytes,
               "cache size must be a multiple of the block size");
  EC_CHECK_MSG(numLines % assoc_ == 0, "lines must divide evenly into sets");
  EC_CHECK_MSG(numLines < std::numeric_limits<std::uint32_t>::max(),
               "line count must fit a 32-bit directory entry");
  sets_ = numLines / assoc_;
  setsPow2_ = isPowerOfTwo(sets_);
  setMask_ = setsPow2_ ? sets_ - 1 : 0;
  lines_.resize(numLines);
  storage_.resize(numLines * blockSize_, 0);
}

std::optional<std::uint32_t> CacheLevel::find(std::uint64_t blockAddr) const {
  if (mruValid_ && mruBlock_ == blockAddr) return mruLine_;
  const std::uint64_t block = blockAddr >> blockShift_;
  if (block >= directory_.size()) return std::nullopt;
  const std::uint32_t entry = directory_[block];
  if (entry == 0) return std::nullopt;
  mruBlock_ = blockAddr;
  mruLine_ = entry - 1;
  mruValid_ = true;
  return entry - 1;
}

void CacheLevel::noteRemoved(const Line& line) {
  --validCount_;
  if (line.dirty) {
    --dirtyCount_;
    if (dirtyIndex_ != nullptr) dirtyIndex_->remove(line.blockAddr, levelId_);
  }
  if (mruValid_ && mruBlock_ == line.blockAddr) mruValid_ = false;
  directory_[line.blockAddr >> blockShift_] = 0;
}

CacheLevel::InsertResult CacheLevel::insert(std::uint64_t blockAddr,
                                            Evicted& victim) {
  EC_DCHECK_MSG((blockAddr & (blockSize_ - 1)) == 0, "insert of an unaligned block");
  EC_DCHECK_MSG(!find(blockAddr).has_value(), "block already resident");
  const std::uint64_t block = blockAddr >> blockShift_;
  if (block >= directory_.size()) directory_.resize(block + 1, 0);
  const std::uint32_t base = lineIndex(setOf(blockAddr), 0);

  // The first way with the minimum lastUse: an invalid way (lastUse 0) if
  // there is one, else the least recently used.
  std::uint32_t victimWay = 0;
  std::uint64_t oldest = lines_[base].lastUse;
  for (std::uint32_t way = 1; way < assoc_; ++way) {
    const std::uint64_t use = lines_[base + way].lastUse;
    victimWay = use < oldest ? way : victimWay;
    oldest = use < oldest ? use : oldest;
  }

  const std::uint32_t idx = base + victimWay;
  Line& line = lines_[idx];
  InsertResult result{idx, oldest != 0};
  if (result.evicted) {
    victim.blockAddr = line.blockAddr;
    victim.dirty = line.dirty;
    const auto src = data(idx);
    victim.data.assign(src.begin(), src.end());
    noteRemoved(line);
  }

  line.blockAddr = blockAddr;
  line.dirty = false;
  line.lastUse = ++tick_;
  ++validCount_;
  directory_[block] = idx + 1;
  mruBlock_ = blockAddr;
  mruLine_ = idx;
  mruValid_ = true;
  return result;
}

std::optional<CacheLevel::Evicted> CacheLevel::insert(std::uint64_t blockAddr) {
  EC_CHECK_MSG(!find(blockAddr).has_value(), "block already resident");
  Evicted victim;
  const InsertResult result = insert(blockAddr, victim);
  // The hot-path insert leaves stale bytes for the caller to overwrite; this
  // wrapper preserves the historical zero-initialised contract.
  std::memset(storage_.data() + static_cast<std::size_t>(result.line) * blockSize_,
              0, blockSize_);
  if (!result.evicted) return std::nullopt;
  return victim;
}

void CacheLevel::extractLineInto(std::uint32_t line, Evicted& out) {
  const Line& l = lines_[line];
  out.blockAddr = l.blockAddr;
  out.dirty = l.dirty;
  const auto src = data(line);
  out.data.assign(src.begin(), src.end());
  invalidateLine(line);
}

CacheLevel::Evicted CacheLevel::extract(std::uint64_t blockAddr) {
  const auto line = find(blockAddr);
  EC_CHECK_MSG(line.has_value(), "extract of non-resident block");
  Evicted out;
  extractLineInto(*line, out);
  return out;
}

void CacheLevel::invalidateLine(std::uint32_t line) {
  Line& l = lines_[line];
  EC_DCHECK_MSG(l.lastUse != 0, "invalidateLine of an invalid line");
  noteRemoved(l);
  l.lastUse = 0;
  l.dirty = false;
}

void CacheLevel::invalidateAll() {
  for (Line& line : lines_) {
    if (line.lastUse == 0) continue;
    if (line.dirty && dirtyIndex_ != nullptr) {
      dirtyIndex_->remove(line.blockAddr, levelId_);
    }
    directory_[line.blockAddr >> blockShift_] = 0;
    line.lastUse = 0;
    line.dirty = false;
  }
  validCount_ = 0;
  dirtyCount_ = 0;
  mruValid_ = false;
}

void CacheLevel::checkDirectory() const {
  for (std::uint32_t i = 0; i < lines_.size(); ++i) {
    if (!valid(i)) continue;
    const std::uint64_t blockAddr = lines_[i].blockAddr;
    const std::uint64_t block = blockAddr >> blockShift_;
    EC_CHECK_MSG(block < directory_.size() && directory_[block] == i + 1,
                 "directory: valid line missing from its block's entry");
    EC_CHECK_MSG(i / assoc_ == setOf(blockAddr), "directory: line outside its set");
  }
  std::uint64_t entries = 0;
  for (std::uint64_t block = 0; block < directory_.size(); ++block) {
    const std::uint32_t entry = directory_[block];
    if (entry == 0) continue;
    ++entries;
    EC_CHECK_MSG(entry - 1 < lines_.size() && valid(entry - 1) &&
                     lines_[entry - 1].blockAddr >> blockShift_ == block,
                 "directory: entry names a line not holding its block");
  }
  EC_CHECK_MSG(entries == validCount_, "directory: entry count != valid lines");
}

}  // namespace easycrash::memsim
