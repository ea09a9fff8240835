#include "easycrash/memsim/nvm_store.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "easycrash/common/check.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::memsim {

NvmStore::NvmStore(std::uint32_t blockSize) : blockSize_(blockSize) {
  EC_CHECK(blockSize_ > 0 && (blockSize_ & (blockSize_ - 1)) == 0);
}

void NvmStore::ensure(std::uint64_t endAddr) {
  // Round capacity growth to 1MiB chunks to amortise resizes.
  constexpr std::uint64_t kChunk = 1ULL << 20;
  EC_CHECK_MSG(endAddr <= std::numeric_limits<std::uint64_t>::max() - kChunk,
               "NvmStore address range overflows");
  if (endAddr > image_.size()) {
    EC_CHECK_MSG(!pinned_, "pinned NVM image cannot grow");
    const std::uint64_t target = (endAddr + kChunk - 1) / kChunk * kChunk;
    image_.resize(target, 0);
  }
}

void NvmStore::readSlow(std::uint64_t addr, std::span<std::uint8_t> dst) const {
  if (dst.empty()) return;
  EC_CHECK_MSG(addr + dst.size() > addr, "NvmStore read range overflows");
  // Reads never materialise backing storage: bytes beyond the written image
  // are served as zeros, so scanning a large never-written object does not
  // balloon the store (reads of unbacked NVM are architecturally zero).
  const std::uint64_t backed =
      addr < image_.size()
          ? std::min<std::uint64_t>(dst.size(), image_.size() - addr)
          : 0;
  if (backed > 0) std::memcpy(dst.data(), image_.data() + addr, backed);
  if (backed < dst.size()) std::memset(dst.data() + backed, 0, dst.size() - backed);
}

void NvmStore::writeBlock(std::uint64_t addr, std::span<const std::uint8_t> src) {
  EC_CHECK_MSG(addr % blockSize_ == 0, "block write must be block-aligned");
  EC_CHECK(src.size() == blockSize_);
  ensure(addr + blockSize_);
  std::memcpy(image_.data() + addr, src.data(), blockSize_);
  ++blockWrites_;
  if constexpr (telemetry::kTraceCompiledIn) {
    if (wearEnabled_) {
      const std::size_t block = static_cast<std::size_t>(addr / blockSize_);
      if (block >= wearProfile_.size()) wearProfile_.resize(block + 1, 0);
      ++wearProfile_[block];
    }
  }
}

void NvmStore::enableWearProfile() {
  if constexpr (telemetry::kTraceCompiledIn) wearEnabled_ = true;
}

void NvmStore::pokeSlow(std::uint64_t addr, std::span<const std::uint8_t> src) {
  if (src.empty()) return;
  EC_CHECK_MSG(addr + src.size() > addr, "NvmStore poke range overflows");
  ensure(addr + src.size());
  std::memcpy(image_.data() + addr, src.data(), src.size());
}

void NvmStore::restoreImage(std::vector<std::uint8_t> image) {
  EC_CHECK_MSG(!pinned_, "cannot restore a pinned NVM image");
  image_ = std::move(image);
}

std::uint8_t* NvmStore::pin(std::uint64_t bytes) {
  pinned_ = false;
  ensure(std::max<std::uint64_t>(bytes, 1));
  pinned_ = true;
  return image_.data();
}

}  // namespace easycrash::memsim
