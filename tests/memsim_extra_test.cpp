// Additional memory-system tests: CacheLevel internals (LRU, extraction,
// eviction), MemEvents accounting, flush-instruction kinds, and hierarchy
// event counters.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/cache_level.hpp"
#include "easycrash/memsim/config.hpp"
#include "easycrash/memsim/events.hpp"
#include "easycrash/memsim/hierarchy.hpp"

namespace ms = easycrash::memsim;

namespace {

ms::CacheGeometry smallGeometry() { return ms::CacheGeometry{256, 2}; }  // 4 lines

}  // namespace

TEST(CacheLevelTest, InsertAndFind) {
  ms::CacheLevel level(smallGeometry(), 64);
  EXPECT_FALSE(level.find(0).has_value());
  EXPECT_FALSE(level.insert(0).has_value());  // no victim in an empty set
  EXPECT_TRUE(level.find(0).has_value());
  EXPECT_EQ(level.validLines(), 1u);
}

TEST(CacheLevelTest, DoubleInsertRejected) {
  ms::CacheLevel level(smallGeometry(), 64);
  (void)level.insert(0);
  EXPECT_THROW((void)level.insert(0), std::logic_error);
}

TEST(CacheLevelTest, LruVictimIsLeastRecentlyTouched) {
  // 2 sets x 2 ways; blocks 0, 128 map to set 0 (64B blocks, 2 sets).
  ms::CacheLevel level(smallGeometry(), 64);
  (void)level.insert(0);
  (void)level.insert(128);
  // Touch block 0 so 128 becomes LRU.
  level.touch(*level.find(0));
  const auto victim = level.insert(256);  // set 0 again
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->blockAddr, 128u);
}

TEST(CacheLevelTest, EvictedStateCarriesDataAndDirtiness) {
  ms::CacheLevel level(smallGeometry(), 64);
  (void)level.insert(0);
  const auto line = level.find(0);
  level.data(*line)[0] = 0xAB;
  level.setDirty(*line, true);
  (void)level.insert(128);
  const auto victim = level.insert(256);
  ASSERT_TRUE(victim.has_value());
  EXPECT_TRUE(victim->dirty);
  EXPECT_EQ(victim->data[0], 0xAB);
}

TEST(CacheLevelTest, ExtractRemovesWithoutWriteback) {
  ms::CacheLevel level(smallGeometry(), 64);
  (void)level.insert(64);
  const auto line = level.find(64);
  level.setDirty(*line, true);
  const auto extracted = level.extract(64);
  EXPECT_TRUE(extracted.dirty);
  EXPECT_FALSE(level.find(64).has_value());
}

TEST(CacheLevelTest, ExtractMissingThrows) {
  ms::CacheLevel level(smallGeometry(), 64);
  EXPECT_THROW((void)level.extract(64), std::logic_error);
}

TEST(CacheLevelTest, InvalidateAllClearsEverything) {
  ms::CacheLevel level(smallGeometry(), 64);
  for (int i = 0; i < 4; ++i) (void)level.insert(i * 64);
  EXPECT_GT(level.validLines(), 0u);
  level.invalidateAll();
  EXPECT_EQ(level.validLines(), 0u);
  EXPECT_EQ(level.dirtyLines(), 0u);
}

TEST(CacheLevelTest, DirtyLineCount) {
  ms::CacheLevel level(smallGeometry(), 64);
  (void)level.insert(0);
  (void)level.insert(64);
  level.setDirty(*level.find(0), true);
  EXPECT_EQ(level.dirtyLines(), 1u);
  EXPECT_EQ(level.validLines(), 2u);
}

namespace {

/// Brute-force oracle for one CacheLevel, independent of its block
/// directory: residency is a scan of the block's set (line = set * assoc +
/// way), and the victim insert() must pick is the first invalid way of the
/// set, else the way whose last insert/touch — stamped by this oracle — is
/// oldest.
class LevelOracle {
 public:
  LevelOracle(const ms::CacheLevel& level, std::uint32_t blockSize)
      : level_(level), blockSize_(blockSize), stamps_(level.lineCount(), 0) {}

  [[nodiscard]] std::optional<std::uint32_t> scan(std::uint64_t blockAddr) const {
    std::optional<std::uint32_t> hit;
    const std::uint32_t base = firstLine(blockAddr);
    for (std::uint32_t way = 0; way < level_.associativity(); ++way) {
      const std::uint32_t line = base + way;
      if (level_.valid(line) && level_.blockAddr(line) == blockAddr) {
        EXPECT_FALSE(hit.has_value()) << "block resident twice: " << blockAddr;
        hit = line;
      }
    }
    return hit;
  }

  [[nodiscard]] std::uint32_t expectedVictim(std::uint64_t blockAddr) const {
    const std::uint32_t base = firstLine(blockAddr);
    std::uint32_t lru = base;
    for (std::uint32_t way = 0; way < level_.associativity(); ++way) {
      const std::uint32_t line = base + way;
      if (!level_.valid(line)) return line;
      if (stamps_[line] < stamps_[lru]) lru = line;
    }
    return lru;
  }

  void used(std::uint32_t line) { stamps_[line] = ++clock_; }

 private:
  [[nodiscard]] std::uint32_t firstLine(std::uint64_t blockAddr) const {
    const std::uint64_t set = blockAddr / blockSize_ % level_.sets();
    return static_cast<std::uint32_t>(set * level_.associativity());
  }

  const ms::CacheLevel& level_;
  std::uint32_t blockSize_;
  std::vector<std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
};

/// Seeded random insert/touch/extract/invalidate/invalidateAll sequence on
/// one level over blocks crowding three sets (first, second, last) with
/// twice the associativity in tags each. After every operation find() of
/// every block equals the oracle's scan, and every insert took the oracle's
/// victim way; the directory is checked against the tags periodically.
void driveLevelAgainstOracle(const ms::CacheGeometry& geometry,
                             std::uint32_t blockSize, std::uint64_t seed,
                             int ops) {
  ms::CacheLevel level(geometry, blockSize);
  LevelOracle oracle(level, blockSize);
  const std::uint64_t sets = level.sets();
  std::vector<std::uint64_t> universe;
  for (const std::uint64_t set : {std::uint64_t{0}, std::uint64_t{1}, sets - 1}) {
    for (std::uint64_t tag = 0; tag < 2ULL * level.associativity() + 1; ++tag) {
      universe.push_back((set + tag * sets) * blockSize);
    }
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()), universe.end());

  easycrash::Rng rng(seed);
  ms::CacheLevel::Evicted victim;
  std::uint64_t inserts = 0, evictions = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t block = universe[rng.below(universe.size())];
    const std::uint64_t kind = rng.below(100);
    const auto resident = level.find(block);
    if (kind == 0) {
      level.invalidateAll();
    } else if (!resident) {
      const std::uint32_t want = oracle.expectedVictim(block);
      const std::optional<std::uint64_t> displaced =
          level.valid(want) ? std::optional<std::uint64_t>(level.blockAddr(want))
                            : std::nullopt;
      const auto result = level.insert(block, victim);
      ASSERT_EQ(result.line, want) << "op " << op << " block " << block;
      ASSERT_EQ(result.evicted, displaced.has_value()) << "op " << op;
      if (displaced) {
        ASSERT_EQ(victim.blockAddr, *displaced) << "op " << op;
      }
      oracle.used(result.line);
      if (rng.below(2) == 0) level.setDirty(result.line, true);
      ++inserts;
      evictions += result.evicted ? 1 : 0;
    } else if (kind < 20) {
      const bool dirty = level.dirty(*resident);
      const auto out = level.extract(block);
      ASSERT_EQ(out.blockAddr, block);
      ASSERT_EQ(out.dirty, dirty);
    } else if (kind < 35) {
      level.invalidateLine(*resident);
    } else {
      level.touch(*resident);
      oracle.used(*resident);
    }

    std::uint64_t valid = 0;
    for (const std::uint64_t b : universe) {
      const auto expected = oracle.scan(b);
      ASSERT_EQ(level.find(b), expected) << "op " << op << " block " << b;
      valid += expected.has_value() ? 1 : 0;
    }
    ASSERT_EQ(level.validLines(), valid) << "op " << op;
    // The full two-way directory check is O(directory), ~660k entries for
    // the Xeon L3 universe, so it runs every 64 operations and at the end.
    if (op % 64 == 0) {
      ASSERT_NO_THROW(level.checkDirectory()) << "op " << op;
    }
  }
  ASSERT_NO_THROW(level.checkDirectory());
  // The sequence must have exercised both the invalid-way and the LRU pick.
  EXPECT_GT(inserts, evictions);
  EXPECT_GT(evictions, 0u);
}

}  // namespace

TEST(CacheLevelTest, DirectoryMatchesBruteForceOnTinyLevels) {
  const ms::CacheConfig config = ms::CacheConfig::tiny();
  for (std::size_t i = 0; i < config.levels.size(); ++i) {
    SCOPED_TRACE("tiny L" + std::to_string(i + 1));
    driveLevelAgainstOracle(config.levels[i], config.blockSize, 0x7157 + i, 4000);
  }
}

TEST(CacheLevelTest, DirectoryMatchesBruteForceOnXeonLevels) {
  // The L3's 11-way layout has a non-power-of-two set count (28672), so the
  // modulo set mapping is covered as well as the shift/mask one.
  const ms::CacheConfig config = ms::CacheConfig::xeonGold6126();
  ASSERT_NE(config.setsAt(2) & (config.setsAt(2) - 1), 0u);
  for (std::size_t i = 0; i < config.levels.size(); ++i) {
    SCOPED_TRACE("xeon L" + std::to_string(i + 1));
    driveLevelAgainstOracle(config.levels[i], config.blockSize, 0x6126 + i, 3000);
  }
}

TEST(MemEventsTest, DeltaSubtractsAllCounters) {
  ms::MemEvents earlier;
  earlier.loads = 10;
  earlier.hits[0] = 5;
  earlier.nvmBlockWrites = 2;
  earlier.flushDirty = 1;
  ms::MemEvents later = earlier;
  later.loads = 25;
  later.hits[0] = 12;
  later.nvmBlockWrites = 7;
  later.flushDirty = 3;
  const auto delta = later.delta(earlier);
  EXPECT_EQ(delta.loads, 15u);
  EXPECT_EQ(delta.hits[0], 7u);
  EXPECT_EQ(delta.nvmBlockWrites, 5u);
  EXPECT_EQ(delta.flushDirty, 2u);
}

TEST(MemEventsTest, TotalFlushesSumsClasses) {
  ms::MemEvents e;
  e.flushDirty = 3;
  e.flushClean = 4;
  e.flushNonResident = 5;
  EXPECT_EQ(e.totalFlushes(), 12u);
}

namespace {

struct Sim {
  Sim() : nvm(64), cache(ms::CacheConfig::tiny(), nvm) {}
  ms::NvmStore nvm;
  ms::CacheHierarchy cache;
  void store64(std::uint64_t addr, std::uint64_t v) {
    cache.store(addr, {reinterpret_cast<const std::uint8_t*>(&v), 8});
  }
};

}  // namespace

TEST(FlushKinds, ClflushAlsoInvalidates) {
  Sim s;
  s.store64(0, 9);
  s.cache.flushBlock(0, ms::FlushKind::Clflush);
  const auto before = s.cache.events();
  std::uint64_t v = 0;
  s.cache.load(0, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(s.cache.events().misses[0], before.misses[0] + 1);
}

TEST(FlushKinds, ToStringNames) {
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clflush), "clflush");
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clflushopt), "clflushopt");
  EXPECT_STREQ(ms::toString(ms::FlushKind::Clwb), "clwb");
}

TEST(HierarchyCounters, LoadsAndStoresCounted) {
  Sim s;
  const auto before = s.cache.events();
  s.store64(0, 1);
  std::uint64_t v = 0;
  s.cache.load(0, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().stores, before.stores + 1);
  EXPECT_EQ(s.cache.events().loads, before.loads + 1);
}

TEST(HierarchyCounters, FillsCountedAsNvmReads) {
  Sim s;
  std::uint64_t v = 0;
  s.cache.load(4096, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().nvmBlockReads, 1u);
  s.cache.load(4096, {reinterpret_cast<std::uint8_t*>(&v), 8});
  EXPECT_EQ(s.cache.events().nvmBlockReads, 1u) << "second access is a hit";
}

TEST(HierarchyCounters, ResetEventsZeroesCounters) {
  Sim s;
  s.store64(0, 1);
  s.cache.resetEvents();
  EXPECT_EQ(s.cache.events().stores, 0u);
  EXPECT_EQ(s.cache.events().loads, 0u);
}

TEST(HierarchyCounters, FlushInducedWritesAreSubsetOfTotalWrites) {
  Sim s;
  for (int i = 0; i < 128; ++i) s.store64(i * 64ULL, i);
  for (int i = 0; i < 128; i += 2) s.cache.flushBlock(i * 64ULL, ms::FlushKind::Clwb);
  const auto& e = s.cache.events();
  EXPECT_LE(e.flushInducedNvmWrites, e.nvmBlockWrites);
  EXPECT_EQ(e.nvmBlockWrites, s.nvm.blockWrites());
}

TEST(HierarchyInvariants, HoldAfterDrainAndRefill) {
  Sim s;
  for (int i = 0; i < 64; ++i) s.store64(i * 64ULL, i + 1);
  s.cache.drainAll();
  s.cache.checkInvariants();
  for (int i = 0; i < 64; ++i) s.store64(i * 64ULL, i + 100);
  s.cache.checkInvariants();
}

TEST(CacheConfigTest, SetsComputation) {
  const auto tiny = ms::CacheConfig::tiny();
  EXPECT_EQ(tiny.setsAt(0), 2u);   // 256B / 64B / 2-way
  EXPECT_EQ(tiny.setsAt(2), 4u);   // 1KB / 64B / 4-way
  EXPECT_EQ(tiny.llcBytes(), 1024u);
}

TEST(CacheConfigTest, PaperGeometryMatchesXeon) {
  const auto xeon = ms::CacheConfig::xeonGold6126();
  EXPECT_EQ(xeon.levels[0].sizeBytes, 32u * 1024);
  EXPECT_EQ(xeon.llcBytes(), 19u * 1024 * 1024 + 256 * 1024);
}
