// Oracle for the golden share (docs/INTERNALS.md "The golden run"). Under
// full monitoring CampaignRunner::run() runs its golden run native and takes
// what only a cache-simulated golden run has — golden.events, the golden
// share of the access/wear profile and of the memsim.* counters — from the
// sweep, which runs on past its last capture to the golden final iteration.
// This test rebuilds both shares from Runtime and Driver primitives alone:
//   - the golden share is a simulated golden run (and the public goldenRun(),
//     which must stay that run);
//   - the sweep's share is a crashing run armed at the plan's last crash
//     point, with the post-mortem reads of every earlier capture, which is
//     what a sweep accounted before it ran on to the end.
// run()'s GoldenStats must equal goldenRun() field by field, its events must
// match in every semantic counter, and the registry and the profile must
// hold exactly the two shares, NVM wear included. Two diagnostics may move,
// by at most one per capture each: a capture may split one bulk range access
// in two (one more range call, one more split block, and one more sampled
// block touch), and a capture's post-mortem moves L1's one-entry MRU memo,
// which decides whether the next scalar access skips the touch counter (one
// touch more or fewer).
// Checked on all 11 apps, bare and under candidates@main, at --threads 1
// and 4 under both executors, and on both halves of a --shard 2 split.
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace ec = easycrash;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;
namespace rt = easycrash::runtime;
namespace tl = easycrash::telemetry;

namespace {

constexpr int kTests = 16;

struct Case {
  std::string app;
  bool persistAll = false;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.app << (c.persistAll ? " candidates@main" : " (no plan)");
}

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.app + (info.param.persistAll ? "_candidatesAtMain" : "_noPlan");
}

std::vector<Case> allCases() {
  std::vector<Case> cases;
  for (const auto& entry : ec::apps::allBenchmarks()) {
    cases.push_back({entry.name, false});
    cases.push_back({entry.name, true});
  }
  return cases;
}

/// One campaign setting: executor, thread count and shard.
struct Setting {
  int threads = 1;
  cr::IsolationMode isolation = cr::IsolationMode::None;
  cr::ShardConfig shard;
};

std::string label(const Setting& s) {
  return std::string(s.isolation == cr::IsolationMode::Fork ? "fork" : "none") +
         " threads=" + std::to_string(s.threads) + " shard " +
         std::to_string(s.shard.index) + "/" + std::to_string(s.shard.count);
}

const Setting kSettings[] = {
    {1, cr::IsolationMode::None, {}},
    {4, cr::IsolationMode::None, {}},
    {1, cr::IsolationMode::Fork, {}},
    {4, cr::IsolationMode::Fork, {}},
    {1, cr::IsolationMode::Fork, {0, 2}},
    {4, cr::IsolationMode::None, {1, 2}},
};

/// One share of a run: its MemEvents and its profile.
struct Share {
  ms::MemEvents events;
  cr::CampaignProfile profile;
};

/// The simulated golden run, profiled.
Share simulatedGolden(const rt::AppFactory& factory, const cr::CampaignConfig& config) {
  rt::Runtime runtime(config.cache);
  runtime.setPlan(config.plan);
  runtime.enableProfile();
  auto app = factory();
  const rt::RunResult run = rt::Driver::freshRun(*app, runtime);
  EXPECT_TRUE(run.verification.pass) << run.verification.detail;
  Share share;
  share.events = runtime.events();
  share.profile.accumulate(runtime);
  return share;
}

/// The distinct crash points the setting's sweep captures, ascending.
std::vector<std::uint64_t> capturePoints(const cr::CampaignConfig& config,
                                         std::uint64_t windowAccesses) {
  ec::Rng rng(config.seed);
  std::set<std::uint64_t> points;
  for (int t = 0; t < config.numTests; ++t) {
    const std::uint64_t index = rng.between(1, windowAccesses);
    if (config.shard.owns(static_cast<std::size_t>(t))) points.insert(index);
  }
  return {points.begin(), points.end()};
}

/// The sweep's own share: a crashing run armed at the last point, with the
/// campaign's post-mortem reads at every point, up to the crash.
Share sweepShare(const rt::AppFactory& factory, const cr::CampaignConfig& config,
                 const std::vector<std::uint64_t>& points, int goldenFinal) {
  rt::Runtime runtime(config.cache);
  runtime.setPlan(config.plan);
  runtime.enableProfile();
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  runtime.armCrash(points.back());
  runtime.armCaptures(points, [&](const rt::CrashEvent&) {
    for (const auto& object : runtime.objects()) {
      if (!object.candidate) continue;
      (void)runtime.inconsistentRate(object.id);
      (void)runtime.dumpObjectNvm(object.id);
    }
    (void)runtime.bookmarkedIterationNvm();
  });
  try {
    (void)rt::Driver::run(*app, runtime, 1, goldenFinal);
    ADD_FAILURE() << "the crash armed at access " << points.back() << " did not fire";
  } catch (const rt::CrashEvent&) {
  }
  Share share;
  share.events = runtime.events();
  share.profile.accumulate(runtime);
  return share;
}

/// The registry's memsim.* mirror of MemEvents.
ms::MemEvents registryEvents() {
  auto& reg = tl::MetricsRegistry::instance();
  ms::MemEvents e;
  e.loads = reg.counter("memsim.loads").value();
  e.stores = reg.counter("memsim.stores").value();
  e.nvmBlockReads = reg.counter("memsim.nvmBlockReads").value();
  e.nvmBlockWrites = reg.counter("memsim.nvmBlockWrites").value();
  e.flushDirty = reg.counter("memsim.flushDirty").value();
  e.flushClean = reg.counter("memsim.flushClean").value();
  e.flushNonResident = reg.counter("memsim.flushNonResident").value();
  e.flushInducedNvmWrites = reg.counter("memsim.flushInducedNvmWrites").value();
  e.rangeLoads = reg.counter("memsim.range_loads").value();
  e.rangeStores = reg.counter("memsim.range_stores").value();
  e.rangeSplitBlocks = reg.counter("memsim.range_split_blocks").value();
  e.postmortemBlocksSkipped = reg.counter("memsim.postmortem_blocks_skipped").value();
  e.postmortemBlocksCompared = reg.counter("memsim.postmortem_blocks_compared").value();
  e.postmortemBytesCompared = reg.counter("memsim.postmortem_bytes_compared").value();
  return e;
}

ms::MemEvents sum(ms::MemEvents a, const ms::MemEvents& b) {
  a.loads += b.loads;
  a.stores += b.stores;
  for (std::size_t i = 0; i < ms::kMaxLevels; ++i) {
    a.hits[i] += b.hits[i];
    a.misses[i] += b.misses[i];
  }
  a.nvmBlockReads += b.nvmBlockReads;
  a.nvmBlockWrites += b.nvmBlockWrites;
  a.flushDirty += b.flushDirty;
  a.flushClean += b.flushClean;
  a.flushNonResident += b.flushNonResident;
  a.flushInducedNvmWrites += b.flushInducedNvmWrites;
  a.rangeLoads += b.rangeLoads;
  a.rangeStores += b.rangeStores;
  a.rangeSplitBlocks += b.rangeSplitBlocks;
  a.postmortemBlocksSkipped += b.postmortemBlocksSkipped;
  a.postmortemBlocksCompared += b.postmortemBlocksCompared;
  a.postmortemBytesCompared += b.postmortemBytesCompared;
  return a;
}

/// Every semantic counter equal; the range diagnostics may exceed `want`'s
/// by at most `splits` each (one split range per capture). `perLevel`
/// compares hits and misses, which the registry does not mirror.
void expectSameEvents(const ms::MemEvents& want, const ms::MemEvents& got,
                      std::uint64_t splits, bool perLevel) {
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.stores, want.stores);
  if (perLevel) {
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
  }
  EXPECT_EQ(got.nvmBlockReads, want.nvmBlockReads);
  EXPECT_EQ(got.nvmBlockWrites, want.nvmBlockWrites);
  EXPECT_EQ(got.flushDirty, want.flushDirty);
  EXPECT_EQ(got.flushClean, want.flushClean);
  EXPECT_EQ(got.flushNonResident, want.flushNonResident);
  EXPECT_EQ(got.flushInducedNvmWrites, want.flushInducedNvmWrites);
  EXPECT_EQ(got.postmortemBlocksSkipped, want.postmortemBlocksSkipped);
  EXPECT_EQ(got.postmortemBlocksCompared, want.postmortemBlocksCompared);
  EXPECT_EQ(got.postmortemBytesCompared, want.postmortemBytesCompared);
  const std::uint64_t wantCalls = want.rangeLoads + want.rangeStores;
  const std::uint64_t gotCalls = got.rangeLoads + got.rangeStores;
  EXPECT_GE(gotCalls, wantCalls);
  EXPECT_LE(gotCalls - wantCalls, splits);
  EXPECT_GE(got.rangeSplitBlocks, want.rangeSplitBlocks);
  EXPECT_LE(got.rangeSplitBlocks - want.rangeSplitBlocks, splits);
}

/// Wear and region accesses exact; the sampled block touches off by at most
/// `captures` in total over every bin.
void expectSameProfile(const cr::CampaignProfile& want, const cr::CampaignProfile& got,
                       std::uint64_t captures) {
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(got.strideBytes, want.strideBytes);
  EXPECT_EQ(got.regionAccesses, want.regionAccesses);
  ASSERT_EQ(got.objects.size(), want.objects.size());
  std::uint64_t touchDrift = 0;
  for (std::size_t i = 0; i < want.objects.size(); ++i) {
    const rt::ObjectProfile& w = want.objects[i];
    const rt::ObjectProfile& g = got.objects[i];
    SCOPED_TRACE("object " + w.name);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.nvmWrites, w.nvmWrites);
    EXPECT_EQ(g.wearBins, w.wearBins);
    ASSERT_EQ(g.accessBins.size(), w.accessBins.size());
    for (std::size_t b = 0; b < w.accessBins.size(); ++b) {
      touchDrift += g.accessBins[b] > w.accessBins[b] ? g.accessBins[b] - w.accessBins[b]
                                                      : w.accessBins[b] - g.accessBins[b];
    }
  }
  EXPECT_LE(touchDrift, captures);
}

void expectSameGoldenStats(const cr::GoldenStats& want, const cr::GoldenStats& got) {
  EXPECT_EQ(got.windowAccesses, want.windowAccesses);
  EXPECT_EQ(got.finalIteration, want.finalIteration);
  EXPECT_EQ(got.footprintBytes, want.footprintBytes);
  EXPECT_EQ(got.candidateBytes, want.candidateBytes);
  EXPECT_EQ(got.regionCount, want.regionCount);
  EXPECT_EQ(got.persistenceOps, want.persistenceOps);
  EXPECT_EQ(got.verification.pass, want.verification.pass);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.verification.metric),
            std::bit_cast<std::uint64_t>(want.verification.metric));
  EXPECT_EQ(got.verification.detail, want.verification.detail);
  EXPECT_EQ(got.trajectory.digests, want.trajectory.digests);
  ASSERT_EQ(got.objects.size(), want.objects.size());
  for (std::size_t i = 0; i < want.objects.size(); ++i) {
    const rt::DataObjectInfo& w = want.objects[i];
    const rt::DataObjectInfo& g = got.objects[i];
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.name, w.name);
    EXPECT_EQ(g.addr, w.addr);
    EXPECT_EQ(g.bytes, w.bytes);
    EXPECT_EQ(g.candidate, w.candidate);
    EXPECT_EQ(g.readOnly, w.readOnly);
    EXPECT_EQ(g.demoted, w.demoted);
  }
  ASSERT_EQ(got.regionTimeShare.size(), want.regionTimeShare.size());
  for (const auto& [region, share] : want.regionTimeShare) {
    ASSERT_EQ(got.regionTimeShare.count(region), 1u) << "region " << region;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.regionTimeShare.at(region)),
              std::bit_cast<std::uint64_t>(share))
        << "region " << region;
  }
  EXPECT_EQ(got.regionIterationEnds, want.regionIterationEnds);
}

class GoldenShareOracle : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(GoldenShareOracle, SweepSuppliesTheSimulatedGoldenShare) {
  const Case& c = GetParam();
  const auto& factory = ec::apps::findBenchmark(c.app).factory;
  cr::CampaignConfig config;
  config.seed = 7;
  config.numTests = kTests;
  config.appLabel = c.app;
  config.resilience.isolate = true;
  if (c.persistAll) {
    rt::Runtime probe;
    auto app = factory();
    app->setup(probe);
    config.plan = cr::parsePlanSpec("candidates@main", probe);
  }

  const cr::GoldenStats reference = cr::CampaignRunner(factory, config).goldenRun();
  const Share golden = simulatedGolden(factory, config);
  // The public goldenRun() is the simulated run itself.
  expectSameEvents(golden.events, reference.events, 0, true);
  EXPECT_EQ(reference.events.postmortemBlocksCompared, 0u);

  tl::Counter& fallbacks =
      tl::MetricsRegistry::instance().counter("campaign.golden_fallbacks");
  for (const Setting& setting : kSettings) {
    SCOPED_TRACE(label(setting));
    cr::CampaignConfig run = config;
    run.threads = setting.threads;
    run.resilience.isolation = setting.isolation;
    run.shard = setting.shard;
    const std::vector<std::uint64_t> points =
        capturePoints(run, reference.windowAccesses);
    ASSERT_FALSE(points.empty());
    const Share sweep = sweepShare(factory, run, points, reference.finalIteration);
    const std::uint64_t captures = points.size();

    const ms::MemEvents before = registryEvents();
    const std::uint64_t fallbacksBefore = fallbacks.value();
    const cr::CampaignResult result = cr::CampaignRunner(factory, run).run();
    const ms::MemEvents accounted = registryEvents().delta(before);

    EXPECT_FALSE(result.interrupted);
    EXPECT_TRUE(result.failures.empty());
    EXPECT_EQ(fallbacks.value(), fallbacksBefore) << "a sweep must have reached the end";
    expectSameGoldenStats(reference, result.golden);
    {
      SCOPED_TRACE("golden.events");
      expectSameEvents(reference.events, result.golden.events, captures, true);
    }
    {
      SCOPED_TRACE("memsim.* counters");
      expectSameEvents(sum(reference.events, sweep.events), accounted, captures, false);
    }
    {
      SCOPED_TRACE("profile");
      cr::CampaignProfile want;
      want.merge(golden.profile);
      want.merge(sweep.profile);
      expectSameProfile(want, result.profile, captures);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GoldenShareOracle,
                         ::testing::ValuesIn(allCases()), caseName);
