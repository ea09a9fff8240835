// Independent oracle for the native restart path. Campaign restarts run on a
// direct-mode Runtime, which with nothing armed takes the native state (one
// memcpy per access against the pinned NVM image, a folded crash clock).
// For every app, seeded crash snapshots are restarted twice — natively and
// through the simulated cache hierarchy — and the two runs must agree on the
// whole RunResult and on every crash-clock observable. A direct restart
// under the persist-everywhere plan (candidates@main) must also leave the
// memory system untouched: its persist ops and iteration bookmarks run
// without a flush, so every MemEvents counter stays zero.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace ec = easycrash;
namespace rt = easycrash::runtime;

namespace {

constexpr std::size_t kSnapshots = 3;

/// What a crash leaves behind for a restart (CampaignRunner's NvmImage mode).
struct Snapshot {
  std::uint64_t accessIndex = 0;
  int restartIteration = 1;
  std::map<rt::ObjectId, std::vector<std::uint8_t>> objects;
};

struct RestartObservation {
  rt::RunResult result;
  bool nativeAtStart = false;
  std::uint64_t windowAccesses = 0;
  std::map<rt::PointId, std::uint64_t> regionAccesses;
  std::map<rt::PointId, std::uint64_t> regionIterationEnds;
  ec::memsim::MemEvents events;
  std::uint64_t persistenceOps = 0;
};

RestartObservation restart(const rt::AppFactory& factory, const Snapshot& snapshot,
                           int cap, bool direct, const rt::PersistencePlan& plan = {}) {
  const ec::crash::CampaignConfig config;
  rt::Runtime runtime(config.cache);
  runtime.setDirect(direct);
  runtime.setPlan(plan);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  for (const auto& [id, bytes] : snapshot.objects) runtime.restoreObject(id, bytes);
  RestartObservation out;
  out.nativeAtStart = runtime.native();
  out.result = rt::Driver::run(*app, runtime, snapshot.restartIteration, cap);
  out.windowAccesses = runtime.windowAccesses();
  out.regionAccesses = runtime.regionAccesses();
  out.regionIterationEnds = runtime.regionIterationEnds();
  out.events = runtime.events();
  out.persistenceOps = runtime.persistenceOps();
  return out;
}

void expectNoMemEvents(const ec::memsim::MemEvents& e) {
  EXPECT_EQ(e.loads, 0u);
  EXPECT_EQ(e.stores, 0u);
  for (std::size_t level = 0; level < ec::memsim::kMaxLevels; ++level) {
    EXPECT_EQ(e.hits[level], 0u) << "level " << level;
    EXPECT_EQ(e.misses[level], 0u) << "level " << level;
  }
  EXPECT_EQ(e.nvmBlockReads, 0u);
  EXPECT_EQ(e.nvmBlockWrites, 0u);
  EXPECT_EQ(e.flushDirty, 0u);
  EXPECT_EQ(e.flushClean, 0u);
  EXPECT_EQ(e.flushNonResident, 0u);
  EXPECT_EQ(e.flushInducedNvmWrites, 0u);
  EXPECT_EQ(e.rangeLoads, 0u);
  EXPECT_EQ(e.rangeStores, 0u);
  EXPECT_EQ(e.rangeSplitBlocks, 0u);
  EXPECT_EQ(e.postmortemBlocksSkipped, 0u);
  EXPECT_EQ(e.postmortemBlocksCompared, 0u);
  EXPECT_EQ(e.postmortemBytesCompared, 0u);
}

class RestartOracle : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> appNames() {
  std::vector<std::string> names;
  for (const auto& entry : ec::apps::allBenchmarks()) names.push_back(entry.name);
  return names;
}

}  // namespace

TEST_P(RestartOracle, NativeRestartMatchesSimulatedRestart) {
  const auto& factory = ec::apps::findBenchmark(GetParam()).factory;
  const ec::crash::CampaignConfig config;

  rt::Runtime golden(config.cache);
  golden.setDirect(true);
  auto goldenApp = factory();
  const auto goldenRun = rt::Driver::freshRun(*goldenApp, golden);
  ASSERT_TRUE(goldenRun.verification.pass) << goldenRun.verification.detail;
  const int cap = goldenRun.finalIteration * config.maxIterationFactor;

  // Seeded crash points, captured in one simulated crashing run.
  ec::Rng rng(1234);
  std::vector<std::uint64_t> points;
  for (std::size_t i = 0; i < kSnapshots; ++i) {
    points.push_back(rng.between(1, golden.windowAccesses()));
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::vector<Snapshot> snapshots;
  rt::Runtime crashing(config.cache);
  auto crashingApp = factory();
  crashingApp->setup(crashing);
  crashingApp->initialize(crashing);
  crashing.armCaptures(points, [&](const rt::CrashEvent& at) {
    Snapshot snapshot;
    snapshot.accessIndex = at.accessIndex;
    snapshot.restartIteration = crashing.bookmarkedIterationNvm();
    for (const auto& object : crashing.objects()) {
      if (object.candidate) snapshot.objects[object.id] = crashing.dumpObjectNvm(object.id);
    }
    snapshots.push_back(std::move(snapshot));
  });
  (void)rt::Driver::run(*crashingApp, crashing, 1, goldenRun.finalIteration);
  ASSERT_EQ(snapshots.size(), points.size());

  rt::PersistencePlan persistAll;
  {
    rt::Runtime probe;
    auto app = factory();
    app->setup(probe);
    persistAll = ec::crash::parsePlanSpec("candidates@main", probe);
  }

  for (const Snapshot& snapshot : snapshots) {
    SCOPED_TRACE("crash at window access " + std::to_string(snapshot.accessIndex));
    const RestartObservation native = restart(factory, snapshot, cap, /*direct=*/true);
    const RestartObservation simulated = restart(factory, snapshot, cap, /*direct=*/false);
    EXPECT_TRUE(native.nativeAtStart);
    EXPECT_FALSE(simulated.nativeAtStart);
    EXPECT_EQ(native.result.finalIteration, simulated.result.finalIteration);
    EXPECT_EQ(native.result.iterationsExecuted, simulated.result.iterationsExecuted);
    EXPECT_EQ(native.result.reachedCap, simulated.result.reachedCap);
    EXPECT_EQ(native.result.interrupted, simulated.result.interrupted);
    EXPECT_EQ(native.result.interruptReason, simulated.result.interruptReason);
    EXPECT_EQ(native.result.verification.pass, simulated.result.verification.pass);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(native.result.verification.metric),
              std::bit_cast<std::uint64_t>(simulated.result.verification.metric))
        << native.result.verification.metric << " vs "
        << simulated.result.verification.metric;
    EXPECT_EQ(native.result.verification.detail, simulated.result.verification.detail);
    EXPECT_EQ(native.windowAccesses, simulated.windowAccesses);
    EXPECT_EQ(native.regionAccesses, simulated.regionAccesses);
    EXPECT_EQ(native.regionIterationEnds, simulated.regionIterationEnds);
    expectNoMemEvents(native.events);

    const RestartObservation planned =
        restart(factory, snapshot, cap, /*direct=*/true, persistAll);
    if (planned.result.iterationsExecuted > 0) {
      EXPECT_GT(planned.persistenceOps, 0u) << "the plan's persist ops must still run";
    }
    expectNoMemEvents(planned.events);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RestartOracle, ::testing::ValuesIn(appNames()),
                         [](const auto& info) { return info.param; });
