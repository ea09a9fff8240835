// Independent oracle for the native restart path. Campaign restarts run on a
// direct-mode Runtime, which with nothing armed takes the native state (one
// memcpy per access against the pinned NVM image, a folded crash clock).
// For every app, seeded crash snapshots are restarted twice — natively and
// through the simulated cache hierarchy — and the two runs must agree on the
// whole RunResult and on every crash-clock observable.
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
};

RestartObservation restart(const rt::AppFactory& factory, const Snapshot& snapshot,
                           int cap, bool direct) {
  const ec::crash::CampaignConfig config;
  rt::Runtime runtime(config.cache);
  runtime.setDirect(direct);
  runtime.setPlan(config.plan);
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
  return out;
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
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RestartOracle, ::testing::ValuesIn(appNames()),
                         [](const auto& info) { return info.param; });
