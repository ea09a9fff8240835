// Independent oracle for restarts that rejoin the golden trajectory. A
// campaign restart stops as soon as its state digest equals the golden run's
// at the same iteration boundary and takes the golden outcome. Here every
// trial of a seeded campaign is decided again by a full restart — the crash
// point recaptured in its own crashing run, the restart run to the end with
// no trajectory, S1–S4 classified from scratch — and the campaign's record
// must equal it field by field. Each app runs bare and under the
// persist-everywhere plan (candidates@main), where kmeans rejoins. Every
// rejoin is also checked byte for byte against the golden state at its
// boundary, and the digest's premises per app: read-only objects never
// change, and a change to any other object changes the digest.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace ec = easycrash;
namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;

namespace {

constexpr int kTests = 16;

/// What the oracle's own crashing run saw at one crash point.
struct Capture {
  rt::PointId region = rt::kMainLoopEnd;
  std::vector<rt::PointId> regionPath;
  int crashIteration = 0;
  int restartIteration = 0;
  std::map<rt::ObjectId, double> rates;
  std::map<rt::ObjectId, std::vector<std::uint8_t>> snapshots;
};

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

cr::CampaignConfig campaignConfig(const Case& c, const rt::AppFactory& factory) {
  cr::CampaignConfig config;
  config.seed = 11;
  config.numTests = kTests;
  config.appLabel = c.app;
  if (c.persistAll) {
    rt::Runtime probe;
    auto app = factory();
    app->setup(probe);
    config.plan = cr::parsePlanSpec("candidates@main", probe);
  }
  return config;
}

/// The full restart from one capture, classified exactly as the paper's
/// responses are defined (no trajectory: every iteration and verify run).
cr::CrashTestRecord fullRestart(const rt::AppFactory& factory,
                                const cr::CampaignConfig& config, const Capture& capture,
                                int goldenFinal) {
  cr::CrashTestRecord record;
  record.region = capture.region;
  record.regionPath = capture.regionPath;
  record.crashIteration = capture.crashIteration;
  record.restartIteration = capture.restartIteration;
  record.inconsistentRate = capture.rates;

  rt::Runtime runtime(config.cache);
  runtime.setDirect(true);
  runtime.setPlan(config.plan);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  for (const auto& [id, bytes] : capture.snapshots) runtime.restoreObject(id, bytes);
  const rt::RunResult run =
      rt::Driver::run(*app, runtime, capture.restartIteration,
                      goldenFinal * config.maxIterationFactor);
  EXPECT_EQ(run.rejoinedAt, 0);
  if (run.interrupted) {
    record.response = cr::Response::S3;
    record.note = run.interruptReason;
  } else if (!run.verification.pass) {
    record.response = cr::Response::S4;
    record.note = run.verification.detail;
  } else {
    record.extraIterations = std::max(0, run.finalIteration - goldenFinal);
    record.response =
        record.extraIterations == 0 ? cr::Response::S1 : cr::Response::S2;
    record.note = run.verification.detail;
  }
  return record;
}

/// The bytes of every object not declared read-only: what the digest covers.
std::map<rt::ObjectId, std::vector<std::uint8_t>> mutableState(
    const rt::Runtime& runtime) {
  std::map<rt::ObjectId, std::vector<std::uint8_t>> state;
  for (const auto& object : runtime.objects()) {
    if (!object.readOnly) state[object.id] = runtime.dumpObjectCurrent(object.id);
  }
  return state;
}

/// Restart from `capture` following the golden trajectory, as the campaign
/// does. When it rejoins, the oracle checks the claim behind the digest
/// match byte for byte: the restart's state at the rejoin boundary equals a
/// golden run's state at the same boundary.
void checkRejoinBytes(const rt::AppFactory& factory, const cr::CampaignConfig& config,
                      const Capture& capture, const rt::GoldenTrajectory& trajectory,
                      int goldenFinal) {
  rt::Runtime runtime(config.cache);
  runtime.setDirect(true);
  runtime.setPlan(config.plan);
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  for (const auto& [id, bytes] : capture.snapshots) runtime.restoreObject(id, bytes);
  const rt::RunResult run =
      rt::Driver::run(*app, runtime, capture.restartIteration,
                      goldenFinal * config.maxIterationFactor, &trajectory);
  if (run.rejoinedAt == 0) return;
  EXPECT_LT(run.rejoinedAt, goldenFinal);

  // The golden state at that boundary, stepped by hand: Driver::run would
  // end in verify(), which may write tracked state (mg recomputes r).
  rt::Runtime golden(config.cache);
  golden.setDirect(true);
  golden.setPlan(config.plan);
  auto goldenApp = factory();
  goldenApp->setup(golden);
  goldenApp->initialize(golden);
  golden.setCrashWindow(true);
  for (int it = 1; it <= run.rejoinedAt; ++it) {
    golden.bookmarkIteration(it);
    goldenApp->iterate(golden, it);
    golden.mainLoopIterationEnd(it);
  }
  golden.setCrashWindow(false);
  EXPECT_EQ(mutableState(runtime), mutableState(golden))
      << "state at the rejoin boundary " << run.rejoinedAt
      << " differs from the golden run's";
}

std::uint64_t counter(const char* name) {
  return ec::telemetry::MetricsRegistry::instance().counter(name).value();
}

class RejoinOracle : public ::testing::TestWithParam<Case> {};
class RejoinOracleState : public ::testing::TestWithParam<std::string> {};

std::vector<std::string> appNames() {
  std::vector<std::string> names;
  for (const auto& entry : ec::apps::allBenchmarks()) names.push_back(entry.name);
  return names;
}

}  // namespace

TEST_P(RejoinOracle, EarlyStoppedRestartsMatchFullRestarts) {
  const Case& c = GetParam();
  const auto& factory = ec::apps::findBenchmark(c.app).factory;
  const cr::CampaignConfig config = campaignConfig(c, factory);

  ec::telemetry::MetricsRegistry::instance().reset();
  const cr::CampaignResult result = cr::CampaignRunner(factory, config).run();
  ASSERT_EQ(result.tests.size(), static_cast<std::size_t>(kTests));
  const std::uint64_t rejoins = counter("campaign.restart_rejoins");
  RecordProperty("rejoins", static_cast<int>(rejoins));
  EXPECT_LE(rejoins, static_cast<std::uint64_t>(kTests));
  if (rejoins == 0) {
    EXPECT_EQ(counter("campaign.restart_iterations_skipped"), 0u);
  }
  const int goldenFinal = result.golden.finalIteration;
  if (rejoins > 0) {
    EXPECT_EQ(result.golden.trajectory.digests.size(),
              static_cast<std::size_t>(goldenFinal));
  }

  // The oracle's own crashing run, capturing every drawn crash point.
  std::vector<std::uint64_t> points;
  for (const auto& record : result.tests) points.push_back(record.crashAccessIndex);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::map<std::uint64_t, Capture> captures;
  rt::Runtime crashing(config.cache);
  crashing.setPlan(config.plan);
  auto crashingApp = factory();
  crashingApp->setup(crashing);
  crashingApp->initialize(crashing);
  crashing.armCaptures(points, [&](const rt::CrashEvent& at) {
    Capture& capture = captures[at.accessIndex];
    capture.region = at.activeRegion;
    capture.regionPath = at.regionPath;
    capture.crashIteration = at.iteration;
    capture.restartIteration = crashing.bookmarkedIterationNvm();
    for (const auto& object : crashing.objects()) {
      if (!object.candidate) continue;
      capture.rates[object.id] = crashing.inconsistentRate(object.id);
      capture.snapshots[object.id] = crashing.dumpObjectNvm(object.id);
    }
  });
  (void)rt::Driver::run(*crashingApp, crashing, 1, goldenFinal);
  ASSERT_EQ(captures.size(), points.size());

  for (const cr::CrashTestRecord& got : result.tests) {
    SCOPED_TRACE("crash at window access " + std::to_string(got.crashAccessIndex));
    cr::CrashTestRecord want =
        fullRestart(factory, config, captures.at(got.crashAccessIndex), goldenFinal);
    want.crashAccessIndex = got.crashAccessIndex;
    checkRejoinBytes(factory, config, captures.at(got.crashAccessIndex),
                     result.golden.trajectory, goldenFinal);
    EXPECT_EQ(got.region, want.region);
    EXPECT_EQ(got.regionPath, want.regionPath);
    EXPECT_EQ(got.crashIteration, want.crashIteration);
    EXPECT_EQ(got.restartIteration, want.restartIteration);
    EXPECT_EQ(cr::toString(got.response), cr::toString(want.response));
    EXPECT_EQ(got.extraIterations, want.extraIterations);
    EXPECT_EQ(got.note, want.note);
    ASSERT_EQ(got.inconsistentRate.size(), want.inconsistentRate.size());
    for (const auto& [id, rate] : want.inconsistentRate) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inconsistentRate.at(id)),
                std::bit_cast<std::uint64_t>(rate))
          << "object " << id;
    }
  }
}

// The digest skips read-only objects, so they must really stay as
// initialize() left them for the whole golden run.
TEST_P(RejoinOracleState, ReadOnlyObjectsStayAsInitializeLeftThem) {
  const auto& factory = ec::apps::findBenchmark(GetParam()).factory;
  rt::Runtime runtime;
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  std::map<rt::ObjectId, std::vector<std::uint8_t>> initial;
  for (const auto& object : runtime.objects()) {
    if (object.readOnly) initial[object.id] = runtime.dumpObjectCurrent(object.id);
  }
  const rt::RunResult run = rt::Driver::run(*app, runtime);
  ASSERT_TRUE(run.verification.pass) << run.verification.detail;
  for (const auto& [id, bytes] : initial) {
    EXPECT_EQ(runtime.dumpObjectCurrent(id), bytes) << runtime.object(id).name;
  }
}

// The digest must see every object not declared read-only: one changed byte
// in any of them changes it, and restoring the byte restores it.
TEST_P(RejoinOracleState, DigestSeesEveryMutableObject) {
  const auto& factory = ec::apps::findBenchmark(GetParam()).factory;
  rt::Runtime runtime;
  auto app = factory();
  app->setup(runtime);
  app->initialize(runtime);
  const rt::StateDigest initial = runtime.stateDigest();
  for (const auto& object : runtime.objects()) {
    if (object.readOnly) continue;
    SCOPED_TRACE(object.name);
    std::vector<std::uint8_t> bytes = runtime.dumpObjectCurrent(object.id);
    const std::vector<std::uint8_t> original = bytes;
    bytes[bytes.size() / 2] ^= 0x10;
    runtime.restoreObject(object.id, bytes);
    EXPECT_NE(runtime.stateDigest(), initial);
    runtime.restoreObject(object.id, original);
    EXPECT_EQ(runtime.stateDigest(), initial);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RejoinOracle, ::testing::ValuesIn(allCases()),
                         caseName);
INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RejoinOracleState,
                         ::testing::ValuesIn(appNames()),
                         [](const auto& info) { return info.param; });

// The oracle above must not pass vacuously: restarts do rejoin, bare (cg)
// and under the persist-everywhere plan (kmeans), and each rejoin is
// accounted with the iterations it skipped.
TEST(RejoinOracleCoverage, CampaignsRejoinTheGoldenTrajectory) {
  for (const Case& c : {Case{"cg", false}, Case{"kmeans", true}}) {
    SCOPED_TRACE(caseName({c, 0}));
    const auto& factory = ec::apps::findBenchmark(c.app).factory;
    ec::telemetry::MetricsRegistry::instance().reset();
    const auto result =
        cr::CampaignRunner(factory, campaignConfig(c, factory)).run();
    const std::uint64_t rejoins = counter("campaign.restart_rejoins");
    EXPECT_GT(rejoins, 0u);
    EXPECT_GE(counter("campaign.restart_iterations_skipped"), rejoins);
    EXPECT_FALSE(result.golden.trajectory.digests.empty());
  }
}

// Unit behaviour of the digest the rejoin rests on.
TEST(StateDigest, SeesEveryMutableByteAndIgnoresReadOnlyOnes) {
  rt::Runtime runtime;
  const rt::ObjectId data = runtime.allocate("data", 100, /*candidate=*/true);
  const rt::ObjectId fixed =
      runtime.allocate("fixed", 64, /*candidate=*/false, /*readOnly=*/true);
  const rt::StateDigest empty = runtime.stateDigest();
  runtime.storeValue<std::uint8_t>(runtime.object(fixed).addr, 7);
  EXPECT_EQ(runtime.stateDigest(), empty);
  runtime.storeValue<std::uint8_t>(runtime.object(data).addr + 99, 1);

  // Digesting moves no memory-system counter and no crash clock.
  const ec::memsim::MemEvents before = runtime.events();
  const std::uint64_t window = runtime.windowAccesses();
  const rt::StateDigest changed = runtime.stateDigest();
  EXPECT_NE(changed, empty);
  EXPECT_EQ(runtime.events().loads, before.loads);
  EXPECT_EQ(runtime.events().stores, before.stores);
  EXPECT_EQ(runtime.events().nvmBlockReads, before.nvmBlockReads);
  EXPECT_EQ(runtime.events().postmortemBlocksCompared, before.postmortemBlocksCompared);
  EXPECT_EQ(runtime.windowAccesses(), window);

  // The same bytes read natively (in place) and through the hierarchy give
  // the same digest.
  rt::Runtime native;
  native.setDirect(true);
  (void)native.allocate("data", 100, true);
  (void)native.allocate("fixed", 64, false, true);
  ASSERT_TRUE(native.native());
  native.storeValue<std::uint8_t>(native.object(data).addr + 99, 1);
  EXPECT_EQ(native.stateDigest(), changed);
}
