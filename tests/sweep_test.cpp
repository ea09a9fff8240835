// Tests for the single-sweep campaign evaluator (docs/INTERNALS.md): the
// runtime's multi-arm capture API, capture non-perturbation, and the
// campaign-level guarantee that the sweep decides every trial as the
// per-trial oracle (tests/trial_oracle.hpp) does — across thread counts,
// duplicate crash indices, and the re-sweep taken when the sweep run itself
// dies.
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "sweep_app.hpp"
#include "trial_oracle.hpp"

namespace rt = easycrash::runtime;
namespace cr = easycrash::crash;
namespace ms = easycrash::memsim;
namespace tl = easycrash::telemetry;

namespace {

using sweep_app::SweepApp;
using sweep_app::sweepFactory;

cr::CampaignConfig tinyConfig(int tests) {
  cr::CampaignConfig config;
  config.numTests = tests;
  config.cache = ms::CacheConfig::tiny();
  return config;
}

void expectSameRecords(const cr::CampaignResult& a, const cr::CampaignResult& b) {
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    const auto& x = a.tests[i];
    const auto& y = b.tests[i];
    EXPECT_EQ(x.crashAccessIndex, y.crashAccessIndex) << "trial " << i;
    EXPECT_EQ(x.region, y.region) << "trial " << i;
    EXPECT_EQ(x.regionPath, y.regionPath) << "trial " << i;
    EXPECT_EQ(x.crashIteration, y.crashIteration) << "trial " << i;
    EXPECT_EQ(x.restartIteration, y.restartIteration) << "trial " << i;
    EXPECT_EQ(x.response, y.response) << "trial " << i;
    EXPECT_EQ(x.extraIterations, y.extraIterations) << "trial " << i;
    EXPECT_EQ(x.inconsistentRate, y.inconsistentRate) << "trial " << i;
  }
}

std::string campaignCsv(const cr::CampaignResult& campaign) {
  std::ostringstream os;
  cr::writeCampaignCsv(campaign, os);
  return os.str();
}

std::uint64_t counterValue(const char* name) {
  return tl::MetricsRegistry::instance().counter(name).value();
}

trial_oracle::Verdict oracle(SweepApp::Knobs knobs, const cr::CampaignConfig& config,
                             const std::string& journal) {
  return trial_oracle::decideCampaign(sweepFactory(knobs), config,
                                      testing::TempDir() + journal);
}

}  // namespace

// ---- Runtime capture API ----------------------------------------------------

TEST(CaptureApiTest, CaptureContextMatchesTheCrashEventAtTheSameIndex) {
  constexpr std::uint64_t kIndex = 700;

  // Reference: a real crash armed at the index.
  rt::CrashEvent reference;
  {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    runtime.armCrash(kIndex);
    try {
      (void)rt::Driver::run(app, runtime, 1, app.nominalIterations());
      FAIL() << "armed crash did not fire";
    } catch (const rt::CrashEvent& crash) {
      reference = crash;
    }
  }

  // A capture at the same index on an identical run, which then completes.
  std::vector<rt::CrashEvent> captured;
  {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    runtime.armCaptures({kIndex},
                        [&](const rt::CrashEvent& at) { captured.push_back(at); });
    const auto run = rt::Driver::run(app, runtime, 1, app.nominalIterations());
    EXPECT_TRUE(run.verification.pass);
  }

  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].accessIndex, reference.accessIndex);
  EXPECT_EQ(captured[0].activeRegion, reference.activeRegion);
  EXPECT_EQ(captured[0].iteration, reference.iteration);
  EXPECT_EQ(captured[0].regionPath, reference.regionPath);
}

TEST(CaptureApiTest, CapturesFireInOrderAndDoNotReplayAfterAThrowingHook) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  rt::TrackedArray<std::int64_t> data(runtime, "data", 64, true);
  runtime.setCrashWindow(true);

  struct StopEarly {};
  std::vector<std::uint64_t> fired;
  runtime.armCaptures({10, 20, 30}, [&](const rt::CrashEvent& at) {
    fired.push_back(at.accessIndex);
    if (fired.size() == 2) throw StopEarly{};
  });

  const auto tick = [&] { data.set(0, data.peek(0) + 1); };
  for (int i = 0; i < 15; ++i) tick();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_THROW(
      {
        for (int i = 0; i < 10; ++i) tick();
      },
      StopEarly);
  // The cursor advances before the hook runs: continuing the run must fire
  // the remaining capture, not replay the one whose hook threw.
  for (int i = 0; i < 15; ++i) tick();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], 10u);
  EXPECT_EQ(fired[1], 20u);
  EXPECT_EQ(fired[2], 30u);
}

TEST(CaptureApiTest, ArmCapturesValidatesItsIndices) {
  rt::Runtime runtime(ms::CacheConfig::tiny());
  const auto hook = [](const rt::CrashEvent&) {};
  EXPECT_THROW(runtime.armCaptures({}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({0}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({5, 4}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({5, 5}, hook), std::logic_error);
  EXPECT_THROW(runtime.armCaptures({1, 2, 3}, nullptr), std::logic_error);
}

TEST(CaptureApiTest, ArmedCapturesDoNotPerturbTheRun) {
  const auto execute = [](bool withCaptures, ms::MemEvents* events,
                          std::uint64_t* windowAccesses, double* metric,
                          std::uint64_t* nvmWrites) {
    rt::Runtime runtime(ms::CacheConfig::tiny());
    SweepApp app({});
    app.setup(runtime);
    app.initialize(runtime);
    if (withCaptures) {
      // A hook that leans on every read-only inspection path the campaign's
      // sweep uses: none of them may touch the caches or the clock.
      runtime.armCaptures({50, 500, 2000}, [&](const rt::CrashEvent&) {
        for (const auto& object : runtime.objects()) {
          (void)runtime.dumpObjectNvm(object.id);
          (void)runtime.dumpObjectCurrent(object.id);
          (void)runtime.inconsistentRate(object.id);
        }
        (void)runtime.bookmarkedIterationNvm();
        (void)runtime.regionPath();
      });
    }
    const auto run = rt::Driver::run(app, runtime, 1, app.nominalIterations());
    *events = runtime.events();
    *windowAccesses = runtime.windowAccesses();
    *metric = run.verification.metric;
    *nvmWrites = runtime.nvm().blockWrites();
  };

  ms::MemEvents bare;
  ms::MemEvents observed;
  std::uint64_t bareAccesses = 0;
  std::uint64_t observedAccesses = 0;
  double bareMetric = 0;
  double observedMetric = 0;
  std::uint64_t bareNvmWrites = 0;
  std::uint64_t observedNvmWrites = 0;
  execute(false, &bare, &bareAccesses, &bareMetric, &bareNvmWrites);
  execute(true, &observed, &observedAccesses, &observedMetric, &observedNvmWrites);

  EXPECT_EQ(observedAccesses, bareAccesses);
  EXPECT_EQ(observedMetric, bareMetric);
  EXPECT_EQ(observedNvmWrites, bareNvmWrites);
  EXPECT_EQ(observed.loads, bare.loads);
  EXPECT_EQ(observed.stores, bare.stores);
  EXPECT_EQ(observed.hits, bare.hits);
  EXPECT_EQ(observed.misses, bare.misses);
  EXPECT_EQ(observed.nvmBlockReads, bare.nvmBlockReads);
  EXPECT_EQ(observed.nvmBlockWrites, bare.nvmBlockWrites);
  EXPECT_EQ(observed.totalFlushes(), bare.totalFlushes());
}

// ---- Campaign-level equivalence ---------------------------------------------

TEST(SweepTest, SweepOnMatchesSweepOffAcrossThreadCounts) {
  // The sweep at one and four restart threads decides every trial as the
  // per-trial oracle does.
  auto config = tinyConfig(40);
  config.resilience.isolate = true;
  const auto reference = oracle({}, config, "sweep_threads_oracle.jsonl");

  const auto on1 = cr::CampaignRunner(sweepFactory({}), config).run();
  config.threads = 4;
  const auto on4 = cr::CampaignRunner(sweepFactory({}), config).run();
  EXPECT_TRUE(on1.failures.empty());
  EXPECT_TRUE(on4.failures.empty());

  expectSameRecords(reference.result, on1);
  expectSameRecords(reference.result, on4);
  EXPECT_EQ(reference.csv, campaignCsv(on1));
  EXPECT_EQ(reference.csv, campaignCsv(on4));
}

TEST(SweepTest, DuplicateCrashIndicesShareOneCaptureAndStayIdentical) {
  // A window of a few dozen accesses with 200 draws guarantees duplicate
  // crash indices (pigeonhole), exercising the shared-capture path.
  SweepApp::Knobs knobs;
  knobs.cells = 4;
  knobs.iterations = 3;
  auto config = tinyConfig(200);
  config.resilience.isolate = true;
  const auto reference = oracle(knobs, config, "sweep_duplicates_oracle.jsonl");

  const auto runsBefore = counterValue("campaign.sweep_runs");
  const auto capturesBefore = counterValue("campaign.sweep_captures");
  const auto on = cr::CampaignRunner(sweepFactory(knobs), config).run();
  expectSameRecords(reference.result, on);
  EXPECT_EQ(reference.csv, campaignCsv(on));

  std::set<std::uint64_t> distinct;
  for (const auto& record : on.tests) distinct.insert(record.crashAccessIndex);
  ASSERT_EQ(on.tests.size(), 200u);
  EXPECT_LT(distinct.size(), 200u) << "window too large to force duplicates";
  // One crashing run, one capture per DISTINCT index — duplicates share.
  EXPECT_EQ(counterValue("campaign.sweep_runs") - runsBefore, 1u);
  EXPECT_EQ(counterValue("campaign.sweep_captures") - capturesBefore,
            distinct.size());
}

TEST(SweepTest, SweepRunFailureFallsBackToThePerTrialPath) {
  // The app dies at iteration 3, so a sweep can only capture crash points
  // inside the first two iterations. Each dead sweep is charged to its
  // first uncaptured point, which (without retries) fails at once, and the
  // tail is swept again: every sweep after the first dies immediately, one
  // per failed point. The records and failures are the oracle's.
  SweepApp::Knobs knobs;
  knobs.throwAtIteration = 3;
  auto config = tinyConfig(30);
  config.resilience.isolate = true;
  config.resilience.maxRetries = 0;
  const auto reference = oracle(knobs, config, "sweep_failure_oracle.jsonl");

  const auto runsBefore = counterValue("campaign.sweep_runs");
  const auto fallbacksBefore = counterValue("campaign.sweep_fallbacks");
  const auto on = cr::CampaignRunner(sweepFactory(knobs), config).run();

  ASSERT_GT(reference.result.failures.size(), 0u) << "expected late points to fail";
  ASSERT_GT(reference.result.tests.size(), 0u) << "expected early points to complete";
  expectSameRecords(reference.result, on);
  ASSERT_EQ(on.failures.size(), reference.result.failures.size());
  std::set<std::uint64_t> failedPoints;
  for (std::size_t i = 0; i < on.failures.size(); ++i) {
    const auto& want = reference.result.failures[i];
    EXPECT_EQ(on.failures[i].trial, want.trial);
    EXPECT_EQ(on.failures[i].crashAccessIndex, want.crashAccessIndex);
    EXPECT_EQ(on.failures[i].kind, want.kind);
    EXPECT_EQ(on.failures[i].reason, want.reason);
    EXPECT_EQ(on.failures[i].regionPath, want.regionPath);
    EXPECT_EQ(on.failures[i].attempts, want.attempts);
    failedPoints.insert(want.crashAccessIndex);
  }
  const auto fallbacks = counterValue("campaign.sweep_fallbacks") - fallbacksBefore;
  EXPECT_EQ(fallbacks, failedPoints.size());
  EXPECT_EQ(counterValue("campaign.sweep_runs") - runsBefore, fallbacks);
}

TEST(SweepTest, ThrowBeforeArmedCrashStillNamesTheCrashSite) {
  // Regression: a crashing run that threw before its armed crash fired
  // reported regionPath "main" instead of the region stack the run actually
  // stood in when it died. The sweep's throw-site path names it.
  SweepApp::Knobs knobs;
  knobs.throwAtIteration = 2;
  auto config = tinyConfig(20);
  config.resilience.isolate = true;
  config.resilience.maxRetries = 0;

  const auto result = cr::CampaignRunner(sweepFactory(knobs), config).run();
  ASSERT_GT(result.failures.size(), 0u);
  for (const auto& failure : result.failures) {
    // The induced throw happens inside region 0 ("R1").
    EXPECT_EQ(failure.regionPath, "R1") << "trial " << failure.trial;
  }
}

TEST(SweepTest, RestartQueuePeakBytesStaysWithinTheSnapshotBudget) {
  // Few distinct crash indices shared by many trials: the queue holds each
  // shared capture once, so its byte peak is bounded by the distinct
  // captures as well as by the 64 MiB snapshot budget.
  SweepApp::Knobs knobs;
  knobs.cells = 4;
  knobs.iterations = 3;
  auto config = tinyConfig(200);
  config.resilience.isolate = true;
  tl::Gauge& peak =
      tl::MetricsRegistry::instance().gauge("campaign.restart_queue_peak_bytes");
  peak.reset();
  const auto result = cr::CampaignRunner(sweepFactory(knobs), config).run();
  ASSERT_EQ(result.tests.size(), 200u);

  std::set<std::uint64_t> distinct;
  for (const auto& record : result.tests) distinct.insert(record.crashAccessIndex);
  const auto captureBytes = static_cast<double>(result.golden.candidateBytes);
  EXPECT_GT(peak.value(), 0.0);
  EXPECT_LE(peak.value(), static_cast<double>(std::uint64_t{64} << 20));
  EXPECT_LE(peak.value(), captureBytes * static_cast<double>(distinct.size()));
  EXPECT_EQ(std::fmod(peak.value(), captureBytes), 0.0);
}
