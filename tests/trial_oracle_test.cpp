// Independent oracle for the single sweep (docs/INTERNALS.md "The single
// sweep"). A campaign produces its crash tests from one sweep crashing run,
// a restart queue and restarts that stop once they rejoin the golden
// trajectory; tests/trial_oracle.hpp decides the same trials one crash test
// at a time from Runtime and Driver primitives. The campaign must agree with
// it record by record, failure by failure, and byte for byte in its CSV and
// journal:
//   - on all 11 apps, bare and under the persist-everywhere plan
//     (candidates@main), at --threads 1 and 4 under both executors;
//   - on a window so small that crash indices repeat (shared captures);
//   - on an app whose crashing runs die mid-window, where the dead sweep is
//     charged to its first uncaptured crash point and the tail re-swept;
//   - on an app whose crashing runs die after the crash window, where the
//     dead sweep charges no trial.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/plan_spec.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "sweep_app.hpp"
#include "trial_oracle.hpp"

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

std::string tempPath(const std::string& name) { return testing::TempDir() + name; }

/// The four executor settings every campaign below runs under.
struct Executor {
  int threads;
  cr::IsolationMode isolation;
};
constexpr Executor kExecutors[] = {{1, cr::IsolationMode::None},
                                   {4, cr::IsolationMode::None},
                                   {1, cr::IsolationMode::Fork},
                                   {4, cr::IsolationMode::Fork}};

std::string label(const Executor& e) {
  return std::string(e.isolation == cr::IsolationMode::Fork ? "fork" : "none") +
         " threads=" + std::to_string(e.threads);
}

/// A campaign's result with its CSV and journal bytes.
trial_oracle::Verdict runCampaign(const rt::AppFactory& factory,
                                  cr::CampaignConfig config, const Executor& executor,
                                  const std::string& journalPath) {
  std::remove(journalPath.c_str());
  config.threads = executor.threads;
  config.resilience.isolation = executor.isolation;
  config.resilience.journalPath = journalPath;
  trial_oracle::Verdict got;
  got.result = cr::CampaignRunner(factory, config).run();
  got.journal = trial_oracle::readFile(journalPath);
  std::ostringstream csv;
  cr::writeCampaignCsv(got.result, csv);
  got.csv = csv.str();
  std::remove(journalPath.c_str());
  return got;
}

void expectSameCampaign(const trial_oracle::Verdict& want,
                        const trial_oracle::Verdict& got) {
  EXPECT_FALSE(got.result.interrupted);
  ASSERT_EQ(got.result.tests.size(), want.result.tests.size());
  for (std::size_t i = 0; i < want.result.tests.size(); ++i) {
    const cr::CrashTestRecord& w = want.result.tests[i];
    const cr::CrashTestRecord& g = got.result.tests[i];
    SCOPED_TRACE("record " + std::to_string(i) + ", crash at window access " +
                 std::to_string(w.crashAccessIndex));
    EXPECT_EQ(g.crashAccessIndex, w.crashAccessIndex);
    EXPECT_EQ(g.region, w.region);
    EXPECT_EQ(g.regionPath, w.regionPath);
    EXPECT_EQ(g.crashIteration, w.crashIteration);
    EXPECT_EQ(g.restartIteration, w.restartIteration);
    EXPECT_EQ(cr::toString(g.response), cr::toString(w.response));
    EXPECT_EQ(g.extraIterations, w.extraIterations);
    EXPECT_EQ(g.note, w.note);
    ASSERT_EQ(g.inconsistentRate.size(), w.inconsistentRate.size());
    for (const auto& [id, rate] : w.inconsistentRate) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.inconsistentRate.at(id)),
                std::bit_cast<std::uint64_t>(rate))
          << "object " << id;
    }
  }
  ASSERT_EQ(got.result.failures.size(), want.result.failures.size());
  for (std::size_t i = 0; i < want.result.failures.size(); ++i) {
    const cr::TrialFailure& w = want.result.failures[i];
    const cr::TrialFailure& g = got.result.failures[i];
    SCOPED_TRACE("failure " + std::to_string(i));
    EXPECT_EQ(g.trial, w.trial);
    EXPECT_EQ(g.crashAccessIndex, w.crashAccessIndex);
    EXPECT_EQ(g.kind, w.kind);
    EXPECT_EQ(g.timeout, w.timeout);
    EXPECT_EQ(g.reason, w.reason);
    EXPECT_EQ(g.regionPath, w.regionPath);
    EXPECT_EQ(g.attempts, w.attempts);
  }
  EXPECT_EQ(got.csv, want.csv);
  EXPECT_EQ(got.journal, want.journal);
}

/// Decide `config`'s campaign with the oracle, then run it under every
/// executor setting and compare. `factory()` must hand out a fresh factory
/// per campaign (a SweepApp factory counts its constructions).
template <typename FactoryMaker>
void checkAgainstOracle(const FactoryMaker& factory, const cr::CampaignConfig& config,
                        const std::string& tag) {
  const trial_oracle::Verdict want =
      trial_oracle::decideCampaign(factory(), config, tempPath(tag + "_oracle.jsonl"));
  ASSERT_EQ(want.result.tests.size() + want.result.failures.size(),
            static_cast<std::size_t>(config.numTests));
  for (const Executor& executor : kExecutors) {
    SCOPED_TRACE(label(executor));
    expectSameCampaign(want, runCampaign(factory(), config, executor,
                                         tempPath(tag + "_campaign.jsonl")));
  }
}

class TrialOracle : public ::testing::TestWithParam<Case> {};

}  // namespace

TEST_P(TrialOracle, SweepCampaignsMatchPerTrialDecisions) {
  const Case& c = GetParam();
  const auto& factory = ec::apps::findBenchmark(c.app).factory;
  cr::CampaignConfig config;
  config.seed = 5;
  config.numTests = kTests;
  config.appLabel = c.app;
  config.resilience.isolate = true;
  if (c.persistAll) {
    rt::Runtime probe;
    auto app = factory();
    app->setup(probe);
    config.plan = cr::parsePlanSpec("candidates@main", probe);
  }
  checkAgainstOracle([&] { return factory; }, config, caseName({c, 0}));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TrialOracle, ::testing::ValuesIn(allCases()),
                         caseName);

TEST(TrialOracleSweepApp, DuplicateCrashIndicesMatchPerTrialDecisions) {
  // A window of a few dozen accesses with 200 draws guarantees repeated
  // crash indices: trials that share one sweep capture.
  sweep_app::SweepApp::Knobs knobs;
  knobs.cells = 4;
  knobs.iterations = 3;
  cr::CampaignConfig config;
  config.numTests = 200;
  config.cache = ms::CacheConfig::tiny();
  config.resilience.isolate = true;
  checkAgainstOracle([&] { return sweep_app::sweepFactory(knobs); }, config,
                     "oracle_duplicates");
}

TEST(TrialOracleSweepApp, MidWindowThrowMatchesPerTrialFailures) {
  // Crashing runs die at iteration 3: crash points in the first two
  // iterations complete, every later one fails after spending its retry.
  sweep_app::SweepApp::Knobs knobs;
  knobs.throwAtIteration = 3;
  cr::CampaignConfig config;
  config.numTests = 30;
  config.cache = ms::CacheConfig::tiny();
  config.resilience.isolate = true;
  config.resilience.maxRetries = 1;
  config.resilience.retryBackoffMs = 0;
  const trial_oracle::Verdict want = trial_oracle::decideCampaign(
      sweep_app::sweepFactory(knobs), config, tempPath("oracle_throw_probe.jsonl"));
  ASSERT_GT(want.result.tests.size(), 0u) << "expected early crash points to complete";
  ASSERT_GT(want.result.failures.size(), 0u) << "expected late crash points to fail";
  checkAgainstOracle([&] { return sweep_app::sweepFactory(knobs); }, config,
                     "oracle_throw");
}

TEST(TrialOracleSweepApp, ThrowPastTheLastCrashPointChargesNoTrial) {
  // Crashing runs die in verify(), after the crash window: every sweep
  // captures all its crash points and then dies on the way to the golden
  // final iteration. No trial owes that death anything, so every record is
  // the oracle's and none fails; the golden share comes from the simulated
  // golden run after the drain instead of from the sweep.
  sweep_app::SweepApp::Knobs knobs;
  knobs.throwInVerify = true;
  cr::CampaignConfig config;
  config.numTests = 30;
  config.cache = ms::CacheConfig::tiny();
  config.resilience.isolate = true;
  const trial_oracle::Verdict want = trial_oracle::decideCampaign(
      sweep_app::sweepFactory(knobs), config, tempPath("oracle_tail_oracle.jsonl"));
  ASSERT_EQ(want.result.tests.size(), static_cast<std::size_t>(config.numTests));
  const cr::GoldenStats golden =
      cr::CampaignRunner(sweep_app::sweepFactory(knobs), config).goldenRun();

  tl::Counter& fallbacks =
      tl::MetricsRegistry::instance().counter("campaign.golden_fallbacks");
  for (const Executor& executor : kExecutors) {
    SCOPED_TRACE(label(executor));
    const std::uint64_t before = fallbacks.value();
    const trial_oracle::Verdict got =
        runCampaign(sweep_app::sweepFactory(knobs), config, executor,
                    tempPath("oracle_tail_campaign.jsonl"));
    EXPECT_EQ(fallbacks.value() - before, 1u);
    EXPECT_TRUE(got.result.failures.empty());
    expectSameCampaign(want, got);
    EXPECT_EQ(got.result.golden.events.loads, golden.events.loads);
    EXPECT_EQ(got.result.golden.events.stores, golden.events.stores);
    EXPECT_EQ(got.result.golden.events.nvmBlockWrites, golden.events.nvmBlockWrites);
  }
}
