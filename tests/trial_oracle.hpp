// The per-trial reference evaluator (tests/trial_oracle_test.cpp). It decides
// every trial of a campaign on its own, from Runtime and Driver primitives
// alone, as the paper's NVCT runs one crash test: a crashing run armed at the
// trial's crash point, the post-mortem, the power loss, then a restart run to
// the iteration cap with no golden trajectory to rejoin, classified S1–S4.
// It shares nothing with CampaignRunner's sweep, restart queue, scheduler or
// executors, so a campaign that agrees with it record by record, and byte by
// byte in its CSV and journal, decided every trial as one crash test would.
//
// Scope: full monitoring and unsharded campaigns with trial isolation on. A
// crashing run or restart that throws is retried up to the campaign's retry
// budget and then recorded as a TrialFailure of kind "exception".
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/common/rng.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"

namespace trial_oracle {

namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;

/// The oracle's decisions on a whole campaign, and the CSV and compacted
/// journal a campaign with those decisions leaves behind.
struct Verdict {
  cr::CampaignResult result;
  std::string csv;
  std::string journal;
};

inline std::string readFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// One attempt at one crash test. Returns the record, or nothing after
/// filling `failure` with why the attempt died.
inline std::optional<cr::CrashTestRecord> crashTest(const rt::AppFactory& factory,
                                                    const cr::CampaignConfig& config,
                                                    std::uint64_t crashIndex,
                                                    int goldenFinal,
                                                    cr::TrialFailure& failure) {
  const bool nvm = config.mode == cr::SnapshotMode::NvmImage;
  cr::CrashTestRecord record;
  record.crashAccessIndex = crashIndex;
  std::map<rt::ObjectId, std::vector<std::uint8_t>> snapshots;
  {
    rt::Runtime crashing(config.cache);
    crashing.setPlan(config.plan);
    auto app = factory();
    app->setup(crashing);
    app->initialize(crashing);
    crashing.armCrash(crashIndex);
    try {
      (void)rt::Driver::run(*app, crashing, 1, goldenFinal);
      ADD_FAILURE() << "the crash armed at access " << crashIndex << " did not fire";
      return std::nullopt;
    } catch (const rt::CrashEvent& at) {
      // The post-mortem reads the caches against the NVM image before the
      // power loss drops them.
      record.region = at.activeRegion;
      record.regionPath = at.regionPath;
      record.crashIteration = at.iteration;
      for (const auto& object : crashing.objects()) {
        if (!object.candidate) continue;
        record.inconsistentRate[object.id] = crashing.inconsistentRate(object.id);
        snapshots[object.id] = nvm ? crashing.dumpObjectNvm(object.id)
                                   : crashing.dumpObjectCurrent(object.id);
      }
      record.restartIteration = nvm ? crashing.bookmarkedIterationNvm() : at.iteration;
      crashing.powerLoss();
    } catch (const std::exception& e) {
      failure.kind = "exception";
      failure.reason = e.what();
      failure.regionPath = cr::formatRegionPath(crashing.throwRegionPath());
      return std::nullopt;
    }
  }

  try {
    rt::Runtime restart(config.cache);
    restart.setDirect(true);
    restart.setPlan(config.plan);
    auto app = factory();
    app->setup(restart);
    app->initialize(restart);
    for (const auto& [id, bytes] : snapshots) restart.restoreObject(id, bytes);
    const rt::RunResult run = rt::Driver::run(*app, restart, record.restartIteration,
                                              goldenFinal * config.maxIterationFactor);
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
  } catch (const std::exception& e) {
    failure.kind = "exception";
    failure.reason = e.what();
    failure.regionPath = cr::formatRegionPath(record.regionPath);
    return std::nullopt;
  }
  return record;
}

/// Decide `config`'s campaign trial by trial. The journal is rendered
/// through `journalPath`, which is removed afterwards.
inline Verdict decideCampaign(const rt::AppFactory& factory,
                              const cr::CampaignConfig& config,
                              const std::string& journalPath) {
  Verdict verdict;
  cr::CampaignResult& out = verdict.result;
  out.plannedTests = config.numTests;
  {
    // The golden run fixes the crash window, the iteration count and the
    // candidate objects.
    rt::Runtime golden(config.cache);
    golden.setPlan(config.plan);
    auto app = factory();
    const rt::RunResult run = rt::Driver::freshRun(*app, golden);
    EXPECT_TRUE(run.verification.pass) << run.verification.detail;
    out.golden.windowAccesses = golden.windowAccesses();
    out.golden.finalIteration = run.finalIteration;
    out.golden.objects = golden.objects();
  }

  cr::JournalHeader header;
  header.app = config.appLabel;
  header.seed = config.seed;
  header.tests = config.numTests;
  header.mode = config.mode == cr::SnapshotMode::NvmImage ? "nvm" : "coherent";
  header.planFingerprint = cr::planFingerprint(config.plan);
  header.windowAccesses = out.golden.windowAccesses;
  cr::TrialJournal journal(journalPath, header, config.resilience.journalFlushEvery);

  const int maxAttempts = 1 + std::max(0, config.resilience.maxRetries);
  easycrash::Rng rng(config.seed);
  for (std::size_t t = 0; t < static_cast<std::size_t>(config.numTests); ++t) {
    cr::TrialFailure failure;
    failure.trial = t;
    failure.crashAccessIndex = rng.between(1, out.golden.windowAccesses);
    std::optional<cr::CrashTestRecord> record;
    for (int att = 1; att <= maxAttempts && !record; ++att) {
      failure.attempts = att;
      record = crashTest(factory, config, failure.crashAccessIndex,
                         out.golden.finalIteration, failure);
    }
    if (record) {
      journal.recordTrial(t, *record);
      out.tests.push_back(std::move(*record));
    } else {
      journal.recordFailure(failure);
      out.failures.push_back(std::move(failure));
    }
  }
  journal.close();
  verdict.journal = readFile(journalPath);
  std::remove(journalPath.c_str());
  std::ostringstream csv;
  cr::writeCampaignCsv(out, csv);
  verdict.csv = csv.str();
  return verdict;
}

}  // namespace trial_oracle
