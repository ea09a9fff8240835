// Telemetry parity across trial executors (docs/OBSERVABILITY.md): the same
// campaign run in-process (--isolation none) and in fork workers (--isolation
// fork) must leave the same metrics behind — every memsim.*, runtime.* and
// campaign.* counter and every histogram's observation count, including the
// crash_run / postmortem / restart phase histograms, whose observations
// happen inside the workers. The only allowed difference is the
// campaign.worker_* counters, which describe the workers themselves.
//
// The snapshot goes through the --metrics-out JSON, the same view an
// operator (and trace_lint) reads.
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace ec = easycrash;
namespace cr = easycrash::crash;
namespace tl = easycrash::telemetry;

namespace {

constexpr int kTests = 10;

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> histogramCounts;
};

/// Run one sp campaign on a zeroed registry and read its metrics back from
/// the registry's JSON export.
MetricsSnapshot runCampaign(cr::IsolationMode isolation, bool sweep) {
  tl::MetricsRegistry::instance().reset();
  cr::CampaignConfig config;
  config.seed = 3;
  config.numTests = kTests;
  config.sweep = sweep;
  config.resilience.isolate = true;
  config.resilience.isolation = isolation;
  const auto result =
      cr::CampaignRunner(ec::apps::findBenchmark("sp").factory, config).run();
  EXPECT_EQ(result.tests.size(), static_cast<std::size_t>(kTests));
  EXPECT_TRUE(result.failures.empty());

  std::ostringstream os;
  tl::MetricsRegistry::instance().writeJson(os);
  std::string error;
  const auto json = tl::json::parse(os.str(), &error);
  EXPECT_TRUE(json.has_value()) << error;
  MetricsSnapshot snapshot;
  if (!json) return snapshot;
  for (const auto& [name, value] : json->find("counters")->object) {
    snapshot.counters[name] = value.number;
  }
  for (const auto& [name, value] : json->find("histograms")->object) {
    snapshot.histogramCounts[name] = value.find("count")->number;
  }
  return snapshot;
}

template <typename Map>
std::set<std::string> keysOf(const Map& a, const Map& b) {
  std::set<std::string> keys;
  for (const auto& [name, value] : a) keys.insert(name);
  for (const auto& [name, value] : b) keys.insert(name);
  return keys;
}

void expectSameTelemetry(bool sweep) {
  SCOPED_TRACE(sweep ? "sweep on" : "sweep off");
  const MetricsSnapshot none = runCampaign(cr::IsolationMode::None, sweep);
  const MetricsSnapshot fork = runCampaign(cr::IsolationMode::Fork, sweep);

  for (const std::string& name : keysOf(none.counters, fork.counters)) {
    if (name.rfind("campaign.worker_", 0) == 0) continue;
    const auto a = none.counters.find(name);
    const auto b = fork.counters.find(name);
    EXPECT_EQ(a == none.counters.end() ? 0.0 : a->second,
              b == fork.counters.end() ? 0.0 : b->second)
        << "counter " << name;
  }
  for (const std::string& name : keysOf(none.histogramCounts, fork.histogramCounts)) {
    const auto a = none.histogramCounts.find(name);
    const auto b = fork.histogramCounts.find(name);
    EXPECT_EQ(a == none.histogramCounts.end() ? 0.0 : a->second,
              b == fork.histogramCounts.end() ? 0.0 : b->second)
        << "histogram " << name << " count";
  }

  // The comparison must not pass vacuously: the campaign really ran, and
  // each phase was observed in both modes.
  EXPECT_EQ(fork.counters.at("campaign.trials"), kTests);
  EXPECT_EQ(fork.counters.at("campaign.sweep_runs"), sweep ? 1 : 0);
  EXPECT_GT(fork.counters.at("memsim.loads"), 0);
  EXPECT_GT(fork.counters.at("campaign.worker_spawns"), 0);
  EXPECT_EQ(fork.histogramCounts.at("campaign.restart_us"), kTests);
  EXPECT_EQ(fork.histogramCounts.at("campaign.postmortem_us"),
            fork.counters.at("campaign.sweep_captures") + (sweep ? 0 : kTests));
  EXPECT_EQ(fork.histogramCounts.at("campaign.crash_run_us"), sweep ? 1 : kTests);
}

}  // namespace

TEST(IsolationParity, ForkAndInProcessEmitTheSameTelemetryWithSweep) {
  expectSameTelemetry(true);
}

TEST(IsolationParity, ForkAndInProcessEmitTheSameTelemetryWithoutSweep) {
  expectSameTelemetry(false);
}

// The fold the parent applies to a worker's shipped histogram: absorbing
// one histogram's buckets and sum into an empty one reproduces it exactly,
// and a different bucket layout is refused rather than misfiled.
TEST(IsolationParity, AbsorbedHistogramEqualsTheShippedOne) {
  const auto bounds = tl::Histogram::exponentialBounds(10.0, 4.0, 6);
  tl::Histogram observed(bounds);
  for (const double v : {1.0, 12.0, 12.0, 700.0, 1e9}) observed.observe(v);
  std::vector<std::uint64_t> buckets;
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    buckets.push_back(observed.bucketCount(i));
  }

  tl::Histogram folded(bounds);
  folded.absorb(buckets, observed.sum());
  EXPECT_EQ(folded.count(), observed.count());
  EXPECT_EQ(folded.sum(), observed.sum());
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    EXPECT_EQ(folded.bucketCount(i), observed.bucketCount(i)) << "bucket " << i;
  }

  buckets.pop_back();
  EXPECT_THROW(folded.absorb(buckets, 0.0), std::logic_error);
  EXPECT_EQ(folded.count(), observed.count());
}
