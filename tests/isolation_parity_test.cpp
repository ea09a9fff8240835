// Telemetry parity across trial executors (docs/OBSERVABILITY.md): the same
// campaign run in-process (--isolation none) and in fork workers (--isolation
// fork) must leave the same metrics behind — every memsim.*, runtime.* and
// campaign.* counter and every histogram's observation count, including the
// crash_run / postmortem / restart phase histograms, whose observations
// happen inside the workers. The only allowed difference is the
// campaign.worker_* counters, which describe the workers themselves.
//
// The snapshot goes through the --metrics-out JSON, the same view an
// operator (and trace_lint) reads. The parity holds for a clean campaign and
// for one whose sweeps die mid-window and are re-swept.
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "easycrash/apps/registry.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/json.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace ec = easycrash;
namespace cr = easycrash::crash;
namespace rt = easycrash::runtime;
namespace tl = easycrash::telemetry;

namespace {

constexpr int kTests = 10;
/// sp's crashing runs die here in the dying campaigns (sp runs 24).
constexpr int kDieAtIteration = 12;

/// sp whose crashing runs throw on reaching kDieAtIteration: every sweep
/// dies mid-window, so the campaign charges each death to a crash point and
/// sweeps the tail again. The golden runs (the factory's first construction,
/// and the simulated golden run labelled "golden" that supplies the golden
/// share when no sweep reaches the end) and the direct-mode restarts are
/// spared.
class DyingSp final : public rt::IApp {
 public:
  DyingSp(std::unique_ptr<rt::IApp> inner, bool dies)
      : inner_(std::move(inner)), dies_(dies) {}

  [[nodiscard]] const rt::AppInfo& info() const override { return inner_->info(); }
  void setup(rt::Runtime& runtime) override { inner_->setup(runtime); }
  void initialize(rt::Runtime& runtime) override { inner_->initialize(runtime); }
  void iterate(rt::Runtime& runtime, int iteration) override {
    if (dies_ && !runtime.direct() && runtime.traceRun() != "golden" &&
        iteration >= kDieAtIteration) {
      throw std::runtime_error("dying sp: induced failure");
    }
    inner_->iterate(runtime, iteration);
  }
  [[nodiscard]] int nominalIterations() const override {
    return inner_->nominalIterations();
  }
  [[nodiscard]] bool converged(rt::Runtime& runtime, int iteration) override {
    return inner_->converged(runtime, iteration);
  }
  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime& runtime) override {
    return inner_->verify(runtime);
  }

 private:
  std::unique_ptr<rt::IApp> inner_;
  bool dies_;
};

rt::AppFactory spFactory(bool dying) {
  const rt::AppFactory sp = ec::apps::findBenchmark("sp").factory;
  if (!dying) return sp;
  auto constructions = std::make_shared<std::atomic<int>>(0);
  return [sp, constructions] {
    return std::make_unique<DyingSp>(sp(), constructions->fetch_add(1) > 0);
  };
}

struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, double> histogramCounts;
};

/// Run one sp campaign on a zeroed registry and read its metrics back from
/// the registry's JSON export.
MetricsSnapshot runCampaign(cr::IsolationMode isolation, bool dying) {
  tl::MetricsRegistry::instance().reset();
  cr::CampaignConfig config;
  config.seed = 3;
  config.numTests = kTests;
  config.resilience.isolate = true;
  config.resilience.isolation = isolation;
  const auto result = cr::CampaignRunner(spFactory(dying), config).run();
  EXPECT_EQ(result.tests.size() + result.failures.size(),
            static_cast<std::size_t>(kTests));
  if (dying) {
    EXPECT_GT(result.tests.size(), 0u) << "expected early crash points to complete";
    EXPECT_GT(result.failures.size(), 0u) << "expected late crash points to fail";
  } else {
    EXPECT_TRUE(result.failures.empty());
  }

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

void expectSameTelemetry(bool dying) {
  SCOPED_TRACE(dying ? "dying sweeps" : "clean sweep");
  const MetricsSnapshot none = runCampaign(cr::IsolationMode::None, dying);
  const MetricsSnapshot fork = runCampaign(cr::IsolationMode::Fork, dying);

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
  const auto counter = [&](const char* name) {
    const auto it = fork.counters.find(name);
    return it == fork.counters.end() ? 0.0 : it->second;
  };
  const double trials = counter("campaign.trials");
  EXPECT_EQ(trials + counter("campaign.trial_failures"), kTests);
  EXPECT_GT(trials, 0);
  EXPECT_GT(counter("memsim.loads"), 0);
  EXPECT_GT(counter("campaign.worker_spawns"), 0);
  EXPECT_EQ(fork.histogramCounts.at("campaign.restart_us"), trials);
  EXPECT_EQ(fork.histogramCounts.at("campaign.postmortem_us"),
            counter("campaign.sweep_captures"));
  EXPECT_EQ(fork.histogramCounts.at("campaign.crash_run_us"),
            counter("campaign.sweep_runs"));
  // One sweep when clean; when dying, one more per dead sweep after the
  // first (each death re-sweeps the tail, the last one leaves none).
  EXPECT_EQ(counter("campaign.sweep_runs"),
            dying ? counter("campaign.sweep_fallbacks") : 1);
  if (dying) {
    EXPECT_GT(counter("campaign.sweep_fallbacks"), 0);
  }
}

}  // namespace

TEST(IsolationParity, ForkAndInProcessEmitTheSameTelemetryWithSweep) {
  expectSameTelemetry(false);
}

// A dead sweep is recovered by re-sweeping its tail, in the parent's
// producer under either executor: the retries, backoffs, failures and the
// dead runs' simulation counters must land alike.
TEST(IsolationParity, ForkAndInProcessEmitTheSameTelemetryWithoutSweep) {
  expectSameTelemetry(true);
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
