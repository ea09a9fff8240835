// The sweep tests' miniature app (tests/sweep_test.cpp,
// tests/trial_oracle_test.cpp): an accumulator mirroring campaign_test's
// ProbeApp, with knobs that throw a harness-level exception (not an
// AppInterrupt) at a fixed iteration — a crashing run that dies before its
// armed crash fires — or in verify(), after the crash window.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/runtime/tracked.hpp"

namespace sweep_app {

namespace rt = easycrash::runtime;

class SweepApp final : public rt::IApp {
 public:
  struct Knobs {
    int iterations = 6;
    int cells = 256;
    /// 0 = never; otherwise crashing runs die on reaching this iteration.
    /// Restarts are exempt (they run in direct mode), and so are golden
    /// runs: sweepFactory exempts the first construction, and a campaign's
    /// simulated golden run is labelled "golden".
    int throwAtIteration = 0;
    /// Crashing runs that get past the crash window die in verify(): a
    /// campaign's sweep dies after its last capture. Same exemptions.
    bool throwInVerify = false;
  };

  explicit SweepApp(Knobs knobs) : knobs_(knobs) {}

  [[nodiscard]] const rt::AppInfo& info() const override { return info_; }

  void setup(rt::Runtime& runtime) override {
    runtime.declareRegionCount(2);
    data_ = rt::TrackedArray<std::int64_t>(runtime, "data", knobs_.cells, true);
    sum_ = rt::TrackedScalar<std::int64_t>(runtime, "sum", true);
  }

  void initialize(rt::Runtime& runtime) override {
    (void)runtime;
    for (int i = 0; i < knobs_.cells; ++i) data_.set(i, 0);
    sum_.set(0);
  }

  void iterate(rt::Runtime& runtime, int iteration) override {
    {
      rt::RegionScope region(runtime, 0);
      if (knobs_.throwAtIteration > 0 && crashing(runtime) &&
          iteration >= knobs_.throwAtIteration) {
        throw std::runtime_error("sweep-app: induced failure");
      }
      for (int i = 0; i < knobs_.cells; ++i) data_.set(i, data_.get(i) + 1);
      region.iterationEnd();
    }
    {
      rt::RegionScope region(runtime, 1);
      std::int64_t total = 0;
      for (int i = 0; i < knobs_.cells; ++i) total += data_.get(i);
      sum_.set(total);
      region.iterationEnd();
    }
  }

  [[nodiscard]] int nominalIterations() const override { return knobs_.iterations; }

  [[nodiscard]] bool converged(rt::Runtime& runtime, int iteration) override {
    (void)runtime;
    return iteration >= knobs_.iterations;
  }

  [[nodiscard]] rt::VerifyOutcome verify(rt::Runtime& runtime) override {
    if (knobs_.throwInVerify && crashing(runtime)) {
      throw std::runtime_error("sweep-app: induced failure in verify");
    }
    rt::VerifyOutcome out;
    std::int64_t total = 0;
    for (int i = 0; i < knobs_.cells; ++i) total += data_.peek(i);
    const auto expected =
        static_cast<std::int64_t>(knobs_.iterations) * knobs_.cells;
    out.metric = static_cast<double>(total);
    out.pass = total == expected;
    return out;
  }

 private:
  [[nodiscard]] static bool crashing(const rt::Runtime& runtime) {
    return !runtime.direct() && runtime.traceRun() != "golden";
  }

  Knobs knobs_;
  rt::AppInfo info_{"sweep-app", "sweep evaluator test app"};
  rt::TrackedArray<std::int64_t> data_;
  rt::TrackedScalar<std::int64_t> sum_;
};

inline rt::AppFactory sweepFactory(SweepApp::Knobs knobs) {
  // A golden run is always the factory's first construction; it must
  // complete for the campaign (or the oracle) to start, so it never throws.
  // Each campaign (and each oracle) takes a factory of its own.
  auto constructions = std::make_shared<std::atomic<int>>(0);
  return [knobs, constructions] {
    auto effective = knobs;
    if (constructions->fetch_add(1) == 0) {
      effective.throwAtIteration = 0;
      effective.throwInVerify = false;
    }
    return std::make_unique<SweepApp>(effective);
  };
}

}  // namespace sweep_app
