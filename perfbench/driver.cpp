// End-to-end campaign benchmark driver.
//
// Runs one named workload of real crash-test campaigns (or the four-step
// EasyCrash workflow) against the linked libraries and reports what a user
// waits on: decided crash trials per second, golden-run set-up time, peak
// resident memory and the share of trials decided correctly. With --trace 1
// it instead runs a traced pass that times each library layer from the
// outside — spans around the benchmark's own calls into memsim, runtime,
// crash and core — and reports per-layer numbers. perfbench/NOTES.md says
// why each workload exists and which end-to-end metric each layer metric
// should move.
//
// Every timed campaign uses a fresh CampaignRunner, so like one `nvct`
// invocation it pays for its own golden run and worker-pool spawn. The
// benchmark seed only picks each campaign's seed; the apps see nothing but
// the crash points the campaigns draw from it.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 when an output digest or an exact simulated count
// does not repeat (correct == false).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "easycrash/apps/registry.hpp"
#include "easycrash/common/cli.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/core/object_selection.hpp"
#include "easycrash/core/workflow.hpp"
#include "easycrash/crash/campaign.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/runtime/app.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "spans.hpp"

namespace ec = easycrash;
using ec::crash::CampaignConfig;
using ec::crash::CampaignResult;
using ec::crash::CampaignRunner;
using ec::crash::IsolationMode;
using ec::crash::MonitorMode;
using ec::runtime::AppFactory;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- Workloads ---------------------------------------------------------------

struct CampaignSpec {
  std::string app;
  int scale = 1;
  int tests = 0;
  MonitorMode monitor = MonitorMode::Full;

  [[nodiscard]] std::string label() const {
    return scale > 1 ? app + "@s" + std::to_string(scale) : app;
  }
};

struct Workload {
  std::string name;
  std::vector<CampaignSpec> campaigns;    ///< campaign workloads
  std::vector<std::string> workflowApps;  ///< workflow_plan only
  int workflowTests = 0;
};

/// The two workloads; NOTES.md says why each was chosen. `smoke` shrinks
/// only the trial counts (the self-test size): apps, threads and modes stay.
/// campaign_restart ends with the large-footprint campaign (cg at scale 4,
/// sampled monitor), the one campaign that runs the region monitor and
/// demotion routing. workflow_plan runs 80 tests per campaign because at 40
/// the kmeans plan (and with it whether a validation campaign runs) changes
/// with the seed.
Workload findWorkload(const std::string& name, bool smoke) {
  const auto tests = [smoke](int full, int small) { return smoke ? small : full; };
  Workload w{name, {}, {}, 0};
  if (name == "campaign_restart") {
    for (const char* app : {"cg", "mg", "ft"}) {
      w.campaigns.push_back({app, 1, tests(200, 8)});
    }
    w.campaigns.push_back({"cg", 4, tests(32, 4), MonitorMode::Sampled});
  } else if (name == "workflow_plan") {
    w.workflowApps = {"kmeans", "cg", "mg"};
    w.workflowTests = tests(80, 12);
  } else {
    throw std::runtime_error("unknown --workload " + name +
                             " (campaign_restart|workflow_plan)");
  }
  return w;
}

/// Seed of a workload's i-th campaign (or workflow): an independent stream
/// per campaign, all derived from the benchmark seed.
std::uint64_t campaignSeed(std::uint64_t benchSeed, std::size_t index) {
  std::uint64_t state = benchSeed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return ec::splitmix64(state);
}

/// `nvct`'s defaults: one campaign thread, fork isolation with trial
/// isolation, one retry and the failure budget of 25, a 20x-golden watchdog,
/// sweep/bulk/scan/profile on, NVM snapshots, no persistence plan.
CampaignConfig campaignConfig(const CampaignSpec& spec, std::uint64_t seed) {
  CampaignConfig c;
  c.seed = seed;
  c.numTests = spec.tests;
  c.threads = 1;
  c.appLabel = spec.label();
  c.monitor.mode = spec.monitor;
  auto& res = c.resilience;
  res.isolate = true;
  res.isolation = IsolationMode::Fork;
  res.maxFailures = 25;
  res.maxRetries = 1;
  res.goldenTimeoutMultiple = 20.0;
  return c;
}

ec::core::WorkflowConfig workflowConfig(int tests, std::uint64_t seed) {
  ec::core::WorkflowConfig w;  // in-process, final validation on
  w.testsPerCampaign = tests;
  w.seed = seed;
  return w;
}

/// The campaign configs runEasyCrashWorkflow ran for `res` (baseline, then
/// persist-everywhere and validation when the pipeline reached them), built
/// the way core/workflow.cpp builds them, so their golden runs can be timed
/// on their own.
std::vector<CampaignConfig> workflowCampaigns(const ec::core::WorkflowConfig& w,
                                              const ec::core::WorkflowResult& res) {
  CampaignConfig base;
  base.numTests = w.testsPerCampaign;
  base.seed = w.seed;
  base.cache = w.cache;
  base.monitor = w.monitor;
  base.monitor.trackedGolden = true;
  std::vector<CampaignConfig> out{base};
  if (!res.objects.critical.empty()) {
    CampaignConfig everywhere = base;
    everywhere.seed = w.seed + 1;
    everywhere.plan = res.everywherePlan;
    out.push_back(everywhere);
  }
  if (res.validation) {
    CampaignConfig validation = base;
    validation.seed = w.seed + 2;
    validation.plan = res.plan;
    out.push_back(validation);
  }
  return out;
}

// ---- Registry counters ---------------------------------------------------------

struct CounterSpec {
  const char* registryName;
  const char* metric;  ///< per-layer metric name; nullptr = feeds a ratio only
  const char* unit;
  bool exact;  ///< an exact simulated count: the same inputs must repeat it
};

/// Registry counters read around each timed call.
constexpr std::array<CounterSpec, 9> kCounters = {{
    {"memsim.loads", "memsim.loads", "count", true},
    {"memsim.stores", "memsim.stores", "count", true},
    {"memsim.nvmBlockWrites", "memsim.nvm_block_writes", "count", true},
    {"memsim.flushDirty", "memsim.flush_dirty", "count", true},
    {"memsim.postmortem_blocks_compared", "memsim.postmortem_blocks_compared", "count", true},
    {"memsim.region_samples", "memsim.region_samples", "count", true},
    {"campaign.monitor_demoted_bytes", "crash.demoted_bytes", "bytes", false},
    {"campaign.sweep_captures", nullptr, nullptr, false},
    {"campaign.trial_retries", nullptr, nullptr, false},
}};
enum CounterIndex : std::size_t { kSweepCaptures = 7, kTrialRetries = 8 };

using Counts = std::array<std::uint64_t, kCounters.size()>;

Counts readCounts() {
  auto& reg = ec::telemetry::MetricsRegistry::instance();
  Counts c{};
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    c[i] = reg.counter(kCounters[i].registryName).value();
  }
  return c;
}

Counts operator-(const Counts& a, const Counts& b) {
  Counts c{};
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = a[i] - b[i];
  return c;
}

Counts& operator+=(Counts& a, const Counts& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

/// Names of the exact counters that differ between `a` and `b`.
std::vector<std::string> exactCountDrift(const Counts& a, const Counts& b) {
  std::vector<std::string> drifted;
  for (std::size_t i = 0; i < kCounters.size(); ++i) {
    if (kCounters[i].exact && a[i] != b[i]) {
      drifted.push_back(std::string(kCounters[i].registryName) + " " + std::to_string(a[i]) +
                        " vs " + std::to_string(b[i]));
    }
  }
  return drifted;
}

// ---- Output digests -------------------------------------------------------------

/// FNV-1a over the object bytes of trivially copyable values.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Per decided trial: crash index, response, extra iterations and every
/// candidate's inconsistency rate; failed trials add their index.
std::uint64_t campaignDigest(const CampaignResult& r) {
  Digest d;
  d.add(r.tests.size());
  for (const auto& t : r.tests) {
    d.add(t.crashAccessIndex);
    d.add(t.response);
    d.add(t.extraIterations);
    for (const auto& [id, rate] : t.inconsistentRate) {
      d.add(id);
      d.add(rate);
    }
  }
  for (const auto& f : r.failures) d.add(f.trial);
  return d.value();
}

/// The chosen plan, the critical objects, baseline/final recomputability and
/// the trial digests of every campaign the workflow ran.
std::uint64_t workflowDigest(const ec::core::WorkflowResult& res) {
  Digest d;
  d.add(ec::crash::planFingerprint(res.plan));
  for (const auto id : res.objects.critical) d.add(id);
  d.add(res.baselineRecomputability());
  d.add(res.finalRecomputability());
  d.add(campaignDigest(res.baseline));
  d.add(campaignDigest(res.everywhere));
  if (res.validation) d.add(campaignDigest(*res.validation));
  return d.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

// ---- Timed calls -------------------------------------------------------------------

/// One campaign (or one app's workflow) of a pass.
struct Unit {
  std::string label;
  int planned = 0;
  std::size_t decided = 0;
  std::uint64_t digest = 0;
  std::string error;  ///< the call threw: all planned trials count as failed
  double seconds = 0.0;       ///< run() / runEasyCrashWorkflow() wall-clock
  double setupSeconds = 0.0;  ///< goldenRun() wall-clock of its configs
};

struct TimedRun {
  CampaignResult result;
  Counts counts{};
  Unit unit;
};

void removeJournal(const std::string& path) {
  if (path.empty()) return;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TimedRun timedRun(const AppFactory& factory, const CampaignConfig& config) {
  TimedRun out;
  out.unit.label = config.appLabel;
  out.unit.planned = config.numTests;
  const Counts before = readCounts();
  const auto t0 = Clock::now();
  try {
    out.result = CampaignRunner(factory, config).run();
  } catch (const std::exception& e) {
    out.unit.error = e.what();
  }
  out.unit.seconds = secondsSince(t0);
  out.counts = readCounts() - before;
  out.unit.decided = out.result.tests.size();
  out.unit.digest = campaignDigest(out.result);
  return out;
}

struct TimedWorkflow {
  ec::core::WorkflowResult result;
  std::vector<CampaignConfig> campaigns;  ///< the configs the workflow ran
  Counts counts{};
  Unit unit;
};

TimedWorkflow timedWorkflow(const std::string& app, const ec::core::WorkflowConfig& w) {
  TimedWorkflow out;
  out.unit.label = app;
  const Counts before = readCounts();
  const auto t0 = Clock::now();
  try {
    out.result = ec::core::runEasyCrashWorkflow(ec::apps::findBenchmark(app).factory, w);
  } catch (const std::exception& e) {
    out.unit.error = e.what();
  }
  out.unit.seconds = secondsSince(t0);
  out.counts = readCounts() - before;
  out.campaigns = workflowCampaigns(w, out.result);
  const auto& r = out.result;
  // A workflow that threw counts all three of its campaigns as planned.
  out.unit.planned = w.testsPerCampaign *
                     static_cast<int>(out.unit.error.empty() ? out.campaigns.size() : 3);
  out.unit.decided = r.baseline.tests.size() + r.everywhere.tests.size() +
                     (r.validation ? r.validation->tests.size() : 0);
  out.unit.digest = workflowDigest(r);
  return out;
}

double timedGolden(const AppFactory& factory, const CampaignConfig& config,
                   ec::crash::GoldenStats* golden = nullptr) {
  const auto t0 = Clock::now();
  ec::crash::GoldenStats g = CampaignRunner(factory, config).goldenRun();
  const double seconds = secondsSince(t0);
  if (golden != nullptr) *golden = std::move(g);
  return seconds;
}

// ---- Untraced passes -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  double injectSegvAt = 0.0;  ///< fraction of the crash window; 0 = no fault
  std::vector<std::uint64_t> expectDigests;
  std::string workdir;
  std::string sourceRev;
};

struct PassResult {
  double wallSeconds = 0.0;  ///< the whole pass, golden runs included
  Counts counts{};
  std::vector<Unit> units;

  [[nodiscard]] std::size_t decided() const {
    std::size_t n = 0;
    for (const Unit& u : units) n += u.decided;
    return n;
  }
};

/// A typical pass: each unit's median over the passes of `field`, summed.
/// Host slow-downs that hit one campaign of one pass drop out of every
/// unit's median, where a median of pass totals would keep part of them.
double typicalPass(const std::vector<PassResult>& passes, double Unit::*field) {
  double total = 0.0;
  for (std::size_t i = 0; i < passes.front().units.size(); ++i) {
    std::vector<double> values;
    for (const PassResult& pass : passes) values.push_back(pass.units[i].*field);
    total += median(values);
  }
  return total;
}

PassResult runPass(const Workload& wl, const Options& opt) {
  PassResult pass;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < wl.campaigns.size(); ++i) {
    const CampaignSpec& spec = wl.campaigns[i];
    const AppFactory factory = ec::apps::scaledBenchmarkFactory(spec.app, spec.scale);
    CampaignConfig config = campaignConfig(spec, campaignSeed(opt.seed, i));
    ec::crash::GoldenStats golden;
    const double setupSeconds = timedGolden(factory, config, &golden);
    if (opt.injectSegvAt > 0.0) {
      config.inject.kind = ec::crash::FaultPlan::Kind::Segv;
      config.inject.accessIndex = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(opt.injectSegvAt *
                                        static_cast<double>(golden.windowAccesses)));
    }
    TimedRun run = timedRun(factory, config);
    run.unit.setupSeconds = setupSeconds;
    pass.counts += run.counts;
    pass.units.push_back(std::move(run.unit));
  }
  for (std::size_t i = 0; i < wl.workflowApps.size(); ++i) {
    const std::string& app = wl.workflowApps[i];
    TimedWorkflow run =
        timedWorkflow(app, workflowConfig(wl.workflowTests, campaignSeed(opt.seed, i)));
    pass.counts += run.counts;
    const AppFactory& factory = ec::apps::findBenchmark(app).factory;
    for (const CampaignConfig& config : run.campaigns) {
      run.unit.setupSeconds += timedGolden(factory, config);
    }
    pass.units.push_back(std::move(run.unit));
  }
  pass.wallSeconds = secondsSince(t0);
  return pass;
}

/// At least `minPasses`, then more while another pass of median length
/// would end less than half a pass after `seconds`, so a run takes
/// `seconds`, give or take half a pass, however long a pass is.
std::vector<PassResult> runPasses(const Workload& wl, const Options& opt,
                                  std::size_t minPasses) {
  std::vector<PassResult> passes;
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (passes.size() < minPasses || secondsSince(t0) + 0.5 * median(walls) <= opt.seconds) {
    passes.push_back(runPass(wl, opt));
    walls.push_back(passes.back().wallSeconds);
  }
  return passes;
}

// ---- Checks and trial accounting ------------------------------------------------------

struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string problem) {
    correct = false;
    problems.push_back(std::move(problem));
  }
};

/// Reference digests: the recorded ones for the default seed at full size,
/// else the first pass's.
std::vector<std::uint64_t> referenceDigests(const PassResult& first, const Options& opt,
                                            Verdict& verdict) {
  std::vector<std::uint64_t> ref;
  for (const Unit& u : first.units) ref.push_back(u.digest);
  if (opt.expectDigests.empty()) return ref;
  if (opt.expectDigests.size() != ref.size()) {
    verdict.fail("--expect-digest names " + std::to_string(opt.expectDigests.size()) +
                 " digests for " + std::to_string(ref.size()) + " campaigns");
    return ref;
  }
  return opt.expectDigests;
}

/// Count one unit's trials: failed = planned - decided, or every planned
/// trial when its digest does not match the reference.
void account(const Unit& u, std::uint64_t ref, const std::string& where, Verdict& verdict) {
  const std::size_t planned = static_cast<std::size_t>(u.planned);
  verdict.attempted += planned;
  if (!u.error.empty()) {
    std::cerr << "perfbench: " << u.label << ": " << u.error << '\n';
  }
  if (u.digest != ref && u.error.empty()) {
    verdict.fail(where + " " + u.label + ": digest " + hex(u.digest) + " != expected " +
                 hex(ref));
    verdict.failed += planned;
  } else {
    verdict.failed += planned - std::min(planned, u.decided);
  }
}

void checkPasses(const std::vector<PassResult>& passes,
                 const std::vector<std::uint64_t>& ref, Verdict& verdict) {
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    for (std::size_t i = 0; i < pass.units.size(); ++i) {
      account(pass.units[i], ref[i], "pass " + std::to_string(p), verdict);
    }
    for (const std::string& d : exactCountDrift(pass.counts, passes.front().counts)) {
      verdict.fail("pass " + std::to_string(p) + ": exact count drifted: " + d);
    }
  }
}

// ---- Traced pass ---------------------------------------------------------------------

/// Work counts gathered beside the spans, so per-access and per-block costs
/// are measured where the work happens.
struct LayerCounts {
  std::uint64_t directAccesses = 0;  ///< crash-clock ticks of the direct runs
  std::uint64_t simAccesses = 0;     ///< loads + stores of the simulated runs
  std::uint64_t flushedBlocks = 0;   ///< flushes persistObject performed
  std::size_t trials = 0;            ///< decided trials of the traced runs
  Counts counts{};                   ///< registry deltas of the traced runs
  double sink = 0.0;                 ///< keeps the post-mortem reads live
};

constexpr std::size_t kProbeCaptures = 16;

/// Direct run (the restart path), then a simulated run with seeded
/// post-mortem captures as child spans, then a flush of every candidate.
void probeLayers(SpanRecorder& rec, const AppFactory& factory,
                 const ec::memsim::CacheConfig& cache, std::uint64_t seed,
                 const std::string& label, LayerCounts& lc) {
  using ec::runtime::Driver;
  using ec::runtime::Runtime;
  std::uint64_t window = 0;
  {
    Runtime rt(cache);
    rt.setDirect(true);
    auto app = factory();
    ScopedSpan span(rec, "runtime.direct_run", label);
    if (!Driver::freshRun(*app, rt).verification.pass) {
      throw std::runtime_error(label + ": direct run failed verification");
    }
    window = rt.windowAccesses();
  }
  lc.directAccesses += window;

  ec::Rng rng(seed);
  std::vector<std::uint64_t> points;
  for (std::size_t i = 0; i < kProbeCaptures; ++i) points.push_back(rng.between(1, window));
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  Runtime rt(cache);
  auto app = factory();
  rt.armCaptures(points, [&](const ec::runtime::CrashEvent&) {
    ScopedSpan span(rec, "memsim.postmortem", label);
    for (const auto id : rt.candidateObjects()) {
      lc.sink += rt.inconsistentRate(id);
      lc.sink += static_cast<double>(rt.dumpObjectNvm(id).size());
    }
  });
  {
    ScopedSpan span(rec, "memsim.sim_run", label);
    if (!Driver::freshRun(*app, rt).verification.pass) {
      throw std::runtime_error(label + ": simulated run failed verification");
    }
  }
  rt.disarmCaptures();
  lc.simAccesses += rt.events().loads + rt.events().stores;
  const std::uint64_t flushesBefore = rt.events().totalFlushes();
  {
    ScopedSpan span(rec, "memsim.flush", label);
    for (const auto id : rt.candidateObjects()) rt.persistObject(id);
  }
  lc.flushedBlocks += rt.events().totalFlushes() - flushesBefore;
}

/// A TrialJournal fed a campaign's decided records at its flush cadence
/// (nvct's default of 8), then closed.
void feedJournal(SpanRecorder& rec, const CampaignResult& result,
                 const CampaignConfig& config, const std::string& path) {
  ec::crash::JournalHeader header;
  header.app = config.appLabel;
  header.seed = config.seed;
  header.tests = config.numTests;
  header.mode = "nvm";
  header.planFingerprint = ec::crash::planFingerprint(config.plan);
  header.windowAccesses = result.golden.windowAccesses;
  removeJournal(path);
  {
    ScopedSpan span(rec, "crash.journal_write", config.appLabel);
    ec::crash::TrialJournal journal(path, header, config.resilience.journalFlushEvery);
    for (std::size_t t = 0; t < result.tests.size(); ++t) journal.recordTrial(t, result.tests[t]);
    journal.close();
  }
  removeJournal(path);
}

/// run() under fork isolation and in-process, same config: the difference
/// is the IPC overhead, and the two must decide identical trials.
TimedRun forkAndInProcess(SpanRecorder& rec, const AppFactory& factory,
                          CampaignConfig config, Verdict& verdict) {
  config.resilience.isolate = true;
  config.resilience.isolation = IsolationMode::Fork;
  TimedRun fork;
  {
    ScopedSpan span(rec, "crash.run_fork", config.appLabel);
    fork = timedRun(factory, config);
  }
  config.resilience.isolation = IsolationMode::None;
  TimedRun none;
  {
    ScopedSpan span(rec, "crash.run_none", config.appLabel);
    none = timedRun(factory, config);
  }
  if (none.unit.digest != fork.unit.digest) {
    verdict.fail("traced " + config.appLabel + ": in-process digest " + hex(none.unit.digest) +
                 " != fork digest " + hex(fork.unit.digest));
  }
  return fork;
}

struct TracedPass {
  SpanRecorder rec;
  LayerCounts lc;
  double tracedSeconds = 0.0;  ///< the traced timed calls, as in an untraced pass
};

void traceCampaigns(const Workload& wl, const Options& opt,
                    const std::vector<std::uint64_t>& ref, TracedPass& tp,
                    Verdict& verdict) {
  for (std::size_t i = 0; i < wl.campaigns.size(); ++i) {
    const CampaignSpec& spec = wl.campaigns[i];
    const AppFactory factory = ec::apps::scaledBenchmarkFactory(spec.app, spec.scale);
    const std::uint64_t seed = campaignSeed(opt.seed, i);
    const CampaignConfig config = campaignConfig(spec, seed);
    TimedRun fork = forkAndInProcess(tp.rec, factory, config, verdict);
    account(fork.unit, ref[i], "traced", verdict);
    tp.tracedSeconds += fork.unit.seconds;
    tp.lc.trials += fork.unit.decided;
    tp.lc.counts += fork.counts;
    feedJournal(tp.rec, fork.result, config, opt.workdir + "/probe.journal.jsonl");
    {
      ScopedSpan span(tp.rec, "core.object_selection", spec.label());
      tp.lc.sink += static_cast<double>(
          ec::core::selectCriticalObjects(fork.result).critical.size());
    }
    probeLayers(tp.rec, factory, config.cache, seed, spec.label(), tp.lc);
  }
}

void traceWorkflows(const Workload& wl, const Options& opt,
                    const std::vector<std::uint64_t>& ref, TracedPass& tp,
                    Verdict& verdict) {
  for (std::size_t i = 0; i < wl.workflowApps.size(); ++i) {
    const std::string& app = wl.workflowApps[i];
    const AppFactory& factory = ec::apps::findBenchmark(app).factory;
    const auto w = workflowConfig(wl.workflowTests, campaignSeed(opt.seed, i));
    TimedWorkflow run;
    {
      ScopedSpan span(tp.rec, "core.workflow", app);
      run = timedWorkflow(app, w);
    }
    account(run.unit, ref[i], "traced", verdict);
    tp.tracedSeconds += run.unit.seconds;
    tp.lc.trials += run.unit.decided;
    tp.lc.counts += run.counts;

    CampaignConfig baseline = run.campaigns.front();
    baseline.appLabel = app;
    const TimedRun fork = forkAndInProcess(tp.rec, factory, baseline, verdict);
    if (fork.unit.digest != campaignDigest(run.result.baseline)) {
      verdict.fail("traced " + app + ": baseline campaign digest differs from the "
                   "workflow's own baseline");
    }
    const CampaignResult* results[] = {&run.result.baseline, &run.result.everywhere,
                                       run.result.validation ? &*run.result.validation
                                                             : nullptr};
    for (std::size_t c = 0; c < run.campaigns.size(); ++c) {
      CampaignConfig config = run.campaigns[c];
      config.appLabel = app;
      feedJournal(tp.rec, *results[c], config, opt.workdir + "/probe.journal.jsonl");
    }
    {
      ScopedSpan span(tp.rec, "core.object_selection", app);
      const auto selected = ec::core::selectCriticalObjects(run.result.baseline, w.objectCriteria);
      if (selected.critical != run.result.objects.critical) {
        verdict.fail("traced " + app + ": object selection did not re-derive the "
                     "workflow's critical set");
      }
    }
    probeLayers(tp.rec, factory, w.cache, w.seed, app, tp.lc);
  }
}

// ---- Output --------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Shortest round-trip decimal form: every digit as measured.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string readFirstLine(const std::string& path) {
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  return line;
}

std::string cpuInfoField(const std::string& key) {
  std::ifstream is("/proc/cpuinfo");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// What a result needs to be read on another host: CPU, clock, CPUs, load
/// before and after, build type, compiler and source revision.
std::string hostStamp(const Options& opt, const std::string& loadBefore) {
  std::ostringstream os;
  os << "{\"host\": {\"cpu\": " << jsonString(cpuInfoField("model name"))
     << ", \"mhz\": " << jsonString(cpuInfoField("cpu MHz"))
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"loadavg_before\": " << jsonString(loadBefore)
     << ", \"loadavg_after\": " << jsonString(readFirstLine("/proc/loadavg"))
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
     << ", \"source_rev\": " << jsonString(opt.sourceRev)
     << ", \"workload\": " << jsonString(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"trace\": " << (opt.trace ? 1 : 0) << "}}";
  return os.str();
}

/// Peak resident memory of this process plus that of its largest reaped
/// child (the fork workers). One workload runs per process, so no other
/// workload's high-water mark can leak in.
double peakRssMiB() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void printResult(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << std::string(m.name.size() < 36 ? 36 - m.name.size() : 1, ' ')
              << number(m.value) << ' ' << m.unit << '\n';
  }
  std::cout << "  failed_trial_frac" << std::string(19, ' ')
            << number(ratio(static_cast<double>(verdict.failed),
                            static_cast<double>(verdict.attempted)))
            << " fraction (" << verdict.failed << " of " << verdict.attempted << " trials)\n";
  for (const std::string& p : verdict.problems) std::cout << "  ERROR: " << p << '\n';
  std::cout << "{\"correct\": " << (verdict.correct ? "true" : "false")
            << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << jsonString(metrics[i].name) << ": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": " << jsonString(metrics[i].unit)
              << "}";
  }
  std::cout << "}}" << std::endl;
}

std::string digestList(const PassResult& pass) {
  std::string out;
  for (const Unit& u : pass.units) {
    if (!out.empty()) out += ',';
    out += hex(u.digest);
  }
  return out;
}

void printPasses(const std::vector<PassResult>& passes) {
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    std::cout << "pass " << p << ": wall " << number(pass.wallSeconds) << " s, decided "
              << pass.decided() << " (";
    for (std::size_t i = 0; i < pass.units.size(); ++i) {
      const Unit& u = pass.units[i];
      std::cout << (i ? ", " : "") << u.label << ' ' << u.decided << '/' << u.planned << ' '
                << number(u.seconds) << " s + " << number(u.setupSeconds) << " s";
    }
    std::cout << "), digest " << digestList(pass) << '\n';
  }
}

std::vector<Metric> endToEndMetrics(const std::vector<PassResult>& passes,
                                    const Verdict& verdict) {
  std::vector<double> decided;
  for (const PassResult& pass : passes) decided.push_back(static_cast<double>(pass.decided()));
  return {
      {"trials_per_s", ratio(median(decided), typicalPass(passes, &Unit::seconds)), "trials/s"},
      {"setup_s", typicalPass(passes, &Unit::setupSeconds), "s"},
      {"peak_rss_mb", peakRssMiB(), "MiB"},
      {"ok_trial_frac",
       1.0 - ratio(static_cast<double>(verdict.failed), static_cast<double>(verdict.attempted)),
       "fraction"},
  };
}

std::vector<Metric> perLayerMetrics(const TracedPass& tp, double untracedSeconds) {
  const SpanRecorder& rec = tp.rec;
  const LayerCounts& lc = tp.lc;
  const double trials = static_cast<double>(lc.trials);
  const double directS = rec.total("runtime.direct_run");
  const double simSelfS = rec.total("memsim.sim_run", /*self=*/true);
  std::vector<Metric> m = {
      {"runtime.direct_run_s", directS, "s"},
      {"runtime.direct_ns_per_access",
       ratio(directS * 1e9, static_cast<double>(lc.directAccesses)), "ns"},
      {"memsim.sim_run_s", simSelfS, "s"},
      {"memsim.ns_per_access", ratio(simSelfS * 1e9, static_cast<double>(lc.simAccesses)),
       "ns"},
      {"memsim.postmortem_us",
       ratio(rec.total("memsim.postmortem") * 1e6,
             static_cast<double>(rec.count("memsim.postmortem"))),
       "us"},
      {"memsim.flush_ns_per_block",
       ratio(rec.total("memsim.flush") * 1e9, static_cast<double>(lc.flushedBlocks)), "ns"},
      {"crash.ipc_overhead_s", rec.total("crash.run_fork") - rec.total("crash.run_none"), "s"},
      {"crash.journal_write_ms", rec.total("crash.journal_write") * 1e3, "ms"},
      {"crash.captures_per_trial",
       ratio(static_cast<double>(lc.counts[kSweepCaptures]), trials), "ratio"},
      {"crash.attempts_per_trial",
       ratio(trials + static_cast<double>(lc.counts[kTrialRetries]), trials), "ratio"},
      {"core.object_selection_ms", rec.total("core.object_selection") * 1e3, "ms"},
      {"trace.traced_run_s", tp.tracedSeconds, "s"},
      {"trace.untraced_run_s", untracedSeconds, "s"},
  };
  for (std::size_t c = 0; c < kCounters.size(); ++c) {
    if (kCounters[c].metric != nullptr) {
      m.push_back({kCounters[c].metric, static_cast<double>(lc.counts[c]), kCounters[c].unit});
    }
  }
  return m;
}

/// Per span name: calls, total and self time, self time as a share of the
/// traced pass, and total time relative to the untraced timed calls.
void printSpanTable(const SpanRecorder& rec, double untracedSeconds) {
  struct Row {
    std::size_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  double passSeconds = 0.0;
  for (const auto& s : rec.spans()) {
    Row& r = rows[s.name];
    ++r.calls;
    r.total += s.seconds();
    r.self += s.selfSeconds();
    if (s.parent < 0) passSeconds += s.seconds();
  }
  std::cout << "span                     calls  total_s  self_s  self/pass  total/untraced_run\n";
  for (const auto& [name, r] : rows) {
    std::cout << "  " << name << std::string(name.size() < 24 ? 24 - name.size() : 1, ' ')
              << r.calls << "  " << number(r.total) << "  " << number(r.self) << "  "
              << number(ratio(r.self, passSeconds)) << "  "
              << number(ratio(r.total, untracedSeconds)) << '\n';
  }
}

std::vector<std::uint64_t> parseDigests(const std::string& text) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, ',');) {
    if (!item.empty()) out.push_back(std::stoull(item, nullptr, 16));
  }
  return out;
}

int runBenchmark(const Options& opt) {
  const std::string loadBefore = readFirstLine("/proc/loadavg");
  const Workload wl = findWorkload(opt.workload, opt.smoke);
  std::filesystem::create_directories(opt.workdir);

  Verdict verdict;
  // Both modes run untraced passes: they give the end-to-end metrics, the
  // digests every later run must repeat, and the untraced time the traced
  // pass is compared with.
  const std::vector<PassResult> passes = runPasses(wl, opt, opt.trace || opt.smoke ? 2 : 3);
  printPasses(passes);
  const std::vector<std::uint64_t> ref = referenceDigests(passes.front(), opt, verdict);
  checkPasses(passes, ref, verdict);

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = endToEndMetrics(passes, verdict);
  } else {
    TracedPass tp;
    {
      ScopedSpan root(tp.rec, "pass", opt.workload);
      traceCampaigns(wl, opt, ref, tp, verdict);
      traceWorkflows(wl, opt, ref, tp, verdict);
    }
    for (const std::string& d : exactCountDrift(tp.lc.counts, passes.front().counts)) {
      verdict.fail("traced pass: exact count differs from the untraced passes: " + d);
    }
    tp.rec.writeJsonl(opt.workdir + "/spans-" + opt.workload + ".jsonl");
    const double untracedSeconds = typicalPass(passes, &Unit::seconds);
    printSpanTable(tp.rec, untracedSeconds);
    metrics = perLayerMetrics(tp, untracedSeconds);
  }
  std::cout << "digest " << digestList(passes.front()) << '\n';
  std::cout << hostStamp(opt, loadBefore) << '\n';
  printResult(verdict, metrics);
  return verdict.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ec::CliParser cli(
      "perfbench: end-to-end crash-campaign benchmark (see perfbench/NOTES.md)");
  cli.addString("workload", "",
                "campaign_restart | workflow_plan");
  cli.addInt("seed", 1, "benchmark seed; every campaign seed is derived from it");
  cli.addDouble("seconds", 10.0, "measure passes for about this long (at least 3 passes)");
  cli.addInt("trace", 0, "1 = traced pass reporting per-layer metrics");
  cli.addFlag("smoke", "self-test size: small trial counts");
  cli.addDouble("inject-segv", 0.0,
                "self-test: every crashing run segfaults at this fraction of "
                "the crash window (0 = off)");
  cli.addString("expect-digest", "",
                "comma-separated per-campaign digests every pass must reproduce");
  cli.addString("workdir", ".bench_build/work", "scratch directory for journals and spans");
  cli.addString("source-rev", "unknown", "source revision recorded in the host stamp");
  try {
    if (!cli.parse(argc, argv)) return 0;
    Options opt;
    opt.workload = cli.getString("workload");
    opt.seed = static_cast<std::uint64_t>(cli.getInt("seed"));
    opt.seconds = cli.getDouble("seconds");
    opt.trace = cli.getInt("trace") != 0;
    opt.smoke = cli.getFlag("smoke");
    opt.injectSegvAt = cli.getDouble("inject-segv");
    opt.expectDigests = parseDigests(cli.getString("expect-digest"));
    opt.workdir = cli.getString("workdir");
    opt.sourceRev = cli.getString("source-rev");
    if (opt.injectSegvAt < 0.0 || opt.injectSegvAt >= 1.0) {
      throw std::runtime_error("--inject-segv must be in [0, 1)");
    }
    return runBenchmark(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
