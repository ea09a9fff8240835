#include "easycrash/crash/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "easycrash/common/check.hpp"
#include "easycrash/common/rng.hpp"
#include "easycrash/memsim/region_monitor.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/phase_span.hpp"
#include "easycrash/telemetry/progress.hpp"
#include "easycrash/telemetry/timer.hpp"
#include "easycrash/telemetry/trace.hpp"

#include "trial_executor.hpp"

namespace easycrash::crash {

using runtime::CrashEvent;
using runtime::Driver;
using runtime::Runtime;

CampaignMetrics& CampaignMetrics::get() {
  auto& reg = telemetry::MetricsRegistry::instance();
  static CampaignMetrics m{
      reg.counter("memsim.loads"),
      reg.counter("memsim.stores"),
      reg.counter("memsim.nvmBlockReads"),
      reg.counter("memsim.nvmBlockWrites"),
      reg.counter("memsim.flushDirty"),
      reg.counter("memsim.flushClean"),
      reg.counter("memsim.flushNonResident"),
      reg.counter("memsim.flushInducedNvmWrites"),
      reg.counter("memsim.range_loads"),
      reg.counter("memsim.range_stores"),
      reg.counter("memsim.range_split_blocks"),
      reg.counter("campaign.range_accesses"),
      reg.counter("memsim.postmortem_blocks_skipped"),
      reg.counter("memsim.postmortem_blocks_compared"),
      reg.counter("memsim.postmortem_bytes_compared"),
      reg.counter("memsim.region_samples"),
      reg.counter("memsim.region_splits"),
      reg.counter("memsim.region_merges"),
      reg.counter("campaign.monitor_runs"),
      reg.counter("campaign.monitor_demoted_objects"),
      reg.counter("campaign.monitor_demoted_bytes"),
      reg.counter("campaign.monitor_tracked_objects"),
      reg.counter("campaign.trials"),
      {&reg.counter("campaign.responses.s1"), &reg.counter("campaign.responses.s2"),
       &reg.counter("campaign.responses.s3"), &reg.counter("campaign.responses.s4")},
      reg.histogram("campaign.trial_us",
                    telemetry::Histogram::exponentialBounds(100.0, 4.0, 12)),
      reg.counter("campaign.trial_failures"),
      reg.counter("campaign.trial_retries"),
      reg.counter("campaign.trial_timeouts"),
      reg.counter("campaign.resumed_trials"),
      reg.counter("campaign.shard_owned_trials"),
      reg.counter("campaign.sweep_runs"),
      reg.counter("campaign.sweep_captures"),
      reg.counter("campaign.sweep_fallbacks"),
      reg.counter("campaign.golden_fallbacks"),
      reg.counter("campaign.worker_spawns"),
      reg.counter("campaign.worker_crashes"),
      reg.counter("campaign.worker_kills"),
      reg.counter("campaign.worker_respawns"),
      reg.histogram("campaign.retry_backoff_ms",
                    telemetry::Histogram::exponentialBounds(1.0, 2.0, 12)),
      reg.histogram("campaign.golden_us",
                    telemetry::Histogram::exponentialBounds(100.0, 4.0, 12)),
      reg.histogram("campaign.crash_run_us",
                    telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
      reg.histogram("campaign.postmortem_us",
                    telemetry::Histogram::exponentialBounds(10.0, 4.0, 12)),
      reg.histogram("campaign.restart_us",
                    telemetry::Histogram::exponentialBounds(50.0, 4.0, 12)),
      reg.counter("campaign.restart_rejoins"),
      reg.counter("campaign.restart_iterations_skipped"),
      reg.gauge("campaign.sweep_queue_depth"),
      reg.gauge("campaign.restart_queue_peak_bytes")};
  return m;
}

void CampaignMetrics::recordRun(const memsim::MemEvents& ev) {
  loads.add(ev.loads);
  stores.add(ev.stores);
  nvmBlockReads.add(ev.nvmBlockReads);
  nvmBlockWrites.add(ev.nvmBlockWrites);
  flushDirty.add(ev.flushDirty);
  flushClean.add(ev.flushClean);
  flushNonResident.add(ev.flushNonResident);
  flushInducedNvmWrites.add(ev.flushInducedNvmWrites);
  // Diagnostics of the bulk fast path (call counts, not logical accesses):
  // zero when --bulk off, so they never feed equivalence comparisons.
  rangeLoads.add(ev.rangeLoads);
  rangeStores.add(ev.rangeStores);
  rangeSplitBlocks.add(ev.rangeSplitBlocks);
  rangeAccesses.add(ev.rangeLoads + ev.rangeStores);
  // Diagnostics of the post-mortem scan fast path: zero when --scan off,
  // so they never feed equivalence comparisons either.
  postmortemBlocksSkipped.add(ev.postmortemBlocksSkipped);
  postmortemBlocksCompared.add(ev.postmortemBlocksCompared);
  postmortemBytesCompared.add(ev.postmortemBytesCompared);
}

namespace {

/// One queued restart: a trial index plus its (possibly shared, when several
/// trials drew the same crash point) read-only capture.
struct PendingRestart {
  std::size_t trial = 0;
  std::shared_ptr<const SweepCapture> capture;
};

std::uint64_t snapshotBytes(const SweepCapture& capture) {
  std::uint64_t bytes = 0;
  for (const auto& [id, snapshot] : capture.snapshots) bytes += snapshot.size();
  return bytes;
}

/// Thrown by the sweep's capture hook to end the crashing run early: a stop
/// was requested, or the restart pipeline went away (abort/budget).
struct SweepAbort {};

/// Bounded hand-off between the sweep producer (the single crashing run) and
/// the restart workers. push() blocks while full — that backpressure bounds
/// how many object snapshots are alive at once — and returns false once the
/// queue is aborted. pop() blocks for an entry and drains what was already
/// queued after close(); abort() drops everything and wakes both sides.
///
/// The queue also tracks the snapshot bytes it holds, counting a capture
/// shared by several trials once. Its entries are pushed consecutively and
/// leave in FIFO order, so a capture is charged when it enters behind a
/// different one and released when its last entry leaves.
class RestartQueue {
 public:
  explicit RestartQueue(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool push(PendingRestart entry) {
    std::unique_lock<std::mutex> lock(mutex_);
    spaceCv_.wait(lock, [&] { return entries_.size() < capacity_ || aborted_; });
    if (aborted_) return false;
    if (entries_.empty() || entries_.back().capture != entry.capture) {
      bytes_ += snapshotBytes(*entry.capture);
      telemetry::Gauge& peak = CampaignMetrics::get().restartQueuePeakBytes;
      if (static_cast<double>(bytes_) > peak.value()) {
        peak.set(static_cast<double>(bytes_));
      }
    }
    entries_.push_back(std::move(entry));
    CampaignMetrics::get().sweepQueueDepth.set(static_cast<double>(entries_.size()));
    entryCv_.notify_one();
    return true;
  }

  [[nodiscard]] std::optional<PendingRestart> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    entryCv_.wait(lock, [&] { return !entries_.empty() || closed_ || aborted_; });
    if (aborted_ || entries_.empty()) return std::nullopt;
    PendingRestart entry = std::move(entries_.front());
    entries_.pop_front();
    if (entries_.empty() || entries_.front().capture != entry.capture) {
      bytes_ -= snapshotBytes(*entry.capture);
    }
    CampaignMetrics::get().sweepQueueDepth.set(static_cast<double>(entries_.size()));
    spaceCv_.notify_one();
    return entry;
  }

  /// Snapshot bytes queued right now.
  [[nodiscard]] std::uint64_t bytes() {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    entryCv_.notify_all();
  }

  void abort() {
    std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    entries_.clear();
    bytes_ = 0;
    CampaignMetrics::get().sweepQueueDepth.set(0.0);
    entryCv_.notify_all();
    spaceCv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entryCv_;
  std::condition_variable spaceCv_;
  std::deque<PendingRestart> entries_;
  std::uint64_t bytes_ = 0;
  const std::size_t capacity_;
  bool closed_ = false;
  bool aborted_ = false;
};

std::string responseTally(const std::array<int, 4>& counts) {
  std::string out;
  for (int s = 0; s < 4; ++s) {
    if (s) out += ' ';
    out += 'S';
    out += static_cast<char>('1' + s);
    out += ':';
    out += std::to_string(counts[s]);
  }
  return out;
}

/// Throws unless the resumed journal was drawn for exactly this campaign.
void checkHeaderMatches(const JournalHeader& journal, const JournalHeader& ours,
                        const std::string& path) {
  const auto mismatch = [&path](const std::string& what) {
    throw std::runtime_error("--resume " + path + ": journal " + what +
                             " does not match this campaign");
  };
  if (journal.app != ours.app) mismatch("app (" + journal.app + ")");
  if (journal.seed != ours.seed) mismatch("seed");
  if (journal.tests != ours.tests) mismatch("test count");
  if (journal.mode != ours.mode) mismatch("snapshot mode");
  if (journal.planFingerprint != ours.planFingerprint) mismatch("persistence plan");
  if (journal.windowAccesses != ours.windowAccesses) mismatch("golden crash window");
  if (journal.monitor != ours.monitor) mismatch("monitor mode");
  // A shard journal resumes only under the same --shard i/k; a merged (or
  // legacy) journal is unsharded on both sides and passes trivially.
  if (journal.shardCount != ours.shardCount || journal.shardIndex != ours.shardIndex) {
    mismatch("shard (" + std::to_string(journal.shardIndex) + "/" +
             std::to_string(journal.shardCount) + ")");
  }
}

/// Fill `failure`'s kind, timeout, reason and region path from the exception
/// in flight (call inside a catch block). `site` is the formatted region path
/// the run died in, for the exceptions that carry none. Any other exception
/// type propagates.
void describeFailure(TrialFailure& failure, const std::string& site,
                     std::uint64_t timeoutMs) {
  try {
    throw;
  } catch (const runtime::TrialCancelled&) {
    failure.kind = "timeout";
    failure.timeout = true;
    failure.reason =
        "watchdog: trial exceeded its " + std::to_string(timeoutMs) + " ms deadline";
    failure.regionPath = site;
  } catch (const AttemptFailure& f) {
    failure.kind = f.kind;
    failure.timeout = f.timeout;
    failure.reason = f.reason;
    failure.regionPath = f.regionPath;
  } catch (const std::exception& e) {
    failure.kind = "exception";
    failure.timeout = false;
    failure.reason = e.what();
    failure.regionPath = site;
  }
}

}  // namespace

const char* toString(Response response) {
  switch (response) {
    case Response::S1: return "S1";
    case Response::S2: return "S2";
    case Response::S3: return "S3";
    case Response::S4: return "S4";
  }
  return "?";
}

const char* toString(FaultPlan::Kind kind) {
  switch (kind) {
    case FaultPlan::Kind::None: return "none";
    case FaultPlan::Kind::Segv: return "segv";
    case FaultPlan::Kind::WildWrite: return "wild-write";
    case FaultPlan::Kind::Oom: return "oom";
    case FaultPlan::Kind::Hang: return "hang";
  }
  return "?";
}

std::vector<std::string> MonitorSummary::demotedNames() const {
  std::vector<std::string> names;
  for (const auto& object : objects) {
    if (object.demoted) names.push_back(object.name);
  }
  return names;
}

double CampaignResult::recomputability() const {
  if (tests.empty()) return 0.0;
  const auto counts = responseCounts();
  return static_cast<double>(counts[0]) / static_cast<double>(tests.size());
}

double CampaignResult::successWithExtra() const {
  if (tests.empty()) return 0.0;
  const auto counts = responseCounts();
  return static_cast<double>(counts[0] + counts[1]) /
         static_cast<double>(tests.size());
}

std::array<int, 4> CampaignResult::responseCounts() const {
  std::array<int, 4> counts{};
  for (const auto& t : tests) counts[static_cast<int>(t.response)] += 1;
  return counts;
}

double CampaignResult::averageExtraIterations() const {
  int n = 0;
  long long total = 0;
  for (const auto& t : tests) {
    if (t.response == Response::S2) {
      total += t.extraIterations;
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(total) / n;
}

std::map<runtime::PointId, double> CampaignResult::regionRecomputability() const {
  std::map<runtime::PointId, int> s1, all;
  for (const auto& t : tests) {
    all[t.region] += 1;
    if (t.response == Response::S1) s1[t.region] += 1;
  }
  std::map<runtime::PointId, double> out;
  for (const auto& [region, n] : all) {
    out[region] = static_cast<double>(s1[region]) / static_cast<double>(n);
  }
  return out;
}

std::map<runtime::PointId, int> CampaignResult::regionTestCounts() const {
  std::map<runtime::PointId, int> all;
  for (const auto& t : tests) all[t.region] += 1;
  return all;
}

std::map<runtime::ObjectId, double> CampaignResult::meanInconsistentRate() const {
  std::map<runtime::ObjectId, double> sum;
  for (const auto& t : tests) {
    for (const auto& [id, rate] : t.inconsistentRate) sum[id] += rate;
  }
  for (auto& [id, total] : sum) total /= static_cast<double>(tests.size());
  return sum;
}

void CampaignProfile::accumulate(const runtime::Runtime& rt, std::size_t bins) {
  if (!rt.profiling()) return;
  CampaignProfile run;
  run.strideBytes = rt.hierarchy().accessProfileStride();
  run.objects = rt.objectProfiles(bins);
  for (const auto& [region, accesses] : rt.regionAccesses()) {
    run.regionAccesses[region] = accesses;
  }
  run.runs = 1;
  merge(run);
}

void CampaignProfile::merge(const CampaignProfile& other) {
  if (other.runs == 0) return;
  if (runs == 0) {
    *this = other;
    return;
  }
  // Every run of a campaign instantiates the same app, so the object
  // layout — and therefore the bin shapes — is identical run to run.
  EC_CHECK_MSG(other.objects.size() == objects.size(),
               "profile object layout diverged between runs");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    runtime::ObjectProfile& total = objects[i];
    const runtime::ObjectProfile& run = other.objects[i];
    EC_CHECK(total.id == run.id &&
             total.accessBins.size() == run.accessBins.size() &&
             total.wearBins.size() == run.wearBins.size());
    total.accesses += run.accesses;
    total.nvmWrites += run.nvmWrites;
    for (std::size_t b = 0; b < run.accessBins.size(); ++b) {
      total.accessBins[b] += run.accessBins[b];
    }
    for (std::size_t b = 0; b < run.wearBins.size(); ++b) {
      total.wearBins[b] += run.wearBins[b];
    }
  }
  for (const auto& [region, accesses] : other.regionAccesses) {
    regionAccesses[region] += accesses;
  }
  runs += other.runs;
}

CampaignRunner::CampaignRunner(runtime::AppFactory factory, CampaignConfig config)
    : factory_(std::move(factory)), config_(std::move(config)) {
  EC_CHECK(config_.numTests >= 0);
  EC_CHECK(config_.maxIterationFactor >= 1);
  EC_CHECK_MSG(config_.resilience.isolation != IsolationMode::Fork ||
                   config_.resilience.isolate,
               "fork isolation requires trial isolation (resilience.isolate)");
  EC_CHECK_MSG(!config_.inject.active() ||
                   config_.resilience.isolation == IsolationMode::Fork,
               "fault injection requires the fork evaluator "
               "(resilience.isolation == Fork)");
  EC_CHECK_MSG(!config_.inject.active() || config_.inject.accessIndex > 0,
               "fault injection needs a 1-based tracked-access index");
}

void CampaignRunner::armProfile(Runtime& rt) const {
  if (config_.profile) rt.enableProfile();
}

void CampaignRunner::noteRun(const Runtime& rt) const {
  CampaignProfile run;
  if (config_.profile) run.accumulate(rt);
  noteShare(rt.events(), run);
}

void CampaignRunner::noteShare(const memsim::MemEvents& events,
                               const CampaignProfile& profile) const {
  CampaignMetrics::get().recordRun(events);
  if (profile.empty()) return;
  std::lock_guard<std::mutex> lock(profileMutex_);
  profile_.merge(profile);
}

void CampaignRunner::commitTrial(std::size_t trial, const CrashTestRecord& record,
                                 int rejoinedAt) const {
  CampaignMetrics::get().trials.add();
  CampaignMetrics::get().responses[static_cast<int>(record.response)]->add();
  if (telemetry::tracing()) {
    // The per-trial outcome record: crash location + restart result. This is
    // the JSONL row an external analysis joins with the CSV on `trial`.
    telemetry::TraceEvent event("trial_end");
    event.field("trial", static_cast<std::uint64_t>(trial))
        .field("crash_access", record.crashAccessIndex)
        .field("region", record.region)
        .field("crash_iteration", record.crashIteration)
        .field("restart_iteration", record.restartIteration)
        .field("response", toString(record.response))
        .field("extra_iterations", record.extraIterations);
    if (rejoinedAt != 0) event.field("rejoined_at", rejoinedAt);
    event.emit();
  }
}

GoldenStats CampaignRunner::goldenRun(memsim::RegionMonitor* monitor,
                                      bool native) const {
  Runtime rt(config_.cache);
  // Every golden output the campaign depends on (windowAccesses and with it
  // the pre-drawn crash sequence, finalIteration, the trajectory, the verify
  // outcome, region shares) is a function of the access stream and the
  // architectural values, both routing-independent, so a native run
  // produces them without the cache simulation. Under sampled monitoring the
  // monitor rides the same run and samples the same stream.
  rt.setDirect(native);
  rt.setBulk(config_.bulk);
  rt.setScan(config_.scan);
  rt.setPlan(config_.plan);
  rt.setTraceRun("golden");
  // Installed before setup so the apps' setup-phase writes are sampled too —
  // a candidate written only during setup must not look dead.
  if (monitor != nullptr) rt.setMonitor(monitor);
  if (!native) armProfile(rt);
  auto app = factory_();
  GoldenStats golden;
  const auto result = Driver::freshRun(*app, rt, 0, &golden.trajectory);
  rt.setMonitor(nullptr);
  if (!native) noteRun(rt);
  EC_CHECK_MSG(!result.interrupted, "golden run interrupted: " + result.interruptReason);
  EC_CHECK_MSG(result.verification.pass,
               "golden run failed its own acceptance verification (" +
                   app->info().name + "): " + result.verification.detail);

  golden.windowAccesses = rt.windowAccesses();
  golden.finalIteration = result.finalIteration;
  golden.events = rt.events();
  golden.footprintBytes = rt.footprintBytes();
  golden.regionCount = rt.regionCount();
  golden.persistenceOps = rt.persistenceOps();
  golden.verification = result.verification;
  golden.objects = rt.objects();
  for (const auto& object : golden.objects) {
    if (object.candidate) golden.candidateBytes += object.bytes;
  }
  for (const auto& [region, accesses] : rt.regionAccesses()) {
    golden.regionTimeShare[region] =
        static_cast<double>(accesses) / static_cast<double>(golden.windowAccesses);
  }
  golden.regionIterationEnds = rt.regionIterationEnds();
  return golden;
}

void CampaignRunner::buildMonitorSummary(const memsim::RegionMonitor& monitor,
                                         const GoldenStats& golden) const {
  // Objects flushed by the persistence plan keep full tracking regardless of
  // their sampled activity: demoting them would change what the plan's
  // flush ops write to NVM.
  std::vector<runtime::ObjectId> planObjects;
  for (const auto& [point, directive] : config_.plan.points) {
    planObjects.insert(planObjects.end(), directive.objects.begin(),
                       directive.objects.end());
  }

  MonitorSummary summary;
  summary.active = true;
  summary.samples = monitor.totalSamples();
  summary.splits = monitor.totalSplits();
  summary.merges = monitor.totalMerges();
  const auto& monitored = monitor.objects();
  const auto& objects = golden.objects;
  EC_CHECK_MSG(monitored.size() == objects.size(),
               "region monitor lost track of the object set");
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const runtime::DataObjectInfo& info = objects[i];
    const memsim::MonitoredObject& mon = monitored[i];
    EC_CHECK(mon.id == info.id);
    MonitorObjectStats stats;
    stats.id = info.id;
    stats.name = info.name;
    stats.bytes = info.bytes;
    stats.candidate = info.candidate;
    stats.samples = mon.samples;
    stats.writes = mon.writes;
    stats.windowWrites = mon.windowWrites;
    for (const auto& region : mon.regions) {
      stats.regions.push_back(
          {region.base, region.bytes, region.samples, region.writes});
    }
    // Demotion policy: large non-candidates leave full value tracking.
    // Candidates never demote — their crash-time inconsistency rates are
    // the Spearman selection's input, and with demoted blocks keeping
    // metadata-only residency (Runtime::setDemotedNames) the tracked
    // candidates then behave bit-identically to full mode. Small objects
    // stay too (cheap, and region stats on them carry little signal), as
    // do plan-flushed objects (their flush ops must keep writing real
    // payload back to NVM).
    const bool inPlan = std::find(planObjects.begin(), planObjects.end(),
                                  info.id) != planObjects.end();
    stats.demoted =
        info.bytes > config_.monitor.smallObjectBytes && !inPlan && !info.candidate;
    if (stats.demoted) {
      ++summary.demotedObjects;
      summary.demotedBytes += info.bytes;
    } else {
      ++summary.trackedObjects;
      summary.trackedBytes += info.bytes;
    }
    summary.objects.push_back(std::move(stats));
  }
  monitorState_ = std::move(summary);

  auto& metrics = CampaignMetrics::get();
  metrics.monitorRuns.add();
  metrics.regionSamples.add(monitorState_.samples);
  metrics.regionSplits.add(monitorState_.splits);
  metrics.regionMerges.add(monitorState_.merges);
  metrics.monitorDemotedObjects.add(monitorState_.demotedObjects);
  metrics.monitorDemotedBytes.add(monitorState_.demotedBytes);
  metrics.monitorTrackedObjects.add(monitorState_.trackedObjects);

  if (telemetry::tracing()) {
    for (const auto& stats : monitorState_.objects) {
      telemetry::TraceEvent("region_snapshot")
          .field("run", "golden")
          .field("object", stats.name)
          .field("bytes", stats.bytes)
          .field("regions", static_cast<std::uint64_t>(stats.regions.size()))
          .field("samples", stats.samples)
          .field("writes", stats.writes)
          .field("window_writes", stats.windowWrites)
          .field("demoted", stats.demoted)
          .emit();
    }
  }
  EC_LOG_INFO("region monitor: " << monitorState_.samples << " samples, "
                                 << monitorState_.demotedObjects
                                 << " objects demoted ("
                                 << monitorState_.demotedBytes << " bytes)");
}

void CampaignRunner::applyMonitorRouting(Runtime& rt) const {
  if (!monitorState_.active) return;
  rt.setDemotedNames(monitorState_.demotedNames());
}

/// Runs trials on the scheduler's own threads. Owns the cooperative
/// watchdog: the runtime polls the slot's cancel flag (Runtime::setCancelFlag)
/// and throws TrialCancelled, so unlike the fork executor's SIGKILL it cannot
/// reclaim a hang that never reaches a poll.
class InProcessExecutor final : public TrialExecutor {
 public:
  InProcessExecutor(const CampaignRunner& runner, const GoldenStats& golden,
                    int slots, std::uint64_t timeoutMs)
      : runner_(runner), golden_(golden) {
    if (timeoutMs == 0) return;
    if (!runtime::kWatchdogCompiledIn) {
      EC_LOG_WARN(
          "trial watchdog requested but the cancellation poll is compiled out "
          "(EASYCRASH_WATCHDOG=OFF); deadlines are disabled");
      return;
    }
    watchdog_.emplace(std::chrono::milliseconds(timeoutMs), slots);
  }

  int restart(std::size_t t, const SweepCapture& capture, int slot, double budget,
              CrashTestRecord& record) override {
    const Deadline deadline(watchdog_, slot, budget);
    return runner_.runRestart(golden_, capture, t, deadline.cancel, record);
  }

  SweepOutcome sweep(const SweepPlan& plan, int slot, const OnCapture& onCapture,
                     std::string& throwSite) override {
    const Deadline deadline(watchdog_, slot, 1.0);
    return runner_.sweepRun(
        golden_, plan, deadline.cancel,
        [&](SweepCapture&& capture) {
          // Waiting on a full restart queue is backpressure, not a hung
          // simulation: suspend the sweep's deadline while parked.
          if (watchdog_) watchdog_->disarm(slot);
          const bool more =
              onCapture(std::make_shared<const SweepCapture>(std::move(capture)));
          if (watchdog_) watchdog_->arm(slot);
          return more;
        },
        throwSite);
  }

 private:
  /// The slot's watchdog armed for one attempt, disarmed however it ends.
  struct Deadline {
    Deadline(std::optional<Watchdog>& watchdog, int slot, double budget)
        : watchdog(watchdog),
          slot(slot),
          cancel(watchdog ? &watchdog->arm(slot, budget) : nullptr) {}
    ~Deadline() {
      if (watchdog) watchdog->disarm(slot);
    }
    Deadline(const Deadline&) = delete;
    Deadline& operator=(const Deadline&) = delete;

    std::optional<Watchdog>& watchdog;
    int slot;
    const std::atomic<bool>* cancel;
  };

  const CampaignRunner& runner_;
  const GoldenStats& golden_;
  std::optional<Watchdog> watchdog_;
};

CampaignResult CampaignRunner::run() const {
  const ResilienceConfig& res = config_.resilience;
  EC_CHECK_MSG(config_.shard.count >= 1 && config_.shard.index >= 0 &&
                   config_.shard.index < config_.shard.count,
               "shard index outside [0, count)");
  if (telemetry::tracing()) {
    telemetry::TraceEvent event("campaign_begin");
    event.field("tests", config_.numTests)
        .field("seed", config_.seed)
        .field("mode", config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent")
        .field("plan_points", static_cast<std::uint64_t>(config_.plan.points.size()))
        .field("monitor",
               config_.monitor.mode == MonitorMode::Full ? "full" : "sampled");
    if (config_.shard.active()) {
      event.field("shard", config_.shard.index).field("shards", config_.shard.count);
    }
    event.emit();
  }

  // Parse any resume journal before spending time on the golden run, so a
  // bad path/file fails fast.
  std::optional<JournalReplay> replay;
  if (!res.resumePath.empty()) replay = readJournal(res.resumePath);

  {
    // A runner can be reused; each run() aggregates its own profile.
    std::lock_guard<std::mutex> lock(profileMutex_);
    profile_ = CampaignProfile{};
  }

  CampaignResult result;
  result.plannedTests = config_.numTests;
  monitorState_ = MonitorSummary{};

  // Sampled monitoring: the adaptive region monitor rides the golden run in
  // the parent, before any crash index is drawn or worker forked — summary
  // and demotion set are identical at any --threads and --isolation. The
  // monitor samples the access stream, so windowAccesses — and with it the
  // whole pre-drawn crash sequence — is identical to a full-monitoring
  // campaign even when the golden run goes direct (monitor.trackedGolden
  // unset): the stream does not depend on the cache simulation.
  std::optional<memsim::RegionMonitor> monitor;
  if (config_.monitor.mode == MonitorMode::Sampled) {
    memsim::RegionMonitorConfig monitorConfig;
    monitorConfig.seed = config_.seed;
    monitorConfig.sampleInterval = config_.monitor.sampleInterval;
    monitorConfig.maxRegionsPerObject = config_.monitor.maxRegionsPerObject;
    monitorConfig.aggregateEvery = config_.monitor.aggregateEvery;
    monitor.emplace(monitorConfig);
  }

  // Full monitoring: the golden run goes native and the sweep, running on to
  // the golden final iteration, supplies its cache-simulated share (events,
  // profile, memsim.* counters) — one simulated pass per campaign. Sampled
  // monitoring routes the sweep through demotion, so there the golden run
  // keeps its own MemEvents: native (direct-run, empty) unless trackedGolden.
  const bool fullMonitor = config_.monitor.mode == MonitorMode::Full;
  const bool nativeGolden = fullMonitor || !config_.monitor.trackedGolden;
  std::uint64_t goldenUs = 0;
  {
    telemetry::PhaseSpan goldenSpan("golden", CampaignMetrics::get().goldenUs);
    const auto goldenStart = std::chrono::steady_clock::now();
    result.golden = goldenRun(monitor ? &*monitor : nullptr, nativeGolden);
    goldenUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - goldenStart)
            .count());
  }
  EC_CHECK_MSG(result.golden.windowAccesses > 0, "empty crash window");

  if (monitor) buildMonitorSummary(*monitor, result.golden);
  result.monitor = monitorState_;

  // Pre-draw every crash point so the campaign is identical regardless of
  // the number of worker threads — and so a resumed campaign re-draws the
  // exact sequence and only executes the trials the journal is missing.
  Rng rng(config_.seed);
  std::vector<std::uint64_t> crashIndices(static_cast<std::size_t>(config_.numTests));
  for (auto& index : crashIndices) {
    index = rng.between(1, result.golden.windowAccesses);
  }
  const std::size_t n = crashIndices.size();

  // Sharding (--shard i/k): everything above — golden run, monitor pre-pass,
  // the full pre-drawn crash sequence — is identical on every shard; only
  // the trial execution below is partitioned. Trial t belongs to shard
  // t % k, so the slices are disjoint and their union is the unsharded set.
  const ShardConfig& shard = config_.shard;
  const auto owned = [&shard](std::size_t t) { return shard.owns(t); };
  std::size_t ownedCount = n;
  if (shard.active()) {
    ownedCount = 0;
    for (std::size_t t = 0; t < n; ++t) {
      if (owned(t)) ++ownedCount;
    }
    CampaignMetrics::get().shardOwnedTrials.add(ownedCount);
    EC_LOG_INFO("shard " << shard.index << "/" << shard.count << " owns "
                         << ownedCount << " of " << n << " trials");
  }

  JournalHeader header;
  header.app = config_.appLabel;
  header.seed = config_.seed;
  header.tests = config_.numTests;
  header.mode = config_.mode == SnapshotMode::NvmImage ? "nvm" : "coherent";
  header.planFingerprint = planFingerprint(config_.plan);
  header.windowAccesses = result.golden.windowAccesses;
  header.monitor = monitorState_.active ? "sampled" : "";
  if (shard.active()) {
    // Self-describing shard journal: coordinates, the campaign fingerprint
    // over the identity fields, and the candidate list `nvct merge` needs to
    // rebuild the CSV without re-running the app. Unsharded headers carry
    // none of this (byte-identical to pre-sharding journals).
    header.shardIndex = shard.index;
    header.shardCount = shard.count;
    header.campaignHash = campaignHash(header);
    for (const auto& object : result.golden.objects) {
      if (object.candidate) {
        header.candidates.push_back(JournalCandidate{object.id, object.name});
      }
    }
  }

  // Per-index decision slots. A trial is decided once it has a record or a
  // failure; interruption simply leaves the rest unset.
  std::vector<std::optional<CrashTestRecord>> records(n);
  std::vector<std::optional<TrialFailure>> failures(n);

  std::size_t resumedTrials = 0;
  std::size_t resumedFailures = 0;
  if (replay) {
    checkHeaderMatches(replay->header, header, res.resumePath);
    for (auto& [trial, record] : replay->trials) {
      if (trial >= n) {
        throw std::runtime_error("--resume " + res.resumePath +
                                 ": trial index out of range");
      }
      EC_CHECK_MSG(record.crashAccessIndex == crashIndices[trial],
                   "resumed journal crash point diverges from the re-drawn "
                   "sequence — journal does not belong to this campaign");
      records[trial] = std::move(record);
      ++resumedTrials;
    }
    for (auto& [trial, failure] : replay->failures) {
      if (trial >= n) {
        throw std::runtime_error("--resume " + res.resumePath +
                                 ": failure index out of range");
      }
      failures[trial] = std::move(failure);
      ++resumedFailures;
    }
    CampaignMetrics::get().resumedTrials.add(resumedTrials);
    EC_LOG_INFO("resumed " << resumedTrials << " trials and " << resumedFailures
                           << " failures from " << res.resumePath);
    if (telemetry::tracing()) {
      telemetry::TraceEvent("campaign_resumed")
          .field("journal", res.resumePath)
          .field("trials", static_cast<std::uint64_t>(resumedTrials))
          .field("failures", static_cast<std::uint64_t>(resumedFailures))
          .emit();
    }
  }

  std::optional<TrialJournal> journal;
  if (!res.journalPath.empty()) {
    journal.emplace(res.journalPath, header, res.journalFlushEvery);
    for (std::size_t t = 0; t < n; ++t) {
      if (records[t]) journal->recordTrial(t, *records[t]);
      else if (failures[t]) journal->recordFailure(*failures[t]);
    }
    journal->flush();  // always leave a resumable file behind, even header-only
  }

  // Progress, percentage and ETA all count the shard-local slice: a shard
  // that owns N/k trials is "done" at N/k decided, and its ETA reflects its
  // own remaining work, not the fleet's.
  telemetry::ProgressMeter meter(
      (config_.appLabel.empty() ? "campaign" : config_.appLabel) + " trials",
      ownedCount, config_.progress ? &std::cerr : nullptr);
  std::mutex tallyMutex;
  std::array<int, 4> tally{};
  std::size_t done = 0;
  for (const auto& record : records) {
    if (record) tally[static_cast<int>(record->response)] += 1;
  }
  done = resumedTrials + resumedFailures;
  // The ETA rate must count only trials this process actually ran: resumed
  // trials landed instantly and would otherwise skew the estimate.
  meter.setBaseline(done);
  if (config_.progress && done > 0) meter.update(done, responseTally(tally));
  // Called for every newly decided trial (completion or permanent failure).
  // Progress is throttled to percentage-point or >=100 ms boundaries: with
  // small trials at high --threads, having every decided trial format a
  // tally string and serialise on the meter is measurable overhead.
  std::size_t lastPercent = ownedCount == 0 ? 0 : done * 100 / ownedCount;
  auto lastEmit = std::chrono::steady_clock::now();
  const auto recordDecided = [&](const CrashTestRecord* record) {
    std::array<int, 4> counts{};
    std::size_t doneNow = 0;
    bool emit = false;
    {
      std::lock_guard<std::mutex> lock(tallyMutex);
      if (record != nullptr) tally[static_cast<int>(record->response)] += 1;
      doneNow = ++done;
      if (config_.progress) {
        const std::size_t percent = ownedCount == 0 ? 100 : doneNow * 100 / ownedCount;
        const auto now = std::chrono::steady_clock::now();
        if (doneNow == ownedCount || percent != lastPercent ||
            now - lastEmit >= std::chrono::milliseconds(100)) {
          lastPercent = percent;
          lastEmit = now;
          counts = tally;
          emit = true;
        }
      }
    }
    if (emit) meter.update(doneNow, responseTally(counts));
  };

  int threads = config_.threads == 0
                    ? static_cast<int>(std::thread::hardware_concurrency())
                    : config_.threads;
  threads = std::max(1, std::min<int>(threads, std::max(1, config_.numTests)));

  // The sweep's capture plan. Decided (resumed) trials never re-enter.
  // Sharded: the sweep captures only the crash points this shard's owned
  // trials drew. Duplicate indices whose trials straddle shards are captured
  // independently on each shard — the capture is deterministic, so the
  // decided records still merge byte-identically.
  SweepPlan sweepPlan;
  for (std::size_t t = 0; t < n; ++t) {
    if (owned(t) && !records[t] && !failures[t]) sweepPlan[crashIndices[t]].push_back(t);
  }
  // One executor slot per restart worker plus one for the producer's sweep.
  const int slots = threads + 1;

  // Watchdog deadline base: explicit --trial-timeout-ms wins; otherwise a
  // golden run multiple. The base is the budget for ONE golden run's worth
  // of work, which is what the sweep owes; each restart scales it by its
  // expected work (restartBudget below), so the deadline tracks what the
  // restart actually owes instead of assuming the worst case for every draw.
  // A native golden run is several times cheaper than the simulated runs
  // the deadline must cover, so trialDeadlineMs scales it back up.
  const std::uint64_t timeoutMs = trialDeadlineMs(res, goldenUs, nativeGolden);

  // The trial executor — the one place the isolation mode is named. The
  // fork executor forks its workers here, AFTER the golden run and the sweep
  // plan, so children inherit every immutable input by memory. Declared
  // before the status writer: the sampler reads the executor's worker
  // tallies, so the executor must outlive it.
  std::unique_ptr<TrialExecutor> executor;
  if (res.isolation == IsolationMode::Fork && res.isolate && n > 0) {
    executor = makeForkExecutor(*this, result.golden, slots,
                                result.golden.candidateBytes, timeoutMs);
  } else {
    executor = std::make_unique<InProcessExecutor>(*this, result.golden, slots,
                                                   timeoutMs);
  }

  std::atomic<int> failureCount{static_cast<int>(resumedFailures)};
  std::atomic<std::uint64_t> retryCount{0};
  std::atomic<std::uint64_t> timeoutCount{0};
  std::atomic<bool> budgetExceeded{false};
  std::atomic<int> newlyCompleted{0};
  // Without isolation an exception must abort the campaign, but letting it
  // escape a pool thread would terminate the process: the first one is
  // parked here and rethrown on the calling thread after the join.
  std::atomic<bool> workersAbort{false};
  std::exception_ptr firstError;
  std::mutex errorMutex;
  const auto parkError = [&] {
    {
      std::lock_guard<std::mutex> lock(errorMutex);
      if (!firstError) firstError = std::current_exception();
    }
    workersAbort.store(true);
  };
  const auto halted = [&] {
    return stopRequested() || budgetExceeded.load() || workersAbort.load();
  };

  // The sweep's restart queue. Its depth is the pipeline's overlap window:
  // deep enough that the sweep outruns the restart drain and the producer
  // joins the pool for most of the campaign, while backpressure bounds live
  // snapshot memory (~64 MB of candidate bytes) for large apps. Never below
  // the double-buffer floor that keeps every worker fed. Declared before the
  // status writer, whose sampler reads its bytes.
  constexpr std::size_t kSnapshotBudgetBytes = std::size_t{64} << 20;
  RestartQueue queue(std::max(static_cast<std::size_t>(std::max(2, 2 * threads)),
                              kSnapshotBudgetBytes /
                                  std::max<std::uint64_t>(1, result.golden.candidateBytes)));

  // Live status snapshots (docs/OBSERVABILITY.md): a background thread
  // samples the campaign's shared tallies on an interval and atomically
  // rewrites the snapshot file; run() writes one final done/interrupted
  // snapshot after the drain, so a SIGINT'd campaign leaves the truth behind.
  const auto campaignStart = std::chrono::steady_clock::now();
  const std::size_t resumedDone = resumedTrials + resumedFailures;
  std::optional<StatusWriter> status;
  if (!config_.statusPath.empty()) {
    status.emplace(
        config_.statusPath,
        std::chrono::milliseconds(std::max(1, config_.statusIntervalMs)),
        [&, resumedDone] {
          CampaignStatus s;
          s.app = config_.appLabel;
          // Shard-local totals: `tests` is this shard's owned slice, so
          // decided/tests and the ETA describe THIS process's work — a
          // fleet watcher sums the slices (they partition [0, N)).
          s.plannedTests = static_cast<int>(ownedCount);
          s.shardIndex = shard.index;
          s.shardCount = shard.count;
          {
            std::lock_guard<std::mutex> lock(tallyMutex);
            s.decided = done;
            s.responses = tally;
          }
          s.resumed = resumedDone;
          s.failures = static_cast<std::uint64_t>(std::max(0, failureCount.load()));
          s.retries = retryCount.load();
          s.timeouts = timeoutCount.load();
          s.queueDepth = static_cast<std::uint64_t>(
              std::max(0.0, CampaignMetrics::get().sweepQueueDepth.value()));
          s.queueBytes = queue.bytes();
          executor->fillStatus(s);
          s.elapsedS = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - campaignStart)
                           .count();
          const std::uint64_t fresh =
              s.decided > s.resumed ? s.decided - s.resumed : 0;
          if (s.elapsedS > 0.0 && fresh > 0) {
            s.trialsPerS = static_cast<double>(fresh) / s.elapsedS;
            if (ownedCount >= s.decided) {
              s.etaS = static_cast<double>(ownedCount - s.decided) / s.trialsPerS;
            }
          }
          s.interrupted = stopRequested();
          return s;
        });
  }

  // A restart's watchdog budget in base-timeout units (--trial-timeout-ms or
  // the golden multiple stays the base): it owes the iterations from its
  // bookmark up to the cap. Without this scaling a slow early-crash restart
  // times out under a deadline that is ample for the average draw.
  const auto restartBudget = [&](const SweepCapture& capture) {
    const int cap = result.golden.finalIteration * config_.maxIterationFactor;
    return static_cast<double>(cap - capture.restartIteration) /
           static_cast<double>(std::max(1, result.golden.finalIteration));
  };

  // One failed attempt of trial t: the timeout tally, and the retry tally
  // when another attempt follows.
  const auto failedAttempt = [&](std::size_t t, int att, const TrialFailure& failure,
                                 bool retrying) {
    if (failure.timeout) {
      CampaignMetrics::get().trialTimeouts.add();
      timeoutCount.fetch_add(1);
    }
    if (!retrying) return;
    CampaignMetrics::get().trialRetries.add();
    retryCount.fetch_add(1);
    EC_LOG_DEBUG("trial " << t << " attempt " << att << " failed ("
                          << failure.reason << "), retrying");
  };
  const auto backoff = [&](std::size_t t, int att) {
    const std::uint64_t ms = retryBackoffMs(res, config_.seed, t, att);
    if (ms == 0) return;
    CampaignMetrics::get().retryBackoff.observe(static_cast<double>(ms));
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  // A trial given up on after its last attempt.
  const auto recordFailure = [&](const TrialFailure& failure) {
    CampaignMetrics::get().trialFailures.add();
    EC_LOG_WARN("trial " << failure.trial << " abandoned after " << failure.attempts
                         << " attempt(s): " << failure.reason);
    if (telemetry::tracing()) {
      telemetry::TraceEvent("trial_failed")
          .field("trial", static_cast<std::uint64_t>(failure.trial))
          .field("crash_access", failure.crashAccessIndex)
          .field("kind", failure.kind)
          .field("timeout", failure.timeout)
          .field("attempts", failure.attempts)
          .field("reason", failure.reason)
          .emit();
    }
    failures[failure.trial] = failure;
    if (journal) journal->recordFailure(failure);
    const int count = failureCount.fetch_add(1) + 1;
    if (res.maxFailures >= 0 && count > res.maxFailures) budgetExceeded.store(true);
    recordDecided(nullptr);
  };

  // Decides trial t by restarting it from its capture, honouring isolation
  // and the retry budget. Exceptions propagate only when isolation is off
  // (the legacy all-or-nothing behaviour).
  const auto decideTrial = [&](std::size_t t, const SweepCapture& capture, int w) {
    const auto attempt = [&](CrashTestRecord& record) {
      telemetry::ScopedTimer trialTimer(CampaignMetrics::get().trialUs);
      return executor->restart(t, capture, w, restartBudget(capture), record);
    };
    int rejoinedAt = 0;
    if (!res.isolate) {
      CrashTestRecord record;
      rejoinedAt = attempt(record);
      records[t] = std::move(record);
    } else {
      const int maxAttempts = 1 + std::max(0, res.maxRetries);
      TrialFailure failure;
      failure.trial = t;
      failure.crashAccessIndex = crashIndices[t];
      bool completed = false;
      for (int att = 1; att <= maxAttempts && !completed; ++att) {
        failure.attempts = att;
        CrashTestRecord record;
        try {
          rejoinedAt = attempt(record);
          completed = true;
          records[t] = std::move(record);
        } catch (...) {
          describeFailure(failure, formatRegionPath(record.regionPath), timeoutMs);
          failedAttempt(t, att, failure, att < maxAttempts);
          if (att < maxAttempts) backoff(t, att);
        }
      }
      if (!completed) {
        recordFailure(failure);
        return;
      }
    }
    commitTrial(t, *records[t], rejoinedAt);
    if (journal) journal->recordTrial(t, *records[t]);
    recordDecided(&*records[t]);
    const int completedNow = newlyCompleted.fetch_add(1) + 1;
    if (res.stopAfterTrials > 0 && completedNow >= res.stopAfterTrials) {
      requestStop();
    }
  };

  // Restart worker: drain the capture queue. A stop request abandons the
  // queued captures (the queue is deep — draining it would decide most of
  // the campaign after the operator asked it to stop); in-flight restarts
  // finish and are journaled.
  const auto restartWorker = [&](int w) {
    try {
      while (!halted()) {
        const auto entry = queue.pop();
        if (!entry) return;
        decideTrial(entry->trial, *entry->capture, w);
      }
      queue.abort();
    } catch (...) {
      parkError();
      queue.abort();
    }
  };

  // --- The sweep ----------------------------------------------------------
  // ONE crashing run visits every pending crash point in ascending order and
  // captures it read-only. Under full monitoring it then runs on to the
  // golden final iteration and hands back the golden share; under sampled
  // monitoring a real CrashEvent armed at the last index ends it. Restarts
  // are consumed concurrently by the restart workers, overlapping with the
  // sweep itself.
  //
  // A sweep that dies is one failed attempt of the first crash point it had
  // not captured: that point's own crashing run executes the same accesses,
  // so it would die the same way. Once the point's retries are spent, its
  // trials become failures; either way the rest of the plan is swept again.
  // A sweep that dies after its last capture owes no trial anything; only
  // the golden share is lost, and the fallback below makes it up.
  std::optional<memsim::MemEvents> goldenShare;
  const auto produceSweep = [&](int slot) {
    const int maxAttempts = 1 + std::max(0, res.maxRetries);
    int attempts = 0;  // dead sweeps charged to sweepPlan's first point
    while (!sweepPlan.empty() && !halted()) {
      CampaignMetrics::get().sweepRuns.add();
      const std::size_t planned = sweepPlan.size();
      auto pending = sweepPlan.cbegin();
      SweepOutcome outcome;
      bool died = false;
      TrialFailure failure;
      std::string throwSite;
      try {
        outcome = executor->sweep(
            sweepPlan, slot,
            [&](std::shared_ptr<const SweepCapture> capture) {
              EC_CHECK_MSG(pending != sweepPlan.cend() &&
                               pending->first == capture->crashAccessIndex,
                           "sweep: capture out of order");
              const std::vector<std::size_t>& trials = (pending++)->second;
              CampaignMetrics::get().sweepCaptures.add();
              for (const std::size_t t : trials) {
                if (halted() || !queue.push({t, capture})) return false;
              }
              return !halted();
            },
            throwSite);
        EC_CHECK_MSG(outcome.captured || halted(),
                     "sweep ended before its last crash point");
      } catch (...) {
        if (!res.isolate) throw;
        describeFailure(failure, throwSite, timeoutMs);
        died = true;
      }
      const auto captured =
          static_cast<std::size_t>(std::distance(sweepPlan.cbegin(), pending));
      if (telemetry::tracing()) {
        telemetry::TraceEvent("sweep_end")
            .field("run", "sweep")
            .field("captures", static_cast<std::uint64_t>(captured))
            .field("planned", static_cast<std::uint64_t>(planned))
            .field("completed", outcome.captured)
            .field("golden_share", outcome.golden.has_value())
            .emit();
      }
      if (outcome.golden) goldenShare = outcome.golden;
      if (captured > 0) attempts = 0;
      sweepPlan.erase(sweepPlan.cbegin(), pending);
      if (died && sweepPlan.empty()) {
        EC_LOG_WARN("sweep run died after its last capture (" << failure.reason
                    << "); no trial is charged");
      }
      if (!died || sweepPlan.empty()) continue;

      CampaignMetrics::get().sweepFallbacks.add();
      const auto& [index, trials] = *sweepPlan.cbegin();
      const bool retrying = ++attempts < maxAttempts;
      EC_LOG_WARN("sweep run died (" << failure.reason << ") after " << captured << "/"
                  << planned << " capture(s); attempt " << attempts << "/" << maxAttempts
                  << " of crash point " << index);
      for (const std::size_t t : trials) failedAttempt(t, attempts, failure, retrying);
      if (retrying) {
        backoff(trials.front(), attempts);
        continue;
      }
      failure.crashAccessIndex = index;
      failure.attempts = attempts;
      for (const std::size_t t : trials) {
        failure.trial = t;
        recordFailure(failure);
      }
      sweepPlan.erase(sweepPlan.cbegin());
      attempts = 0;
    }
  };

  std::vector<std::thread> restartThreads;
  restartThreads.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) restartThreads.emplace_back(restartWorker, w);
  // The calling thread is the producer. Once it has nothing left to sweep
  // it joins the restart workers on the sweep's slot.
  try {
    produceSweep(threads);
  } catch (...) {
    parkError();
    queue.abort();
  }
  queue.close();
  restartWorker(threads);
  for (auto& thread : restartThreads) thread.join();

  if (journal) journal->close();

  if (firstError) std::rethrow_exception(firstError);

  if (budgetExceeded.load()) {
    throw std::runtime_error(
        "campaign aborted: " + std::to_string(failureCount.load()) +
        " trial failures exceeded the budget of " + std::to_string(res.maxFailures) +
        (res.journalPath.empty() ? "" : " — journal kept at " + res.journalPath));
  }

  // Only the owned slice owes a decision: an unowned trial left undecided is
  // another shard's work, not an interruption of this one.
  std::size_t undecided = 0;
  for (std::size_t t = 0; t < n; ++t) {
    if (owned(t) && !records[t] && !failures[t]) ++undecided;
  }
  result.interrupted = undecided > 0;
  if (result.interrupted) {
    EC_LOG_WARN("campaign interrupted: " << (ownedCount - undecided) << "/"
                                         << ownedCount << " trials decided"
                                         << (stopSignal() != 0
                                                 ? " (signal " +
                                                       std::to_string(stopSignal()) + ")"
                                                 : ""));
    if (telemetry::tracing()) {
      telemetry::TraceEvent("campaign_interrupted")
          .field("decided", static_cast<std::uint64_t>(ownedCount - undecided))
          .field("remaining", static_cast<std::uint64_t>(undecided))
          .field("signal", stopSignal())
          .emit();
    }
  }

  if (goldenShare) {
    result.golden.events = *goldenShare;
  } else if (fullMonitor && !result.interrupted) {
    // No sweep ran on to the end: a fully resumed journal, a shard with
    // nothing to sweep, or a death after the last capture. The simulated
    // golden run supplies its own share, accounted like a sweep's. An
    // interrupted campaign skips it: nothing reads an interrupted
    // campaign's golden events (the workflow returns at the interruption).
    CampaignMetrics::get().goldenFallbacks.add();
    EC_LOG_INFO("no sweep reached the golden final iteration; "
                "running the simulated golden run");
    telemetry::PhaseSpan goldenSpan("golden", CampaignMetrics::get().goldenUs);
    const GoldenStats simulated = goldenRun(nullptr, false);
    EC_CHECK_MSG(simulated.windowAccesses == result.golden.windowAccesses &&
                     simulated.finalIteration == result.golden.finalIteration,
                 "simulated golden run diverged from the native one — "
                 "app is non-deterministic");
    result.golden.events = simulated.events;
  }

  result.resumedTrials = resumedTrials;
  for (std::size_t t = 0; t < n; ++t) {
    if (records[t]) {
      result.tests.push_back(std::move(*records[t]));
    } else if (failures[t]) {
      result.failures.push_back(std::move(*failures[t]));
    }
  }

  {
    std::lock_guard<std::mutex> lock(profileMutex_);
    result.profile = std::move(profile_);
    profile_ = CampaignProfile{};
  }

  if (status) status->writeFinal(result.interrupted);

  if (config_.progress && !result.interrupted) meter.finish(responseTally(tally));
  if (telemetry::tracing()) {
    const auto counts = result.responseCounts();
    telemetry::TraceEvent("campaign_end")
        .field("tests", static_cast<std::uint64_t>(result.tests.size()))
        .field("s1", counts[0])
        .field("s2", counts[1])
        .field("s3", counts[2])
        .field("s4", counts[3])
        .field("recomputability", result.recomputability())
        .field("failures", static_cast<std::uint64_t>(result.failures.size()))
        .field("interrupted", result.interrupted)
        .emit();
  }
  return result;
}

SweepCapture CampaignRunner::capturePostmortem(const Runtime& rt, const CrashEvent& at,
                                               std::uint64_t crashIndex,
                                               std::size_t trial) const {
  telemetry::PhaseSpan postmortemSpan("postmortem", CampaignMetrics::get().postmortemUs,
                                      static_cast<std::int64_t>(trial));
  // The trial records the pre-drawn index it was armed for; the context
  // fields come from the access that crossed it.
  SweepCapture capture;
  capture.crashAccessIndex = crashIndex;
  capture.region = at.activeRegion;
  capture.regionPath = at.regionPath;
  capture.crashIteration = at.iteration;
  // NVCT post-mortem: inconsistency rates before the caches are dropped.
  for (const auto& object : rt.objects()) {
    if (!object.candidate) continue;
    capture.inconsistentRate[object.id] = rt.inconsistentRate(object.id);
    capture.snapshots[object.id] = config_.mode == SnapshotMode::NvmImage
                                       ? rt.dumpObjectNvm(object.id)
                                       : rt.dumpObjectCurrent(object.id);
  }
  capture.restartIteration = config_.mode == SnapshotMode::NvmImage
                                 ? rt.bookmarkedIterationNvm()
                                 : at.iteration;
  return capture;
}

SweepOutcome CampaignRunner::sweepRun(const GoldenStats& golden, const SweepPlan& plan,
                                      const std::atomic<bool>* cancel,
                                      const std::function<bool(SweepCapture&&)>& onCapture,
                                      std::string& throwSite) const {
  Runtime rt(config_.cache);
  rt.setBulk(config_.bulk);
  rt.setScan(config_.scan);
  rt.setPlan(config_.plan);
  applyMonitorRouting(rt);
  rt.setCancelFlag(cancel);
  rt.setTraceRun("sweep");
  armProfile(rt);
  // Under full monitoring the run goes on past its last capture: the rest of
  // it is the golden run, cache-simulated, and captures only read. Under
  // sampled monitoring the demoted objects never enter the caches, so the
  // tail would describe no golden run and a crash ends the sweep instead.
  const bool toEnd = config_.monitor.mode == MonitorMode::Full;
  SweepOutcome outcome;
  std::size_t captured = 0;
  // The sweep's own share: the run up to its last capture, as a run that
  // crashed there would have accounted it.
  memsim::MemEvents sweepEvents;
  CampaignProfile sweepProfile;
  try {
    // One span covers the whole sweep crashing run; each capture's
    // post-mortem gets its own span, stamped with the first trial sharing it.
    telemetry::PhaseSpan crashSpan("crash_run", CampaignMetrics::get().crashRunUs);
    std::vector<std::uint64_t> indices;
    indices.reserve(plan.size());
    for (const auto& [index, trials] : plan) indices.push_back(index);
    auto app = factory_();
    app->setup(rt);
    app->initialize(rt);
    if (!toEnd) rt.armCrash(indices.back());
    armWorkerFault(rt);
    auto pending = plan.cbegin();
    rt.armCaptures(std::move(indices), [&](const CrashEvent& at) {
      const auto& [index, trials] = *pending++;
      SweepCapture capture = capturePostmortem(rt, at, index, trials.front());
      if (telemetry::tracing()) {
        telemetry::TraceEvent("sweep_capture")
            .field("run", rt.traceRun())
            .field("crash_access", index)
            .field("region", at.activeRegion)
            .field("iteration", at.iteration)
            .field("trials", static_cast<std::uint64_t>(trials.size()))
            .emit();
      }
      if (++captured == plan.size()) {
        sweepEvents = rt.events();
        if (config_.profile) sweepProfile.accumulate(rt);
      }
      if (!onCapture(std::move(capture))) throw SweepAbort{};
    });
    const auto run = Driver::run(*app, rt, 1, golden.finalIteration);
    EC_CHECK_MSG(toEnd, "armed crash did not fire — app is non-deterministic");
    EC_CHECK_MSG(captured == plan.size() && !run.interrupted &&
                     run.finalIteration == golden.finalIteration &&
                     rt.windowAccesses() == golden.windowAccesses,
                 "sweep did not end where the golden run did — app is "
                 "non-deterministic");
    outcome.captured = true;
  } catch (const CrashEvent&) {
    // Sampled monitoring's arranged end: the last pending index was captured
    // on this very access, then the crash fired.
    outcome.captured = captured == plan.size();
  } catch (const SweepAbort&) {
    // Stop requested or the restart pipeline went away; not an error.
  } catch (...) {
    // The run died. The live stack is already unwound, so the runtime's
    // throw-site snapshot names where. Past the last capture the sweep's
    // share is complete and the golden share lost.
    throwSite = formatRegionPath(rt.throwRegionPath());
    rt.powerLoss();
    if (captured == plan.size()) {
      noteShare(sweepEvents, sweepProfile);
    } else {
      noteRun(rt);
    }
    throw;
  }
  if (!outcome.captured || !toEnd) {
    rt.powerLoss();
    noteRun(rt);
    return outcome;
  }
  // The golden share: the whole run, less what the captures' post-mortems
  // added (a golden run performs none).
  memsim::MemEvents share = rt.events();
  share.postmortemBlocksSkipped = 0;
  share.postmortemBlocksCompared = 0;
  share.postmortemBytesCompared = 0;
  CampaignProfile goldenProfile;
  if (config_.profile) goldenProfile.accumulate(rt);
  noteShare(sweepEvents, sweepProfile);
  noteShare(share, goldenProfile);
  outcome.golden = share;
  return outcome;
}

int CampaignRunner::runRestart(const GoldenStats& golden, const SweepCapture& capture,
                               std::size_t trial, const std::atomic<bool>* cancel,
                               CrashTestRecord& record) const {
  record = CrashTestRecord{};
  record.crashAccessIndex = capture.crashAccessIndex;
  record.region = capture.region;
  record.regionPath = capture.regionPath;
  record.crashIteration = capture.crashIteration;
  record.restartIteration = capture.restartIteration;
  record.inconsistentRate = capture.inconsistentRate;

  telemetry::PhaseSpan restartSpan("restart", CampaignMetrics::get().restartUs,
                                   static_cast<std::int64_t>(trial));
  Runtime restartRt(config_.cache);
  // Restarts run in direct-access mode: their outcome (S1-S4, extra
  // iterations) depends only on computed values, which direct mode preserves
  // bit-for-bit, and the paper's restarts execute natively anyway — only the
  // crashing run's cache-vs-NVM divergence needs the hierarchy simulated.
  restartRt.setDirect(true);
  restartRt.setBulk(config_.bulk);
  restartRt.setScan(config_.scan);
  restartRt.setPlan(config_.plan);
  restartRt.setCancelFlag(cancel);
  restartRt.setTraceRun("restart:" + std::to_string(trial));
  auto restartApp = factory_();
  restartApp->setup(restartRt);
  restartApp->initialize(restartRt);
  for (const auto& [id, bytes] : capture.snapshots) {
    restartRt.restoreObject(id, bytes);
  }

  const int cap = golden.finalIteration * config_.maxIterationFactor;
  const auto rerun = Driver::run(*restartApp, restartRt, record.restartIteration,
                                 cap, &golden.trajectory);
  noteRun(restartRt);

  if (rerun.rejoinedAt != 0) {
    // The state equals the golden run's at this boundary, so the rest of the
    // restart is the golden run's: it ends at the golden final iteration and
    // verifies exactly as the golden run did.
    CampaignMetrics::get().restartRejoins.add();
    CampaignMetrics::get().restartIterationsSkipped.add(
        static_cast<std::uint64_t>(golden.finalIteration - rerun.rejoinedAt));
    record.response = Response::S1;
    record.extraIterations = 0;
    record.note = golden.verification.detail;
  } else if (rerun.interrupted) {
    record.response = Response::S3;
    record.note = rerun.interruptReason;
  } else if (!rerun.verification.pass) {
    record.response = Response::S4;
    record.note = rerun.verification.detail;
  } else {
    record.extraIterations = rerun.finalIteration - golden.finalIteration;
    if (record.extraIterations <= 0) {
      record.extraIterations = 0;
      record.response = Response::S1;
    } else {
      record.response = Response::S2;
    }
    record.note = rerun.verification.detail;
  }
  // The trials/responses tallies and the trial_end trace are committed by
  // the parent (commitTrial) once the decision is final, so a forked
  // attempt's accounting lands campaign-side regardless of which process
  // simulated it.
  return rerun.rejoinedAt;
}

}  // namespace easycrash::crash
