// Trial executors: how one campaign trial runs (docs/INTERNALS.md "The
// campaign scheduler and its trial executors"). Internal to ec_crash.
//
// CampaignRunner::run() is the scheduler. It owns the sweep producer and
// its restart queue, retries and backoff, the journal, the live status and
// the recovery of a dead sweep, and it never asks how a run executes. Each
// piece of work goes to one TrialExecutor:
//
//   InProcessExecutor  runs on the scheduler's thread and owns the
//                      cooperative Watchdog (campaign.cpp);
//   ForkExecutor       runs in pre-forked worker children and owns the
//                      WorkerPool, the wire codec and the child-side request
//                      server (fork_executor.cpp).
//
// Both call the same CampaignRunner::runRestart / sweepRun, so the records,
// and the telemetry the runs emit, are the same under either.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "easycrash/crash/campaign.hpp"
#include "easycrash/telemetry/metrics.hpp"

namespace easycrash::crash {

struct CampaignStatus;

/// The campaign's registry instruments. The memsim.* counters mirror the
/// MemEvents fields, accumulated over every run a campaign simulates (the
/// golden share and the sweep crashing runs; native golden runs and
/// direct-mode restarts add nothing), so a metrics snapshot correlates 1:1
/// with Table 4.
struct CampaignMetrics {
  telemetry::Counter& loads;
  telemetry::Counter& stores;
  telemetry::Counter& nvmBlockReads;
  telemetry::Counter& nvmBlockWrites;
  telemetry::Counter& flushDirty;
  telemetry::Counter& flushClean;
  telemetry::Counter& flushNonResident;
  telemetry::Counter& flushInducedNvmWrites;
  telemetry::Counter& rangeLoads;
  telemetry::Counter& rangeStores;
  telemetry::Counter& rangeSplitBlocks;
  telemetry::Counter& rangeAccesses;
  telemetry::Counter& postmortemBlocksSkipped;
  telemetry::Counter& postmortemBlocksCompared;
  telemetry::Counter& postmortemBytesCompared;
  /// Adaptive region monitor (sampled mode only; all zero under --monitor
  /// full, so they never feed equivalence comparisons).
  telemetry::Counter& regionSamples;
  telemetry::Counter& regionSplits;
  telemetry::Counter& regionMerges;
  telemetry::Counter& monitorRuns;
  telemetry::Counter& monitorDemotedObjects;
  telemetry::Counter& monitorDemotedBytes;
  telemetry::Counter& monitorTrackedObjects;
  telemetry::Counter& trials;
  std::array<telemetry::Counter*, 4> responses;
  telemetry::Histogram& trialUs;
  telemetry::Counter& trialFailures;
  telemetry::Counter& trialRetries;
  telemetry::Counter& trialTimeouts;
  telemetry::Counter& resumedTrials;
  /// Sharded campaigns (--shard i/k): trials this shard owns out of the
  /// campaign's planned N. Zero when unsharded, so it never feeds
  /// equivalence comparisons.
  telemetry::Counter& shardOwnedTrials;
  telemetry::Counter& sweepRuns;
  telemetry::Counter& sweepCaptures;
  telemetry::Counter& sweepFallbacks;
  /// Campaigns whose golden share came from a simulated golden run after
  /// the drain, because no sweep ran on to the end.
  telemetry::Counter& goldenFallbacks;
  /// Fork executor: worker forks (initial + respawns), deaths the campaign
  /// consumed (split kill vs crash/oom/protocol), and respawns alone.
  telemetry::Counter& workerSpawns;
  telemetry::Counter& workerCrashes;
  telemetry::Counter& workerKills;
  telemetry::Counter& workerRespawns;
  /// Backoff slept between trial retries (resilience.retryBackoffMs).
  telemetry::Histogram& retryBackoff;
  /// Flight-recorder phase latencies (telemetry::PhaseSpan): run()'s golden
  /// runs, the sweep crashing run, the S1–S4 post-mortem capture, the
  /// restart.
  telemetry::Histogram& goldenUs;
  telemetry::Histogram& crashRunUs;
  telemetry::Histogram& postmortemUs;
  telemetry::Histogram& restartUs;
  /// Restarts that rejoined the golden trajectory and stopped early, and the
  /// iterations a full restart would have run after the rejoin (the golden
  /// run's final iteration minus the rejoin boundary, per rejoin).
  telemetry::Counter& restartRejoins;
  telemetry::Counter& restartIterationsSkipped;
  /// Live depth of the sweep's restart hand-off queue, and the most snapshot
  /// bytes it has held at once (a shared capture counts once). Gauges, not
  /// counters: both depend on how the producer and the workers interleave.
  telemetry::Gauge& sweepQueueDepth;
  telemetry::Gauge& restartQueuePeakBytes;

  static CampaignMetrics& get();
  void recordRun(const memsim::MemEvents& ev);
};

/// A trial attempt that failed outside the simulation's own exceptions: a
/// worker death (kind crashed/killed/oom/protocol) or an exception a worker
/// reported back (kind exception). Deliberately NOT std::exception-derived,
/// so the scheduler's catch(std::exception) cannot relabel it "exception".
struct AttemptFailure {
  std::string kind = "protocol";
  bool timeout = false;
  std::string reason;
  std::string regionPath;
};

class TrialExecutor {
 public:
  /// Receives each sweep capture in ascending crash-index order; returning
  /// false ends the sweep early.
  using OnCapture = std::function<bool(std::shared_ptr<const SweepCapture>)>;

  virtual ~TrialExecutor() = default;

  /// Trial t's restart from its sweep capture, on `slot`. Fills `record` in
  /// place. `budget` scales the deadline in golden-run units. Returns the
  /// iteration the restart rejoined the golden trajectory at (0 = it ran to
  /// the end; CampaignRunner::runRestart).
  virtual int restart(std::size_t t, const SweepCapture& capture, int slot,
                      double budget, CrashTestRecord& record) = 0;
  /// The single sweep crashing run over `plan` (CampaignRunner::sweepRun).
  /// When the run dies it throws, with the formatted region path it died in
  /// left in `throwSite` (or carried by the AttemptFailure), and the
  /// scheduler charges the death to the first uncaptured point, if any.
  virtual SweepOutcome sweep(const SweepPlan& plan, int slot,
                             const OnCapture& onCapture, std::string& throwSite) = 0;
  /// Worker tallies for the live status snapshot (fork only).
  virtual void fillStatus(CampaignStatus& status) const { (void)status; }
};

/// The fork executor (fork_executor.cpp) over `slots` worker children.
/// `captureBytes` sizes the per-slot snapshot arenas; `timeoutMs` is the
/// base deadline (0 = none) the parent enforces with SIGKILL.
std::unique_ptr<TrialExecutor> makeForkExecutor(const CampaignRunner& runner,
                                                const GoldenStats& golden, int slots,
                                                std::size_t captureBytes,
                                                std::uint64_t timeoutMs);

/// Arm the campaign's injected fault (--inject) on a crashing run. A no-op
/// outside a fork worker child.
void armWorkerFault(runtime::Runtime& rt);

}  // namespace easycrash::crash
