// Application interface for instrumented HPC kernels.
//
// Each benchmark (src/apps) implements IApp: it allocates tracked data
// objects in setup(), fills them in initialize(), performs one main-loop
// iteration per iterate() call (marking code regions on the way), and
// provides the application-specific acceptance verification the paper relies
// on (§2.2). The Driver below owns the main-loop protocol shared by every
// app: iterator bookmarking, persist points, convergence, iteration caps.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "easycrash/runtime/runtime.hpp"

namespace easycrash::runtime {

struct AppInfo {
  std::string name;
  std::string description;  ///< Table 1 "Description" column
};

/// Result of the application-specific acceptance verification.
struct VerifyOutcome {
  bool pass = false;
  double metric = 0.0;  ///< app-specific figure (residual, error norm, ...)
  std::string detail;
};

/// The state contract every app keeps, on which restarts that rejoin the
/// golden trajectory rely (Driver::run, docs/INTERNALS.md "Restarts rejoin
/// the golden trajectory"): what iterate(), converged() and verify() compute
/// depends on nothing but
///   - the tracked objects' bytes (Runtime::stateDigest covers every object
///     not declared read-only, so a read-only object must really stay as
///     initialize() left it),
///   - the iteration number, and
///   - host members that setup()/initialize() fix and nothing changes later.
/// Host scratch that iterate() fully rewrites before reading it is allowed,
/// and so is a host value iterate() derives from tracked state and only
/// verify() reads (the last iteration rewrites it before verify() runs).
/// Nothing may carry over from one iterate() call to the next outside
/// tracked memory: no accumulating host counter, no host RNG state.
class IApp {
 public:
  virtual ~IApp() = default;

  [[nodiscard]] virtual const AppInfo& info() const = 0;

  /// Allocate tracked data objects and declare the region count.
  virtual void setup(Runtime& rt) = 0;
  /// Fill initial values (deterministic; also runs on restart).
  virtual void initialize(Runtime& rt) = 0;
  /// One main-computation-loop iteration (1-based). May throw AppInterrupt.
  virtual void iterate(Runtime& rt, int iteration) = 0;
  /// Nominal iteration count of the original execution (Table 1 last column).
  [[nodiscard]] virtual int nominalIterations() const = 0;
  /// Stop condition checked after each iteration. The default runs exactly
  /// nominalIterations(); convergence-driven apps override it (and may need
  /// extra iterations after a restart — the paper's S2 response).
  [[nodiscard]] virtual bool converged(Runtime& rt, int iteration) {
    (void)rt;
    return iteration >= nominalIterations();
  }
  /// Application-specific acceptance verification (paper §2.2).
  [[nodiscard]] virtual VerifyOutcome verify(Runtime& rt) = 0;
};

using AppFactory = std::function<std::unique_ptr<IApp>()>;

/// Outcome of driving an app (a full run, a crashed run, or a restart run).
struct RunResult {
  int finalIteration = 0;      ///< last completed main-loop iteration
  int iterationsExecuted = 0;  ///< iterations executed in this run
  bool reachedCap = false;     ///< hit maxIterations without converging
  bool interrupted = false;    ///< AppInterrupt (paper S3)
  std::string interruptReason;
  /// Iteration boundary at which a run following a golden trajectory found
  /// its state equal to the golden run's and stopped; 0 when it ran to the
  /// end. A rejoined run executes neither its remaining iterations nor
  /// verify(): its outcome is the golden run's (`verification` stays empty).
  int rejoinedAt = 0;
  VerifyOutcome verification;
};

/// The golden run's state digest after each of its main-loop iterations:
/// digests[i - 1] is the state after iteration i. Empty when the golden run
/// is no trajectory to rejoin (it stopped at its iteration cap instead of
/// converging, so a restart on the same states would run on past that cap).
struct GoldenTrajectory {
  std::vector<StateDigest> digests;
};

/// Drives the shared main-loop protocol. CrashEvent propagates to the caller
/// (the crash-test campaign); AppInterrupt is converted into the result.
class Driver {
 public:
  /// Run iterations [fromIteration .. converged], capped at maxIterations.
  /// Set maxIterations <= 0 to cap at nominalIterations().
  ///
  /// With `golden`, the run follows that trajectory: after 1, 2, 4, 8, ...
  /// executed iterations it compares the state digest at iteration boundary
  /// `it` with the golden run's, and on a match returns with rejoinedAt =
  /// it. Under the app state contract (IApp) the rest of the run is then the
  /// golden run's, so its outcome is the golden outcome. Only boundaries
  /// before the golden run's final iteration are compared (the last
  /// iteration must still run to rewrite what verify() reads), and only when
  /// maxIterations lets the run reach that final iteration.
  static RunResult run(IApp& app, Runtime& rt, int fromIteration = 1,
                       int maxIterations = 0,
                       const GoldenTrajectory* golden = nullptr);

  /// Full fresh execution: setup + initialize + run + verify. With `record`,
  /// stores the state digest after every iteration (the golden trajectory).
  static RunResult freshRun(IApp& app, Runtime& rt, int maxIterations = 0,
                            GoldenTrajectory* record = nullptr);

 private:
  static RunResult drive(IApp& app, Runtime& rt, int fromIteration,
                         int maxIterations, GoldenTrajectory* record,
                         const GoldenTrajectory* golden);
};

}  // namespace easycrash::runtime
