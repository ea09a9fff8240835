#include "easycrash/runtime/app.hpp"

#include "easycrash/common/check.hpp"

namespace easycrash::runtime {

RunResult Driver::run(IApp& app, Runtime& rt, int fromIteration, int maxIterations,
                      const GoldenTrajectory* golden) {
  return drive(app, rt, fromIteration, maxIterations, nullptr, golden);
}

RunResult Driver::freshRun(IApp& app, Runtime& rt, int maxIterations,
                           GoldenTrajectory* record) {
  app.setup(rt);
  app.initialize(rt);
  return drive(app, rt, 1, maxIterations, record, nullptr);
}

RunResult Driver::drive(IApp& app, Runtime& rt, int fromIteration, int maxIterations,
                        GoldenTrajectory* record, const GoldenTrajectory* golden) {
  if (maxIterations <= 0) maxIterations = app.nominalIterations();
  // Boundaries the follower may rejoin at: before the golden run's final
  // iteration, and only if this run's cap lets it reach that iteration.
  const int goldenFinal =
      golden == nullptr ? 0 : static_cast<int>(golden->digests.size());
  const int lastCheckable = goldenFinal <= maxIterations ? goldenFinal - 1 : 0;
  int nextCheck = 1;  // executed-iteration count of the next comparison
  RunResult result;
  rt.setCrashWindow(true);
  try {
    for (int it = fromIteration; it <= maxIterations; ++it) {
      // Bookmark first: a crash inside this iteration restarts from it.
      rt.bookmarkIteration(it);
      app.iterate(rt, it);
      rt.mainLoopIterationEnd(it);
      result.finalIteration = it;
      ++result.iterationsExecuted;
      if (record != nullptr) record->digests.push_back(rt.stateDigest());
      if (result.iterationsExecuted == nextCheck) {
        nextCheck *= 2;
        if (it >= 1 && it <= lastCheckable &&
            rt.stateDigest() == golden->digests[static_cast<std::size_t>(it - 1)]) {
          rt.setCrashWindow(false);
          result.rejoinedAt = it;
          return result;
        }
      }
      if (app.converged(rt, it)) break;
      if (it == maxIterations) result.reachedCap = true;
    }
  } catch (const AppInterrupt& interrupt) {
    rt.setCrashWindow(false);
    result.interrupted = true;
    result.interruptReason = interrupt.reason;
    if (record != nullptr) record->digests.clear();
    return result;
  }
  rt.setCrashWindow(false);
  // A run that stopped at its cap is no trajectory to rejoin: a restart on
  // the same states runs on to its own, larger cap.
  if (record != nullptr && result.reachedCap) record->digests.clear();
  result.verification = app.verify(rt);
  return result;
}

}  // namespace easycrash::runtime
