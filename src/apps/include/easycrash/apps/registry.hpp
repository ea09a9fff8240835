// Registry of the 11 instrumented benchmarks (paper Table 1).
//
// Each entry provides a factory producing a fresh application instance; a
// fresh instance is created for every (re)run of a crash test so that no host
// state leaks between simulated executions.
#pragma once

#include <string>
#include <vector>

#include "easycrash/runtime/app.hpp"

namespace easycrash::apps {

struct BenchmarkEntry {
  std::string name;
  std::string description;  ///< Table 1 "Description"
  runtime::AppFactory factory;
};

/// All benchmarks, in the paper's Table 1 order:
/// cg, mg, ft, is, bt, lu, sp, ep, botsspar, lulesh, kmeans.
[[nodiscard]] const std::vector<BenchmarkEntry>& allBenchmarks();

/// Factory lookup by name; throws std::runtime_error for unknown names.
[[nodiscard]] const BenchmarkEntry& findBenchmark(const std::string& name);

/// The subset evaluated with EasyCrash in the paper's Section 6 (EP is
/// excluded there: its recomputability stays ~0 even with EasyCrash).
[[nodiscard]] std::vector<std::string> evaluatedBenchmarkNames();

// Individual factories (exposed for tests and focused studies).
[[nodiscard]] runtime::AppFactory makeCg();
[[nodiscard]] runtime::AppFactory makeMg();
[[nodiscard]] runtime::AppFactory makeFt();
[[nodiscard]] runtime::AppFactory makeIs();
[[nodiscard]] runtime::AppFactory makeBt();
[[nodiscard]] runtime::AppFactory makeLu();
[[nodiscard]] runtime::AppFactory makeSp();
[[nodiscard]] runtime::AppFactory makeEp();
[[nodiscard]] runtime::AppFactory makeBotsspar();
[[nodiscard]] runtime::AppFactory makeLulesh();
[[nodiscard]] runtime::AppFactory makeKmeans();

/// FT's acceptance constants: the direct-DFT reference checksum of every
/// (iteration, sample) pair in checksum-array order, and the expected
/// Parseval energy after the final iteration. Both derive from FT's
/// LCG-generated initial spectrum alone, so every FT instance shares one
/// copy computed on first use.
struct FtReference {
  std::vector<double> checksums;
  double energy = 0.0;
};
[[nodiscard]] const FtReference& ftReference();

// Scaled variants (`nvct --scale`): the factor multiplies the app's problem
// size (grid edge for cg/mg, point count for kmeans); scale 1 is the exact
// default instance. Only these three scale — their verify disciplines are
// size-independent (see EXPERIMENTS.md "Scaled footprints").
[[nodiscard]] runtime::AppFactory makeCgScaled(int scale);
[[nodiscard]] runtime::AppFactory makeMgScaled(int scale);
[[nodiscard]] runtime::AppFactory makeKmeansScaled(int scale);

/// Factory for `name` at `scale`. Scale 1 returns the registry factory for
/// any app; scale > 1 throws std::runtime_error unless the app scales.
[[nodiscard]] runtime::AppFactory scaledBenchmarkFactory(const std::string& name,
                                                         int scale);

}  // namespace easycrash::apps
